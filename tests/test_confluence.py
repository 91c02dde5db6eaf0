"""Soundness gate for treating normal forms as a linear basis."""

import itertools
import random

import pytest

from suq2 import (
    Scalar,
    confluence_check,
    suq2_presentation,
    torus_presentation,
    twisted_tensor,
    uq2_presentation,
)
from suq2.algebra import (
    Generator,
    Presentation,
    RewriteRule,
    _accumulate,
    _ambiguity_words,
    deglex_key,
)
from suq2.cli import ALGEBRAS, _algebra
from suq2.errors import RewriteLimitError

SU_GENS = (
    Generator("g", 1, 1),
    Generator("g'", -1, 0),
    Generator("a", 0, 3),
    Generator("a'", 0, 2),
)


def exhaustive_critical_pairs(pres, maxlen):
    """Reference oracle: enumerate every word up to ``maxlen``.

    For each word with overlapping redexes, apply each overlapping redex once,
    fully reduce, and return the words whose results disagree.  This is the
    exhaustive search that the diamond-lemma check replaced; it proves
    nothing about longer words but needs no termination order.
    """
    diverging = []
    for length in range(2, maxlen + 1):
        for word in itertools.product(range(pres.n_gens), repeat=length):
            redexes = _redexes_by_slices(pres, word)
            outcomes = set()
            for (p1, r1), (p2, r2) in itertools.combinations(redexes, 2):
                lo, hi = sorted([(p1, r1), (p2, r2)], key=lambda t: t[0])
                if hi[0] >= lo[0] + len(lo[1].lhs):
                    continue
                for pos, rule in ((p1, r1), (p2, r2)):
                    cut = pos + len(rule.lhs)
                    acc = {}
                    for coeff, rw in rule.rhs:
                        for c2, w2 in pres.reduce_word(word[:pos] + rw + word[cut:]):
                            s = acc.get(w2)
                            s = coeff * c2 if s is None else s + coeff * c2
                            if s.is_zero():
                                acc.pop(w2, None)
                            else:
                                acc[w2] = s
                    outcomes.add(frozenset(acc.items()))
            if len(outcomes) > 1:
                diverging.append(word)
    return diverging


def reduce_word_random(pres, word, rng, max_steps=20_000):
    """Reference oracle: the normal form of ``word`` under a random rule order.

    Each step picks a pending word and one of its redexes at random.  Under a
    terminating, confluent rule set the result is ``pres.reduce_word(word)``
    whatever the choices; this is the sampling cross-check that the
    diamond-lemma proof replaced.  Returns a ``{word: coefficient}`` dict.
    """
    pending = {tuple(word): Scalar.one()}
    done = {}
    steps = 0
    while pending:
        w = rng.choice(sorted(pending))
        c = pending.pop(w)
        redexes = _redexes_by_slices(pres, w)
        if not redexes:
            _accumulate(done, w, c)
            continue
        steps += 1
        if steps > max_steps:
            raise RewriteLimitError("randomised reduction exceeded step budget")
        pos, rule = redexes[rng.randrange(len(redexes))]
        cut = pos + len(rule.lhs)
        for coeff, rw in rule.rhs:
            _accumulate(pending, w[:pos] + rw + w[cut:], c * coeff)
    return done


def _order_dependent_words(pres, rng, count, maxlen):
    """Seeded words whose random-order normal form differs from ``reduce_word``."""
    found = []
    for _ in range(count):
        word = tuple(rng.randrange(pres.n_gens) for _ in range(rng.randint(1, maxlen)))
        expected = {w: c for c, w in pres.reduce_word(word)}
        if reduce_word_random(pres, word, rng) != expected:
            found.append(word)
    return found


def _looping_presentation():
    qb = Scalar.qbar()
    return Presentation(
        "looping",
        SU_GENS,
        [
            RewriteRule((2, 0), ((qb, (0, 2)),)),
            RewriteRule((0, 2), ((qb.inverse(), (2, 0)),)),
        ],
    )


def _diverging_presentation():
    # U U' -> 1 and U' U -> 2 disagree on the overlap U U' U
    one, two = Scalar.one(), Scalar.from_int(2)
    return Presentation(
        "diverging",
        (Generator("U", 0, 1), Generator("U'", 0, 0)),
        [
            RewriteRule((0, 1), ((one, ()),)),
            RewriteRule((1, 0), ((two, ()),)),
            RewriteRule((0, 0), ((one, ()),)),  # U^2 -> 1 overlaps both ways
        ],
    )


@pytest.mark.parametrize(
    "pres_factory", [suq2_presentation, torus_presentation, uq2_presentation]
)
def test_shipped_presentations_confluent(pres_factory):
    report = confluence_check(pres_factory())
    assert report.ok, report.divergences
    assert report.critical_pairs > 0


def test_tensor_square_confluent():
    A = suq2_presentation()
    AA = twisted_tensor([A, A], A.params["zeta"])
    report = confluence_check(AA)
    assert report.ok, report.divergences


def test_looping_rule_pair_is_flagged():
    looping = _looping_presentation()
    report = confluence_check(looping)
    assert not report.ok
    assert any(d["kind"] == "non-termination" for d in report.divergences)


def test_looping_rule_pair_fails_certificate_without_reducing(monkeypatch):
    looping = _looping_presentation()
    assert looping.deglex_violation == (0, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("no word may be reduced without a certificate")

    monkeypatch.setattr(looping, "reduce_word", refuse)
    report = confluence_check(looping)
    assert report.divergences == [{"kind": "non-termination", "rule": [0, 2]}]
    assert report.certificate is None
    assert (report.words_checked, report.critical_pairs) == (0, 0)


@pytest.mark.parametrize(
    "rhs_word, violation",
    [
        ((), None),
        ((0, 0), None),
        ((0, 1), (0, 1)),
        ((1, 0), (0, 1)),
        ((0, 0, 0), (0, 1)),
    ],
    ids=["shorter", "lex-smaller", "equal", "lex-larger", "longer"],
)
def test_certificate_needs_strictly_smaller_words(rhs_word, violation):
    gens = (Generator("x", 0, 1), Generator("y", 0, 0))
    pres = Presentation(
        "shrink", gens, [RewriteRule((0, 1), ((Scalar.from_int(2), rhs_word),))]
    )
    assert pres.deglex_violation == violation


@pytest.mark.parametrize(
    "lhs, rhs_word, message",
    [
        ((0, 0), (1,), "not degree-homogeneous"),
        # a left-hand side that is not a letter pair would never fire, so its
        # confluence proof would be vacuous
        ((0,), (0,), "two letters"),
        ((0, 0, 0), (), "two letters"),
        ((), (), "two letters"),
        # -1 would wrap round to U'
        ((0, 1), (-1,), "out of range"),
        ((0, 5), (), "out of range"),
    ],
    ids=[
        "inhomogeneous",
        "one-letter",
        "three-letters",
        "empty",
        "negative-index",
        "index-past-the-table",
    ],
)
def test_presentation_refuses_rules_the_engine_cannot_apply(lhs, rhs_word, message):
    gens = (Generator("U", 1, 1), Generator("U'", -1, 0))
    rule = RewriteRule(lhs, ((Scalar.one(), rhs_word),))
    with pytest.raises(ValueError, match=message):
        Presentation("unusable", gens, [rule])


def test_report_stops_at_ten_divergences():
    # Uk Uk' -> 1 and Uk' Uk -> 2 disagree on both overlaps of each of six pairs
    one, two = Scalar.one(), Scalar.from_int(2)
    gens, rules = [], []
    for k in range(6):
        u, us = 2 * k, 2 * k + 1
        gens += [Generator(f"U{k}", 0, us), Generator(f"U{k}'", 0, u)]
        rules += [RewriteRule((u, us), ((one, ()),)), RewriteRule((us, u), ((two, ()),))]
    pres = Presentation("six-pairs", gens, rules)
    assert len(_ambiguity_words(pres)) == 12
    report = confluence_check(pres)
    assert report.words_checked == 10
    assert len(report.divergences) == 10
    assert all(d["kind"] == "critical-pair" for d in report.divergences)


def test_reduction_past_the_step_cap_is_a_non_termination_entry(monkeypatch):
    pres = _diverging_presentation()

    def over_budget(pending, budget):
        raise RewriteLimitError(f"reduction exceeded {budget} steps")

    monkeypatch.setattr(pres, "_rewrite", over_budget)
    words = _ambiguity_words(pres)
    assert words
    report = confluence_check(pres)
    assert report.divergences == [{"kind": "non-termination", "word": list(w)} for w in words]
    assert (report.words_checked, report.critical_pairs) == (len(words), 0)


AMBIGUITIES = {
    "suq2": 8,
    "torus": 12,
    "uq2": 32,
    "suq2-tensor2": 72,
    "suq2-tensor3": 256,
    "suq2-flip": 8,
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_certificate_and_ambiguity_counts(name):
    ambiguities = AMBIGUITIES[name]
    pres = _algebra(name)
    assert pres.deglex_violation is None
    report = confluence_check(pres)
    assert report.ok, report.divergences
    assert report.certificate["order"] == "deglex"
    assert report.certificate["ambiguities"] == ambiguities
    assert len(report.certificate["generators"]) == pres.n_gens
    assert report.words_checked == ambiguities
    # every shipped ambiguity word has exactly two matching rules
    assert report.critical_pairs == ambiguities


@pytest.mark.parametrize(
    "pres_factory",
    [
        suq2_presentation,
        torus_presentation,
        uq2_presentation,
        lambda: _algebra("suq2-tensor2"),
    ],
    ids=["suq2", "torus", "uq2", "tensor2"],
)
def test_diamond_lemma_agrees_with_exhaustive_oracle(pres_factory):
    pres = pres_factory()
    assert confluence_check(pres).ok
    assert exhaustive_critical_pairs(pres, 4) == []


@pytest.mark.parametrize("slot", range(9))
def test_mutated_suq2_rules_flagged_by_both(slot):
    # one seeded factor on each of the nine right-hand coefficients of R1-R7
    rng = random.Random(slot)
    q, qb, one = Scalar.q(), Scalar.qbar(), Scalar.one()
    rules = list(suq2_presentation().rules.values())
    k, t = [(k, t) for k, r in enumerate(rules) for t in range(len(r.rhs))][slot]
    factor = rng.choice([Scalar.from_int(2), -one, q, qb.inverse()])
    rhs = list(rules[k].rhs)
    rhs[t] = (rhs[t][0] * factor, rhs[t][1])
    rules[k] = RewriteRule(rules[k].lhs, tuple(rhs))
    mutant = Presentation("mutant", SU_GENS, rules)
    report = confluence_check(mutant)
    assert mutant.deglex_violation is None
    assert not report.ok
    assert {d["kind"] for d in report.divergences} == {"critical-pair"}
    assert exhaustive_critical_pairs(mutant, 4)


def test_genuinely_divergent_rules_reported():
    report = confluence_check(_diverging_presentation())
    assert not report.ok
    assert any(d["kind"] == "critical-pair" for d in report.divergences)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_random_order_oracle_agrees_with_reduce_word(name):
    pres = _algebra(name)
    maxlen = 5 if name == "uq2" else 4
    assert _order_dependent_words(pres, random.Random(1), 500, maxlen) == []


def test_random_order_oracle_flags_diverging_rules():
    # the engine reports these rules as a critical pair (test above)
    diverging = _diverging_presentation()
    assert _order_dependent_words(diverging, random.Random(1), 500, 4)


def test_randomized_reduction_matches_deterministic():
    A = suq2_presentation()
    assert _order_dependent_words(A, random.Random(3), 50, 5) == []


def _fields(r):
    return r.ok, r.words_checked, r.critical_pairs, r.certificate, r.divergences


def test_inert_keywords_leave_the_report_unchanged():
    # the confluence-tensor benchmark still passes maxlen, trials and seed
    T3 = _algebra("suq2-tensor3")
    assert _fields(confluence_check(T3, maxlen=4, trials=500, seed=9)) == _fields(
        confluence_check(T3)
    )


def test_suq2_proof_never_reads_the_closed_form(monkeypatch):
    # the proof is about the rules: it reduces through the rewriting loop
    # alone, so a closed form that raises and an empty memo change nothing
    A = suq2_presentation()
    proved = _fields(confluence_check(A))
    assert proved[0]

    def refuse(word, letter):
        raise AssertionError("the confluence proof read the closed form")

    monkeypatch.setattr(A, "times_letter", refuse)
    monkeypatch.setattr(A, "_memo", {})
    assert _fields(confluence_check(A)) == proved
    assert A._memo == {}


# -- the redex finder against the two-slice reference ------------------------------


def _redexes_by_slices(pres, word):
    """Reference oracle: the redex finder that matched by slicing each position.

    Every ``(position, rule)`` that matches in ``word``, leftmost first.
    """
    rules = pres.rules
    out = []
    for p in range(len(word) - 1):
        rule = rules.get(word[p : p + 2])
        if rule is not None:
            out.append((p, rule))
    return out


def _finder_disagreements(pres, words):
    """Words whose leftmost redex differs from the reference's first one."""
    out = []
    for word in words:
        expected = _redexes_by_slices(pres, word)
        if pres._first_redex(word) != (expected[0] if expected else None):
            out.append(word)
    return out


def _all_words(pres, maxlen):
    return [
        w for k in range(maxlen + 1) for w in itertools.product(range(pres.n_gens), repeat=k)
    ]


@pytest.mark.parametrize("name", ALGEBRAS)
def test_redex_finder_matches_two_slice_reference_on_short_words(name):
    pres = _algebra(name)
    assert _finder_disagreements(pres, _all_words(pres, 4)) == []


@pytest.mark.parametrize("name", ["suq2-tensor3", "uq2"])
def test_redex_finder_matches_two_slice_reference_on_seeded_long_words(name):
    pres = _algebra(name)
    rng = random.Random(27)
    words = [
        tuple(rng.randrange(pres.n_gens) for _ in range(rng.randint(5, 30))) for _ in range(500)
    ]
    assert _finder_disagreements(pres, words) == []


# -- the rewriting loop's step counts ----------------------------------------------

# Exact step counts of ``Presentation._rewrite`` on three words: one step per
# pending word taken, irreducible or not.  A change to the loop's kernel keeps
# its strategy, so these counts must not move.
STEP_COUNTS = [
    ("uq2", (3,) * 6 + (2,) * 6, 133),
    ("suq2-tensor3", (11, 6, 3, 10, 1, 7, 2, 9, 4, 0, 11, 5, 8, 2, 7, 10), 258),
    ("torus", (2, 3, 2, 2, 1, 3, 0, 2, 0, 1, 3, 3, 0, 2, 1, 0), 17),
]


@pytest.mark.parametrize(
    "name, word, steps", STEP_COUNTS, ids=["uq2-a'^6a^6", "suq2-tensor3-mixed", "torus"]
)
def test_rewrite_limit_fires_one_step_below_the_step_count(name, word, steps):
    pres = _algebra(name)
    with pytest.raises(RewriteLimitError, match=f"exceeded {steps - 1} steps"):
        pres._rewrite({word: Scalar.one()}, steps - 1)
    done = pres._rewrite({word: Scalar.one()}, steps)
    assert tuple((done[w], w) for w in sorted(done, key=deglex_key)) == pres.reduce_word(word)


def test_looping_rules_end_as_non_termination_at_the_step_cap(monkeypatch):
    looping = _looping_presentation()
    with pytest.raises(RewriteLimitError, match="exceeded 10000 steps"):
        looping._rewrite({(2, 0): Scalar.one()}, 10_000)
    # past the certificate, the proof reduces each ambiguity until the cap stops it
    monkeypatch.setattr(looping, "deglex_violation", None)
    calls = []
    finder = Presentation._first_redex

    def counted(self, word):
        calls.append(word)
        return finder(self, word)

    monkeypatch.setattr(Presentation, "_first_redex", counted)
    report = confluence_check(looping)
    words = _ambiguity_words(looping)
    assert words == [(0, 2, 0), (2, 0, 2)]
    assert report.divergences == [{"kind": "non-termination", "word": list(w)} for w in words]
    assert (report.words_checked, report.critical_pairs) == (2, 0)
    # one redex lookup per step: exactly 10,000 on each ambiguity's first branch
    assert len(calls) == 2 * 10_000


def test_control_reports_are_unchanged():
    assert _fields(confluence_check(_looping_presentation())) == (
        False, 0, 0, None, [{"kind": "non-termination", "rule": [0, 2]}]
    )
    certificate = {"order": "deglex", "generators": ["U", "U'"], "ambiguities": 5}
    divergences = [
        {"kind": "critical-pair", "word": w}
        for w in ([0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 1])
    ]
    assert _fields(confluence_check(_diverging_presentation())) == (
        False, 5, 1, certificate, divergences
    )
