"""The truncated ladder oracle and its agreement with the rewrite engine."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from suq2 import PoleError, Scalar, suq2_presentation
from suq2 import numeric
from suq2.algebra import Element, Presentation, RewriteRule

A = suq2_presentation()
ONE = Scalar.one()


def _wrong_r2():
    """The suq2 presentation with R2 miswritten as a g -> q g a (q for qb)."""
    q = A.params["q"]
    rules = [
        RewriteRule(r.lhs, ((q, (0, 2)),)) if r.lhs == (2, 0) else r
        for r in A.rules.values()
    ]
    return Presentation("wrong-r2", A.generators, rules, params=dict(A.params))


def _dense(rep, terms):
    """Sum of coeff * (product of letter matrices) by plain dense products."""
    letters = rep.letter_matrices()
    total = np.zeros((rep.dim, rep.dim), dtype=complex)
    for coeff, word in terms:
        mat = np.eye(rep.dim, dtype=complex)
        for i in word:
            mat = mat @ letters[i]
        total += coeff.evaluate(rep.qval) * mat
    return total


def _dense_deviation(rep, pres, raw, depth):
    normal = pres.normalize_raw(raw)
    diff = _dense(rep, raw) - _dense(rep, [(c, w) for w, c in normal.terms()])
    return float(np.max(np.abs(diff[:, rep.interior_mask(depth)])))


def _letter_columns(rep):
    """Reference column form of each letter matrix: (target_row, amplitude) per column.

    Both arrays have a sink slot at index ``dim``: a killed column maps there
    with amplitude 0 and the sink maps to itself, so a word is evaluated by
    plain gathers and a killed column stays killed.
    """
    forms = []
    for mat in rep.letter_matrices():
        rows, cols = np.nonzero(mat)
        assert len(set(cols.tolist())) == len(cols), "letter matrix is not column-sparse"
        perm = np.full(rep.dim + 1, rep.dim, dtype=int)
        amp = np.zeros(rep.dim + 1, dtype=complex)
        perm[cols] = rows
        amp[cols] = mat[rows, cols]
        forms.append((perm, amp))
    return forms


def _gathered_word(letters, word, ncols):
    """(target_row, amplitude) of one word on the columns ``0 .. ncols-1``, two gathers per letter."""
    idx = np.arange(ncols)
    val = np.ones(ncols, dtype=complex)
    for i in reversed(word):
        perm, amp = letters[i]
        val = val * amp[idx]
        idx = perm[idx]
    return idx, val


def _gathered_element(rep, x):
    """Dense matrix of ``x`` by column gathers, summed in term order like ``evaluate_element``."""
    letters = _letter_columns(rep)
    # one extra sink row collects the killed columns and is dropped at the end
    total = np.zeros((rep.dim + 1, rep.dim), dtype=complex)
    cols = np.arange(rep.dim)
    for word, coeff in x.terms():
        idx, val = _gathered_word(letters, word, rep.dim)
        total[idx, cols] += coeff.evaluate(rep.qval) * val
    return total[: rep.dim]


def _keyed_side(rep, letters, terms, ncols):
    """Surviving entries of all terms as flat ``row * ncols + col`` keys and values."""
    keys, values = [np.empty(0, dtype=int)], [np.empty(0, dtype=complex)]
    for coeff, word in terms:
        idx, val = _gathered_word(letters, word, ncols)
        keep = np.flatnonzero(idx < rep.dim)
        keys.append(idx[keep] * ncols + keep)
        values.append(coeff.evaluate(rep.qval) * val[keep])
    return np.concatenate(keys), np.concatenate(values)


def _keyed_merge_deviation(rep, pres, raw, depth):
    """Reference oracle: both sides merged by entry key, each summed with ``bincount``.

    Words are evaluated by column gathers over the letter matrices, not by
    the radial kernel under test.

    ``bincount`` adds the weights in input order starting from 0.0, so each
    sum is the one a dense accumulation into a zeroed matrix produces.
    """
    ncols = int(rep.interior_mask(depth).sum())
    letters = _letter_columns(rep)
    dkeys, dvals = _keyed_side(rep, letters, raw, ncols)
    normal = pres.normalize_raw(raw)
    nkeys, nvals = _keyed_side(rep, letters, [(c, w) for w, c in normal.terms()], ncols)
    keys, inverse = np.unique(np.concatenate((dkeys, nkeys)), return_inverse=True)
    if not len(keys):
        return 0.0
    size = len(keys)

    def summed(inv, vals):
        out = np.empty(size, dtype=complex)
        out.real = np.bincount(inv, weights=vals.real, minlength=size)
        out.imag = np.bincount(inv, weights=vals.imag, minlength=size)
        return out

    dsum = summed(inverse[: len(dkeys)], dvals)
    nsum = summed(inverse[len(dkeys):], nvals)
    return float(np.max(np.abs(dsum - nsum)))


def test_build_validates_arguments():
    with pytest.raises(ValueError):
        numeric.build(0, 10, 4)
    with pytest.raises(ValueError):
        numeric.build(0.5, 1, 4)
    with pytest.raises(ValueError):
        numeric.build(0.5, 10, 1)
    with pytest.raises(ValueError, match="model-size"):
        numeric.build(2.0, numeric.MAX_DIM, 2)
    assert numeric.build(0.5, numeric.MAX_DIM // 4 - 1, 4).dim == numeric.MAX_DIM


def test_singular_values_of_gamma():
    rep = numeric.build(0.5, 3, 4)
    got = numeric.gamma_singular_values(rep)
    assert np.allclose(got, numeric.expected_singular_values(rep), atol=1e-12)
    distinct = sorted({float(round(s, 10)) for s in got})
    assert distinct == [0.125, 0.25, 0.5, 1.0]


def test_singular_values_of_transported_gamma():
    rep = numeric.build(2.0, 3, 4)
    got = numeric.gamma_singular_values(rep)
    want = numeric.expected_singular_values(rep)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    distinct = sorted({float(round(s, 10)) for s in got})
    assert distinct == [0.0625, 0.125, 0.25, 0.5]


def test_alpha_kills_the_bottom_row():
    rep = numeric.build(0.7, 4, 3)
    # column (n, k) is n * M + k, so the columns with n = 0 come first
    for k in range(rep.M):
        assert not rep.alpha[:, k].any()


def test_gamma_is_normal_even_after_truncation():
    rep = numeric.build(0.6 + 0.3j, 10, 6)
    g = rep.gamma
    assert np.max(np.abs(g.conj().T @ g - g @ g.conj().T)) <= 1e-15


@pytest.mark.parametrize("qv", [0.5, 0.9, 0.3 + 0.4j, 0.6 - 0.3j])
def test_interior_relation_residuals(qv):
    rep = numeric.build(qv, 30, 8)
    residuals = numeric.relation_residuals(rep)
    for name, (interior, _) in residuals.items():
        assert interior <= 1e-12, name


def test_boundary_defect_is_reported_not_asserted():
    rep = numeric.build(0.5, 10, 4)
    residuals = numeric.relation_residuals(rep)
    # the second relation carries the truncation defect on the boundary row
    interior, full = residuals[numeric.RELATION_NAMES[1]]
    assert interior <= 1e-13
    assert full > 0.5


def test_evaluate_element_unit_and_diagonal():
    rep = numeric.build(0.5, 8, 4)
    assert np.allclose(numeric.evaluate_element(rep, A.unit()), np.eye(rep.dim))
    mat = numeric.evaluate_element(rep, A.gen("g") * A.gen("g'"))
    expected = np.diag([0.25**n for n in range(9) for _ in range(4)])
    assert np.allclose(mat, expected, atol=1e-13)


def test_first_relation_is_interior_exact():
    rep = numeric.build(0.4 + 0.2j, 12, 5)
    el = A.gen("a'") * A.gen("a") + A.gen("g'") * A.gen("g")
    mat = numeric.evaluate_element(rep, el)
    mask = rep.interior_mask(1)
    assert np.max(np.abs((mat - np.eye(rep.dim))[:, mask])) <= 1e-13


def test_oracle_compare_worked_example():
    rep = numeric.build(0.5, 20, 6)
    dev = numeric.oracle_compare(rep, A, [(ONE, (1, 0, 2, 3))])
    assert dev <= 1e-12


def test_oracle_compare_already_normal_word():
    rep = numeric.build(0.5, 10, 4)
    dev = numeric.oracle_compare(rep, A, [(ONE, (0, 2))])
    assert dev == 0.0


def test_oracle_compare_halmosh_monomial():
    rep = numeric.build(0.4 + 0.3j, 20, 6)
    qb = A.params["qb"]
    raw = [(ONE, (2, 0, 0, 0)), (-(qb**3), (0, 0, 0, 2))]
    assert numeric.oracle_compare(rep, A, raw) <= 1e-12


def test_oracle_compare_random_words_random_parameters():
    rng = random.Random(11)
    for _ in range(5):
        radius = 0.15 + 0.7 * rng.random()
        angle = 2 * np.pi * rng.random()
        qv = radius * complex(np.cos(angle), np.sin(angle))
        rep = numeric.build(qv, 12, 5)
        for _ in range(40):
            word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 6)))
            assert numeric.oracle_compare(rep, A, [(ONE, word)]) <= 1e-11


def test_oracle_detects_a_wrong_rule():
    rep = numeric.build(0.5 + 0.3j, 12, 5)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 0))]) <= 1e-12
    assert numeric.oracle_compare(rep, _wrong_r2(), [(ONE, (2, 0))]) > 1e-11


def test_oracle_compare_nothing_survives():
    # alpha^3 kills every column with n <= 2, which is the whole interior
    rep = numeric.build(0.5, 4, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 2, 2))]) == 0.0


def test_oracle_compare_cancelling_terms():
    rep = numeric.build(0.4 + 0.3j, 10, 4)
    w = (1, 0, 2, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, w), (-ONE, w)]) == 0.0


def test_oracle_compare_merges_repeated_words_across_terms():
    rep = numeric.build(0.4 + 0.3j, 10, 4)
    q = Scalar.q()
    w, w2 = (2, 0, 3), (0, 3, 2)
    raw = [(q, w), (q, w), (ONE, w2)]
    depth = max(len(x) for _, x in raw)
    # the normal form carries 2q nf(w): both raw copies of w must be summed
    dev = numeric.oracle_compare(rep, A, raw)
    assert dev <= 1e-12
    assert abs(dev - _dense_deviation(rep, A, raw, depth)) <= 1e-13


@pytest.mark.parametrize("qv", [0.5 + 0.3j, 0.9, 1.7 - 0.4j])
def test_oracle_compare_matches_dense_products(qv):
    rep = numeric.build(qv, 10, 4)
    rng = random.Random(5)
    coeffs = [ONE, -ONE, Scalar.q(), Scalar.qbar(), Scalar.imag_unit() + Scalar.q()]
    worst_wrong = 0.0
    for pres in (A, _wrong_r2()):
        for _ in range(15):
            raw = [
                (rng.choice(coeffs), tuple(rng.randrange(4) for _ in range(rng.randint(0, 5))))
                for _ in range(rng.randint(1, 3))
            ]
            depth = max(len(w) for _, w in raw)
            got = numeric.oracle_compare(rep, pres, raw)
            assert abs(got - _dense_deviation(rep, pres, raw, depth)) <= 1e-13
            if pres is not A:
                worst_wrong = max(worst_wrong, got)
            x = pres.normalize_raw(raw)
            dense = _dense(rep, [(c, w) for w, c in x.terms()])
            assert np.max(np.abs(numeric.evaluate_element(rep, x) - dense)) <= 1e-13
    # the wrong rule makes the comparison non-trivial at complex q
    if qv.imag:
        assert worst_wrong > 1e-3


@pytest.mark.parametrize(
    "qv, N, M", [(0.5 + 0.3j, 10, 4), (1.7 - 0.4j, 10, 4), (0.4 - 0.2j, 8, 2), (0.9, 7, 3)]
)
def test_oracle_compare_equals_the_keyed_merge(qv, N, M):
    # bidegree groups and the keyed merge add the same floats in the same order
    rep = numeric.build(qv, N, M)
    rng = random.Random(17)
    coeffs = [
        ONE, -ONE, Scalar.q(), Scalar.qbar(), Scalar.imag_unit() + Scalar.q(),
        ONE / (Scalar.from_int(3) + Scalar.q()),
    ]
    for pres in (A, _wrong_r2()):
        for _ in range(40):
            raw = [
                (rng.choice(coeffs), tuple(rng.randrange(4) for _ in range(rng.randint(0, 5))))
                for _ in range(rng.randint(1, 4))
            ]
            depth = max(len(w) for _, w in raw)
            got = numeric.oracle_compare(rep, pres, raw)
            assert got == _keyed_merge_deviation(rep, pres, raw, depth), raw


@pytest.mark.parametrize(
    "qv, N, M", [(0.5 + 0.3j, 10, 4), (1.7 - 0.4j, 10, 4), (0.4 - 0.2j, 8, 2), (0.9, 7, 2)]
)
def test_evaluate_element_equals_the_column_gathers(qv, N, M):
    rep = numeric.build(qv, N, M)
    rng = random.Random(23)
    coeffs = [ONE, -ONE, Scalar.q(), Scalar.imag_unit() + Scalar.qbar()]
    # raw a'^12 a^12 and a^12 a'^12 run past the padding of a table with
    # N + 1 <= 11 levels and come back; g^20 stays on every level.  An Element
    # built directly keeps these words unreduced.
    long_words = [(3,) * 12 + (2,) * 12, (2,) * 12 + (3,) * 12, (0,) * 20, (2,) * 12]
    elements = [Element(A, {w: Scalar.q()}) for w in long_words]
    for _ in range(40):
        elements.append(A.normalize_raw([
            (rng.choice(coeffs), tuple(rng.randrange(4) for _ in range(rng.randint(0, 14))))
            for _ in range(rng.randint(1, 3))
        ]))
    for x in elements:
        assert np.array_equal(numeric.evaluate_element(rep, x), _gathered_element(rep, x))


def _reference_letters(qv, N, M):
    """Dense (g, g', a, a') by a nested loop over the ladder basis, from the formulas.

    A model at |q| > 1 is the one at 1/q transported along alpha -> alpha*,
    gamma -> gamma / q.
    """
    qv = complex(qv)
    if abs(qv) > 1:
        g, _, a, _ = _reference_letters(1 / qv, N, M)
        alpha, gamma = a.conj().T, g / qv
    else:
        dim = (N + 1) * M
        alpha = np.zeros((dim, dim), dtype=complex)
        gamma = np.zeros((dim, dim), dtype=complex)
        qc = qv.conjugate()
        mod2 = abs(qv) ** 2
        for n in range(N + 1):
            for k in range(M):
                col = n * M + k
                gamma[n * M + ((k + 1) % M), col] = qc**n
                if n > 0:
                    alpha[(n - 1) * M + k, col] = math.sqrt(1 - mod2**n)
    return gamma, gamma.conj().T, alpha, alpha.conj().T


@pytest.mark.parametrize("qv, M", [(0.5 + 0.3j, 3), (1.7 - 0.4j, 3), (0.6, 2)])
def test_letter_matrices_match_the_reference_build(qv, M):
    rep = numeric.build(qv, 7, M)
    for got, want in zip(rep.letter_matrices(), _reference_letters(qv, 7, M)):
        assert np.array_equal(got, want)
    pad = rep.N + 1
    for _, _, amp in rep.radial_tables:
        assert not amp[:pad].any() and not amp[2 * pad :].any()
    # g, g' move the winding index; a, a' the radial index, reversed by transport
    up = -1 if rep.transported else 1
    assert [t[:2] for t in rep.radial_tables] == [(0, 1), (0, -1 % M), (-up, 0), (up, 0)]


def test_oracle_compare_builds_no_dense_matrix(monkeypatch):
    rep = numeric.build(0.5 + 0.3j, 10, 4)

    def refuse(self, shifts):
        raise AssertionError("oracle_compare scattered a dense matrix")

    monkeypatch.setattr(numeric.TruncatedRep, "_scatter", refuse)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 0, 3)), (Scalar.q(), (1, 2))]) <= 1e-12
    assert "alpha" not in vars(rep) and "gamma" not in vars(rep)


@pytest.mark.parametrize("qv", [0.5 + 0.3j, 1.7 - 0.4j])
def test_evaluate_element_of_a_letter_is_its_matrix(qv):
    rep = numeric.build(qv, 6, 3)
    for name, mat in zip(numeric.LETTERS, rep.letter_matrices()):
        assert np.array_equal(numeric.evaluate_element(rep, A.gen(name)), mat), name


def test_longest_word_inside_the_interior_accepted():
    rep = numeric.build(0.5, 6, 3)
    assert numeric.oracle_compare(rep, A, [(ONE, (2, 2, 3, 3))]) <= 1e-12


def test_word_length_beyond_interior_rejected():
    rep = numeric.build(0.5, 4, 3)
    with pytest.raises(ValueError, match="interior"):
        numeric.oracle_compare(rep, A, [(ONE, (3,) * 4)])


def test_depth_errors_carry_stable_labels():
    rep = numeric.build(0.5, 6, 3)
    with pytest.raises(ValueError, match=r"^depth-beyond-interior: .* N - 1 = 5\)$"):
        numeric.oracle_compare(rep, A, [(ONE, (3,) * 6)])


def test_conjugation_consistency_on_core_block():
    rep = numeric.build(0.5, 16, 5)
    x = A.normalize_raw([(Scalar.q(), (2, 0, 1)), (ONE, (3, 3))])
    direct = numeric.evaluate_element(rep, x)
    star = numeric.evaluate_element(rep, x.adjoint())
    mask = rep.interior_mask(4)
    core = np.ix_(mask, mask)
    assert np.max(np.abs(star[core] - direct.conj().T[core])) <= 1e-11


def test_unit_modulus_rejected():
    with pytest.raises(ValueError, match="!= 1"):
        numeric.build(0.6 + 0.8j, 6, 4)


def test_pole_propagates():
    from suq2 import PoleError

    rep = numeric.build(0.5, 6, 4)
    # denominator 1 - 4 q qb vanishes exactly at |q| = 1/2
    el = A.unit().scale(ONE / (ONE - Scalar.q() * Scalar.qbar() * 4))
    with pytest.raises(PoleError, match="pole-at-q"):
        numeric.evaluate_element(rep, el)


def test_transport_for_large_parameter():
    rep = numeric.build(2.0, 12, 5)
    assert rep.transported
    residuals = numeric.relation_residuals(rep)
    for name, (interior, _) in residuals.items():
        assert interior <= 1e-11, name
    # the engine agrees with the transported model too
    dev = numeric.oracle_compare(rep, A, [(ONE, (2, 0, 3))])
    assert dev <= 1e-11


@pytest.mark.parametrize("word", [(7,), (-1, 2)], ids=["past-the-table", "negative"])
def test_oracle_compare_refuses_bad_letters_before_evaluating(monkeypatch, word):
    rep = numeric.build(0.5, 10, 4)

    def refuse(*args):
        raise AssertionError("oracle_compare evaluated a word with a bad letter")

    monkeypatch.setattr(numeric, "_radial_word", refuse)
    with pytest.raises(ValueError, match="out of range"):
        numeric.oracle_compare(rep, A, [(ONE, word)])


def _reference_compare(rep, pres, raw_terms):
    """The oracle loop without tables or the own-normal-form rule.

    Every word goes through ``_radial_word`` and every coefficient through
    ``Scalar.evaluate``, each time, and the sums are formed in term order.
    """
    raw = [(coeff, tuple(word)) for coeff, word in raw_terms]
    depth = max((len(word) for _, word in raw), default=0)
    normal = pres.normalize_raw(raw)
    levels = rep.N - depth + 1
    groups = {}
    for side, terms in enumerate((raw, [(c, w) for w, c in normal.terms()])):
        for coeff, word in terms:
            dn, dk, val = numeric._radial_word(rep, word, levels)
            sums = groups.setdefault((dn, dk), [0.0, 0.0])
            sums[side] = sums[side] + coeff.evaluate(rep.qval) * val
    return max((float(np.abs(d - n).max()) for d, n in groups.values()), default=0.0)


def _seeded_expressions(seed, count):
    """Raw expressions: one-term words, repeated words and non-unit coefficients."""
    rng = random.Random(seed)
    q, qb = Scalar.q(), Scalar.qbar()
    coeffs = [ONE, ONE, -ONE, q, qb, Scalar.imag_unit() + q, ONE / (Scalar.from_int(3) + q),
              Scalar.gaussian(Fraction(2, 7), 1)]
    out = []
    for _ in range(count):
        words = [tuple(rng.randrange(4) for _ in range(rng.randint(0, 6))) for _ in range(3)]
        nterms = rng.choice([1, 1, 2, 3, 4])
        # drawing from three words makes repeats within and across expressions
        out.append([(rng.choice(coeffs), rng.choice(words)) for _ in range(nterms)])
    return out


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_oracle_compare_equals_the_reference_loop(seed):
    # q = 1.7 - 0.4j builds a transported model
    models = [(0.5 + 0.3j, 10, 4), (1.7 - 0.4j, 10, 4), (0.4 - 0.2j, 8, 3)]
    checked = 0
    for pres in (A, _wrong_r2()):
        warm = [numeric.build(*m) for m in models]
        for raw in _seeded_expressions(seed, 20):
            for args, shared in zip(models, warm):
                want = _reference_compare(numeric.build(*args), pres, raw)
                assert numeric.oracle_compare(numeric.build(*args), pres, raw) == want, raw
                assert numeric.oracle_compare(shared, pres, raw) == want, raw
                checked += 1
    assert checked == 120


def test_repeated_coefficients_and_normal_words_are_evaluated_once(monkeypatch):
    rep = numeric.build(0.5 + 0.3j, 10, 4)
    evaluated, radial = [], []
    evaluate, radial_word = Scalar.evaluate, numeric._radial_word

    def spy_evaluate(self, qval):
        evaluated.append(self)
        return evaluate(self, qval)

    def spy_radial(rep, word, levels):
        radial.append((word, levels))
        return radial_word(rep, word, levels)

    monkeypatch.setattr(Scalar, "evaluate", spy_evaluate)
    monkeypatch.setattr(numeric, "_radial_word", spy_radial)
    q = Scalar.q()
    # one-term raw words with coefficient 1 keep the memo's coefficient objects
    raws = [[(ONE, (2, 0, 3))], [(ONE, (3, 2, 0))], [(q, (2, 0)), (q, (2, 0))]]
    first = [numeric.oracle_compare(rep, A, raw) for raw in raws]
    assert [numeric.oracle_compare(rep, A, raw) for raw in raws] == first
    assert sum(c is q for c in evaluated) == 1
    assert sum(c is ONE for c in evaluated) == 1
    memo_coeffs = [c for w, c in A.normalize_raw(raws[0]).terms()]
    assert len(memo_coeffs) > 1
    for c in memo_coeffs:
        assert sum(e is c for e in evaluated) == 1
    # raw words are evaluated on each call, normal words once per level count
    for word, _ in A.normalize_raw(raws[0]).terms():
        assert radial.count((word, rep.N - 2)) == 1
    assert radial.count(((2, 0, 3), rep.N - 2)) == 2
    # an equal coefficient in another object is evaluated for itself
    fresh = Scalar.monomial(1, 0)
    assert fresh == q and fresh is not q
    numeric.oracle_compare(rep, A, [(fresh, (2, 0))])
    assert sum(c is fresh for c in evaluated) == 1
    assert rep._coeff_values[id(q)][0] is q and rep._coeff_values[id(fresh)][0] is fresh
    # another model evaluates each coefficient again
    before = sum(c is q for c in evaluated)
    numeric.oracle_compare(numeric.build(0.5 + 0.3j, 10, 4), A, raws[2])
    assert sum(c is q for c in evaluated) == before + 1


def test_a_full_coefficient_table_stores_nothing_more(monkeypatch):
    monkeypatch.setattr(numeric, "_COEFF_VALUES_CAP", 2)
    capped, uncapped = numeric.build(0.5 + 0.3j, 10, 4), numeric.build(0.5 + 0.3j, 10, 4)
    q = Scalar.q()
    # each raw coefficient is a new object, not 1, and so is its normal form's
    raws = [[(q + Scalar.from_int(n), (2, 0))] for n in range(2, 7)]
    capped_devs = [numeric.oracle_compare(capped, A, raw) for raw in raws]
    assert len(capped._coeff_values) == 2
    monkeypatch.setattr(numeric, "_COEFF_VALUES_CAP", 4096)
    assert capped_devs == [numeric.oracle_compare(uncapped, A, raw) for raw in raws]
    assert len(uncapped._coeff_values) == 10 and any(capped_devs)


def test_own_normal_form_returns_zero_without_evaluating_a_word(monkeypatch):
    rep = numeric.build(0.5 + 0.3j, 10, 4)

    def refuse(*args):
        raise AssertionError("an own-normal-form word was evaluated")

    monkeypatch.setattr(numeric, "_radial_word", refuse)
    for coeff in (ONE, Scalar.q(), -Scalar.imag_unit()):
        for word in [(0, 2), (1, 1, 3), (0, 1, 2, 2), ()]:
            dev = numeric.oracle_compare(rep, A, [(coeff, word)])
            assert dev == 0.0 and math.copysign(1.0, dev) == 1.0


def test_own_normal_form_still_raises_at_a_pole():
    rep = numeric.build(0.5 + 0.3j, 10, 4)
    # q qb = 0.34 = 17/50 at this q
    coeff = ONE / (Scalar.q() * Scalar.qbar() - Scalar.gaussian(Fraction(17, 50)))
    with pytest.raises(PoleError):
        numeric.oracle_compare(rep, A, [(coeff, (0, 2))])


def test_own_normal_form_with_a_huge_coefficient_is_compared_as_before():
    rep = numeric.build(0.5, 10, 4)
    # about 1.1e307 at q = 1/2: past the rule's bound, so the words are evaluated
    for coeff in (Scalar.monomial(-1020, 0), Scalar.monomial(-1020, 0, 1, 1)):
        for word in [(0, 2), (1, 3)]:
            raw = [(coeff, word)]
            assert numeric.oracle_compare(rep, A, raw) == _reference_compare(rep, A, raw)


def test_evaluate_element_leaves_the_tables_empty():
    rep = numeric.build(0.5 + 0.3j, 10, 4)
    x = A.normalize_raw([(Scalar.q(), (2, 0, 3)), (ONE, (1, 2))])
    numeric.evaluate_element(rep, x)
    assert rep._coeff_values == {} and rep._word_values == {}
    numeric.oracle_compare(rep, A, [(Scalar.q(), (2, 0, 3))])
    assert rep._coeff_values and rep._word_values
    assert "_coeff_values" not in repr(rep) and "_word_values" not in repr(rep)


@pytest.mark.parametrize("word", [(0, 2), (2, 0)], ids=["normal", "a-g"])
def test_oracle_compare_takes_int_and_fraction_coefficients(word):
    rep = numeric.build(0.5 + 0.3j, 10, 4)
    half = Fraction(1, 2)
    assert numeric.oracle_compare(rep, A, [(1, word)]) == numeric.oracle_compare(
        rep, A, [(Scalar.one(), word)]
    )
    assert numeric.oracle_compare(rep, A, [(half, word)]) == numeric.oracle_compare(
        rep, A, [(Scalar.gaussian(half), word)]
    )
    with pytest.raises(TypeError):
        numeric.oracle_compare(rep, A, [(0.5, word)])
