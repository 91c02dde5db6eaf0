"""Finitely presented graded *-algebras with directed rewrite rules.

A :class:`Presentation` is the finite datum defining one algebra: an ordered
generator table (name, degree, adjoint partner, leg tag) plus directed
rewrite rules whose left-hand sides are one- or two-letter words.  Elements
are finite sums of scalar-weighted rule-irreducible words; equality is
structural equality of these normal forms, so the rewrite system doubles as
the algebra's decision procedure.

That reading is proved, not sampled, by Bergman's diamond lemma (G. M.
Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).  Words
are ordered by deglex: length first, then lexicographically by generator
index.  This is a well-order compatible with concatenation.  When every rule
replaces its left-hand side by deglex-smaller words (the termination
certificate, checked once per presentation), every reduction terminates.
When in addition every overlap and inclusion ambiguity of the rule table
resolves (:func:`confluence_check`), every word has exactly one normal form
and the irreducible words are a linear basis.  :func:`confluence_check` is
that proof and nothing else: it reduces no sampled word.  The numeric
operator oracle in :mod:`suq2.numeric` is an independent cross-check of the
relations.

Shipped presentations:

* ``suq2_presentation(q)`` -- the q-deformed SU(2) algebra on gamma, alpha
  with the five defining relations, directed so that normal words are
  ``g^b g'^c a^k`` or ``g^b g'^c a'^k`` (generator order g < g' < a < a').
* ``torus_presentation(zeta)`` -- two unitaries with UV = zeta VU.
* ``uq2_presentation(q)`` -- the SU_q(2) generators together with a central
  unitary circle generator z that scales gamma by 1/zeta; all degrees zero.
* ``free_presentation(...)`` -- a free graded *-algebra (no rules).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PresentationMismatchError, RewriteLimitError
from .scalars import Scalar

_ONE = Scalar.one()

_token_counter = itertools.count()

_PRESENTATION_CACHE: dict = {}


def deglex_key(word):
    """Sort key of the deglex word order: length, then generator indices."""
    return (len(word), word)


def _accumulate(acc, word, c):
    """Add ``c`` to ``acc[word]``, dropping the entry when the sum cancels."""
    s = acc.get(word)
    s = c if s is None else s + c
    if s.is_zero():
        acc.pop(word, None)
    else:
        acc[word] = s


@dataclass(frozen=True)
class Generator:
    """One letter of a presentation."""

    name: str
    degree: int
    adjoint: int  # index of the adjoint partner
    leg: int = 1


@dataclass(frozen=True)
class RewriteRule:
    """A directed rule ``lhs -> sum of coeff * word``.

    The left-hand side has one or two letters; every right-hand word must be
    homogeneous of the same total degree as the left-hand side.  Reduction
    terminates when every right-hand word is deglex-smaller than the
    left-hand side (see :func:`deglex_key`): deglex is a well-order that is
    compatible with concatenation, so each rewrite step strictly lowers the
    multiset of words in play.  Every shipped rule satisfies this; a
    presentation records the first rule that does not in
    ``Presentation.deglex_violation``.
    """

    lhs: tuple
    rhs: tuple  # tuple of (Scalar, word-tuple)


class Presentation:
    """Generator table plus rewrite rules; immutable after construction.

    An optional memo table caches word reductions; it is transparent
    (results are identical with it disabled, see ``memo_enabled``).

    ``deglex_violation`` is the termination certificate: ``None`` when every
    rule's right-hand words are deglex-smaller than its left-hand side, else
    the left-hand side of the first rule that breaks this.
    """

    DEFAULT_STEP_LIMIT = 5_000_000

    def __init__(self, label, generators, rules, params=None, factors=None):
        self.label = label
        self.generators = tuple(generators)
        self.params = dict(params or {})
        self.factors = tuple(factors) if factors else None
        self.rules = {}
        for rule in rules:
            if rule.lhs in self.rules:
                raise ValueError(f"duplicate rule left-hand side {rule.lhs}")
            self.rules[rule.lhs] = rule
        self.deglex_violation = next(
            (
                lhs
                for lhs, rule in self.rules.items()
                if any(deglex_key(w) >= deglex_key(lhs) for _, w in rule.rhs)
            ),
            None,
        )
        self._memo = {}
        self.memo_enabled = True
        self._gens = {}
        self._token = next(_token_counter)
        self._flip = None
        if self.factors:
            offsets = [0]
            for f in self.factors:
                offsets.append(offsets[-1] + f.n_gens)
            self.leg_offsets = tuple(offsets)
        else:
            self.leg_offsets = None
        self._validate()

    # -- basic structure -------------------------------------------------------

    @property
    def n_gens(self):
        return len(self.generators)

    def adjoint_index(self, i):
        return self.generators[i].adjoint

    def degree_of_word(self, word):
        return sum(self.generators[i].degree for i in word)

    def gen_index(self, name, leg=None):
        for i, g in enumerate(self.generators):
            if g.name == name and (leg is None or g.leg == leg):
                return i
        raise KeyError(name)

    def leg_of(self, i):
        return self.generators[i].leg

    def local_index(self, i):
        if not self.factors:
            return i
        return i - self.leg_offsets[self.generators[i].leg - 1]

    def _validate(self):
        for i, g in enumerate(self.generators):
            j = g.adjoint
            if not (0 <= j < self.n_gens) or self.generators[j].adjoint != i:
                raise ValueError("adjoint pairing must be an involution")
            if self.generators[j].degree != -g.degree:
                raise ValueError("adjoint partner must have opposite degree")
        for rule in self.rules.values():
            d = self.degree_of_word(rule.lhs)
            for _, w in rule.rhs:
                if self.degree_of_word(w) != d:
                    raise ValueError(
                        f"rule {rule.lhs} right-hand side is not degree-homogeneous"
                    )

    # -- reduction engine ------------------------------------------------------

    def _redexes(self, word):
        """Every ``(position, rule)`` that matches in ``word``, leftmost first.

        One- and two-letter left-hand sides never collide, so ``rules`` is the
        one lookup table; at a position the one-letter match comes first.
        """
        rules = self.rules
        out = []
        n = len(word)
        for p in range(n):
            rule = rules.get(word[p : p + 1])
            if rule is not None:
                out.append((p, rule))
            if p + 1 < n:
                rule = rules.get(word[p : p + 2])
                if rule is not None:
                    out.append((p, rule))
        return out

    def reduce_word(self, word, max_steps=None):
        """Full normal form of a single word as a tuple of (Scalar, word)."""
        word = tuple(word)
        memo = self._memo if self.memo_enabled else {}
        if word in memo:
            return memo[word]
        budget = max_steps if max_steps is not None else self.DEFAULT_STEP_LIMIT
        steps = 0
        stack = [word]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            steps += 1
            if steps > budget:
                raise RewriteLimitError(
                    f"reduction exceeded {budget} steps in '{self.label}'"
                )
            redexes = self._redexes(w)
            if not redexes:
                memo[w] = ((_ONE, w),)
                stack.pop()
                continue
            pos, rule = redexes[0]
            cut = pos + len(rule.lhs)
            subs = []
            pending = []
            for coeff, rw in rule.rhs:
                nw = w[:pos] + rw + w[cut:]
                subs.append((coeff, nw))
                if nw not in memo:
                    pending.append(nw)
            if pending:
                stack.extend(pending)
                continue
            acc = {}
            for coeff, nw in subs:
                for c2, w2 in memo[nw]:
                    _accumulate(acc, w2, coeff * c2)
            memo[w] = tuple((acc[w2], w2) for w2 in sorted(acc, key=deglex_key))
            stack.pop()
        return memo[word]

    # -- element factories -----------------------------------------------------

    def normalize_raw(self, raw_terms, max_steps=None):
        """Normalize a raw sum of (coeff, word) pairs into an Element."""
        acc = {}
        for coeff, word in raw_terms:
            if not isinstance(coeff, Scalar):
                coeff = Scalar.from_int(coeff)
            if coeff.is_zero():
                continue
            word = tuple(word)
            for i in word:
                if not (0 <= i < self.n_gens):
                    raise ValueError(f"generator index {i} out of range")
            for c2, w2 in self.reduce_word(word, max_steps=max_steps):
                _accumulate(acc, w2, coeff * c2)
        return Element(self, acc)

    def product_sum(self, pairs):
        """Normalize the sum of ``x * y`` over element pairs in one pass."""
        return self.normalize_raw(
            (c1 * c2, w1 + w2)
            for x, y in pairs
            for w1, c1 in x._terms.items()
            for w2, c2 in y._terms.items()
        )

    def element(self, raw_terms):
        return self.normalize_raw(raw_terms)

    def zero(self):
        return Element(self, {})

    def unit(self):
        return Element(self, {(): _ONE})

    def gen(self, name_or_index, leg=None):
        if isinstance(name_or_index, str):
            i = self.gen_index(name_or_index, leg)
        else:
            i = name_or_index
        # elements are immutable, so one normalized element per generator
        el = self._gens.get(i)
        if el is None:
            el = self._gens[i] = self.normalize_raw([(_ONE, (i,))])
        return el

    def scalar(self, s):
        if not isinstance(s, Scalar):
            s = Scalar.from_int(s)
        return Element(self, {} if s.is_zero() else {(): s})

    def __repr__(self):
        return f"<Presentation {self.label!r} with {self.n_gens} generators>"


class Element:
    """A finite sum of scalar-weighted normal words in one presentation.

    Instances are produced in normal form (every word rule-irreducible, no
    zero coefficients), so ``==`` is structural equality.  All operations
    return new normalized elements; nothing mutates.
    """

    __slots__ = ("pres", "_terms")

    def __init__(self, pres, terms):
        self.pres = pres
        self._terms = terms

    # -- views ------------------------------------------------------------------

    def terms(self):
        """Canonically ordered (word, coeff) pairs."""
        return tuple(
            (w, self._terms[w])
            for w in sorted(self._terms, key=deglex_key)
        )

    def coefficient(self, word):
        return self._terms.get(tuple(word), Scalar.zero())

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    # -- ring operations ----------------------------------------------------------

    def _check_same(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatchError()

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.scalar(other)
        self._check_same(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            _accumulate(acc, w, c)
        return Element(self.pres, acc)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.pres, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        self._check_same(other)
        # a scalar side only scales the other's words, which are already normal
        for s, x in ((self, other), (other, self)):
            if len(s._terms) == 1 and () in s._terms:
                return x.scale(s._terms[()])
        return self.pres.product_sum(((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        if not isinstance(s, Scalar):
            s = Scalar.from_int(s)
        if s.is_zero():
            return Element(self.pres, {})
        return Element(self.pres, {w: c * s for w, c in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("element powers must be nonnegative integers")
        out = self.pres.unit()
        for _ in range(n):
            out = out * self
        return out

    def adjoint(self):
        """Reverse each word, star each letter, conjugate each coefficient."""
        adj = self.pres.adjoint_index
        if len(self._terms) == 1:
            ((w, c),) = self._terms.items()
            if len(w) == 1 and c.is_one():  # a bare generator: its starred partner
                return self.pres.gen(adj(w[0]))
        raw = [
            (c.conjugate(), tuple(adj(i) for i in reversed(w)))
            for w, c in self._terms.items()
        ]
        return self.pres.normalize_raw(raw)

    # -- grading -------------------------------------------------------------------

    def degree(self):
        """Common degree of all words, the string "zero" for 0, else "inhomogeneous"."""
        if not self._terms:
            return "zero"
        degrees = {self.pres.degree_of_word(w) for w in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return "inhomogeneous"

    # -- comparison ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = self.pres.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self._terms == other._terms

    def __hash__(self):
        return hash((self.pres._token, frozenset(self._terms.items())))

    # -- rendering ---------------------------------------------------------------------

    def render(self, unicode_names=False):
        from .render import render_element

        return render_element(self, unicode_names=unicode_names)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<Element {self.render()!r} in {self.pres.label}>"


# ---------------------------------------------------------------------------
# Shipped presentations
# ---------------------------------------------------------------------------


def _cached(key, build):
    """The process-wide instance for ``key``: presentations and the comultiplications."""
    obj = _PRESENTATION_CACHE.get(key)
    if obj is None:
        obj = _PRESENTATION_CACHE[key] = build()
    return obj


def suq2_presentation(qparam=None):
    """The q-deformed SU(2) algebra at an invertible Scalar parameter.

    Generators in normal order g, g', a, a' with degrees (1, -1, 0, 0).
    Directed relations:

    ==  ==================  ===========================
    R1  g'g  -> g g'        gamma is normal
    R2  a g  -> qb g a      alpha gamma = qb gamma alpha
    R3  a g' -> q  g' a
    R4  a'g  -> qb^-1 g a'
    R5  a'g' -> q^-1  g' a'
    R6  a a' -> 1 - q qb g g'
    R7  a'a  -> 1 - g g'
    ==  ==================  ===========================

    Normal words are g^b g'^c a^k or g^b g'^c a'^k: R1-R5 strictly reduce
    order inversions, R6/R7 strictly reduce the number of a/a' letters.
    """
    q = Scalar.q() if qparam is None else qparam
    if not isinstance(q, Scalar):
        raise TypeError("qparam must be a Scalar")
    if q.is_zero():
        raise ValueError("qparam must be invertible (nonzero)")

    def build():
        qb = q.conjugate()
        one = Scalar.one()
        gens = (
            Generator("g", 1, 1),
            Generator("g'", -1, 0),
            Generator("a", 0, 3),
            Generator("a'", 0, 2),
        )
        rules = _su_rules(q, qb, one)
        return Presentation(
            "suq2", gens, rules, params={"q": q, "qb": qb, "zeta": q / qb}
        )

    return _cached(("suq2", q), build)


def _su_rules(q, qb, one):
    g, gs, a, as_ = range(4)
    return [
        RewriteRule((gs, g), ((one, (g, gs)),)),
        RewriteRule((a, g), ((qb, (g, a)),)),
        RewriteRule((a, gs), ((q, (gs, a)),)),
        RewriteRule((as_, g), ((qb.inverse(), (g, as_)),)),
        RewriteRule((as_, gs), ((q.inverse(), (gs, as_)),)),
        RewriteRule((a, as_), ((one, ()), (-(q * qb), (g, gs)))),
        RewriteRule((as_, a), ((one, ()), (-one, (g, gs)))),
    ]


def torus_presentation(zeta=None):
    """Two unitaries U, V with UV = zeta VU, for formally unimodular zeta."""
    z = Scalar.zeta() if zeta is None else zeta
    if not isinstance(z, Scalar):
        raise TypeError("zeta must be a Scalar")
    if not (z * z.conjugate()).is_one():
        raise ValueError("zeta must be formally unimodular (zeta * conj(zeta) = 1)")

    def build():
        one = Scalar.one()
        zb = z.conjugate()
        gens = (
            Generator("U", 0, 1),
            Generator("U'", 0, 0),
            Generator("V", 0, 3),
            Generator("V'", 0, 2),
        )
        U, Us, V, Vs = 0, 1, 2, 3
        rules = [
            RewriteRule((U, Us), ((one, ()),)),
            RewriteRule((Us, U), ((one, ()),)),
            RewriteRule((V, Vs), ((one, ()),)),
            RewriteRule((Vs, V), ((one, ()),)),
            RewriteRule((V, U), ((zb, (U, V)),)),
            RewriteRule((V, Us), ((z, (Us, V)),)),
            RewriteRule((Vs, U), ((z, (U, Vs)),)),
            RewriteRule((Vs, Us), ((zb, (Us, Vs)),)),
        ]
        return Presentation("torus", gens, rules, params={"zeta": z})

    return _cached(("torus", z), build)


def uq2_presentation(qparam=None):
    """The SU_q(2) generators plus a unitary z with z g z* = (1/zeta) g.

    An ordinary (trivially graded) algebra: every generator has degree zero.
    Normal words are g^b g'^c (a^k or a'^k) (z^m or z'^m); z-letters commute
    with a, a' and pick up zeta powers when moved past g, g'.
    """
    q = Scalar.q() if qparam is None else qparam
    if not isinstance(q, Scalar):
        raise TypeError("qparam must be a Scalar")
    if q.is_zero():
        raise ValueError("qparam must be invertible (nonzero)")

    def build():
        qb = q.conjugate()
        one = Scalar.one()
        zeta = q / qb
        zetb = zeta.conjugate()
        gens = (
            Generator("g", 0, 1),
            Generator("g'", 0, 0),
            Generator("a", 0, 3),
            Generator("a'", 0, 2),
            Generator("z", 0, 5),
            Generator("z'", 0, 4),
        )
        g, gs, a, as_, z, zs = range(6)
        rules = _su_rules(q, qb, one)
        rules += [
            RewriteRule((z, zs), ((one, ()),)),
            RewriteRule((zs, z), ((one, ()),)),
            RewriteRule((z, g), ((zetb, (g, z)),)),
            RewriteRule((z, gs), ((zeta, (gs, z)),)),
            RewriteRule((zs, g), ((zeta, (g, zs)),)),
            RewriteRule((zs, gs), ((zetb, (gs, zs)),)),
            RewriteRule((z, a), ((one, (a, z)),)),
            RewriteRule((z, as_), ((one, (as_, z)),)),
            RewriteRule((zs, a), ((one, (a, zs)),)),
            RewriteRule((zs, as_), ((one, (as_, zs)),)),
        ]
        return Presentation(
            "uq2", gens, rules, params={"q": q, "qb": qb, "zeta": zeta}
        )

    return _cached(("uq2", q), build)


def free_presentation(names, degrees, label="free"):
    """A free graded *-algebra: generators x, x' per name, no rules."""
    gens = []
    for name, d in zip(names, degrees):
        i = len(gens)
        gens.append(Generator(name, d, i + 1))
        gens.append(Generator(name + "'", -d, i))
    key = ("free", tuple(names), tuple(degrees), label)
    return _cached(key, lambda: Presentation(label, gens, [], params={}))


# ---------------------------------------------------------------------------
# Confluence checking
# ---------------------------------------------------------------------------


@dataclass
class ConfluenceReport:
    """Outcome of :func:`confluence_check`.

    ``words_checked`` counts the ambiguity words examined and
    ``critical_pairs`` the pairs of rule applications shown to resolve.
    ``certificate`` describes the termination order and the number of
    ambiguities; it is ``None`` when the rule set has no certificate.
    """

    presentation: str
    words_checked: int = 0
    critical_pairs: int = 0
    certificate: dict | None = None
    divergences: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.divergences


def _ambiguity_words(pres):
    """The overlap and inclusion ambiguities of the rule table, in deglex order.

    Overlaps are the words xyz where xy and yz are both left-hand sides;
    inclusions are the words xy where xy and x or y alone are left-hand sides.
    """
    rules = pres.rules
    pairs = [lhs for lhs in rules if len(lhs) == 2]
    followers = {}
    for x, y in pairs:
        followers.setdefault(x, []).append(y)
    words = [(x, y, z) for x, y in pairs for z in followers.get(y, ())]
    words += [(x, y) for x, y in pairs if (x,) in rules or (y,) in rules]
    return sorted(words, key=deglex_key)


def confluence_check(pres, maxlen=None, trials=None, seed=None):
    """Diamond-lemma proof of confluence.

    By Bergman's diamond lemma, a rule set whose right-hand words are all
    deglex-smaller than their left-hand sides (``pres.deglex_violation`` is
    ``None``) is confluent as soon as every overlap and inclusion ambiguity
    resolves.  Each ambiguity word gets every matching rule applied once;
    each result is fully reduced and all the normal forms must agree.  That
    proves normal form equals algebra equality for words of every length.

    A rule set without the certificate is reported at once as
    ``non-termination``, naming the offending left-hand side, and nothing is
    reduced.  An unresolved ambiguity is a ``critical-pair`` entry, and an
    ambiguity whose reduction hits the step cap a ``non-termination`` entry;
    failures become report entries, never exceptions.

    ``maxlen``, ``trials`` and ``seed`` are accepted and read by nothing:
    they sized a random-order sampling pass that the proof makes redundant,
    and existing callers still pass them.
    """
    report = ConfluenceReport(pres.label)
    if pres.deglex_violation is not None:
        report.divergences.append(
            {"kind": "non-termination", "rule": list(pres.deglex_violation)}
        )
        return report
    from .render import render_word

    ambiguities = _ambiguity_words(pres)
    report.certificate = {
        "order": "deglex",
        "generators": [render_word(pres, (i,)) for i in range(pres.n_gens)],
        "ambiguities": len(ambiguities),
    }
    # short words reduce in far fewer steps under a terminating rule set
    step_cap = 10_000
    max_divergences = 10

    for word in ambiguities:
        if len(report.divergences) >= max_divergences:
            break
        report.words_checked += 1
        redexes = pres._redexes(word)
        try:
            forms = [
                pres.normalize_raw(
                    [
                        (coeff, word[:pos] + rw + word[pos + len(rule.lhs) :])
                        for coeff, rw in rule.rhs
                    ],
                    max_steps=step_cap,
                )
                for pos, rule in redexes
            ]
        except RewriteLimitError:
            report.divergences.append({"kind": "non-termination", "word": list(word)})
            continue
        if any(f != forms[0] for f in forms[1:]):
            report.divergences.append({"kind": "critical-pair", "word": list(word)})
        else:
            report.critical_pairs += len(forms) * (len(forms) - 1) // 2

    return report
