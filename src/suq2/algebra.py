"""Finitely presented graded *-algebras with directed rewrite rules.

A :class:`Presentation` is the finite datum defining one algebra: an ordered
generator table (name, degree, adjoint partner) plus directed rewrite rules
whose left-hand sides are letter pairs.  A word is normal exactly when none
of its letter pairs is a left-hand side, so a one-letter word is always
normal.  Elements are finite sums of scalar-weighted normal words; equality
is structural equality of these normal forms, so the rewrite system doubles
as the algebra's decision procedure.  ``suq2`` computes its normal forms by a
closed-form product of a normal word with one letter, folded over the word;
every other presentation rewrites.

That reading is proved, not sampled, by Bergman's diamond lemma (G. M.
Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978).  Words
are ordered by deglex: length first, then lexicographically by generator
index.  This is a well-order compatible with concatenation.  When every rule
replaces its left-hand side by deglex-smaller words (the termination
certificate, checked once per presentation), every reduction terminates.
When in addition every ambiguity resolves (:func:`confluence_check`), every
word has exactly one normal form and the irreducible words are a linear
basis; letter pairs can only overlap, so the ambiguities are the words xyz
with xy and yz both left-hand sides.  :func:`confluence_check` is that proof
and nothing else: it reduces no sampled word, and it reduces through the
rewriting loop alone, never through a closed form.  So the rules are the
proof, and a closed form is tested against the rewriting loop word by word
(the agreement sweep of ``tests/test_algebra.py``).  The numeric operator
oracle in :mod:`suq2.numeric` is an independent cross-check of the
relations.

Shipped presentations:

* ``suq2_presentation(q)`` -- the q-deformed SU(2) algebra on gamma, alpha
  with the five defining relations, directed so that normal words are
  ``g^b g'^c a^k`` or ``g^b g'^c a'^k`` (generator order g < g' < a < a').
* ``torus_presentation(zeta)`` -- two unitaries with UV = zeta VU.
* ``uq2_presentation(q)`` -- U_q(2), derived from ``suq2_presentation(q)``
  as its biproduct with the circle: A's generators with degree zero plus a
  unitary z with z x z* = zeta^(-deg x) x for every generator x of A (so z
  commutes with alpha and z gamma = conj(zeta) gamma z).
* ``free_presentation(...)`` -- a free graded *-algebra (no rules).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .errors import PresentationMismatchError, RewriteLimitError
from .render import render_element, render_word
from .scalars import Scalar

_ONE = Scalar.one()

_PRESENTATION_CACHE: dict = {}


def deglex_key(word):
    """Sort key of the deglex word order: length, then generator indices."""
    return (len(word), word)


def _as_scalar(value):
    """``value`` as a Scalar: an int, a Fraction or a Scalar, else a TypeError."""
    s = Scalar._coerce(value)
    if s is NotImplemented:
        raise TypeError(f"cannot use {type(value).__name__} as a scalar")
    return s


def _check_letters(word, n):
    """Refuse the first letter out of ``range(n)``, then the first that is not an integer."""
    for i in word:
        if not 0 <= i < n:
            raise ValueError(f"generator index {i} out of range")
    for i in word:
        operator.index(i)


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


@dataclass(frozen=True)
class RewriteRule:
    """A directed rule ``lhs -> sum of coeff * word``.

    The left-hand side is a letter pair; every right-hand word must be
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

    A twisted tensor product passes its ``factors``, whose letters it lays out
    leg after leg; ``leg_offsets`` is the one record of those blocks (leg j
    owns ``leg_offsets[j-1] <= i < leg_offsets[j]``), read by :meth:`split_legs`.

    An optional memo table holds the normal form of each word that
    ``reduce_word`` is asked for, and no intermediate word; it is
    transparent (results are identical with it disabled, see
    ``memo_enabled``).

    ``times_letter`` is ``None`` or a closed form of the rules: given a
    normal word and one letter, it returns their product's normal form as
    (coefficient, word) pairs.  ``reduce_word`` then folds words through it
    instead of rewriting them.  Only ``suq2_presentation`` sets one.

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
        self.times_letter = None
        self._gens = {}
        # a bare name means its first occurrence, on a tensor product leg 1's
        self._index = {}
        for i, g in enumerate(self.generators):
            self._index.setdefault(g.name, i)
        self._flip = None
        self.leg_offsets = _leg_offsets(self.factors) if self.factors else None
        self._validate()

    # -- basic structure -------------------------------------------------------

    @property
    def n_gens(self):
        return len(self.generators)

    def adjoint_index(self, i):
        return self.generators[i].adjoint

    def degree_of_word(self, word):
        return sum(self.generators[i].degree for i in word)

    def gen_index(self, name):
        return self._index[name]

    def split_legs(self, word):
        """The local word of each leg of a tensor-product ``word``, leg 1 first."""
        blocks = itertools.pairwise(self.leg_offsets)
        return tuple(tuple(i - lo for i in word if lo <= i < hi) for lo, hi in blocks)

    def _validate(self):
        for i, g in enumerate(self.generators):
            j = g.adjoint
            if not (0 <= j < self.n_gens) or self.generators[j].adjoint != i:
                raise ValueError("adjoint pairing must be an involution")
            if self.generators[j].degree != -g.degree:
                raise ValueError("adjoint partner must have opposite degree")
        # a dict, not the generator tuple, so that a negative index cannot wrap round
        degree = {i: g.degree for i, g in enumerate(self.generators)}
        for rule in self.rules.values():
            lhs = rule.lhs
            # the redex finder matches letter pairs only, so any other rule
            # would never fire and its confluence proof would be vacuous
            if len(lhs) != 2:
                raise ValueError(f"rule {lhs} left-hand side must have two letters")
            try:
                d = sum([degree[i] for i in lhs])
                for _, w in rule.rhs:
                    if sum([degree[i] for i in w]) != d:
                        raise ValueError(
                            f"rule {lhs} right-hand side is not degree-homogeneous"
                        )
            except KeyError as err:
                raise ValueError(f"rule {lhs} has generator index {err} out of range") from None

    # -- reduction engine ------------------------------------------------------

    def _first_redex(self, word):
        """The leftmost ``(position, rule)`` that matches in ``word``, or ``None``.

        Every left-hand side is a letter pair, so each ``(word[p], word[p + 1])``
        is looked up in ``rules`` until one matches.
        """
        rules = self.rules
        for p, key in enumerate(zip(word, word[1:])):
            rule = rules.get(key)
            if rule is not None:
                return p, rule
        return None

    def reduce_word(self, word):
        """Full normal form of a single word as a tuple of (Scalar, word).

        A presentation with a closed form ``times_letter`` folds the word's
        letters through it: starting from the word's longest prefix that
        contains no redex (a normal word, one step per letter), every current
        term is multiplied by the next letter, and each term produced costs
        one step.  Any other presentation rewrites the word with
        :meth:`_rewrite`.  Both count against ``DEFAULT_STEP_LIMIT``.
        """
        word = tuple(word)
        memo = self._memo if self.memo_enabled else {}
        if word in memo:
            return memo[word]
        budget = self.DEFAULT_STEP_LIMIT
        if self.times_letter is None:
            done = self._rewrite({word: _ONE}, budget)
        else:
            redex = self._first_redex(word)
            cut = redex[0] + 1 if redex else len(word)
            steps = cut
            if steps > budget:
                raise self._limit_error(budget)
            done = {word[:cut]: _ONE}
            for x in word[cut:]:
                terms, done = done, {}
                for w, c in terms.items():
                    for f, w2 in self.times_letter(w, x):
                        steps += 1
                        if steps > budget:
                            raise self._limit_error(budget)
                        _accumulate(done, w2, c * f)
        if len(done) == 1:
            ((w, c),) = done.items()
            nf = ((c, w),)
        else:
            nf = tuple((done[w], w) for w in sorted(done, key=deglex_key))
        memo[word] = nf
        return nf

    def _rewrite(self, pending, budget):
        """Rewrite the linear combination ``pending``, consuming it, to ``{word: coeff}``.

        Each step takes the deglex-largest pending word (a lone pending word
        is taken as it is, with no comparison): an irreducible one moves to
        the result, any other is rewritten once at its leftmost redex, each
        ``c * coeff`` added back into ``pending``.  Largest first matters:
        every rewrite of a certified presentation yields only deglex-smaller
        words, so a word is taken after all of its contributions have merged,
        and no word is rewritten twice.  Without the deglex certificate that
        property is lost and the reduction is bounded only by the step budget.
        """
        steps = 0
        done = {}
        while pending:
            steps += 1
            if steps > budget:
                raise self._limit_error(budget)
            if len(pending) == 1:
                w, c = pending.popitem()
            else:
                w = max(pending, key=deglex_key)
                c = pending.pop(w)
            redex = self._first_redex(w)
            if redex is None:
                _accumulate(done, w, c)
                continue
            pos, rule = redex
            head, tail = w[:pos], w[pos + 2 :]
            for coeff, rw in rule.rhs:
                _accumulate(pending, head + rw + tail, c * coeff)
        return done

    def _limit_error(self, budget):
        return RewriteLimitError(f"reduction exceeded {budget} steps in '{self.label}'")

    # -- element factories -----------------------------------------------------

    def normalize_raw(self, raw_terms):
        """Normalize a raw sum of (coeff, word) pairs into an Element.

        Raw input is checked term by term: each coefficient is coerced to a
        Scalar, a zero one is dropped, and each word must be a sequence of
        generator indices in range.  :func:`_check_letters` reads each letter
        through ``operator.index``, so it refuses a ``float`` letter, which
        would otherwise enter the memo, and takes ``True`` and numpy integers.
        """
        acc = {}
        n = len(self.generators)
        for coeff, word in raw_terms:
            if not isinstance(coeff, Scalar):
                coeff = _as_scalar(coeff)
            if coeff.is_zero():
                continue
            word = tuple(word)
            _check_letters(word, n)
            for c2, w2 in self.reduce_word(word):
                _accumulate(acc, w2, coeff * c2)
        return Element(self, acc)

    def product_sum(self, pairs):
        """Normalize the sum of ``x * y`` over element pairs in one pass.

        It trusts what its operands have settled: the terms of an Element
        have nonzero Scalar coefficients (so each product ``c1 * c2`` is
        nonzero) and words of in-range generator indices, so no term goes
        through :meth:`normalize_raw`'s guard.  It checks only that both
        elements of every pair belong to this presentation, and raises
        ``PresentationMismatchError`` otherwise.  Each concatenated word
        goes to :meth:`reduce_word` and its terms are summed into one dict.
        """
        acc = {}
        reduce_word = self.reduce_word
        for x, y in pairs:
            if not (x.pres is self is y.pres):
                raise PresentationMismatchError()
            y_terms = y._terms.items()
            for w1, c1 in x._terms.items():
                for w2, c2 in y_terms:
                    c = c1 * c2
                    for c3, w3 in reduce_word(w1 + w2):
                        _accumulate(acc, w3, c * c3)
        return Element(self, acc)

    def zero(self):
        return Element(self, {})

    def unit(self):
        return Element(self, {(): _ONE})

    def gen(self, name_or_index):
        i = self._index[name_or_index] if isinstance(name_or_index, str) else name_or_index
        # elements are immutable and a lone letter is normal: one per generator
        el = self._gens.get(i)
        if el is None:
            _check_letters((i,), self.n_gens)
            el = self._gens[i] = Element(self, {(operator.index(i),): _ONE})
        return el

    def scalar(self, s):
        s = _as_scalar(s)
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

    # -- ring operations ----------------------------------------------------------

    def _check_same(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatchError()

    def _operand(self, other):
        """``other`` as an Element, a scalar as one of this presentation; else NotImplemented."""
        if isinstance(other, Element):
            return other
        s = Scalar._coerce(other)
        return s if s is NotImplemented else self.pres.scalar(s)

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_same(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            _accumulate(acc, w, c)
        return Element(self.pres, acc)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.pres, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Element):
            s = Scalar._coerce(other)
            return s if s is NotImplemented else self.scale(s)
        self._check_same(other)
        # a scalar side only scales the other's words, which are already normal
        for s, x in ((self, other), (other, self)):
            if len(s._terms) == 1 and () in s._terms:
                return x.scale(s._terms[()])
        return self.pres.product_sum(((self, other),))

    def __rmul__(self, other):
        s = Scalar._coerce(other)
        return s if s is NotImplemented else self.scale(s)

    def scale(self, s):
        s = _as_scalar(s)
        if s is _ONE:  # elements are immutable, so 1 returns this one
            return self
        if s.is_zero():
            return Element(self.pres, {})
        return Element(self.pres, {w: c * s for w, c in self._terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("element powers must be nonnegative integers")
        # a word of the power has at most n times the longest word's letters;
        # one longer than the step budget is refused before it is built
        length = n * max(map(len, self._terms), default=0)
        budget = self.pres.DEFAULT_STEP_LIMIT
        if length > budget:
            raise RewriteLimitError(
                f"a word of up to {length} letters exceeds the {budget}-step "
                f"budget in '{self.pres.label}'"
            )
        # square repeatedly: the memo then keeps O(log n) words, not every prefix
        out, base = self.pres.unit(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
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

    def _scalar_only(self):
        """True when no word but the empty one appears: the element is its scalar."""
        terms = self._terms
        return not terms or (len(terms) == 1 and () in terms)

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self.pres is other.pres:
            return self._terms == other._terms
        # a scalar-only element equals its scalar, and so every element that
        # equals that scalar, whatever its presentation; this keeps == transitive
        return self._scalar_only() and other._scalar_only() and self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if self._scalar_only():
            return hash(terms.get((), Scalar.zero()))
        return hash(frozenset(terms.items()))

    # -- rendering ---------------------------------------------------------------------

    def render(self, unicode_names=False):
        return render_element(self, unicode_names=unicode_names)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<Element {self.render()!r} in {self.pres.label}>"


# ---------------------------------------------------------------------------
# Shipped presentations
# ---------------------------------------------------------------------------


def _leg_offsets(factors):
    """Where each leg's letters start in a tensor product of ``factors``, then the end."""
    return tuple(itertools.accumulate((f.n_gens for f in factors), initial=0))


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
        gens = (
            Generator("g", 1, 1),
            Generator("g'", -1, 0),
            Generator("a", 0, 3),
            Generator("a'", 0, 2),
        )
        g, gs, a, as_ = range(4)
        rules = [
            RewriteRule((gs, g), ((_ONE, (g, gs)),)),
            RewriteRule((a, g), ((qb, (g, a)),)),
            RewriteRule((a, gs), ((q, (gs, a)),)),
            RewriteRule((as_, g), ((qb.inverse(), (g, as_)),)),
            RewriteRule((as_, gs), ((q.inverse(), (gs, as_)),)),
            RewriteRule((a, as_), ((_ONE, ()), (-(q * qb), (g, gs)))),
            RewriteRule((as_, a), ((_ONE, ()), (-_ONE, (g, gs)))),
        ]
        pres = Presentation(
            "suq2", gens, rules, params={"q": q, "qb": qb, "zeta": q / qb}
        )
        pres.times_letter = _suq2_times_letter(q, qb)
        return pres

    return _cached(("suq2", q), build)


def _suq2_times_letter(q, qb):
    """The closed-form right product of a normal suq2 word by one letter.

    A normal word is g^b g'^c u with u = a^k or a'^k; let e = k for a^k and
    e = -k for a'^k, and r = q qb.  Then

    * times g: R2 or R4 moves g left past u with qb^e, R1 past g'^c freely;
    * times g': R3 or R5 moves g' left past u with q^e;
    * times the letter of u, or any a when k = 0: the word stays normal;
    * times the other a: one R6 or R7 step, then R2-R5 move g g' left past
      u' = u with one letter fewer, giving u' - r^k g g' u' after a^k and
      u' - r^(1-k) g g' u' after a'^k (the q-Pochhammer step).

    Returns (coefficient, word) pairs.  Each coefficient is built once per
    (letter, e) and cached, and a factor 1 is the shared one.
    """
    r = q * qb
    # shared factor objects also keep numeric's identity-keyed value table small
    factors = {}

    def factor(x, e):
        f = factors.get((x, e))
        if f is None:
            if x < 2:
                f = (qb, q)[x] ** e if e else _ONE
            else:
                f = -(r ** (e + 1 if x == 2 else e))
            factors[(x, e)] = f
        return f

    def times_letter(w, x):
        bc = w.count(0) + w.count(1)
        k = len(w) - bc
        if x > 1 and (k == 0 or w[-1] == x):
            return ((_ONE, w + (x,)),)
        e = -k if k and w[-1] == 3 else k
        if x == 0:
            return ((factor(0, e), (0,) + w),)
        if x == 1:
            return ((factor(1, e), w[:bc] + (1,) + w[bc:]),)
        return ((_ONE, w[:-1]), (factor(x, e), (0,) + w[:bc] + (1,) + w[bc:-1]))

    return times_letter


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
    """U_q(2): the braided algebra A = SU_q(2) made ordinary by the circle action.

    Radford's biproduct (bosonization) of A with the circle: A's generators
    with every degree set to zero, plus a unitary z with adjoint z'.  Besides
    A's rules, z z' -> 1, z' z -> 1, and for every generator x of A

        z x -> zeta^(-deg x) x z,      z' x -> zeta^(deg x) x z',

    so z x z* = zeta^(-deg x) x: z commutes with a, a' and z g z* = g/zeta.
    Normal words are g^b g'^c (a^k or a'^k) (z^m or z'^m).
    """
    A = suq2_presentation(qparam)

    def build():
        zeta = A.params["zeta"]
        z, zs = A.n_gens, A.n_gens + 1
        gens = [Generator(g.name, 0, g.adjoint) for g in A.generators]
        gens += [Generator("z", 0, zs), Generator("z'", 0, z)]
        rules = list(A.rules.values())
        rules += [RewriteRule((z, zs), ((_ONE, ()),)), RewriteRule((zs, z), ((_ONE, ()),))]
        for x, g in enumerate(A.generators):
            rules.append(RewriteRule((z, x), ((zeta**-g.degree, (x, z)),)))
            rules.append(RewriteRule((zs, x), ((zeta**g.degree, (x, zs)),)))
        return Presentation("uq2", gens, rules, params=A.params)

    return _cached(("uq2", A.params["q"]), build)


def _zpower(B, d):
    """z^d in the circle-extended algebra ``B``, with z^(-m) = z'^m."""
    return B.gen("z") ** d if d >= 0 else B.gen("z'") ** -d


def free_presentation(names, degrees, label="free"):
    """A free graded *-algebra: generators x, x' per name, no rules."""
    gens = []
    for name, d in zip(names, degrees, strict=True):
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
    """The ambiguities of the rule table, in deglex order.

    Two letter pairs can only overlap: the ambiguities are the words xyz
    where xy and yz are both left-hand sides.
    """
    followers = {}
    for x, y in pres.rules:
        followers.setdefault(x, []).append(y)
    words = [(x, y, z) for x, y in pres.rules for z in followers.get(y, ())]
    return sorted(words, key=deglex_key)


def confluence_check(pres, maxlen=None, trials=None, seed=None):
    """Diamond-lemma proof of confluence.

    By Bergman's diamond lemma, a rule set whose right-hand words are all
    deglex-smaller than their left-hand sides (``pres.deglex_violation`` is
    ``None``) is confluent as soon as every ambiguity resolves; with
    letter-pair left-hand sides these are the overlaps xyz of two rules xy
    and yz.  Each ambiguity word gets both matching rules applied once; each
    result is fully reduced by the rules (``Presentation._rewrite``, never a
    closed form or the memo) and all the normal forms must agree.
    That proves normal form equals algebra equality for words of every
    length.

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
        # xyz has exactly two redexes: rules[(x, y)] at 0 and rules[(y, z)] at 1
        x, y, z = word
        forms = []
        try:
            for head, pair, tail in (((), (x, y), (z,)), ((x,), (y, z), ())):
                branch = {}
                for coeff, rw in pres.rules[pair].rhs:
                    _accumulate(branch, head + rw + tail, coeff)
                forms.append(pres._rewrite(branch, step_cap))
        except RewriteLimitError:
            report.divergences.append({"kind": "non-termination", "word": list(word)})
            continue
        if forms[0] != forms[1]:
            report.divergences.append({"kind": "critical-pair", "word": list(word)})
        else:
            report.critical_pairs += 1

    return report
