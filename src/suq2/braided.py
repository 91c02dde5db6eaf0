"""Twisted tensor products of presented graded algebras.

``twisted_tensor([P1, ..., Pn], zeta)`` builds one flat presentation whose
letters are those of P1, then those of P2, and so on: each leg is one block
of indices, recorded in ``Presentation.leg_offsets``.  Normal words put
leg-1 letters first, then leg-2, and so on; a leg-j letter y of degree l
directly left of a leg-i letter x of degree k (i < j) commutes across it
with the factor ``zeta^(-k*l)``, which is the directed form of the cross-leg
commutation law ``j_i(x) j_j(y) = zeta^(k*l) j_j(y) j_i(x)``.  Iterating is
unnecessary: the triple product is built directly with three legs and the
same pairwise twist, and bracketed forms are identified with it
letter-for-letter.  This module builds presentations, their leg embeddings
and the braiding test only; maps between presentations live in
:mod:`morphisms`.
"""

from __future__ import annotations

import itertools

from .algebra import Element, Generator, Presentation, RewriteRule, _cached, _leg_offsets
from .errors import PresentationMismatchError
from .scalars import Scalar


def twisted_tensor(factors, zeta):
    """The zeta-twisted tensor product of two or more base presentations."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a tensor product needs at least two factors")
    for f in factors:
        if f.factors is not None:
            raise ValueError("tensor factors must be base presentations")
    if not isinstance(zeta, Scalar):
        raise TypeError("zeta must be a Scalar")
    if not (zeta * zeta.conjugate()).is_one():
        raise ValueError("zeta must be formally unimodular")

    def build():
        offsets = _leg_offsets(factors)
        gens = [
            Generator(g.name, g.degree, g.adjoint + base)
            for f, base in zip(factors, offsets)
            for g in f.generators
        ]
        rules = []
        for leg, f in enumerate(factors, start=1):
            base = offsets[leg - 1]
            for rule in f.rules.values():
                lhs = tuple(i + base for i in rule.lhs)
                rhs = tuple((c, tuple(i + base for i in w)) for c, w in rule.rhs)
                rules.append(RewriteRule(lhs, rhs))
        # cross-leg rules: [y][x] -> zeta^(-deg(x)*deg(y)) [x][y] for legs(y) > legs(x)
        for i_leg in range(1, len(factors) + 1):
            for j_leg in range(i_leg + 1, len(factors) + 1):
                fi, fj = factors[i_leg - 1], factors[j_leg - 1]
                bi, bj = offsets[i_leg - 1], offsets[j_leg - 1]
                for xi, gx in enumerate(fi.generators):
                    for yj, gy in enumerate(fj.generators):
                        coeff = zeta ** (-(gx.degree * gy.degree))
                        rules.append(
                            RewriteRule(
                                (yj + bj, xi + bi),
                                ((coeff, (xi + bi, yj + bj)),),
                            )
                        )

        label = " x ".join(f.label for f in factors)
        params = dict(factors[0].params)
        params["zeta"] = zeta
        return Presentation(label, gens, rules, params=params, factors=factors)

    return _cached(("tensor", factors, zeta), build)


def retag(x, target, offset):
    """Copy an element into ``target`` shifting every letter by ``offset``.

    Nothing is reduced.  Whatever the twist, a twisted tensor product word is
    irreducible exactly when it is sorted by leg with irreducible leg blocks:
    every later-leg/earlier-leg letter pair is a cross-leg left-hand side,
    every other pair a factor's own.  So ``x``'s normal words, from the legs
    of ``target`` that start at ``offset``, stay normal when shifted;
    :func:`embed` and ``tensor_morphism`` check that the legs match.
    """
    terms = {tuple(i + offset for i in w): c for w, c in x._terms.items()}
    return Element(target, terms)


def embed(product, leg, x):
    """The injective unital *-homomorphism of one factor into the product."""
    if product.factors is None:
        raise ValueError("embed needs a tensor-product presentation")
    if not (1 <= leg <= len(product.factors)):
        raise ValueError(f"invalid leg {leg}")
    factor = product.factors[leg - 1]
    if x.pres is not factor:
        raise PresentationMismatchError()
    return retag(x, product, product.leg_offsets[leg - 1])


def braiding_failures(A, j1, j2):
    """Generator pairs on which the cross-leg law fails for two leg maps.

    ``j1`` and ``j2`` are homomorphisms from ``A`` into one algebra, such as
    the two leg embeddings of a twisted square.  Checks
    ``j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x)``, with ``zeta`` the twist
    of ``A``, for every pair of generators x, y of ``A`` and returns the
    failing pairs as ``(name of x, name of y)``.  Both sides are
    multiplicative in x and in y and the degree pairing is a bicharacter, so
    an empty list proves the law for every pair of monomials by induction on
    word length.
    """
    zeta = A.params["zeta"]
    failures = []
    for gx, gy in itertools.product(A.generators, repeat=2):
        x, y = j1(A.gen(gx.name)), j2(A.gen(gy.name))
        if x * y != (y * x).scale(zeta ** (gx.degree * gy.degree)):
            failures.append((gx.name, gy.name))
    return failures


def grading_flip(pres):
    """The same presentation with every degree negated.

    Flipping a tensor product returns the tensor product of the flipped
    factors with the same twist: the cross-leg coefficient depends on the
    product of two degrees, which a global sign flip leaves unchanged.
    """
    if pres._flip is not None:
        return pres._flip
    if pres.factors is not None:
        flipped = twisted_tensor(
            [grading_flip(f) for f in pres.factors], pres.params["zeta"]
        )
    else:
        flipped = Presentation(
            pres.label + "-flip",
            [Generator(g.name, -g.degree, g.adjoint) for g in pres.generators],
            list(pres.rules.values()),
            params=pres.params,
        )
    pres._flip = flipped
    flipped._flip = pres
    return flipped

