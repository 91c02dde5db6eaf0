"""Twisted tensor products of presented graded algebras.

``twisted_tensor([P1, ..., Pn], zeta)`` builds one flat presentation whose
letters carry leg tags 1..n.  Normal words put leg-1 letters first, then
leg-2, and so on; a leg-j letter y of degree l directly left of a leg-i
letter x of degree k (i < j) commutes across it with the factor
``zeta^(-k*l)``, which is the directed form of the cross-leg commutation law
``j_i(x) j_j(y) = zeta^(k*l) j_j(y) j_i(x)``.  Iterating is unnecessary: the
triple product is built directly with three legs and the same pairwise
twist, and bracketed forms are identified with it letter-for-letter.
"""

from __future__ import annotations

import itertools

from .algebra import Generator, Presentation, RewriteRule, _cached
from .errors import PresentationMismatchError
from .scalars import Scalar


def twisted_tensor(factors, zeta=None):
    """The zeta-twisted tensor product of two or more base presentations."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("a tensor product needs at least two factors")
    for f in factors:
        if f.factors is not None:
            raise ValueError("tensor factors must be base presentations")
    if zeta is None:
        zeta = Scalar.zeta()
    if not isinstance(zeta, Scalar):
        raise TypeError("zeta must be a Scalar")
    if not (zeta * zeta.conjugate()).is_one():
        raise ValueError("zeta must be formally unimodular")

    def build():
        gens = []
        offsets = [0]
        for leg, f in enumerate(factors, start=1):
            base = offsets[-1]
            for g in f.generators:
                gens.append(Generator(g.name, g.degree, g.adjoint + base, leg))
            offsets.append(base + f.n_gens)

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

    return _cached(("tensor", tuple(f._token for f in factors), zeta), build)


def retag(x, target, offset):
    """Copy an element into ``target`` shifting every letter by ``offset``."""
    raw = [(c, tuple(i + offset for i in w)) for w, c in x.terms()]
    return target.normalize_raw(raw)


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
        flipped = _cached(
            ("flip", pres._token),
            lambda: Presentation(
                pres.label + "-flip",
                [Generator(g.name, -g.degree, g.adjoint, g.leg) for g in pres.generators],
                list(pres.rules.values()),
                params=pres.params,
            ),
        )
    pres._flip = flipped
    flipped._flip = pres
    return flipped


def tensor_morphism(morphisms, target):
    """The morphism between tensor products acting leg-wise.

    ``morphisms`` is one generator morphism per source leg; ``target`` must be
    the flat tensor product whose leg list is the concatenation of the target
    leg lists of the given morphisms, and a morphism whose target is itself a
    tensor product must share the twist of ``target``.  Each morphism must be
    verified (else ``UnverifiedMorphismError`` names it) and degree-preserving.

    The result is proved, not expanded.  Retagging into ``target`` is a
    homomorphism on each part's target, so each part's empty residuals cover
    the relations inside its leg.  For a cross-leg rule y x -> zeta^(-k l) x y,
    with x of degree k in an earlier leg and y of degree l in a later one,
    the images are homogeneous of degrees k and l, and every letter of y's
    image stands after every letter of x's image in the leg order.  Since
    zeta^(-deg * deg) is a bicharacter, the image of y times that of x equals
    zeta^(-k l) times the product in the other order.
    """
    from .morphisms import _proved

    morphisms = list(morphisms)
    if target.factors is None:
        raise ValueError("target must be a tensor-product presentation")
    zeta = target.params["zeta"]
    source_factors = tuple(m.source for m in morphisms)
    source = twisted_tensor(source_factors, zeta)
    expected = []
    for m in morphisms:
        expected.extend(m.target.factors or (m.target,))
    if tuple(expected) != target.factors:
        raise PresentationMismatchError(
            "presentation-mismatch: target legs do not match morphism targets"
        )
    for m in morphisms:
        if m.target.factors is not None and m.target.params["zeta"] != zeta:
            raise PresentationMismatchError(
                f"presentation-mismatch: '{m.name}' maps into a tensor product "
                "with another twist"
            )
        m._require_verified()
        if not m.is_equivariant():
            raise ValueError(
                "tensor_morphism needs degree-preserving (equivariant) morphisms"
            )

    images = {}
    offset = 0
    for leg, m in enumerate(morphisms, start=1):
        src_base = source.leg_offsets[leg - 1]
        for i, g in enumerate(m.source.generators):
            if i > g.adjoint:
                continue  # starred images are forced
            images[src_base + i] = retag(m.letter_image(i), target, offset)
        offset += m.target.n_gens

    name = " x ".join(m.name for m in morphisms)
    return _proved(source, target, images, f"({name})")
