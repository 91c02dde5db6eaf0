"""Twisted tensor products, leg embeddings, and the grading flip."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import (
    PresentationMismatchError,
    Scalar,
    embed,
    grading_flip,
    suq2_presentation,
    tensor_morphism,
    twisted_tensor,
    uq2_presentation,
)
from suq2.algebra import Presentation
from suq2.braided import retag
from suq2.cli import ALGEBRAS, _algebra
from suq2.morphisms import delta_su, delta_uq2, identity_morphism, iota2

A = suq2_presentation()
ZETA = A.params["zeta"]
AA = twisted_tensor([A, A], ZETA)
A3 = twisted_tensor([A, A, A], ZETA)


def j(leg, x, product=AA):
    return embed(product, leg, x)


def test_products_are_cached():
    assert twisted_tensor([A, A], ZETA) is AA
    assert twisted_tensor([A, A, A], ZETA) is A3


def test_cross_rule_examples():
    g, gs, a = A.gen("g"), A.gen("g'"), A.gen("a")
    # j2(g) j1(g) -> zeta^-1 j1(g) j2(g)
    assert j(2, g) * j(1, g) == (j(1, g) * j(2, g)).scale(ZETA.inverse())
    # degree-zero letters cross freely
    for x in (g, gs, a, A.gen("a'")):
        assert j(2, a) * j(1, x) == j(1, x) * j(2, a)
    # j2(g') j1(g) -> zeta j1(g) j2(g')
    assert j(2, gs) * j(1, g) == (j(1, g) * j(2, gs)).scale(ZETA)


def _cross_rules(product):
    """The (x, y, coefficient) of every cross-leg rule y x -> c x y of ``product``."""
    starts = product.leg_offsets[1:-1]

    def leg(i):
        return sum(i >= lo for lo in starts)

    out = []
    for lhs, rule in product.rules.items():
        if leg(lhs[0]) != leg(lhs[-1]):
            ((c, (x, y)),) = rule.rhs
            out.append((x, y, c))
    return out


def test_degree_zero_cross_rules_carry_the_shared_one():
    U = uq2_presentation()
    # every letter of uq2 has degree 0, so every cross rule has zeta^0
    cross = _cross_rules(twisted_tensor([U, U], U.params["zeta"]))
    assert len(cross) == U.n_gens**2
    assert all(c is Scalar.one() for _, _, c in cross)
    for product in (AA, A3):
        cross = _cross_rules(product)
        assert len(cross) == (16 if product is AA else 48)
        for x, y, c in cross:
            flat = product.generators[x].degree * product.generators[y].degree == 0
            assert (c is Scalar.one()) == flat, (x, y)


def test_build_computes_each_twist_power_once(monkeypatch):
    from suq2 import algebra

    powers = []
    power = Scalar.__pow__

    def counted(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(algebra, "_PRESENTATION_CACHE", {})
    monkeypatch.setattr(Scalar, "__pow__", counted)
    fresh = twisted_tensor([A, A, A], ZETA)
    # the degrees are 1, -1, 0, 0, so the products are -1, 0 and 1
    assert sorted(powers) == [-1, 0, 1]
    assert fresh is not A3
    assert fresh.rules == A3.rules


def test_embed_is_a_unital_star_homomorphism():
    x = A.gen("a") * A.gen("g") - A.gen("g'").scale(A.params["q"])
    y = A.gen("g") * A.gen("a'")
    for leg in (1, 2):
        assert j(leg, x * y) == j(leg, x) * j(leg, y)
        assert j(leg, x.adjoint()) == j(leg, x).adjoint()
        assert j(leg, A.unit()) == AA.unit()
        assert j(leg, x).degree() == x.degree()


def test_embed_rejects_bad_leg_and_presentation():
    with pytest.raises(ValueError):
        embed(AA, 3, A.gen("a"))
    with pytest.raises(ValueError):
        embed(A, 1, A.gen("a"))
    B = grading_flip(A)
    with pytest.raises(PresentationMismatchError):
        embed(AA, 1, B.gen("a"))


def test_cross_commutation_witness():
    # j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x) on monomials
    rng = random.Random(5)
    words = [tuple(rng.randrange(4) for _ in range(rng.randint(1, 3))) for _ in range(40)]
    words += [(i,) for i in range(4)]
    for xw, yw in zip(words, reversed(words)):
        x, y = A.normalize_raw([(1, xw)]), A.normalize_raw([(1, yw)])
        k, l = A.degree_of_word(xw), A.degree_of_word(yw)
        assert j(1, x) * j(2, y) == (j(2, y) * j(1, x)).scale(ZETA ** (k * l))


def test_ordinary_tensor_legs_commute():
    plain = twisted_tensor([A, A], Scalar.one())
    for xi, yi in itertools.product(range(4), repeat=2):
        x, y = A.gen(xi), A.gen(yi)
        assert (
            embed(plain, 1, x) * embed(plain, 2, y)
            == embed(plain, 2, y) * embed(plain, 1, x)
        )


def test_triple_product_association_orders_agree():
    x = A.gen("a") * A.gen("g")
    y = A.gen("g'")
    z = A.gen("a'") * A.gen("g")
    e1, e2, e3 = j(1, x, A3), j(2, y, A3), j(3, z, A3)
    assert (e1 * e2) * e3 == e1 * (e2 * e3)
    # fully mixed word reduces to leg-sorted normal form
    mixed = e3 * e1 * e2
    for word, _ in mixed.terms():
        assert _join_legs(A3, A3.split_legs(word)) == word


def _join_legs(product, locals_):
    """The word whose legs are ``locals_``, leg 1 first."""
    return tuple(i + off for off, local in zip(product.leg_offsets, locals_) for i in local)


def test_split_legs_round_trips_every_normal_word():
    normal = {
        w
        for n in range(4)
        for word in itertools.product(range(A3.n_gens), repeat=n)
        for _, w in A3.reduce_word(word)
    }
    assert len(normal) > 100
    for word in normal:
        legs = A3.split_legs(word)
        assert len(legs) == 3
        assert all(0 <= i < A.n_gens for local in legs for i in local)
        assert _join_legs(A3, legs) == word


def test_a_bare_name_on_a_tensor_product_means_leg_1():
    assert A3.gen_index("a") == A.gen_index("a")
    assert A3.gen("g'") == embed(A3, 1, A.gen("g'"))


# -- normal by construction: embed, retag and gen build their words directly --------

B = uq2_presentation()
BB = twisted_tensor([B, B], Scalar.one())
B3 = twisted_tensor([B, B, B], Scalar.one())


def _random_normal(pres, rng):
    """A seeded element of ``pres``: a few random words reduced by the engine."""
    coeffs = (Scalar.one(), -Scalar.from_int(2), pres.params["q"], Scalar.imag_unit())
    raw = [
        (rng.choice(coeffs), tuple(rng.randrange(pres.n_gens) for _ in range(rng.randint(0, 4))))
        for _ in range(rng.randint(1, 4))
    ]
    return pres.normalize_raw(raw)


def _reduced_shift(target, x, offset):
    """``x``'s words shifted by ``offset`` and reduced in ``target``: the oracle."""
    return target.normalize_raw([(c, tuple(i + offset for i in w)) for w, c in x.terms()])


@pytest.mark.parametrize(
    "product", [AA, A3, BB], ids=["suq2-tensor2", "suq2-tensor3", "uq2-square"]
)
def test_embed_of_normal_elements_needs_no_reduction(product):
    rng = random.Random(29)
    for leg, factor in enumerate(product.factors, start=1):
        offset = product.leg_offsets[leg - 1]
        for _ in range(40):
            x = _random_normal(factor, rng)
            assert embed(product, leg, x) == _reduced_shift(product, x, offset)


@pytest.mark.parametrize(
    "delta, cube",
    [(delta_su(), A3), (delta_uq2(), B3)],
    ids=["suq2", "uq2"],
)
def test_retag_of_comultiplication_images_into_the_cube(delta, cube):
    # legs (1, 2) and legs (2, 3) of the cube
    for offset in cube.leg_offsets[:2]:
        for image in delta.images.values():
            assert retag(image, cube, offset) == _reduced_shift(cube, image, offset)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_gen_is_the_reduced_letter(name):
    pres = _algebra(name)
    for i in range(pres.n_gens):
        assert pres.gen(i) == pres.normalize_raw([(1, (i,))])


def test_embed_retag_and_gen_reduce_nothing(monkeypatch):
    rng = random.Random(3)
    xs = [_random_normal(A, rng) for _ in range(10)]
    images = list(delta_su().images.values())

    def refuse(*args):
        raise AssertionError("a normal-by-construction word went to the reducer")

    for method in ("reduce_word", "normalize_raw"):
        monkeypatch.setattr(Presentation, method, refuse)
    for x in xs:
        for leg in (1, 2, 3):
            embed(A3, leg, x)
    for image in images:
        retag(image, A3, A3.leg_offsets[1])
    monkeypatch.setattr(A3, "_gens", {})
    for i in range(A3.n_gens):
        A3.gen(i)
    with pytest.raises(ValueError, match="out of range"):
        A3.gen(A3.n_gens)


def test_grading_flip_involution_and_degrees():
    S = grading_flip(A)
    assert S.generators[A.gen_index("g")].degree == -1
    assert grading_flip(S) is A
    # same rules, same normal forms
    raw = [(Scalar.one(), (3, 2, 0, 1))]
    assert S.normalize_raw(raw).terms() == A.normalize_raw(raw).terms()


def test_flip_of_product_keeps_twist():
    SS = grading_flip(AA)
    S = grading_flip(A)
    assert SS is twisted_tensor([S, S], ZETA)
    g = S.gen("g")
    lhs = embed(SS, 2, g) * embed(SS, 1, g)
    assert lhs == (embed(SS, 1, g) * embed(SS, 2, g)).scale(ZETA.inverse())


def test_tensor_morphism_bifunctoriality():
    d = delta_su()
    d.check()
    ident = identity_morphism(A)
    ident.check()
    m = tensor_morphism([d, ident], A3)
    assert m.check()
    # on leg 1 generators: m(j1(x)) = retag of delta(x) into legs (1, 2)
    for name in ("a", "g"):
        x = A.gen(name)
        got = m.apply(embed(AA, 1, x))
        expected_terms = []
        for word, coeff in d.apply(x).terms():
            expected_terms.append((coeff, word))  # legs 1,2 keep their indices
        assert got == A3.normalize_raw(expected_terms)
    # on leg 2: m(j2(x)) = j3(x)
    offset = A3.leg_offsets[2] - 0
    for name in ("a", "g", "g'"):
        x = A.gen(name)
        got = m.apply(embed(AA, 2, x))
        expected = A3.normalize_raw(
            [(c, tuple(i + offset for i in w)) for w, c in x.terms()]
        )
        assert got == expected


def test_tensor_morphism_identity_pair_is_identity():
    ident = identity_morphism(A)
    ident.check()
    m = tensor_morphism([ident, ident], AA)
    x = j(1, A.gen("a")) * j(2, A.gen("g"))
    assert m.apply(x) == x


def test_tensor_morphism_rejects_non_equivariant():
    i2 = iota2()
    i2.check()
    assert i2.degree_residuals()
    B = i2.target.factors[0]
    target4 = twisted_tensor([B, B, B, B], Scalar.one())
    with pytest.raises(ValueError, match="equivariant"):
        tensor_morphism([i2, i2], target4)
