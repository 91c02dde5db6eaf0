"""Field arithmetic, conjugation, and numeric evaluation of scalars."""

import cmath
import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import PoleError, Scalar, ZeroDivisorError, parse, suq2_presentation
from suq2 import scalars as scalars_module

Q = Scalar.q()
QB = Scalar.qbar()
ZETA = Scalar.zeta()
ONE = Scalar.one()
I = Scalar.imag_unit()


# -- strategies ---------------------------------------------------------------

small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def monomials(draw):
    a = draw(st.integers(min_value=-2, max_value=2))
    b = draw(st.integers(min_value=-2, max_value=2))
    re = draw(small_ints)
    im = draw(st.integers(min_value=-2, max_value=2))
    return Scalar.monomial(a, b, re, im)


@st.composite
def scalars(draw):
    terms = draw(st.lists(monomials(), min_size=1, max_size=3))
    total = Scalar.zero()
    for t in terms:
        total = total + t
    if draw(st.booleans()):
        den = draw(monomials()) + ONE
        if not den.is_zero():
            total = total / den
    return total


nonzero_scalars = scalars().filter(lambda s: not s.is_zero())


# -- examples -----------------------------------------------------------------


def test_zeta_is_unimodular():
    assert (ZETA * ZETA.conjugate()).is_one()


def test_modulus_square_is_self_conjugate():
    m = Q * QB
    assert (m - m.conjugate()).is_zero()


def test_additive_inverse():
    assert (Q + (-Q)).is_zero()


def test_conjugation_swaps_variables():
    assert Q.conjugate() == QB
    assert (I * Q**2).conjugate() == -(I * QB**2)
    assert ZETA.conjugate() == ZETA.inverse()


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisorError, match="zero-divisor"):
        ONE / Scalar.zero()
    with pytest.raises(ZeroDivisorError):
        Scalar.zero().inverse()


def test_gcd_cancellation():
    assert (ONE - Q**2 * QB**2) / (ONE - Q * QB) == ONE + Q * QB
    assert (Q**3 * QB) / (Q * QB) == Q**2


def test_int_and_fraction_operands_on_the_left():
    # the reflected operators; a Fraction goes through _coerce and gaussian
    assert 1 - Q == -Q + ONE
    assert (1 - Q).render() == "-q + 1"
    assert 1 / Q == Q**-1
    assert Fraction(1, 2) * Q == Q / 2
    assert (Fraction(1, 2) * Q).render() == "1/2*q"


def test_coefficients_are_ints_or_fractions():
    assert Scalar.gaussian(Fraction(1, 2), -3) == ONE / 2 - 3 * I
    assert Scalar.monomial(2, -1, Fraction(-3, 4), 1) == (Fraction(-3, 4) + I) * Q**2 / QB
    for bad in (0.1, 1 + 0j, "1"):
        for build in (
            lambda: Scalar.gaussian(bad),
            lambda: Scalar.gaussian(0, bad),
            lambda: Scalar.monomial(0, 0, bad),
        ):
            with pytest.raises(TypeError, match="as a coefficient"):
                build()


def test_exponents_are_integers():
    # q^0.5 would render as text the parser refuses
    for bad in (0.5, "1"):
        with pytest.raises(TypeError, match="^q_exp must be an integer"):
            Scalar.monomial(bad, 0)
        with pytest.raises(TypeError, match="^qb_exp must be an integer"):
            Scalar.monomial(0, bad)
    assert Scalar.monomial(True, 0) == Q and Scalar.monomial(0, True).render() == "qb"
    big = Scalar.monomial(2**40, 0)
    assert big.render() == f"q^{2**40}" and big == Q ** (2**40)


def test_one_joiner_prints_every_sum():
    terms = [("1", "a"), ("-1", "g"), ("-2", ""), ("(1+i)", "q"), ("1/2", "qb")]
    assert scalars_module.join_terms(terms) == "a - g - 2 + (1+i)*q + 1/2*qb"
    # a denominator's leading coefficient 1+i divides every printed coefficient
    assert (ONE / ((1 + I) * Q + 2)).render() == "(1/2-1/2*i)/(q + (1-i))"


def test_evaluate_examples():
    assert abs(ZETA.evaluate(1 + 1j) - 1j) < 1e-12
    assert abs((Q * QB).evaluate(0.6 + 0.8j) - 1.0) < 1e-12


def test_evaluate_pole_on_unit_circle():
    thousand = Scalar.from_int(1000)
    # the last point has q*qb = 1 + 1e-14
    for f in (ONE / (ONE - Q * QB), ONE / (thousand - thousand * Q * QB)):
        for qv in (1.0, 1j, 0.6 + 0.8j, math.sqrt(1 + 1e-14)):
            with pytest.raises(PoleError, match="pole-at-q"):
                f.evaluate(qv)


def test_evaluate_rejects_zero():
    with pytest.raises(PoleError):
        Q.evaluate(0)


def test_render_round_trip_via_parser():
    A = suq2_presentation()
    for s in (ZETA, Q**-2, (Q**2 - QB) / (ONE - Q * QB), I * Q + Scalar.from_int(2)):
        assert parse(s.render(), A) == A.scalar(s)


def test_reduced_pairs_skip_the_multi_term_gcd(monkeypatch):
    x = (Q * QB + 2 * Q + I) / (3 * Q**2 + QB + 1)
    assert len(x._num) > 1 and len(x._den) > 1
    calls = []
    gcd = scalars_module._pgcd_nontrivial

    def counted(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(scalars_module, "_pgcd_nontrivial", counted)
    assert x.conjugate().conjugate() == x
    assert x.inverse().inverse() == x
    assert x * Scalar.one() == x
    assert calls == []
    assert (x * x.inverse()).is_one()
    assert calls


def test_powers_use_repeated_squaring(monkeypatch):
    x = (Q * QB + 2 * Q + I) / (3 * Q**2 + QB + 1)
    linear = ONE
    for _ in range(13):
        linear = linear * x
    assert x**13 == linear
    assert x**-13 == linear.inverse()
    calls = []
    pmul = scalars_module._pmul

    def counted(f, g):
        calls.append(None)
        return pmul(f, g)

    monkeypatch.setattr(scalars_module, "_pmul", counted)
    for n in (1024, -1024):
        calls.clear()
        power = Q**n
        # two products (num and den) per squaring and per set bit
        assert len(calls) <= 4 * abs(n).bit_length()
        assert power == Scalar.monomial(n, 0)


# -- monomial products of __mul__ against the full quotient ---------------------

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# Gaussian integers with a non-unit norm: 2 = -i(1+i)^2, 1+i, 3, 2+2i, 1+2i
_CONTENTS = ((2, 0), (1, 1), (3, 0), (2, 2), (1, 2))


def _gi(rng, bound=4):
    c = (0, 0)
    while c == (0, 0):
        c = (rng.randint(-bound, bound), rng.randint(-bound, bound))
    return c


def _zi_poly(rng, nterms, low):
    """A random polynomial over Z[i] with exponents in [low, 2]."""
    out = {}
    while len(out) < nterms:
        out[(rng.randint(low, 2), rng.randint(low, 2))] = _gi(rng)
    return out


def _mono(rng, coeff):
    """c*q^a*qb^b over 1."""
    return Scalar({(rng.randint(-3, 3), rng.randint(-3, 3)): coeff})


def _rational(rng):
    num, den = (_zi_poly(rng, rng.randint(1, 3), low) for low in (-2, 0))
    return scalars_module._quotient(num, den)


def _content_pair(rng):
    """c times N/D where c shares a Gaussian-integer factor with D's content."""
    (x, y), (u, v) = rng.choice(_CONTENTS), _gi(rng, 2)
    den = scalars_module._pmul({(0, 0): (x, y)}, _zi_poly(rng, rng.randint(2, 3), 0))
    other = scalars_module._quotient({(rng.randint(-2, 2), 0): rng.choice(_UNITS)}, den)
    return _mono(rng, (x * u - y * v, x * v + y * u)), other


def test_monomial_products_match_the_full_quotient():
    quotient, pmul = scalars_module._quotient, scalars_module._pmul
    rng = random.Random(8)
    kinds = {
        "monomial x monomial": lambda: (_mono(rng, _gi(rng)), _mono(rng, _gi(rng))),
        "monomial x rational": lambda: (_mono(rng, _gi(rng)), _rational(rng)),
        "unit x rational": lambda: (_mono(rng, rng.choice(_UNITS)), _rational(rng)),
        "content": lambda: _content_pair(rng),
    }
    shared_content = 0
    for _ in range(500):
        for kind, draw in kinds.items():
            a, b = draw()
            expected = quotient(pmul(a._num, b._num), pmul(a._den, b._den))
            assert a * b == expected, (kind, a, b)
            assert b * a == expected, (kind, a, b)
            if kind == "content" and expected._den != b._den:
                shared_content += 1
    # the content draws really do cancel a Gaussian integer
    assert shared_content > 400
    assert Scalar.from_int(2) * (ONE / (2 * Q + 2)) == ONE / (Q + 1)
    x = ONE / ((1 + I) * Q + 1 + I)
    assert (1 + I) * x == ONE / (Q + 1)


def test_scalar_element_products_match_normalize_raw():
    from suq2.cli import ALGEBRAS, _algebra

    rng = random.Random(10)
    for name in ALGEBRAS:
        pres = _algebra(name)

        def word():
            return tuple(rng.randrange(pres.n_gens) for _ in range(rng.randint(0, 3)))

        for _ in range(20):
            s = pres.scalar(_rational(rng))
            x = pres.normalize_raw([(_rational(rng), word()) for _ in range(3)])
            for left, right in ((s, x), (x, s), (s, s)):
                raw = [
                    (c1 * c2, w1 + w2)
                    for w1, c1 in left.terms()
                    for w2, c2 in right.terms()
                ]
                assert left * right == pres.normalize_raw(raw), name


# -- Henrici addition against the full quotient ---------------------------------


def _sum_reference(a, b):
    """a + b by the full cross-multiplied quotient: one gcd of the whole thing."""
    pmul = scalars_module._pmul
    (n1, d1), (n2, d2) = (a._num, a._den), (b._num, b._den)
    return scalars_module._quotient(
        scalars_module._padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2)
    )


def _linear(rng):
    """c1*m + c0 with m one of q, qb, q*qb: small, so the reference stays quick."""
    return {rng.choice(((1, 0), (0, 1), (1, 1))): _gi(rng), (0, 0): _gi(rng)}


def _over(rng, den):
    """A random Laurent numerator over den, brought to canonical form."""
    return scalars_module._quotient(_zi_poly(rng, rng.randint(1, 3), -2), den)


def _partly_cancelling(rng):
    """x + y whose numerator over g = f1*f2 is a multiple of f2."""
    pmul, padd, pneg = scalars_module._pmul, scalars_module._padd, scalars_module._pneg
    f1, f2, e2 = _linear(rng), _linear(rng), _linear(rng)
    g = pmul(f1, f2)
    n1 = _zi_poly(rng, rng.randint(1, 2), 0)
    # n1*e2 + n2 = k*f2 for the sum n1/g + n2/(g*e2)
    n2 = padd(pmul(_zi_poly(rng, 1, 0), f2), pneg(pmul(n1, e2)))
    return (
        scalars_module._quotient(n1, g),
        scalars_module._quotient(n2, pmul(g, e2)),
    )


def test_henrici_addition_matches_the_full_quotient():
    pmul = scalars_module._pmul
    rng = random.Random(12)

    def planted():
        f = _linear(rng)
        return _over(rng, pmul(f, _linear(rng))), _over(rng, pmul(f, _linear(rng)))

    def equal_dens():
        den = pmul(_linear(rng), _linear(rng))
        return _over(rng, den), _over(rng, den)

    def content():
        (x, y), (u, v) = rng.choice(_CONTENTS), rng.choice(_CONTENTS)
        c1 = {(0, 0): (x, y)}
        return _over(rng, pmul(c1, _linear(rng))), _over(rng, {(0, 0): (u, v)})

    def one_den_1():
        return _mono(rng, _gi(rng)) + _mono(rng, _gi(rng)), _rational(rng)

    def cancels_to_zero():
        a, b = _rational(rng), _rational(rng)
        return a, (b - a if rng.randrange(2) else -a)

    kinds = {
        "coprime": lambda: (_rational(rng), _rational(rng)),
        "planted factor": planted,
        "equal denominators": equal_dens,
        "denominator 1": one_den_1,
        "content": content,
        "cancels to zero": cancels_to_zero,
        "cancels part of g": lambda: _partly_cancelling(rng),
    }
    partly = 0
    for _ in range(286):
        for kind, draw in kinds.items():
            a, b = draw()
            expected = _sum_reference(a, b)
            assert a + b == expected, (kind, a, b)
            assert b + a == expected, (kind, a, b)
            if kind == "cancels part of g":
                g = scalars_module._pgcd(a._den, b._den)
                lcm = pmul(a._den, scalars_module._pdivexact(b._den, g))
                partly += max(map(sum, expected._den)) < max(map(sum, lcm))
    # the planted draws really do cancel a factor of the denominators' gcd
    assert partly > 200
    assert ONE / (2 * Q + 2) + Scalar.gaussian(1, 0) / 2 == (Q + 2) / (2 * Q + 2)
    x = ONE / ((1 + I) * Q + 1 + I)
    assert x + ONE / (1 + I) == (Q + 2) / ((1 + I) * Q + 1 + I)
    assert x - x == Scalar.zero()


def _counting(monkeypatch, name, top_level_only=False):
    """Record the argument pairs of the module function ``name``."""
    calls, depth = [], [0]
    real = getattr(scalars_module, name)

    def wrapper(f, g):
        if not (top_level_only and depth[0]):
            calls.append((f, g))
        depth[0] += 1
        try:
            return real(f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(scalars_module, name, wrapper)
    return calls


def test_coprime_sums_compute_one_gcd_and_no_cancel(monkeypatch):
    x = (Q * QB + 2 * Q + I) / (3 * Q**2 + QB + 1)
    y = (Q - 5 * I) / (QB**2 + 2 * Q * QB + 7)
    assert len(x._den) > 1 and len(y._den) > 1
    # a shared Gaussian-integer content is cancelled against g alone
    a, b = ONE / (2 * Q + 2), Scalar.gaussian(1, 0) / 2
    expected = _sum_reference(x, y), (Q + 2) / (2 * Q + 2)
    cancels = _counting(monkeypatch, "_cancel")
    gcds = _counting(monkeypatch, "_pgcd", top_level_only=True)
    assert x + y == expected[0]
    assert cancels == []
    assert gcds == [(x._den, y._den)]
    gcds.clear()
    assert a + b == expected[1]
    assert gcds[0] == (a._den, b._den)
    assert [den for _, den in cancels] == [{(0, 0): (2, 0)}]


# the cliff reproducer: the products' denominators share a factor, and a single
# gcd of the whole cross-multiplied sum grew PRS coefficients for seconds
_CLIFF = (
    "((7/5-6/5*i)*q*qb^-1 + (8/5+1/5*i)*q^-1*qb + (9/5-2/5*i)*q^-2*qb^2)"
    "/(q*qb^2 + (-2/5+1/5*i))",
    "((4-i)*q^4*qb^3 + (-4+2*i)*q^3 - q^2*qb^4)/(q^2*qb^2 + (-2+i))",
    "((3-3*i)*q^2*qb^3 + (-1+i))/(q^2*qb + 4)",
)
_CLIFF_SUM = (
    "(((22/5-31/5*i)*q^7*qb^3 + (-16/5+38/5*i)*q^6 + (33/5-4/5*i)*q^5*qb^5"
    " + (-4/5-33/5*i)*q^5*qb^4 + (88/5-124/5*i)*q^5*qb^2"
    " + (34/5-17/5*i)*q^4*qb^6 + (-34/5+12/5*i)*q^4*qb^2"
    " + (-64/5+152/5*i)*q^4*qb^-1 + (19/5-22/5*i)*q^3*qb^6"
    " + (132/5-16/5*i)*q^3*qb^4 + (-12+10*i)*q^3*qb^3"
    " + (33/5+81/5*i)*q^3*qb^2 + (-1/5+13/5*i)*q^3*qb"
    " + (12/5-31/5*i)*q^2*qb^7 + (136/5-68/5*i)*q^2*qb^5"
    " + (-136/5+48/5*i)*q^2*qb + (-32/5-4/5*i)*q*qb^5"
    " + (-33/5+69/5*i)*q*qb^4 + (-9/5+7/5*i)*q*qb^3"
    " + (-128/5+104/5*i)*q*qb^2 + (-11/5-27/5*i)*q*qb^-1"
    " + (-36/5+8/5*i)*qb^6 + (-9/5+87/5*i)*qb^5 + (-7/5+11/5*i)*qb^4"
    " + (11/5-23/5*i)*q^-1*qb + (3/5-29/5*i)*q^-2*qb^2)/(q^5*qb^5"
    " + (-2/5+1/5*i)*q^4*qb^3 + 4*q^3*qb^4 + (-2+i)*q^3*qb^3"
    " + (-8/5+4/5*i)*q^2*qb^2 + (3/5-4/5*i)*q^2*qb + (-8+4*i)*q*qb^2"
    " + (12/5-16/5*i)))"
)


def test_cliff_reproducer_sum_is_cheap(monkeypatch):
    A = suq2_presentation()
    a, b, c = (parse(text, A) for text in _CLIFF)
    ab, ac = a * b, a * c
    calls = _counting(monkeypatch, "_gi_gcd")
    total = ab + ac
    assert total.render() == _CLIFF_SUM
    # the full-quotient sum made 14,246 Gaussian-integer gcd calls
    assert len(calls) <= 1000


# -- the mod-p coprimality certificate of _pgcd against the PRS alone ------------


def _assoc(p):
    """The associate of p whose lex-leading coefficient has re > 0, im >= 0."""
    return scalars_module._unit_normal(p, p)[0]


def _vanishing_lc_factor(rng):
    """(q - t)(qb - t) + c: both leading coefficients vanish at the first point t."""
    t = scalars_module._POINTS[0]
    c = (t * t + rng.randint(1, 5), rng.randint(-3, 3))
    return {(1, 1): (1, 0), (1, 0): (-t, 0), (0, 1): (-t, 0), (0, 0): c}


def test_gcd_certificate_matches_the_prs(monkeypatch):
    pmul, pgcd = scalars_module._pmul, scalars_module._pgcd
    rng = random.Random(14)

    def poly(low=0):
        return _zi_poly(rng, rng.randint(1, 3), low)

    def planted(h):
        return pmul(h, poly()), pmul(h, poly())

    def q_factor():
        h = {}
        while not any(a for a, _ in h):
            h = poly()
        return planted(h)

    def qb_factor():
        h = {(0, rng.randint(1, 2)): _gi(rng), (0, 0): _gi(rng)}
        return planted(h)

    def content():
        (x, y), (u, v) = rng.choice(_CONTENTS), rng.choice(_CONTENTS)
        return pmul({(0, 0): (x, y)}, poly()), pmul({(0, 0): (u, v)}, poly())

    def monomial():
        k = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)])
        return pmul({k: _gi(rng)}, poly()), pmul({k: _gi(rng)}, poly())

    def vanishing_lc():
        h = _vanishing_lc_factor(rng)
        f = pmul(h, poly())
        return (f, pmul(h, poly())) if rng.randrange(2) else (f, poly())

    kinds = {
        "coprime": lambda: (poly(), poly()),
        "planted q factor": q_factor,
        "qb factor": qb_factor,
        "content": content,
        "monomial": monomial,
        "vanishing lc": vanishing_lc,
    }
    pairs = [(kind, *draw()) for _ in range(340) for kind, draw in kinds.items()]
    got = [_assoc(pgcd(f, g)) for _, f, g in pairs]
    with monkeypatch.context() as m:
        m.setattr(scalars_module, "_coprime_in", lambda f, g, var: False)
        want = [_assoc(pgcd(f, g)) for _, f, g in pairs]
    certified = {kind: 0 for kind in kinds}
    for (kind, f, g), x, y in zip(pairs, got, want):
        assert x == y, (kind, f, g)
        coprime_in = scalars_module._coprime_in
        proved = coprime_in(f, g, 0) and coprime_in(f, g, 1)
        # the certificate holds exactly when the gcd is a constant
        assert proved == (max(y) == (0, 0)), (kind, f, g)
        certified[kind] += proved
        if kind == "vanishing lc":
            assert scalars_module._image(f, 0, scalars_module._POINTS[0])[-1] == 0
    assert certified["coprime"] > 150 and certified["content"] > 150
    assert certified["vanishing lc"] > 100
    assert certified["planted q factor"] == certified["qb factor"] == 0
    assert certified["monomial"] == 0
    assert len(pairs) >= 2000


def test_certified_coprime_pairs_skip_the_prs(monkeypatch):
    prems = _counting(monkeypatch, "_prem")
    primitives = []
    real = scalars_module._primitive
    monkeypatch.setattr(
        scalars_module, "_primitive", lambda f: primitives.append(f) or real(f)
    )
    f = (3 + Q * QB)._num
    g = (2 + Q)._num
    assert _assoc(scalars_module._pgcd(f, g)) == {(0, 0): (1, 0)}
    assert prems == [] and primitives == []
    # the same pair with a common factor still takes the PRS
    h = (Q - QB + 1)._num
    pmul = scalars_module._pmul
    assert _assoc(scalars_module._pgcd(pmul(f, h), pmul(g, h))) == _assoc(h)
    assert prems and primitives


def test_product_by_one_is_the_other_factor():
    x = (Q * QB + 2 * Q + I) / (3 * Q**2 + QB + 1)
    for y in (x, Q, ZETA, Scalar.from_int(7), ONE, Scalar.zero()):
        assert y * Scalar.one() is y
        assert Scalar.one() * y is y
        assert y * 1 is y
        assert y**0 is Scalar.one()
    assert 1 * ONE is ONE
    assert ONE * 2 == 2 * ONE == Scalar.from_int(2)


def test_conjugation_keeps_the_shared_denominator_one():
    quotient = scalars_module._quotient
    rng = random.Random(28)
    for _ in range(300):
        r = _rational(rng)
        assert r.conjugate() == quotient(
            scalars_module._pconj(r._num), scalars_module._pconj(r._den)
        )
    # a polynomial keeps the shared denominator 1 under conjugation
    for p in (Q, Q * QB + 2 * I, Scalar.from_int(3)):
        assert p.conjugate()._den is scalars_module._ONE_POLY


# -- content-only cancellation and the denominator-1 paths ----------------------

# 2, 3i, 1+i and 4q^2 over 1: non-unit monomials sharing content with the dens
_CONTENT_MONOS = ({(0, 0): (2, 0)}, {(0, 0): (0, 3)}, {(0, 0): (1, 1)}, {(2, 0): (4, 0)})
# 2q + 2, (1+i)q + 2, 4q + 2 and 6qb + 3i: denominators with Gaussian content
_CONTENT_DENS = (
    {(1, 0): (2, 0), (0, 0): (2, 0)},
    {(1, 0): (1, 1), (0, 0): (2, 0)},
    {(1, 0): (4, 0), (0, 0): (2, 0)},
    {(0, 1): (6, 0), (0, 0): (0, 3)},
)


def _full_product(a, b):
    pmul = scalars_module._pmul
    return scalars_module._quotient(pmul(a._num, b._num), pmul(a._den, b._den))


def _fast_path_pairs(rng):
    """(kind, a, b) pairs for every shortcut of the product and the sum."""
    quotient = scalars_module._quotient

    def over(den):
        return quotient(_zi_poly(rng, rng.randint(1, 3), -2), den)

    def constant():
        return {(0, 0): rng.choice((_gi(rng, 6), rng.choice(_CONTENTS), (6, 0)))}

    pairs = []
    for _ in range(60):
        mono = Scalar(rng.choice(_CONTENT_MONOS))
        pairs.append(("content", mono, over(rng.choice(_CONTENT_DENS))))
        pairs.append(("content", _mono(rng, _gi(rng, 6)), over(rng.choice(_CONTENT_DENS))))
        pairs.append(("constant den", _mono(rng, _gi(rng, 6)), over(constant())))
        pairs.append(("constant den", _rational(rng), over(constant())))
        x = Scalar(_zi_poly(rng, rng.randint(1, 3), -2))
        pairs.append(("den 1", x, Scalar(_zi_poly(rng, rng.randint(1, 3), -2))))
        pairs.append(("den-1 sum to 0", x, -x))
        one = Scalar({(0, 0): (1, 0)})  # equal to 1, but not the shared instance
        pairs.append(("product with 1", one, rng.choice((_rational(rng), x))))
    return pairs


def test_fast_paths_match_the_full_quotient():
    rng = random.Random(14)
    cancelled = 0
    for kind, a, b in _fast_path_pairs(rng):
        product = _full_product(a, b)
        assert a * b == b * a == product, (kind, a, b)
        cancelled += kind == "content" and product._den != b._den
        assert a + b == b + a == _sum_reference(a, b), (kind, a, b)
        if kind == "den-1 sum to 0":
            assert (a + b).is_zero()
    # the content draws really do cancel a Gaussian integer
    assert cancelled > 40
    assert Scalar.from_int(-2).inverse() == Scalar.gaussian(Fraction(-1, 2))
    assert Scalar.from_int(-2).inverse()._den == {(0, 0): (2, 0)}
    assert (3 * I) * (ONE / 6) == I / 2
    assert scalars_module._pmul(scalars_module._ONE_POLY, (Q + 1)._num) == (Q + 1)._num


def test_fast_paths_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q, qb = sympy.symbols("q qb")

    def poly(p, shift=(0, 0)):
        return sum(
            (re + sympy.I * im) * q ** (a - shift[0]) * qb ** (b - shift[1])
            for (a, b), (re, im) in p.items()
        )

    rng = random.Random(15)
    for kind, a, b in _fast_path_pairs(rng)[::11]:
        (na, da), (nb, db) = ((poly(x._num), poly(x._den)) for x in (a, b))
        for op, value in ((a * b, na * nb / (da * db)), (a + b, na / da + nb / db)):
            num, den = sympy.fraction(sympy.cancel(value))
            assert sympy.expand(poly(op._num) * den - poly(op._den) * num) == 0
            if op.is_zero():
                continue
            # reduced over Z[i]: the polynomial numerator and the denominator,
            # which has no monomial factor, share at most a unit
            n = poly(op._num, scalars_module._mins(op._num))
            assert sympy.gcd(n, poly(op._den)) in (1, -1, sympy.I, -sympy.I), (kind, a, b)


def test_small_integers_are_shared():
    assert Scalar.from_int(7) is Scalar.from_int(7)
    assert Scalar.from_int(0) is Scalar.zero()
    assert Scalar.from_int(1) is Scalar.one()
    assert Scalar.from_int(10) == Scalar.from_int(5) * 2
    assert Scalar.from_int(-3) == -Scalar.from_int(3)


def test_operations_never_mutate_their_operands():
    rng = random.Random(16)
    pool = [x for _, a, b in _fast_path_pairs(rng) for x in (a, b)]
    pool += [Scalar.from_int(n) for n in range(-2, 12)] + [Q, QB, ZETA, I, ONE]
    ops = (
        lambda x, y: x * y,
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x / y if not y.is_zero() else -x,
        lambda x, y: x ** rng.randint(-2, 3) if not x.is_zero() else x.conjugate(),
    )
    snapshot = [copy.deepcopy((x._num, x._den)) for x in pool]
    for _ in range(2000):
        x, y = rng.choice(pool), rng.choice(pool)
        z = rng.choice(ops)(x, y)
        if len(pool) < 600:
            pool.append(z)
            snapshot.append(copy.deepcopy((z._num, z._den)))
    assert [(x._num, x._den) for x in pool] == snapshot


# -- hash-consed terms -----------------------------------------------------------


@pytest.fixture
def roomy_tables(monkeypatch):
    """A copy of the pair table with room to spare, and a cold suq2 presentation.

    Earlier tests can fill the process-wide table, which then starts over
    from the constants' terms; and a cached presentation's memo may hold
    terms that an earlier generation of the table shared.
    """
    from suq2 import algebra

    monkeypatch.setattr(scalars_module, "_INTERN_CAP", 10**9)
    monkeypatch.setattr(scalars_module, "_PAIRS", dict(scalars_module._PAIRS))
    monkeypatch.setattr(algebra, "_PRESENTATION_CACHE", {})
    return suq2_presentation()


def _terms(values):
    """Every key and every coefficient of the Scalars' numerators and denominators."""
    polys = [p for s in values for p in (s._num, s._den)]
    return [k for p in polys for k in p], [c for p in polys for c in p.values()]


def test_equal_terms_are_one_object(roomy_tables):
    x, y = (Q + 2) * (QB + 3), (QB + 3) * (Q + 2)
    assert x == y and list(x._num) != list(y._num)  # other insertion orders
    assert {id(k) for k in x._num} == {id(k) for k in y._num}
    assert {id(c) for c in x._num.values()} == {id(c) for c in y._num.values()}
    s = (Q**2 * QB + 3 * I * Q - ZETA) / (2 * Q + I * QB + 1)
    t = s.conjugate().conjugate()
    for a, b in ((s._num, t._num), (s._den, t._den)):
        assert len(a) > 1
        assert all(ka is kb and a[ka] is b[kb] for ka, kb in zip(a, b))


def _rational_product_texts(rng, count):
    """Products of sums of (polynomial / polynomial) * letter, with small integer weights."""
    nums = ("q", "qb", "zeta", "i", "q^2", "qb^2", "q*qb", "i*q", "zeta*qb")
    dens = ("q", "qb", "q*qb")
    letters = ("g", "g'", "a", "a'")

    def term():
        num = f"{rng.randint(0, 2)} + {rng.randint(1, 3)}*{rng.choice(nums)}"
        den = f"{rng.randint(1, 3)} + {rng.randint(1, 3)}*{rng.choice(dens)}"
        return f"(({num})/({den}))*{rng.choice(letters)}"

    return [
        "*".join("(" + " + ".join(term() for _ in range(n)) + ")" for n in (2, rng.randint(1, 2)))
        for _ in range(count)
    ]


def _random_shared_poly(rng):
    """A polynomial of one to three terms, fetched from the pair table."""
    poly = {}
    for _ in range(rng.randint(1, 3)):
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        if c != (0, 0):
            poly[(rng.randint(-2, 2), rng.randint(0, 2))] = c
    return scalars_module._shared(poly or {(0, 0): (1, 1)})


def test_sharing_builders_return_the_tables_own_terms(roomy_tables):
    rng = random.Random(33)
    results = []
    for _ in range(300):
        f, g = _random_shared_poly(rng), _random_shared_poly(rng)
        results += [
            scalars_module._pmul(f, g),
            scalars_module._padd(f, g),
            scalars_module._pconj(f),
            *scalars_module._unit_normal(f, g),
        ]
    pairs = scalars_module._PAIRS
    terms = [t for p in results for item in p.items() for t in item]
    assert len(terms) > 3000
    assert all(pairs.get(t) is t for t in terms)


def test_kept_results_hold_few_copies_of_a_term(roomy_tables):
    A = roomy_tables
    results = []
    for text in _rational_product_texts(random.Random(32), 200):
        x = parse(text, A)
        results += [x, x.adjoint()]
    keys, coeffs = _terms(c for x in results for _, c in x.terms())
    assert len(keys) > 4000 and len(coeffs) > 4000
    # the builders that do not share (negation, shifts, exact division) leave a
    # few copies of a value; the four sharing builders keep them rare
    assert len({id(k) for k in keys}) <= 1.1 * len(set(keys))
    assert len({id(c) for c in coeffs}) <= 1.1 * len(set(coeffs))


def test_every_denominator_equal_to_one_is_the_shared_one():
    one = scalars_module._ONE_POLY
    assert Q.inverse()._den is one
    assert (-Q).inverse()._den is one
    assert (Q.inverse() * QB).conjugate()._den is one


def test_a_cold_run_all_normalises_few_units(roomy_tables, monkeypatch):
    from suq2 import checks

    calls = []
    unit_normal = scalars_module._unit_normal

    def spy(num, den):
        calls.append(den)
        return unit_normal(num, den)

    monkeypatch.setattr(scalars_module, "_unit_normal", spy)
    assert all(r.ok for r in checks.run_all().values())
    # 589 calls while a denominator equal to 1 could be a copy of the shared 1
    assert 0 < len(calls) <= 60


def test_a_full_table_starts_a_new_generation_and_values_stay(monkeypatch):
    def build():
        # distinct numerators and denominators through products, sums and gcds
        return [(Q**k + k) * (QB - k * I) / (Q * QB + k + 1) for k in range(2, 52)] + [
            Scalar.from_int(2**40) * Q + 2**31 * I
        ]

    want = [x.render() for x in build()]
    constants = scalars_module._CONSTANT_PAIRS
    cap = len(constants) + 8
    monkeypatch.setattr(scalars_module, "_INTERN_CAP", cap)
    monkeypatch.setattr(scalars_module, "_PAIRS", {})
    got = build()
    assert len(constants) < len(scalars_module._PAIRS) <= cap
    assert [x.render() for x in got] == want
    # a pair met when the table is full empties it down to the constants' terms
    # and is shared in the new generation
    full = {(n, -n): (n, -n) for n in range(100, 100 + cap)}
    monkeypatch.setattr(scalars_module, "_PAIRS", full)
    ((k, c),) = scalars_module._pmul({(7, 0): (3, 0)}, {(0, 5): (5, 1)}).items()
    assert full == {**constants, k: k, c: c} and full[k] is k and full[c] is c
    assert all(full[t] is t for t in constants.values())
    # a part of 2**30 or more is never admitted, whatever the room
    monkeypatch.setattr(scalars_module, "_INTERN_CAP", 4096)
    monkeypatch.setattr(scalars_module, "_PAIRS", {})
    big = Scalar.from_int(2**40) * Q + 2**31 * I
    assert big.render() == want[-1] and not scalars_module._PAIRS.keys() & set(big._num.values())


def _random_poly(rng, sympy, q, qb):
    """A random polynomial with fractional, imaginary, non-monic coefficients."""
    scalar, expr = Scalar.zero(), sympy.Integer(0)
    for _ in range(rng.randint(1, 3)):
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        scalar = scalar + Scalar.monomial(a, b, re, im)
        expr += (sympy.Rational(re) + sympy.I * sympy.Rational(im)) * q**a * qb**b
    return scalar, expr


def test_canonical_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q, qb = sympy.symbols("q qb")
    A = suq2_presentation()
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        (n, en), (d, ed), (c, ec) = (_random_poly(rng, sympy, q, qb) for _ in range(3))
        if d.is_zero() or c.is_zero():
            continue
        x = (n * c) / (d * c)
        expected = sympy.cancel((en * ec) / (ed * ec))
        text = str(expected).replace("**", "^").replace("I", "i")
        assert parse(text, A) == A.scalar(x), (x, expected)
        den = sympy.Poly(sympy.fraction(expected)[1], q, qb)
        assert max(a + b for a, b in x._den) <= den.total_degree(), (x, expected)
        checked += 1


# -- laws ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert (a * a.inverse()).is_one()
    assert (ONE / a) * a == ONE


@settings(max_examples=200, deadline=None)
@given(scalars(), scalars())
def test_conjugation_is_a_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), st.integers(min_value=0, max_value=50))
def test_evaluate_is_a_homomorphism(a, b, k):
    qv = cmath.rect(0.8, 0.13 * k)
    try:
        va, vb = a.evaluate(qv), b.evaluate(qv)
        vs, vp = (a + b).evaluate(qv), (a * b).evaluate(qv)
        vc = a.conjugate().evaluate(qv)
    except PoleError:
        return
    scale = max(1.0, abs(va), abs(vb))
    assert abs(vs - (va + vb)) / scale < 1e-9
    assert abs(vp - va * vb) / scale**2 < 1e-9
    assert abs(vc - va.conjugate()) / scale < 1e-9
