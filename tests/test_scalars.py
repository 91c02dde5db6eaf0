"""Field arithmetic, conjugation, and numeric evaluation of scalars."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import PoleError, Scalar, ZeroDivisorError, parse, suq2_presentation
from suq2 import scalars as scalars_module
from suq2.scalars import GaussianRational

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
    return Scalar.monomial(a, b, GaussianRational(re, im))


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


# -- the monomial fast path of __mul__ against the full quotient ----------------

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


def test_monomial_fast_path_matches_the_full_quotient():
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


def test_monomial_products_skip_pmul_and_gcd(monkeypatch):
    rng = random.Random(9)
    pairs = [(_mono(rng, _gi(rng)), _mono(rng, _gi(rng))) for _ in range(50)]
    pairs += [(_mono(rng, rng.choice(_UNITS)), _rational(rng)) for _ in range(50)]
    pairs += [(_mono(rng, _gi(rng)), (Q * QB + 2 * Q + I) * Q**-3)]
    content_case = (Scalar.from_int(2), ONE / (2 * Q + 2))
    calls = []

    def counted(name):
        real = getattr(scalars_module, name)

        def wrapper(f, g):
            calls.append(name)
            return real(f, g)

        return wrapper

    monkeypatch.setattr(scalars_module, "_pmul", counted("_pmul"))
    monkeypatch.setattr(scalars_module, "_pgcd", counted("_pgcd"))
    for a, b in pairs:
        a * b
        b * a
    assert calls == []
    # a non-unit c over a denominator with content must take the cancelling path
    a, b = content_case
    assert a * b == ONE / (Q + 1)
    assert "_pgcd" in calls


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


def _random_poly(rng, sympy, q, qb):
    """A random polynomial with fractional, imaginary, non-monic coefficients."""
    scalar, expr = Scalar.zero(), sympy.Integer(0)
    for _ in range(rng.randint(1, 3)):
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        scalar = scalar + Scalar.monomial(a, b, GaussianRational(re, im))
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
