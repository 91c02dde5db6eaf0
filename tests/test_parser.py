"""The expression front-end: grammar, errors, round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import (
    ParseError,
    Scalar,
    delta_su,
    parse,
    suq2_presentation,
    torus_presentation,
    twisted_tensor,
    uq2_presentation,
)

A = suq2_presentation()
Q = A.params["q"]
AA = twisted_tensor([A, A], A.params["zeta"])
A3 = twisted_tensor([A, A, A], A.params["zeta"])


def test_comultiplication_formula_parses():
    d = delta_su()
    d.check()
    assert parse("j1(a)*j2(a) - q*j1(g')*j2(g)", AA) == d.apply(A.gen("a"))


def test_defining_relation_normalizes_to_zero():
    assert parse("a*g - qb*g*a", A).is_zero()
    assert parse("a'*a + g'*g - 1", A).is_zero()


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("a*(", A)
    assert err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse("a**g", A)
    assert err.value.column == 3
    with pytest.raises(ParseError) as err:
        parse("", A)
    assert err.value.column == 1


def test_unknown_generator():
    with pytest.raises(ParseError, match="unknown generator"):
        parse("z", A)
    with pytest.raises(ParseError, match="tensor-product"):
        parse("j1(a)", A)
    with pytest.raises(ParseError, match="no leg"):
        parse("j3(a)", AA)


def test_scalar_grammar():
    assert parse("(q+1)*(q-1) - q^2 + 1", A).is_zero()
    assert parse("q^-2*qb/2", A) == A.scalar((Q**-2) * Scalar.qbar() / 2)
    assert parse("zeta - q/qb", A).is_zero()
    assert parse("i*i + 1", A).is_zero()
    assert parse("zeta'*zeta - 1", A).is_zero()
    assert parse("-3/4", A) == A.scalar(Scalar.gaussian(-0.75))


def test_division_needs_scalar():
    with pytest.raises(ParseError, match="scalar"):
        parse("1/g", A)
    with pytest.raises(ParseError, match="scalar"):
        parse("a^-1", A)


def test_adjoint_postfix():
    assert parse("g'", A) == A.gen("g'")
    assert parse("g''", A) == A.gen("g")
    assert parse("(a*g)'", A) == (A.gen("a") * A.gen("g")).adjoint()
    assert parse("q'", A) == A.scalar(Scalar.qbar())


def test_juxtaposition_and_powers():
    assert parse("2a", A) == A.gen("a").scale(Scalar.from_int(2))
    assert parse("g^3", A) == A.gen("g") ** 3
    assert parse("g'^2*a", A) == A.gen("g'") ** 2 * A.gen("a")


def test_torus_and_extended_algebras():
    T = torus_presentation()
    assert parse("U*V - zeta*V*U", T).is_zero()
    B = uq2_presentation()
    assert parse("z*g - zeta^-1*g*z", B).is_zero()
    assert parse("z*a*z' - a", B).is_zero()


def test_three_leg_expressions():
    el = parse("j1(g)*j2(a)*j3(g')", A3)
    assert el.degree() == 0
    assert parse(el.render(), A3) == el


words = st.lists(st.integers(0, 3), min_size=0, max_size=4).map(tuple)
coeffs = st.sampled_from(
    [Scalar.one(), -Scalar.one(), Scalar.q(), Scalar.qbar() ** -1, Scalar.imag_unit()]
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coeffs, words), min_size=1, max_size=3))
def test_render_parse_round_trip(raw):
    el = A.normalize_raw(raw)
    assert parse(el.render(), A) == el


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coeffs, st.lists(st.integers(0, 7), min_size=0, max_size=3).map(tuple)), min_size=1, max_size=2))
def test_render_parse_round_trip_two_legs(raw):
    el = AA.normalize_raw(raw)
    assert parse(el.render(), AA) == el


def test_parse_depth_bound_does_not_depend_on_the_caller():
    def nested(depth):
        return "(" * depth + "q" + ")" * depth

    def called_deep(frames, text):
        return called_deep(frames - 1, text) if frames else parse(text, A)

    # 201 levels are a parse-depth error (test_cli.py); 200 parse from deep
    assert called_deep(100, nested(200)) == A.scalar(Q)
