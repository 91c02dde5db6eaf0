"""The expression front-end: grammar, errors, round-trips."""

import random
import re
import sys
from fractions import Fraction

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
from suq2.cli import _algebra
from suq2.parser import _column, tokenize

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
    assert parse("-3/4", A) == A.scalar(Scalar.gaussian(Fraction(-3, 4)))


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


# -- the scalar lane against the Element API -------------------------------------

_SCALAR_ATOMS = {
    "q": Scalar.q(),
    "qb": Scalar.qbar(),
    "zeta": Scalar.zeta(),
    "i": Scalar.imag_unit(),
}


def _mixed(rng, pres, depth, leg=None, scalar_only=False):
    """A random (text, value, is_scalar): value built from pres.scalar, pres.gen,
    +, *, .scale and .adjoint; generators come from leg ``leg`` of a tensor product."""
    if depth == 0 or rng.random() < 0.25:
        if scalar_only or rng.random() < 0.5:
            if rng.random() < 0.4:
                k = rng.randint(1, 5)
                return str(k), pres.scalar(Scalar.from_int(k)), True
            name = rng.choice(sorted(_SCALAR_ATOMS))
            return name, pres.scalar(_SCALAR_ATOMS[name]), True
        name = rng.choice(["a", "g", "a'", "g'"])
        return name, pres.gen(name, leg), False
    op = rng.choice("+-*/'^~")
    t1, v1, s1 = _mixed(rng, pres, depth - 1, leg, scalar_only)
    if op in "+-*":
        t2, v2, s2 = _mixed(rng, pres, depth - 1, leg, scalar_only)
        value = v1 + v2 if op == "+" else (v1 + (-v2) if op == "-" else v1 * v2)
        return f"({t1} {op} {t2})", value, s1 and s2
    if op == "/":
        t2, v2, _ = _mixed(rng, pres, depth - 1, leg, scalar_only=True)
        if v2.is_zero():
            return t1, v1, s1
        return f"({t1})/({t2})", v1.scale(v2.coefficient(()).inverse()), s1
    if op == "'":
        return f"({t1})'", v1.adjoint(), s1
    if op == "~":
        return f"(-{t1})", v1.scale(Scalar.from_int(-1)), s1
    k = rng.randint(0, 3)
    if s1 and not v1.is_zero() and rng.random() < 0.5:
        # a negative power of a parenthesised scalar
        k = max(k, 1)
        inverse = pres.scalar(v1.coefficient(()).inverse())
        value = pres.unit()
        for _ in range(k):
            value = value * inverse
        return f"({t1})^-{k}", value, True
    value = pres.unit()
    for _ in range(k if s1 else min(k, 2)):
        value = value * v1
    return f"({t1})^{k if s1 else min(k, 2)}", value, s1


def test_scalar_lane_matches_the_element_api():
    rng = random.Random(13)
    scalar_only = 0
    for _ in range(300):
        text, value, is_scalar = _mixed(rng, A, 3)
        scalar_only += is_scalar
        assert parse(text, A) == value, text
        assert parse("-" + text, A) == -value, text
    assert scalar_only > 40
    for _ in range(100):
        legs = [_mixed(rng, AA, 2, leg=n) for n in (1, 2)]
        text = "*".join(f"j{n}({t})" for n, (t, _, _) in zip((1, 2), legs))
        assert parse(text, AA) == legs[0][1] * legs[1][1], text
    assert parse("j1(2*q)", AA) == AA.scalar(Scalar.from_int(2) * Q)
    assert parse("j2(2*q)*j1(a)", AA) == AA.gen("a", 1).scale(Scalar.from_int(2) * Q)
    assert parse("(q+1)^3", A) == (A.scalar(Q) + 1) ** 3
    assert parse("(q+1)'^-2 * a", A) == A.gen("a").scale((Scalar.qbar() + 1) ** -2)
    assert parse("-q/(qb+1)", A) == A.scalar(-Q * (Scalar.qbar() + 1).inverse())


@pytest.mark.parametrize(
    "text, column",
    [("q/(a+1)", 2), ("(q+a)^-1", 6), ("2*q/g", 4), ("j1(q)/j2(a)", 6)],
)
def test_scalar_operand_error_column(text, column):
    with pytest.raises(ParseError, match="needs a scalar operand") as err:
        parse(text, AA)
    assert err.value.column == column


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("a\t*\tg", [("a", 1), ("*", 3), ("g", 5)]),
        ("a\n+ q\n", [("a", 1), ("+", 3), ("q", 5)]),
        ("q  \t ", [("q", 1)]),
        ("q^-2 a'", [("q", 1), ("^", 2), ("-", 3), ("2", 4), ("a", 6), ("'", 7)]),
        ("j1(", [("j1", 1), ("(", 3)]),
        ("", []),
        ("   ", []),
        ("\t\n ", []),
    ],
)
def test_tokens_and_columns(text, tokens):
    # the end token "" sits one past the text, also after trailing whitespace
    tokens = tokens + [("", len(text) + 1)]
    assert tokenize(text) == [tok for tok, _ in tokens]
    assert [_column(text, k) for k in range(len(tokens))] == [col for _, col in tokens]


# the tokenizer of (kind, value, column) tuples that tokenize() replaced, kept
# verbatim as the oracle of tokens, columns and lexical errors
_REFERENCE_LEXEME = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|(['^()*/+-])|(\S)")


def _reference_tokenize(text):
    tokens = []
    for m in _REFERENCE_LEXEME.finditer(text):
        number, name, op, stray = m.groups()
        col = m.start() + 1
        if number is not None:
            try:
                value = int(number)
            except ValueError:  # Python's int-from-str digit limit
                raise ParseError(
                    f"int-digits: integer literal has {len(number)} digits, over "
                    f"the limit of {sys.get_int_max_str_digits()}",
                    col,
                ) from None
            tokens.append(("int", value, col))
        elif name is not None:
            tokens.append(("name", name, col))
        elif op is not None:
            tokens.append(("op", op, col))
        else:
            raise ParseError(f"unexpected character {stray!r}", col)
    tokens.append(("end", None, len(text) + 1))
    return tokens


def _as_triples(text):
    """tokenize()'s strings and their columns, in the reference's tuple form."""
    triples = []
    for k, tok in enumerate(tokenize(text)):
        col = _column(text, k)
        assert text[col - 1 : col - 1 + len(tok)] == tok
        if not tok:
            triples.append(("end", None, col))
        elif tok.isdecimal():
            triples.append(("int", int(tok), col))
        else:
            triples.append(("name" if tok.isalnum() else "op", tok, col))
    return triples


def _lex_outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as err:
        return str(err)  # the message and its column


def test_tokenizer_matches_the_reference():
    rng = random.Random(1)
    alphabet = " \t\n'^()*/+-agqzj109é%٣²"
    errors = 0
    for _ in range(20_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 14)))
        expected = _lex_outcome(_reference_tokenize, text)
        assert _lex_outcome(_as_triples, text) == expected, text
        errors += isinstance(expected, str)
    assert 5_000 < errors < 15_000
    # an over-long literal under a lowered digit limit, before, after or
    # without a stray character; the text alone may also exceed the limit
    limit = sys.get_int_max_str_digits()
    kinds = set()
    try:
        sys.set_int_max_str_digits(640)
        for _ in range(300):
            digits = "".join(rng.choices("109٣", k=rng.choice((640, 641, 700))))
            pieces = [rng.choice(("", digits)), rng.choice(("", "%", "é", "²"))]
            rng.shuffle(pieces)
            head, tail = rng.choice(("", "a ", "2*", "q(")), rng.choice(("", " g", ")"))
            text = head + "".join(pieces) + tail + " " * rng.choice((0, 700))
            expected = _lex_outcome(_reference_tokenize, text)
            assert _lex_outcome(_as_triples, text) == expected, text
            kinds.add(expected.split()[0] if isinstance(expected, str) else "ok")
    finally:
        sys.set_int_max_str_digits(limit)
    assert kinds == {"int-digits:", "unexpected", "ok"}


@pytest.mark.parametrize(
    "algebra, text, message",
    [
        ("suq2", "2^", "expected an integer exponent (column 3)"),
        ("suq2", "a^-", "expected an integer exponent (column 4)"),
        ("suq2-tensor2", "j1 a", "expected '(' after j1 (column 4)"),
        ("suq2", "a)", "unexpected token ')' (column 2)"),
        ("suq2", "a**g", "unexpected token '*' (column 3)"),
        ("suq2", "'", "unexpected token \"'\" (column 1)"),
    ],
)
def test_descent_error_messages(algebra, text, message):
    with pytest.raises(ParseError) as err:
        parse(text, _algebra(algebra))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("a  é", "unexpected character 'é'", 4),
        ("  é", "unexpected character 'é'", 3),
        ("a % b", "unexpected character '%'", 3),
        ("2*" + "1" * 4301, "int-digits: integer literal has 4301 digits", 3),
        ("q " + "9" * 4400 + " %", "int-digits: integer literal has 4400 digits", 3),
        ("   ", "unexpected end of expression", 4),
        ("\t", "unexpected end of expression", 2),
    ],
)
def test_tokenizer_error_columns(text, message, column):
    with pytest.raises(ParseError, match=message) as err:
        parse(text, A)
    assert err.value.column == column


@pytest.mark.parametrize(
    "algebra, text, message",
    [
        ("suq2-tensor2", "j0(a)", "algebra has no leg 0 (column 1)"),
        (
            "suq2-tensor2",
            "j12(a)",
            "unknown generator 'j12' for algebra 'suq2 x suq2' (column 1)",
        ),
        (
            "suq2-tensor2",
            "jx(a)",
            "unknown generator 'jx' for algebra 'suq2 x suq2' (column 1)",
        ),
        ("suq2-tensor2", "j1(a", "unclosed parenthesis (column 3)"),
        ("suq2", "j1(a)", "leg embedding j1 needs a tensor-product algebra (column 1)"),
    ],
)
def test_leg_name_errors(algebra, text, message):
    # a leg name is "j" and one digit; anything longer is a generator name
    with pytest.raises(ParseError) as err:
        parse(text, _algebra(algebra))
    assert str(err.value) == message


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
