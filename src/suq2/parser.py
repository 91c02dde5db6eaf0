"""Expression front-end for the CLI.

Grammar (ASCII surface syntax)::

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor (('*'|'/')? factor)*        # juxtaposition multiplies
    factor  := primary ("'" | '^' ['-'] int)*
    primary := int | scalar-name | generator-name
             | 'j' digit '(' expr ')' | '(' expr ')'

Scalar names: ``q``, ``qb``, ``zeta``, ``i``.  Generator names depend on the
selected algebra (``a g`` / ``a g z`` / ``U V``); the postfix apostrophe is
the adjoint, on scalars the conjugate.  Division requires a scalar divisor;
negative powers require a scalar base.  ``j1`` / ``j2`` / ``j3`` wrap an
expression of the corresponding tensor factor.  Parentheses nest at most
``MAX_DEPTH`` (200) levels deep, not counting the one of ``jN(``; deeper
input is a ``parse-depth`` error.

Scalar subexpressions (integers, scalar names and everything built from them
alone) evaluate as :class:`~suq2.scalars.Scalar`; a scalar becomes an element
of the selected presentation only where it meets a generator, a ``jN(...)``
or the end of the input, so scalar arithmetic and algebra words share one
grammar and ``parse`` always returns an element.
"""

from __future__ import annotations

import re
import sys

from .braided import embed
from .errors import ParseError
from .scalars import Scalar

# one alternative per token kind; the last catches any other non-space
# character, so a single finditer pass both tokenizes and finds strays
_LEXEME = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|(['^()*/+-])|(\S)")

# nesting bound for parentheses: at four frames a level the recursive descent
# leaves about 180 frames of Python's default recursion limit to the caller,
# so the bound, not the caller's stack depth, decides; RecursionError in
# parse() stays as a backstop for callers deeper than that
MAX_DEPTH = 200

_SCALARS = {
    "q": Scalar.q,
    "qb": Scalar.qbar,
    "zeta": Scalar.zeta,
    "i": Scalar.imag_unit,
}


def tokenize(text):
    tokens = []
    for m in _LEXEME.finditer(text):
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


class _Parser:
    def __init__(self, pres, tokens):
        self.pres = pres
        self.tokens = tokens
        self.i = 0
        self.open_parens = []

    # -- grammar ------------------------------------------------------------

    def parse_expr(self, pres=None):
        pres = pres or self.pres
        kind, value, col = self.tokens[self.i]
        negate = False
        if kind == "op" and value == "-":
            self.i += 1
            negate = True
        out = self.parse_term(pres)
        if negate:
            out = -out
        while True:
            kind, value, col = self.tokens[self.i]
            if kind == "op" and value in "+-":
                self.i += 1
                rhs = self.parse_term(pres)
                out = out + rhs if value == "+" else out - rhs
            else:
                return out

    def parse_term(self, pres):
        out = self.parse_factor(pres)
        while True:
            kind, value, col = self.tokens[self.i]
            if kind == "op" and value in "*/":
                self.i += 1
                rhs = self.parse_factor(pres)
                if value == "*":
                    out = out * rhs
                else:
                    out = out * self._as_scalar(rhs, col).inverse()
            elif kind in ("int", "name") or (kind == "op" and value == "("):
                out = out * self.parse_factor(pres)
            else:
                return out

    def parse_factor(self, pres):
        out = self.parse_primary(pres)
        while True:
            kind, value, col = self.tokens[self.i]
            if kind == "op" and value == "'":
                self.i += 1
                out = out.conjugate() if isinstance(out, Scalar) else out.adjoint()
            elif kind == "op" and value == "^":
                self.i += 1
                kind2, value2, col2 = self.tokens[self.i]
                sign = 1
                if kind2 == "op" and value2 == "-":
                    self.i += 1
                    sign = -1
                    kind2, value2, col2 = self.tokens[self.i]
                if kind2 != "int":
                    raise ParseError("expected an integer exponent", col2)
                self.i += 1
                n = sign * value2
                # a scalar base takes Scalar.__pow__, which squares repeatedly
                if (
                    n >= 0
                    and not isinstance(out, Scalar)
                    and any(w for w, _ in out.terms())
                ):
                    out = out**n
                else:
                    out = self._as_scalar(out, col) ** n
            else:
                return out

    def parse_primary(self, pres):
        kind, value, col = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            return Scalar.from_int(value)
        if kind == "op" and value == "(":
            self.open_parens.append(col)
            # the "jN(" of an enclosing leg embedding is not a nesting level
            if len(self.open_parens) - (pres is not self.pres) > MAX_DEPTH:
                raise ParseError(
                    f"parse-depth: more than {MAX_DEPTH} nested parentheses", col
                )
            inner = self.parse_expr(pres)
            k2, v2, _ = self.tokens[self.i]
            if not (k2 == "op" and v2 == ")"):
                raise ParseError("unclosed parenthesis", col)
            self.i += 1
            self.open_parens.pop()
            return inner
        if kind == "name":
            if value in _SCALARS:
                return _SCALARS[value]()
            if len(value) == 2 and value[0] == "j" and value[1].isdigit():
                leg = int(value[1])
                if pres.factors is None:
                    raise ParseError(
                        f"leg embedding {value} needs a tensor-product algebra", col
                    )
                if not (1 <= leg <= len(pres.factors)):
                    raise ParseError(f"algebra has no leg {leg}", col)
                kind2, value2, col2 = self.tokens[self.i]
                if not (kind2 == "op" and value2 == "("):
                    raise ParseError(f"expected '(' after {value}", col2)
                self.i += 1
                self.open_parens.append(col2)
                factor = pres.factors[leg - 1]
                inner = self.parse_expr(factor)
                k3, v3, _ = self.tokens[self.i]
                if not (k3 == "op" and v3 == ")"):
                    raise ParseError("unclosed parenthesis", col2)
                self.i += 1
                self.open_parens.pop()
                if isinstance(inner, Scalar):
                    inner = factor.scalar(inner)
                return embed(pres, leg, inner)
            # generator name; a following apostrophe is handled as the
            # adjoint postfix, which on a generator is its starred partner
            try:
                idx = pres.gen_index(value)
            except KeyError:
                raise ParseError(
                    f"unknown generator {value!r} for algebra {pres.label!r}", col
                ) from None
            return pres.gen(idx)
        if kind == "end" and self.open_parens:
            raise ParseError("unclosed parenthesis", self.open_parens[-1])
        raise ParseError("unexpected end of expression" if kind == "end" else
                         f"unexpected token {value!r}", col)

    @staticmethod
    def _as_scalar(el, col):
        if isinstance(el, Scalar):
            return el
        terms = el.terms()
        if not terms:
            return Scalar.zero()
        if len(terms) == 1 and terms[0][0] == ():
            return terms[0][1]
        raise ParseError("this operation needs a scalar operand", col)


def parse(text, pres):
    """Parse an expression into a normalized element of ``pres``."""
    parser = _Parser(pres, tokenize(text))
    try:
        out = parser.parse_expr()
    except RecursionError:
        raise ParseError(
            "parse-depth: expression nests too deeply", parser.tokens[parser.i][2]
        ) from None
    kind, value, col = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", col)
    return pres.scalar(out) if isinstance(out, Scalar) else out
