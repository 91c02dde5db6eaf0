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

Tokens are plain strings: an integer literal, a name or one other character,
then ``""`` as the end token.  Columns are recomputed only for a ParseError.
"""

from __future__ import annotations

import re
import sys

from .braided import embed
from .errors import ParseError
from .scalars import Scalar

# an integer literal, a name or any other non-space character, of which the
# descent reads only operators: tokenize() refuses a _STRAY before it runs
_LEXEME = re.compile(r"\d+|[A-Za-z][A-Za-z0-9]*|\S")
_STRAY = re.compile(r"[^\s\dA-Za-z'^()*/+-]")

# nesting bound for parentheses: at two frames a level the recursive descent
# leaves about 590 frames of Python's default recursion limit to the caller,
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
    """The token strings of ``text``, then the end token ``""``."""
    limit = sys.get_int_max_str_digits()
    if _STRAY.search(text) or 0 < limit < len(text):
        # report the first stray or over-long literal, in text order
        for m in _LEXEME.finditer(text):
            lexeme = m.group()
            if _STRAY.match(lexeme):
                raise ParseError(f"unexpected character {lexeme!r}", m.start() + 1)
            if lexeme.isdecimal():
                try:
                    int(lexeme)
                except ValueError:  # Python's int-from-str digit limit
                    raise ParseError(
                        f"int-digits: integer literal has {len(lexeme)} digits, "
                        f"over the limit of {limit}",
                        m.start() + 1,
                    ) from None
    tokens = _LEXEME.findall(text)
    tokens.append("")
    return tokens


def _column(text, k):
    """The 1-based column of token ``k`` of ``text``; the end token's is one past it."""
    starts = [m.start() + 1 for m in _LEXEME.finditer(text)]
    return starts[k] if k < len(starts) else len(text) + 1


class _Parser:
    """Top-down descent: ``parse_expr`` reads the expr and term rules, and
    ``parse_factor`` the factor and primary rules, so a level of parentheses
    costs two frames."""

    def __init__(self, pres, text):
        self.pres = pres
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.open_parens = []  # token indices of the "(" not yet closed

    def error(self, message, k):
        return ParseError(message, _column(self.text, k))

    def parse_expr(self, pres):
        tokens = self.tokens
        sign = tokens[self.i]  # a leading "-" negates the first term
        if sign == "-":
            self.i += 1
        out = None
        while True:
            term = self.parse_factor(pres)
            while True:
                tok = tokens[self.i]
                if tok == "*" or tok == "/":
                    k = self.i
                    self.i += 1
                    rhs = self.parse_factor(pres)
                    if tok == "/":
                        rhs = self._as_scalar(rhs, k).inverse()
                elif tok.isalnum() or tok == "(":
                    rhs = self.parse_factor(pres)
                else:
                    break
                if isinstance(term, Scalar) and not isinstance(rhs, Scalar):
                    term = rhs.scale(term)
                else:
                    term = term * rhs
            if out is None:
                out = -term if sign == "-" else term
            else:
                out = out + term if sign == "+" else out - term
            sign = tokens[self.i]
            if sign != "+" and sign != "-":
                return out
            self.i += 1

    def parse_factor(self, pres):
        tokens = self.tokens
        k = self.i
        tok = tokens[k]
        self.i += 1
        if tok.isdecimal():
            out = Scalar.from_int(int(tok))
        elif tok == "(":
            self.open_parens.append(k)
            # the "jN(" of an enclosing leg embedding is not a nesting level
            if len(self.open_parens) - (pres is not self.pres) > MAX_DEPTH:
                raise self.error(f"parse-depth: more than {MAX_DEPTH} nested parentheses", k)
            out = self._close(self.parse_expr(pres))
        elif tok in _SCALARS:
            out = _SCALARS[tok]()
        elif len(tok) == 2 and tok[0] == "j" and tok[1].isdigit():
            leg = int(tok[1])
            if pres.factors is None:
                raise self.error(f"leg embedding {tok} needs a tensor-product algebra", k)
            if not (1 <= leg <= len(pres.factors)):
                raise self.error(f"algebra has no leg {leg}", k)
            if tokens[self.i] != "(":
                raise self.error(f"expected '(' after {tok}", self.i)
            self.open_parens.append(self.i)
            self.i += 1
            factor = pres.factors[leg - 1]
            inner = self._close(self.parse_expr(factor))
            if isinstance(inner, Scalar):
                inner = factor.scalar(inner)
            out = embed(pres, leg, inner)
        elif tok.isalnum():
            # generator name; a following apostrophe is handled as the
            # adjoint postfix, which on a generator is its starred partner
            try:
                idx = pres.gen_index(tok)
            except KeyError:
                raise self.error(
                    f"unknown generator {tok!r} for algebra {pres.label!r}", k
                ) from None
            out = pres.gen(idx)
        elif not tok and self.open_parens:
            raise self.error("unclosed parenthesis", self.open_parens[-1])
        else:
            raise self.error("unexpected end of expression" if not tok else
                             f"unexpected token {tok!r}", k)
        while True:
            tok = tokens[self.i]
            if tok == "'":
                self.i += 1
                out = out.conjugate() if isinstance(out, Scalar) else out.adjoint()
            elif tok == "^":
                k = self.i
                self.i += 1
                sign = 1
                if tokens[self.i] == "-":
                    self.i += 1
                    sign = -1
                exponent = tokens[self.i]
                if not exponent.isdecimal():
                    raise self.error("expected an integer exponent", self.i)
                self.i += 1
                n = sign * int(exponent)
                # a scalar base takes Scalar.__pow__, which squares repeatedly
                if (
                    n >= 0
                    and not isinstance(out, Scalar)
                    and any(w for w, _ in out.terms())
                ):
                    out = out**n
                else:
                    out = self._as_scalar(out, k) ** n
            else:
                return out

    def _close(self, inner):
        """Consume the ")" of the innermost open parenthesis; return ``inner``."""
        if self.tokens[self.i] != ")":
            raise self.error("unclosed parenthesis", self.open_parens[-1])
        self.i += 1
        self.open_parens.pop()
        return inner

    def _as_scalar(self, el, k):
        if isinstance(el, Scalar):
            return el
        terms = el.terms()
        if not terms:
            return Scalar.zero()
        if len(terms) == 1 and terms[0][0] == ():
            return terms[0][1]
        raise self.error("this operation needs a scalar operand", k)


def parse(text, pres):
    """Parse an expression into a normalized element of ``pres``."""
    parser = _Parser(pres, text)
    try:
        out = parser.parse_expr(pres)
    except RecursionError:
        raise parser.error("parse-depth: expression nests too deeply", parser.i) from None
    if parser.tokens[parser.i]:
        raise parser.error(f"unexpected token {parser.tokens[parser.i]!r}", parser.i)
    return pres.scalar(out) if isinstance(out, Scalar) else out
