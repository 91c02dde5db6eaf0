"""Exact coefficient arithmetic for the engine.

A :class:`Scalar` is a rational function in two commuting indeterminates
``q`` and ``qb`` with Gaussian-rational coefficients.  ``qb`` is an
independent indeterminate, not syntactic sugar for a conjugate: conjugation
is the ring involution that swaps ``q`` with ``qb`` and negates the imaginary
unit.  Every identity the engine checks is therefore an exact identity of
rational functions in two variables, valid at every specialisation where no
denominator vanishes.

Representation: numerator and denominator are polynomials over the Gaussian
integers Z[i], stored as ``{(q_exp, qb_exp): (re, im)}`` dicts of Python ints
with no zero values; ``{}`` is the zero polynomial.  Every operation, the gcd
included, runs on these dicts.  A Scalar is canonical: the numerator is a
Laurent polynomial that absorbs every monomial factor, the denominator is a
polynomial with zero minimum exponent in each variable, the two share no
factor in Z[i][q, qb] (a common Gaussian integer counts as a factor), and the
denominator's lexicographically leading coefficient is the associate with
``re > 0`` and ``im >= 0``.  Such a pair is unique, so equality of Scalars is
structural equality of canonical forms.  An input coefficient is a real and
an imaginary part, each an ``int`` or a ``Fraction``; any other type, a
``float`` included, raises ``TypeError``.  Rendering divides through by the
denominator's leading coefficient.

Sums and products of two reduced fractions follow Henrici (J. ACM 3, 1956;
Knuth, TAOCP vol. 2, 4.5.1), so no gcd ever sees a whole cross-multiplied
numerator.  A sum n1/d1 + n2/d2 with d1 != d2 first takes g = gcd(d1, d2).
If g is a unit, (n1*d2 + n2*d1) / (d1*d2) is already reduced.  Otherwise,
with d1 = e1*g and d2 = e2*g, only g can share a factor with
t = n1*e2 + n2*e1, so the sum is t / (e1*e2*g) after cancelling t against g
alone; g may be a Gaussian integer (1/(2q+2) + 1/2).  Products cancel only
the cross pairs n1 with d2 and n2 with d1.  A product by 1 returns the other
factor itself, with no new Scalar.  A canonical denominator D has zero
minimum exponents, so no monomial factor, and gcd(c*q^a*qb^b, D) is
g = gcd(c, cont(D)), a Gaussian-integer gcd.  So ``_cancel`` cancels a
one-term numerator, or a constant denominator, by that content gcd alone,
with no polynomial gcd, and a monomial product needs no shortcut of its
own: 2 * 1/(2q+2) is 1/(q+1).

Polynomial dicts and their term tuples are never mutated after
construction, so an operation may return an operand's dict unchanged
(``_pshift`` by zero, ``_pmul`` by 1), Scalars may share dicts, and dicts
may share term tuples.

Terms are hash-consed (Filliâtre and Conchon, *Type-safe modular
hash-consing*, ML Workshop 2006) where a kept coefficient's terms are born:
the product, sum and conjugate builders (``_pmul``, ``_padd``, ``_pconj``),
the unit normalisation of ``Scalar.__init__`` (``_unit_normal``) and the
constructors fetch each monomial key and Gaussian coefficient pair they make
from one table, ``_PAIRS``; a key and a coefficient are both pairs of ints.
Those four are enough: on the benchmark workloads, sharing in the other
builders (negation, shifts, swaps, exact divisions, the constant gcd) saved
no memory, while sharing in products and conjugates alone left 0.1 MB more
live than all four.  A tuple is immutable and compares by value, so sharing
changes no key, value or insertion order: equality, hashing, rendering, the
order in which ``evaluate`` sums the terms, and with it every float and
every report, are what they would be without it.  Only the number of live
tuples falls.  The table admits only pairs whose parts lie strictly within
+-2**30 (one machine digit each) and holds at most ``_INTERN_CAP`` = 4,096
entries, so at most about 0.65 MB.  A pair met when it is full starts a
new generation: the table is emptied down to the terms of the module's
constants (1, q, qb, zeta, i and the digits, which sums copy into their
results) and then holds that pair.  Terms shared by an earlier generation
stay shared among themselves; a long-lived process that meets more than
4,096 distinct pairs keeps sharing its latest ones instead of none.

Most gcds are of coprime pairs, and a modular certificate proves that
without the PRS (Brown, J. ACM 18, 1971; Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, ch. 7).  Map Z[i] to GF(p) with
p = 1,000,000,009 = 1 mod 4 (i goes to a square root of -1), fix qb at a
point where both leading coefficients in q stay nonzero, and run Euclid over
GF(p) in q; then the same with the variables exchanged.  A common factor h
of f and g has lc(h) dividing lc(f), so at such a point the image of h keeps
its degree and divides both images.  Coprime images in both directions
therefore leave h no positive degree in q or qb: the gcd is the Gaussian gcd
of the integer contents.  Any other outcome (a shared image factor, or a
leading coefficient that vanishes at every point tried) only sends the pair
to the primitive PRS, so the certificate never decides a gcd wrongly.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from .errors import PoleError, ZeroDivisorError


def _split(re, im=0):
    """re + im*i as a Gaussian-integer pair over a positive integer."""
    for part in (re, im):
        if not isinstance(part, (int, Fraction)):
            raise TypeError(f"cannot use {type(part).__name__} as a coefficient")
    re, im = Fraction(re), Fraction(im)
    scale = math.lcm(re.denominator, im.denominator)
    return (int(re * scale), int(im * scale)), scale


def _exponent(name, e):
    """e as an int through ``operator.index``: True is 1, and 0.5 or "1" is refused."""
    try:
        return operator.index(e)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(e).__name__}") from None


# ---------------------------------------------------------------------------
# Polynomials over Z[i]: dicts {(a, b): (re, im)} with no zero values.
# ---------------------------------------------------------------------------

# Hash-consed terms (module docstring): the four sharing builders fetch each
# key and coefficient t as ``_PAIRS.get(t) or _share(t)``, so a hit costs one
# lookup and no Python call (every term is a nonempty tuple).  Those four are
# plain loops, not comprehensions: on the one- and two-term polynomials most
# operations build, a comprehension's own call costs about what the lookups
# do (measured on CPython 3.11).
_INTERN_CAP = 4096
_INTERN_PART = 2**30
_PAIRS = {}


def _share(t):
    """t, a pair _PAIRS lacks, entered as its own copy; a full table starts over."""
    if -_INTERN_PART < min(t) and max(t) < _INTERN_PART:
        if len(_PAIRS) >= _INTERN_CAP:
            _PAIRS.clear()
            _PAIRS.update(_CONSTANT_PAIRS)
        _PAIRS[t] = t
    return t


def _shared(f):
    """f with every key and coefficient fetched from the pair table."""
    return {
        _PAIRS.get(k) or _share(k): _PAIRS.get(c) or _share(c)
        for k, c in f.items()
    }


_ONE_POLY = _shared({(0, 0): (1, 0)})


def _padd(f, g):
    out = dict(f)
    for k, (x, y) in g.items():
        a, b = out.get(k, (0, 0))
        c = (a + x, b + y)
        out[k] = _PAIRS.get(c) or _share(c)
    return {k: c for k, c in out.items() if c != (0, 0)}


def _pneg(f):
    return {k: (-x, -y) for k, (x, y) in f.items()}


def _pmul(f, g):
    if f == _ONE_POLY:
        return g
    if g == _ONE_POLY:
        return f
    out = {}
    for (a1, b1), (x1, y1) in f.items():
        for (a2, b2), (x2, y2) in g.items():
            k = (a1 + a2, b1 + b2)
            x, y = out.get(k, (0, 0))
            out[k] = (x + x1 * x2 - y1 * y2, y + x1 * y2 + y1 * x2)
    res = {}
    for k, c in out.items():
        if c != (0, 0):
            res[_PAIRS.get(k) or _share(k)] = _PAIRS.get(c) or _share(c)
    return res


def _pshift(f, da, db):
    if da == db == 0:
        return f
    return {(a + da, b + db): c for (a, b), c in f.items()}


def _mins(f):
    return min(a for a, _ in f), min(b for _, b in f)


def _pswap(f):
    """Swap the two variables."""
    return {(b, a): c for (a, b), c in f.items()}


def _pconj(f):
    """Swap the two variables and conjugate every coefficient."""
    out = {}
    for (a, b), (x, y) in f.items():
        k, c = (b, a), (x, -y)
        out[_PAIRS.get(k) or _share(k)] = _PAIRS.get(c) or _share(c)
    return out


def _is_unit(f):
    x, y = f.get((0, 0), (0, 0))
    return len(f) == 1 and x * x + y * y == 1


def _unit_normal(num, den):
    """Scale by the unit that puts den's lex-leading coefficient at re > 0, im >= 0."""
    x, y = den[max(den)]
    if x > 0 and y >= 0:
        return num, den
    ur, ui = (0, -1) if y > 0 else ((-1, 0) if x < 0 else (0, 1))
    scaled = []
    for p in (num, den):
        out = {}
        for k, (a, b) in p.items():
            c = (a * ur - b * ui, a * ui + b * ur)
            out[k] = _PAIRS.get(c) or _share(c)
        scaled.append(out)
    return scaled


def _peval(f, qv, qbv):
    """Value at (qv, qbv), and the sum of the absolute values of its terms."""
    total, size = 0j, 0.0
    for (a, b), (x, y) in f.items():
        term = complex(x, y) * (qv**a) * (qbv**b)
        total += term
        size += abs(term)
    return total, size


# -- Gaussian integers ---------------------------------------------------------


def _gi_gcd(u, v):
    """Euclidean gcd in the Gaussian integers (nearest-integer division)."""
    while v != (0, 0):
        a, b = u
        c, d = v
        n = c * c + d * d
        re, im = a * c + b * d, b * c - a * d
        qr = (2 * re + n) // (2 * n)
        qi = (2 * im + n) // (2 * n)
        u, v = v, (a - qr * c + qi * d, b - qr * d - qi * c)
    return u


def _gi_divexact(u, v):
    a, b = u
    c, d = v
    n = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    if re % n or im % n:
        raise ArithmeticError("inexact Gaussian-integer division")
    return (re // n, im // n)


def _pdivgi(f, g):
    """f / g for a Gaussian integer g dividing every coefficient of f."""
    return {k: _gi_divexact(c, g) for k, c in f.items()}


def _gi_content(f, g=(0, 0)):
    """Gcd of g and every coefficient of f; stops at the first unit."""
    for c in f.values():
        g = _gi_gcd(g, c)
        if g[0] * g[0] + g[1] * g[1] == 1:
            break
    return g


# -- exact division and the gcd ------------------------------------------------


def _pdivexact(f, g):
    """f / g under lex order, where g divides f in Z[i][q, qb]."""
    ga, gb = max(g)
    gc = g[(ga, gb)]
    out = {}
    while f:
        fa, fb = max(f)
        x, y = _gi_divexact(f[(fa, fb)], gc)
        out[(fa - ga, fb - gb)] = (x, y)
        f = _padd(f, _pmul({(fa - ga, fb - gb): (-x, -y)}, g))
    return out


def _prem(f, g):
    """Pseudo-remainder of f by g with respect to q."""
    dg = max(g)[0]
    lg = {(0, b): c for (a, b), c in g.items() if a == dg}
    while f and max(f)[0] >= dg:
        df = max(f)[0]
        lf = {(df - dg, b): c for (a, b), c in f.items() if a == df}
        f = _padd(_pmul(lg, f), _pneg(_pmul(lf, g)))
    return f


def _content(f):
    """Gcd of the coefficients of f as a polynomial in q: a polynomial in qb."""
    by_q = {}
    for (a, b), c in f.items():
        by_q.setdefault(a, {})[(0, b)] = c
    cont = None
    for coeffs in sorted(by_q.values(), key=len):
        cont = coeffs if cont is None else _pgcd(cont, coeffs)
        if _is_unit(cont):
            break
    return cont


def _primitive(f):
    """(content, primitive part) of f as a polynomial in q."""
    cont = _content(f)
    return cont, (f if _is_unit(cont) else _pdivexact(f, cont))


# -- the coprimality certificate (module docstring) ------------------------------

_P = 1_000_000_009
_I_P = next(
    pow(n, (_P - 1) // 4, _P) for n in range(2, _P) if pow(n, (_P - 1) // 2, _P) != 1
)  # a square root of -1 mod _P, from the first quadratic non-residue
_POINTS = (314_159, 271_828, 141_421, 173_205)


def _image(f, var, point):
    """f mod (p, i - _I_P) with the other variable at point: coefficients in
    variable var (0 for q, 1 for qb), lowest degree first."""
    out = [0] * (max(k[var] for k in f) + 1)
    for k, (x, y) in f.items():
        out[k[var]] += (x + y * _I_P) * pow(point, k[1 - var], _P)
    return [c % _P for c in out]


def _gf_coprime(u, v):
    """Euclid over GF(p) on two coefficient lists with nonzero leading entries."""
    while len(v) > 1:
        inv = pow(v[-1], -1, _P)
        dv = len(v) - 1
        while len(u) > dv:
            c = u.pop() * inv % _P
            s = len(u) - dv
            for j in range(dv):
                u[s + j] = (u[s + j] - c * v[j]) % _P
            while u and not u[-1]:
                u.pop()
        if not u:
            return False
        u, v = v, u
    return True


def _coprime_in(f, g, var):
    """True when f and g provably share no factor of positive degree in var.

    A common factor h has lc(h) | lc(f) as polynomials in var.  At a point
    where the images of lc(f) and lc(g) are nonzero, the image of h keeps its
    degree in var and divides both images, so coprime images prove that h has
    degree 0 in var.  False means unproved, not shared: a vanishing leading
    coefficient at every point, or images that share a factor.
    """
    if not (max(k[var] for k in f) and max(k[var] for k in g)):
        return True
    for point in _POINTS:
        u, v = _image(f, var, point), _image(g, var, point)
        if u[-1] and v[-1]:
            return _gf_coprime(u, v)
    return False


def _pgcd(f, g):
    """Gcd of two nonzero polynomials in Z[i][q, qb], up to a unit.

    When one side is a constant, or the certificate :func:`_coprime_in` holds
    in q and in qb, every common factor has degree 0 in both variables, so the
    gcd is the Gaussian gcd of the two integer contents; every other pair
    takes the primitive PRS, whose recursion ends at the constants.
    """
    if (
        max(f) == (0, 0)
        or max(g) == (0, 0)
        or _coprime_in(f, g, 0) and _coprime_in(f, g, 1)
    ):
        return {(0, 0): _gi_content(g, _gi_content(f))}
    return _pgcd_nontrivial(f, g)


def _pgcd_nontrivial(f, g):
    """Gcd of two nonconstant polynomials, up to a unit.

    The contents over Z[i][qb] and the gcd of the primitive parts are found
    separately, the latter by a primitive pseudo-remainder sequence in q over
    the Gaussian integers (Brown, J. ACM 18, 1971).  The PRS is skipped when
    :func:`_coprime_in` proves the primitive parts coprime in q: a common
    factor would then lie in Z[i][qb] and divide their contents, which are
    units.
    """
    if max(f)[0] == 0 and max(g)[0] == 0:
        # both in qb alone: the same gcd with the variables swapped
        return _pswap(_pgcd_nontrivial(_pswap(f), _pswap(g)))
    cf, f = _primitive(f)
    cg, g = _primitive(g)
    if max(f)[0] < max(g)[0]:
        f, g = g, f
    if _coprime_in(f, g, 0):
        g = _ONE_POLY
    while max(g)[0] > 0:
        r = _prem(f, g)
        if not r:
            break
        f, g = g, _primitive(r)[1]
    else:
        # a primitive polynomial of q-degree zero is a unit
        g = _ONE_POLY
    return _pmul(_pgcd(cf, cg), g)


def _cancel(num, den):
    """Divide a Laurent numerator and a polynomial denominator by their gcd.

    den must have zero minimum exponents, so it has no monomial factor; num
    keeps its monomial factor.  When either side is a single term, the gcd is
    therefore the Gaussian gcd of its coefficient with the other's content.
    """
    if den == _ONE_POLY:
        return num, den
    if len(num) == 1 or len(den) == 1:
        small, big = (num, den) if len(num) == 1 else (den, num)
        (c,) = small.values()
        g = _gi_content(big, c)
        if g[0] * g[0] + g[1] * g[1] == 1:
            return num, den
        return _pdivgi(num, g), _pdivgi(den, g)
    na, nb = _mins(num)
    n = _pshift(num, -na, -nb)
    g = _pgcd(n, den)
    if _is_unit(g):
        return num, den
    return _pshift(_pdivexact(n, g), na, nb), _pdivexact(den, g)


def _quotient(num, den):
    """The canonical Scalar num / den."""
    if not den:
        raise ZeroDivisorError()
    if not num:
        return _ZERO
    da, db = _mins(den)
    return Scalar(*_cancel(_pshift(num, -da, -db), _pshift(den, -da, -db)))


# ---------------------------------------------------------------------------
# Scalar
# ---------------------------------------------------------------------------


class Scalar:
    """An exact rational function in ``q`` and ``qb``, always canonical."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=_ONE_POLY):
        """From a numerator and denominator that already share no factor.

        den must have zero minimum exponents; only its unit is normalised
        here.  Use the named constructors and the operators to build values.
        """
        if not num:
            den = _ONE_POLY
        elif den is not _ONE_POLY:
            num, den = _unit_normal(num, den)
            if den == _ONE_POLY:
                # the shared 1, so that later operations skip _unit_normal
                den = _ONE_POLY
        self._num = num
        self._den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_int(n):
        if not isinstance(n, int):
            raise TypeError(f"from_int takes an int, not {type(n).__name__}")
        # one shared instance for each one-digit integer: Scalars are immutable
        return _DIGITS[n] if 0 <= n <= 9 else Scalar(_shared({(0, 0): (n, 0)}))

    @staticmethod
    def gaussian(re, im=0):
        return Scalar.monomial(0, 0, re, im)

    @staticmethod
    def monomial(q_exp, qb_exp, re=1, im=0):
        key = (_exponent("q_exp", q_exp), _exponent("qb_exp", qb_exp))
        c, scale = _split(re, im)
        if c == (0, 0):
            return _ZERO
        return _quotient(_shared({key: c}), _shared({(0, 0): (scale, 0)}))

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def q():
        return _Q

    @staticmethod
    def qbar():
        return _QBAR

    @staticmethod
    def zeta():
        """The unimodular ratio q / qb."""
        return _ZETA

    @staticmethod
    def imag_unit():
        return _I

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self._num

    def is_one(self):
        return self._num == _ONE_POLY and self._den == _ONE_POLY

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return Scalar.from_int(value)
        if isinstance(value, Fraction):
            return Scalar.gaussian(value)
        return NotImplemented

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if d1 == d2:
            if d1 == _ONE_POLY:
                return Scalar(_padd(n1, n2))
            return _quotient(_padd(n1, n2), d1)
        # Henrici (module docstring): with d1 = e1*g and d2 = e2*g, only g can
        # share a factor with n1*e2 + n2*e1, as gcd(n1*e2 + n2*e1, e1) = 1
        g = _pgcd(d1, d2)
        if _is_unit(g):
            return Scalar(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
        e1, e2 = _pdivexact(d1, g), _pdivexact(d2, g)
        t, g = _cancel(_padd(_pmul(n1, e2), _pmul(n2, e1)), g)
        return Scalar(t, _pmul(_pmul(e1, e2), g))

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Scalar(_pneg(self._num), self._den)

    def __mul__(self, other):
        # a factor 1 returns the other factor itself: Scalars are immutable.
        # The shared 1 is found by identity, before anything else is tested.
        if other is _ONE:
            return self
        if not isinstance(other, Scalar):
            other = Scalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is _ONE:
            return other
        if not self._num or not other._num:
            return _ZERO
        if other._num == _ONE_POLY and other._den == _ONE_POLY:
            return self
        if self._num == _ONE_POLY and self._den == _ONE_POLY:
            return other
        # both inputs are reduced, so only the cross pairs can share a factor
        # (Henrici, J. ACM 3, 1956)
        n1, d2 = _cancel(self._num, other._den)
        n2, d1 = _cancel(other._num, self._den)
        return Scalar(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisorError()
        na, nb = _mins(self._num)
        return Scalar(_pshift(self._den, -na, -nb), _pshift(self._num, -na, -nb))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return _ONE
        base = self if n >= 0 else self.inverse()
        bnum, bden = base._num, base._den
        num, den = _ONE_POLY, _ONE_POLY
        n = abs(n)
        # repeated squaring; a reduced pair stays reduced under powers
        while n:
            if n & 1:
                num, den = _pmul(num, bnum), _pmul(den, bden)
            n >>= 1
            if n:
                bnum, bden = _pmul(bnum, bnum), _pmul(bden, bden)
        return Scalar(num, den)

    def conjugate(self):
        """Ring involution: swap q with qb and negate the imaginary unit."""
        den = self._den
        return Scalar(_pconj(self._num), den if den is _ONE_POLY else _pconj(den))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, qval):
        """Specialise q -> qval, qb -> conj(qval); complex result."""
        qv = complex(qval)
        if qv == 0:
            raise PoleError("pole-at-q: q must be nonzero")
        qbv = qv.conjugate()
        den, size = _peval(self._den, qv, qbv)
        # relative to the terms' size, so that scaling den does not move poles
        if abs(den) <= 1e-12 * size:
            raise PoleError()
        return _peval(self._num, qv, qbv)[0] / den

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        num, den = self._num, self._den
        (x, y), (d, e) = num.get((0, 0), (0, 0)), den.get((0, 0), (0, 0))
        if num.keys() <= {(0, 0)} and den.keys() == {(0, 0)} and y == e == 0:
            # equal to the Fraction x/d, and so to an int when d is 1
            return hash(Fraction(x, d))
        return hash((frozenset(num.items()), frozenset(den.items())))

    # -- rendering -------------------------------------------------------------

    def render(self):
        """Canonical ASCII form, parseable by the expression front-end."""
        if self.is_zero():
            return "0"
        lc = self._den[max(self._den)]
        try:
            num = _poly_str(self._num, lc)
            if len(self._den) == 1:
                return num
            den = _poly_str(self._den, lc)
        except ValueError:
            # Python's int-to-str digit limit: reported with a label, not lifted
            raise ValueError(
                "int-digits: a coefficient or exponent has more than "
                f"{sys.get_int_max_str_digits()} decimal digits"
            ) from None
        if len(self._num) > 1 or num.startswith("-"):
            num = f"({num})"
        return f"{num}/({den})"

    __str__ = render

    def __repr__(self):
        return f"Scalar({self.render()!r})"


# -- rendering helpers --------------------------------------------------------


def _gr_str(re, im):
    """Text of re + im*i, in parentheses when both parts are nonzero."""
    if im == 0:
        return str(re)
    imag = "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
    if re == 0:
        return imag
    joiner = "" if imag.startswith("-") else "+"
    return f"({re}{joiner}{imag})"


def _mono_str(key):
    powers = zip(("q", "qb"), key)
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)


def _poly_str(poly, lc):
    """Text of poly / lc for a Gaussian integer lc, terms in descending lex order."""
    lr, li = lc
    norm = lr * lr + li * li
    terms = []
    for key in sorted(poly, reverse=True):
        x, y = poly[key]
        # a monic denominator divides nothing: skip the Fraction arithmetic
        if lc != (1, 0):
            x, y = Fraction(x * lr + y * li, norm), Fraction(y * lr - x * li, norm)
        terms.append((_gr_str(x, y), _mono_str(key)))
    return join_terms(terms)


def join_terms(terms):
    """The text of a sum of (coefficient text, body text) terms.

    An empty body leaves the coefficient alone, a coefficient of 1 or -1
    leaves the body with its sign, and any other is joined to it by ``*``.
    A term that starts with ``-`` is subtracted.  The caller parenthesises
    a coefficient that is itself a sum.
    """
    out = ""
    for cs, body in terms:
        if not body:
            text = cs
        elif cs == "1":
            text = body
        elif cs == "-1":
            text = f"-{body}"
        else:
            text = f"{cs}*{body}"
        if not out:
            out = text
        elif text.startswith("-"):
            out += f" - {text[1:]}"
        else:
            out += f" + {text}"
    return out


_ZERO = Scalar({})
_ONE = Scalar(_ONE_POLY)
_Q = Scalar(_shared({(1, 0): (1, 0)}))
_QBAR = Scalar(_shared({(0, 1): (1, 0)}))
_ZETA = Scalar(_shared({(1, -1): (1, 0)}))
_I = Scalar(_shared({(0, 0): (0, 1)}))
_DIGITS = (_ZERO, _ONE, *(Scalar(_shared({(0, 0): (n, 0)})) for n in range(2, 10)))
# the constants' terms, which every generation of the pair table starts with
_CONSTANT_PAIRS = dict(_PAIRS)
