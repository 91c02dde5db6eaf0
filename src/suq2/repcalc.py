"""Matrices over presented algebras and the representation calculus.

A :class:`GradedSpace` is a finite-dimensional space with one integer weight
per basis vector (the circle acts by ``z . e_k = z^deg(k) e_k``); an
:class:`AlgMatrix` is a square matrix of elements over one presentation
attached to such a space.  Circle invariance of a matrix means entry (r, c)
is homogeneous of degree ``deg(c) - deg(r)`` (conjugating by the diagonal
circle action scales entry (r, c) by ``z^(deg(r) - deg(c))``).

Tensor products of representations combine through the braiding: on the
tensor product space, with d1 and d2 the weights of the two factors,

    (v1 (x) v2)[(i, j), (i', j')]
        = v1[i, i'] conj(zeta)^((d2[j] - d2[j']) d1[i']) v2[j, j'].

This is the product i1(v1) i2(v2) of the standard matrix model of the
twisted product, where i1(T) (x (x) y) = Tx (x) y and
i2(S) (x (x) y) = conj(zeta)^(deg(S) deg(x)) x (x) Sy; each entry of that
product has exactly one term.  The exponent is bilinear in the two weights
and the weights of a tensor product space add, so the twist of
(v1 (x) v2) (x) v3 and of v1 (x) (v2 (x) v3) is the same product of
pairwise factors: the tensor product is associative.  A weight 0 space of
dimension one is a unit on both sides.  The fundamental representation
lives on the weights (0, -1) of :data:`QUBIT`; with them the distinguished
vector ``e0 (x) e1 - q e1 (x) e0`` is fixed by its tensor square.  Only
weight differences decide circle invariance, so shifting all weights of a
space by one constant changes no invariance verdict.

The checks here return residuals, never a verdict: an identity holds exactly
when every residual is zero (an empty list, or a matrix with no nonzero
entry).
"""

from __future__ import annotations

import operator

from .algebra import _as_scalar, _zpower, free_presentation, suq2_presentation
from .braided import embed
from .errors import NotInvariantError, PresentationMismatchError
from .scalars import Scalar


class GradedSpace:
    """A finite-dimensional space with integer circle weights."""

    def __init__(self, degrees):
        self.degrees = tuple(map(operator.index, degrees))

    @property
    def dim(self):
        return len(self.degrees)

    def tensor(self, other):
        return GradedSpace(
            [a + b for a in self.degrees for b in other.degrees]
        )

    def __repr__(self):
        return f"GradedSpace{self.degrees}"


QUBIT = GradedSpace((0, -1))


class AlgMatrix:
    """A square matrix with Element entries over one presentation."""

    def __init__(self, pres, space, entries):
        self.pres = pres
        self.space = space
        rows = [tuple(row) for row in entries]
        n = space.dim
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("entries must form a square matrix matching the space")
        for row in rows:
            for el in row:
                if el.pres is not pres:
                    raise PresentationMismatchError()
        self.entries = tuple(rows)

    @staticmethod
    def identity(pres, space):
        one, zero = pres.unit(), pres.zero()
        n = space.dim
        return AlgMatrix(
            pres, space, [[one if r == c else zero for c in range(n)] for r in range(n)]
        )

    @property
    def dim(self):
        return self.space.dim

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def _check_compatible(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatchError()
        if self.space.degrees != other.space.degrees:
            raise ValueError("weight mismatch: the spaces' degrees differ")

    def __mul__(self, other):
        """Entry (r, c) is sum_k self[r, k] other[k, c], normalized in one pass."""
        self._check_compatible(other)
        cols = list(zip(*other.entries))
        out = [[self.pres.product_sum(zip(row, col)) for col in cols] for row in self.entries]
        return AlgMatrix(self.pres, self.space, out)

    def __sub__(self, other):
        self._check_compatible(other)
        n = self.dim
        return AlgMatrix(
            self.pres,
            self.space,
            [
                [self.entries[r][c] - other.entries[r][c] for c in range(n)]
                for r in range(n)
            ],
        )

    def adjoint(self):
        n = self.dim
        return AlgMatrix(
            self.pres,
            self.space,
            [[self.entries[c][r].adjoint() for c in range(n)] for r in range(n)],
        )

    def map_entries(self, fn, pres):
        n = self.dim
        return AlgMatrix(
            pres,
            self.space,
            [[fn(self.entries[r][c]) for c in range(n)] for r in range(n)],
        )

    def is_zero(self):
        return all(el.is_zero() for row in self.entries for el in row)

    def nonzero_entries(self):
        return [
            ((r, c), el)
            for r, row in enumerate(self.entries)
            for c, el in enumerate(row)
            if not el.is_zero()
        ]

    def is_invariant(self):
        """Circle invariance: entry (r, c) homogeneous of degree deg(c)-deg(r)."""
        d = self.space.degrees
        for r, row in enumerate(self.entries):
            for c, el in enumerate(row):
                deg = el.degree()
                if deg == "zero":
                    continue
                if deg != d[c] - d[r]:
                    return False
        return True

    def unitarity_residuals(self):
        """The pair (M M* - 1, M* M - 1); M is unitary iff both are zero."""
        ident = AlgMatrix.identity(self.pres, self.space)
        adj = self.adjoint()
        return self * adj - ident, adj * self - ident

    def __eq__(self, other):
        return (
            isinstance(other, AlgMatrix)
            and self.pres is other.pres
            and self.space.degrees == other.space.degrees
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"<AlgMatrix {self.dim}x{self.dim} over {self.pres.label}>"


def fundamental_matrix(pres=None):
    """The 2x2 matrix ((a, -q g'), (g, a')) on the space with weights (0, -1)."""
    if pres is None:
        pres = suq2_presentation()
    q = pres.params["q"]
    return AlgMatrix(
        pres,
        QUBIT,
        [
            [pres.gen("a"), pres.gen("g'").scale(-q)],
            [pres.gen("g"), pres.gen("a'")],
        ],
    )


def matrix_embed(product, leg, mat):
    """Entrywise leg embedding of a matrix into a tensor-product presentation."""
    return mat.map_entries(lambda el: embed(product, leg, el), pres=product)


def matrix_apply(morphism, mat):
    """Entrywise application of a verified generator morphism."""
    return mat.map_entries(morphism.apply, pres=morphism.target)


def corep_check(v, delta):
    """Comultiplication compatibility of an invariant unitary matrix.

    Applies ``delta`` entrywise and returns the residual matrix against the
    product of the leg-1 and leg-2 embedded copies inside ``delta``'s
    target; ``v`` is a corepresentation iff it is zero.  Over a braided
    (nontrivially graded) source ``v`` must be circle-invariant; over a
    trivially graded one the space grading is not part of the
    corepresentation data.
    """
    if v.pres is not delta.source:
        raise PresentationMismatchError()
    braided = any(g.degree for g in delta.source.generators)
    if braided and not v.is_invariant():
        raise NotInvariantError()
    target = delta.target
    lhs = matrix_apply(delta, v)
    return lhs - matrix_embed(target, 1, v) * matrix_embed(target, 2, v)


def _tensor(v1, v2, zeta):
    """The entry formula of :func:`rep_tensor` at an explicit twist ``zeta``."""
    pres = v1.pres
    d1, d2 = v1.space.degrees, v2.space.degrees
    n2 = v2.dim
    size = v1.dim * n2
    zbar = zeta.conjugate()
    zero = pres.zero()
    out = [[zero] * size for _ in range(size)]
    for i, row1 in enumerate(v1.entries):
        for ip, x in enumerate(row1):
            if x.is_zero():
                continue
            for j, row2 in enumerate(v2.entries):
                for jp, y in enumerate(row2):
                    if y.is_zero():
                        continue
                    k = (d2[j] - d2[jp]) * d1[ip]
                    out[i * n2 + j][ip * n2 + jp] = x * (y.scale(zbar**k) if k else y)
    return AlgMatrix(pres, v1.space.tensor(v2.space), out)


def rep_tensor(v1, v2):
    """Tensor product of two representations on the tensor product space.

    Entry ((i, j), (i', j')) is
    ``v1[i, i'] conj(zeta)^((d2[j] - d2[j']) d1[i']) v2[j, j']``,
    with d1, d2 the weights of the two spaces and zeta the twist of their
    presentation.  The exponent is bilinear in the weights and the weights
    of a tensor product add, so the product is associative, with the weight
    0 one-dimensional space as its unit: a monoidal product.
    """
    if v1.pres is not v2.pres:
        raise PresentationMismatchError()
    return _tensor(v1, v2, v1.pres.params["zeta"])


def _times_vector(m, xi):
    """The entries sum_c m[r, c] xi[c] of m applied to a Scalar vector xi."""
    out = []
    for row in m.entries:
        acc = m.pres.zero()
        for el, coeff in zip(row, xi):
            if not coeff.is_zero():
                acc = acc + el.scale(coeff)
        out.append(acc)
    return out


def invariant_vector_check(v, xi):
    """Residual elements, one per coordinate, of ``v (xi (x) 1) = xi (x) 1``.

    ``xi`` has int, Fraction or Scalar entries; v fixes it iff every residual is 0.
    """
    xi = [_as_scalar(c) for c in xi]
    if len(xi) != v.dim:
        raise ValueError("vector length must match the matrix dimension")
    return [acc - v.pres.scalar(c) for acc, c in zip(_times_vector(v, xi), xi)]


def constraint_derivation(qparam=None):
    """Derive the entry constraints forced by invariance of e0 x e1 - q e1 x e0.

    Works over the free graded *-algebra on entries a, b, c, d of a generic
    unitary 2x2 matrix u, invariant by construction (degrees 0, -1, 1, 0 on
    the weights (0, -1)), and expands both sides of the fixed-vector equation
    written with one adjoint:

        (i1 (x) id)(u*) (xi (x) 1) = (i2 (x) id)(u) (xi (x) 1),

    each side read off the entry formula of :func:`rep_tensor` with the
    identity as the other factor.

    The expansion must produce exactly the equations

        b = -q c*,   d = a*,   d* = a,   b* = -q conj(zeta) c,

    and combining the first and last forces conj(q) zeta = q.  Returns
    ``(equations, residuals)``: the four rendered ``(coordinate, lhs, rhs)``
    triples, and one line per equation if they differ from the expected
    ones, plus one line if the modulus relation is not forced.
    """
    q = Scalar.q() if qparam is None else qparam
    zeta = q / q.conjugate()
    F = free_presentation(("a", "b", "c", "d"), (0, -1, 1, 0), label="free-abcd")
    a, b, c, d = (F.gen(n) for n in "abcd")
    u = AlgMatrix(F, QUBIT, [[a, b], [c, d]])
    ident = AlgMatrix.identity(F, QUBIT)
    xi = [Scalar.zero(), Scalar.one(), -q, Scalar.zero()]

    lhs = _times_vector(_tensor(u.adjoint(), ident, zeta), xi)
    rhs = _times_vector(_tensor(ident, u, zeta), xi)

    coords = ["e0e0", "e0e1", "e1e0", "e1e1"]
    equations = [
        (name, le.render(), re_.render()) for name, le, re_ in zip(coords, lhs, rhs)
    ]

    expected = {
        0: (F.gen("c'").scale(-q), F.gen("b")),  # b = -q c*
        1: (F.gen("a'"), F.gen("d")),  # d = a*
        2: (F.gen("d'").scale(-q), F.gen("a").scale(-q)),  # d* = a
        3: (F.gen("b'"), F.gen("c").scale(-(q * zeta.conjugate()))),  # b* = -q zb c
    }
    residuals = []
    if not all(lhs[i] == expected[i][0] and rhs[i] == expected[i][1] for i in range(4)):
        residuals += [f"{name}: {l} = {r}" for name, l, r in equations]

    # b = lam1 c* and b* = lam2 c are consistent iff conj(lam1) = lam2,
    # i.e. -conj(q) = -q conj(zeta), which is the modulus relation.
    lam1 = -q
    lam2 = -(q * zeta.conjugate())
    if lam1.conjugate() != lam2:
        residuals.append("the two b-constraints do not force conj(q) zeta = q")
    return equations, residuals


def zpower_matrix(pres, space):
    """The diagonal matrix with entries z^deg(k) over the circle-extended algebra."""
    zero = pres.zero()
    rows = [[zero] * space.dim for _ in range(space.dim)]
    for r, d in enumerate(space.degrees):
        rows[r][r] = _zpower(pres, d)
    return AlgMatrix(pres, space, rows)


def uq2_from_su2_rep(v, delta_b):
    """Turn a representation of the braided algebra into one of the extended one.

    ``v`` is the image in the circle-extended algebra of a braided-algebra
    representation; ``udiag`` is the diagonal z-power matrix of its space
    (:func:`zpower_matrix`).  Returns one residual line for each failing
    part of the claim about ``u = v udiag*``: unitarity, the ordinary
    comultiplication compatibility under the caller's ``delta_b``, whose
    source must be ``v.pres`` (else ``PresentationMismatchError``), the
    roundtrip ``u udiag = v``, and the degenerate case ``v = 1``.
    """
    B = delta_b.source
    if v.pres is not B:
        raise PresentationMismatchError()
    udiag = zpower_matrix(B, v.space)
    u0 = udiag.adjoint()
    u = v * u0
    failures = (
        (not all(r.is_zero() for r in u.unitarity_residuals()), "v U* is not unitary"),
        (not corep_check(u, delta_b).is_zero(), "v U* fails the ordinary corepresentation law"),
        ((u * udiag) != v, "(v U*) U does not recover v"),
        (not corep_check(u0, delta_b).is_zero(), "U* alone fails the corepresentation law"),
    )
    return [line for failed, line in failures if failed]
