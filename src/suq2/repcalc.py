"""Matrices over presented algebras and the representation calculus.

A :class:`GradedSpace` is a finite-dimensional space with one integer weight
per basis vector (the circle acts by ``z . e_k = z^deg(k) e_k``); an
:class:`AlgMatrix` is a square matrix of elements over one presentation
attached to such a space.  Circle invariance of a matrix means entry (r, c)
is homogeneous of degree ``deg(c) - deg(r)`` (conjugating by the diagonal
circle action scales entry (r, c) by ``z^(deg(r) - deg(c))``).

Tensor products of representations use the standard matrix model of the
twisted product of two matrix algebras acting on the tensor product space:

    i1(T) (x (x) y) = Tx (x) y
    i2(S) (x (x) y) = conj(zeta)^(deg(S) * (deg(x) - 1)) x (x) Sy

so that ``i1(T) i2(S) = zeta^(deg T deg S) i2(S) i1(T)``.  The shift by one
in the exponent normalises the implementing circle unitary of the left
factor so that its top weight acts trivially; with the weights (1, 0) of the
two-dimensional space this is exactly the normalisation under which the
distinguished vector ``e0 (x) e1 - q e1 (x) e0`` is fixed by the tensor
square of the fundamental representation.

The checks here return residuals, never a verdict: an identity holds exactly
when every residual is zero (an empty list, or a matrix with no nonzero
entry).
"""

from __future__ import annotations

from .algebra import free_presentation, suq2_presentation, uq2_presentation
from .braided import embed
from .errors import NotInvariantError, PresentationMismatchError
from .morphisms import delta_uq2
from .scalars import Scalar


class GradedSpace:
    """A finite-dimensional space with integer circle weights."""

    def __init__(self, degrees):
        self.degrees = tuple(int(d) for d in degrees)

    @property
    def dim(self):
        return len(self.degrees)

    def tensor(self, other):
        return GradedSpace(
            [a + b for a in self.degrees for b in other.degrees]
        )

    def __repr__(self):
        return f"GradedSpace{self.degrees}"


QUBIT = GradedSpace((1, 0))


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
        if self.space.dim != other.space.dim:
            raise ValueError("shape mismatch")

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

    def map_entries(self, fn, pres=None):
        n = self.dim
        return AlgMatrix(
            pres or self.pres,
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
            and self.space.dim == other.space.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"<AlgMatrix {self.dim}x{self.dim} over {self.pres.label}>"


def fundamental_matrix(pres=None, qparam=None):
    """The 2x2 matrix ((a, -q g'), (g, a')) on the space with weights (1, 0)."""
    if pres is None:
        pres = suq2_presentation(qparam)
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


def _leg1_matrix(v1, dim2):
    """(i1 (x) id)(v1) on the tensor space: plain Kronecker with the identity."""
    pres = v1.pres
    n1 = v1.dim
    size = n1 * dim2
    zero = pres.zero()
    out = [[zero] * size for _ in range(size)]
    for i in range(n1):
        for ip in range(n1):
            el = v1.entries[i][ip]
            if el.is_zero():
                continue
            for j in range(dim2):
                out[i * dim2 + j][ip * dim2 + j] = el
    return out


def _leg2_matrix(v2, space1, zeta):
    """(i2 (x) id)(v2) with the twist conj(zeta)^(deg(S) (deg(x)-1))."""
    pres = v2.pres
    n2 = v2.dim
    d1, d2 = space1.degrees, v2.space.degrees
    size = space1.dim * n2
    zero = pres.zero()
    zbar = zeta.conjugate()
    out = [[zero] * size for _ in range(size)]
    for j in range(n2):
        for jp in range(n2):
            el = v2.entries[j][jp]
            if el.is_zero():
                continue
            l = d2[j] - d2[jp]
            for i in range(space1.dim):
                twist = zbar ** (l * (d1[i] - 1))
                out[i * n2 + j][i * n2 + jp] = el.scale(twist)
    return out


def rep_tensor(v1, v2):
    """Tensor product of two representations on the tensor product space."""
    if v1.pres is not v2.pres:
        raise PresentationMismatchError()
    pres = v1.pres
    zeta = pres.params["zeta"]
    space = v1.space.tensor(v2.space)
    m1 = AlgMatrix(pres, space, _leg1_matrix(v1, v2.dim))
    m2 = AlgMatrix(pres, space, _leg2_matrix(v2, v1.space, zeta))
    return m1 * m2


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

    ``xi`` has Scalar coordinates; v fixes it iff every residual is zero.
    """
    xi = [c if isinstance(c, Scalar) else Scalar.from_int(c) for c in xi]
    if len(xi) != v.dim:
        raise ValueError("vector length must match the matrix dimension")
    return [acc - v.pres.scalar(c) for acc, c in zip(_times_vector(v, xi), xi)]


def constraint_derivation(qparam=None):
    """Derive the entry constraints forced by invariance of e0 x e1 - q e1 x e0.

    Works over the free graded *-algebra on entries a, b, c, d of a generic
    invariant unitary 2x2 matrix (degrees 0, -1, 1, 0) and expands both sides
    of the fixed-vector equation written with one adjoint:

        (i1 (x) id)(u*) (xi (x) 1) = (i2 (x) id)(u) (xi (x) 1).

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
    if not u.is_invariant():
        raise NotInvariantError()
    xi = [Scalar.zero(), Scalar.one(), -q, Scalar.zero()]

    space = QUBIT.tensor(QUBIT)
    m1 = AlgMatrix(F, space, _leg1_matrix(u.adjoint(), 2))
    m2 = AlgMatrix(F, space, _leg2_matrix(u, QUBIT, zeta))

    lhs = _times_vector(m1, xi)
    rhs = _times_vector(m2, xi)

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
    z, zs = pres.gen("z"), pres.gen("z'")
    n = space.dim
    zero = pres.zero()
    rows = []
    for r in range(n):
        row = [zero] * n
        d = space.degrees[r]
        row[r] = pres.unit() if d == 0 else (z**d if d > 0 else zs ** (-d))
        rows.append(row)
    return AlgMatrix(pres, space, rows)


def uq2_from_su2_rep(v):
    """Turn a representation of the braided algebra into one of the extended one.

    ``v`` is the image in the circle-extended algebra of a braided-algebra
    representation; ``udiag`` is the diagonal z-power matrix of its space
    (:func:`zpower_matrix`).  Returns one residual line for each failing
    part of the claim about ``u = v udiag*``: unitarity, the ordinary
    comultiplication compatibility (through the shared ``delta_uq2`` of
    ``v``'s parameter), the roundtrip ``u udiag = v``, and the degenerate
    case where ``v`` is the identity.
    """
    delta_b = delta_uq2(v.pres.params["q"])
    B = delta_b.source
    if v.pres is not B:
        raise PresentationMismatchError()
    udiag = zpower_matrix(B, v.space)
    u = v * udiag.adjoint()
    u0 = AlgMatrix.identity(B, v.space) * udiag.adjoint()
    failures = (
        (not all(r.is_zero() for r in u.unitarity_residuals()), "v U* is not unitary"),
        (not corep_check(u, delta_b).is_zero(), "v U* fails the ordinary corepresentation law"),
        ((u * udiag) != v, "(v U*) U does not recover v"),
        (not corep_check(u0, delta_b).is_zero(), "U* alone fails the corepresentation law"),
    )
    return [line for failed, line in failures if failed]
