"""Representation calculus: unitarity, corepresentations, fixed vectors."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from suq2 import (
    AlgMatrix,
    GradedSpace,
    NotInvariantError,
    PresentationMismatchError,
    QUBIT,
    Scalar,
    constraint_derivation,
    corep_check,
    delta_su,
    delta_uq2,
    free_presentation,
    fundamental_matrix,
    invariant_vector_check,
    matrix_apply,
    rep_tensor,
    su_to_uq2,
    suq2_presentation,
    torus_presentation,
    twisted_tensor,
    uq2_from_su2_rep,
    uq2_presentation,
    zpower_matrix,
)
from suq2.repcalc import matrix_embed

A = suq2_presentation()
Q = A.params["q"]
U_FUND = fundamental_matrix(A)
DELTA = delta_su()
DELTA.check()


def _is_unitary(m):
    return all(r.is_zero() for r in m.unitarity_residuals())


def test_fundamental_matrix_is_unitary():
    r1, r2 = U_FUND.unitarity_residuals()
    assert r1.is_zero() and r2.is_zero()


def test_identity_is_unitary_and_diag_gamma_is_not():
    ident = AlgMatrix.identity(A, QUBIT)
    assert _is_unitary(ident)
    bad = AlgMatrix(A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("g")]])
    r1, _ = bad.unitarity_residuals()
    assert not r1.is_zero()
    assert r1[0, 0] == A.gen("g") * A.gen("g'") - A.unit()


def test_invariance_condition():
    assert U_FUND.is_invariant()
    swapped = AlgMatrix(
        A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("a")]]
    )
    assert not swapped.is_invariant()


def test_fundamental_corep():
    assert corep_check(U_FUND, DELTA).is_zero()


def test_trivial_corep():
    triv = AlgMatrix.identity(A, GradedSpace((0,)))
    assert corep_check(triv, DELTA).is_zero()


def test_perturbed_matrix_fails_corep():
    wrong = AlgMatrix(
        A,
        QUBIT,
        [[A.gen("a"), A.gen("g'").scale(Q)], [A.gen("g"), A.gen("a'")]],
    )
    assert not corep_check(wrong, DELTA).is_zero()


def test_corep_check_requires_invariance():
    swapped = AlgMatrix(
        A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("a")]]
    )
    with pytest.raises(NotInvariantError, match="not-T-invariant"):
        corep_check(swapped, DELTA)


def test_corep_check_ignores_the_space_grading_over_a_trivially_graded_source():
    # over U_q(2) every degree is zero, so a matrix that is not circle-invariant
    # on the space is still checked (the ordinary corepresentation law)
    inc = su_to_uq2()
    u = matrix_apply(inc, U_FUND) * zpower_matrix(inc.target, QUBIT).adjoint()
    assert not u.is_invariant()
    assert corep_check(u, delta_uq2()).is_zero()


def test_tensor_square_is_a_corep_and_unitary():
    v = rep_tensor(U_FUND, U_FUND)
    assert v.space.degrees == (0, -1, -1, -2)
    assert v.is_invariant()
    assert _is_unitary(v)
    assert corep_check(v, DELTA).is_zero()


def test_tensor_with_trivial_second_factor_is_identity_operation():
    triv = AlgMatrix.identity(A, GradedSpace((0,)))
    # the weight-0 trivial factor is a unit on both sides
    assert rep_tensor(U_FUND, triv).entries == U_FUND.entries
    assert rep_tensor(triv, U_FUND).entries == U_FUND.entries


def test_rep_tensor_is_associative():
    square = rep_tensor(U_FUND, U_FUND)
    trivial = {f"1[{c}]": AlgMatrix.identity(A, GradedSpace((c,))) for c in (-1, 0, 2)}
    pool = {"u": U_FUND, "uu": square, **trivial}
    for (n1, v1), (n2, v2), (n3, v3) in itertools.product(pool.items(), repeat=3):
        left = rep_tensor(rep_tensor(v1, v2), v3)
        right = rep_tensor(v1, rep_tensor(v2, v3))
        assert left == right, (n1, n2, n3)
    assert corep_check(rep_tensor(square, U_FUND), DELTA).is_zero()
    assert corep_check(rep_tensor(U_FUND, square), DELTA).is_zero()


def _scalar_matrix(space, rows):
    return AlgMatrix(A, space, [[A.scalar(c) for c in row] for row in rows])


def _kron(m1, m2):
    return [[x * y for x in r1 for y in r2] for r1 in m1 for r2 in m2]


# e = xi xi^*, the projector onto the invariant vector xi = e0 e1 - q e1 e0
_XI = (Scalar.zero(), Scalar.one(), -Q, Scalar.zero())
_E = [[x * y.conjugate() for y in _XI] for x in _XI]
_ONE2 = [[Scalar.one(), Scalar.zero()], [Scalar.zero(), Scalar.one()]]


def _intertwines(rows, w):
    t = _scalar_matrix(w.space, rows)
    return t * w == w * t


def test_the_singlet_projector_intertwines_on_either_pair_of_legs():
    square = rep_tensor(U_FUND, U_FUND)
    assert _intertwines(_E, square)
    for cube in (rep_tensor(square, U_FUND), rep_tensor(U_FUND, square)):
        assert _intertwines(_kron(_E, _ONE2), cube)
        assert _intertwines(_kron(_ONE2, _E), cube)


def test_the_shifted_exponent_is_not_associative():
    # the shifted convention: weights (1, 0) and (d2[j] - d2[j']) (d1[i'] - 1)
    u = AlgMatrix(A, GradedSpace((1, 0)), U_FUND.entries)

    def shifted(v1, v2):
        return _operator_model_tensor(v1, v2, shift=1)

    assert shifted(u, u).entries == rep_tensor(U_FUND, U_FUND).entries
    left, right = shifted(shifted(u, u), u), shifted(u, shifted(u, u))
    assert left.space.degrees == right.space.degrees
    assert sum(x != y for r1, r2 in zip(left.entries, right.entries) for x, y in zip(r1, r2)) == 32
    # bracketed to the left, e (x) 1 intertwines but 1 (x) e does not
    assert _intertwines(_kron(_E, _ONE2), left)
    assert not _intertwines(_kron(_ONE2, _E), left)


def test_matrix_equality_compares_the_weights():
    same_entries = AlgMatrix(A, GradedSpace((0, 0)), U_FUND.entries)
    assert U_FUND != same_entries
    assert U_FUND.is_invariant() and not same_entries.is_invariant()
    assert U_FUND == AlgMatrix(A, GradedSpace((0, -1)), U_FUND.entries)


def test_weights_are_integers():
    # a fractional weight is refused, not truncated to the integer below it
    for weights in ((0.5, -1.7), (0, 1.0), ("1",)):
        with pytest.raises(TypeError):
            GradedSpace(weights)
    assert GradedSpace((True, np.int64(-2))).degrees == (1, -2)
    assert all(type(d) is int for d in GradedSpace((True, np.int64(-2))).degrees)


def test_free_presentation_needs_one_degree_per_name():
    for names, degrees in ((("a", "b"), (0,)), (("a",), (0, 1))):
        with pytest.raises(ValueError):
            free_presentation(names, degrees)
    assert free_presentation(("a", "b"), (0, 1)).n_gens == 4


def test_products_and_differences_refuse_other_weights():
    # same dimension, other weights: the result would carry one side's weights
    w = AlgMatrix(A, GradedSpace((5, 0)), U_FUND.entries)
    for op in (lambda x, y: x * y, lambda x, y: x - y):
        for x, y in ((U_FUND, w), (w, U_FUND)):
            with pytest.raises(ValueError, match="weight mismatch"):
                op(x, y)


def mixed_leg_matrices(v, product):
    """The two mixed-leg images of an invariant matrix in a tensor square.

    Returns ``(i1 (x) j2)(v)`` and ``(i2 (x) j1)(v)`` as matrices over the
    tensor-product presentation; for degree-zero v these must commute.
    """
    ident = AlgMatrix.identity(product, v.space)
    a = rep_tensor(matrix_embed(product, 2, v), ident)
    b = rep_tensor(ident, matrix_embed(product, 1, v))
    return a, b


def test_mixed_leg_images_commute():
    a, b = mixed_leg_matrices(U_FUND, DELTA.target)
    assert a * b == b * a


def test_invariant_vector():
    v = rep_tensor(U_FUND, U_FUND)
    xi = [Scalar.zero(), Scalar.one(), -Q, Scalar.zero()]
    res = invariant_vector_check(v, xi)
    assert len(res) == 4
    assert all(r.is_zero() for r in res)


def test_invariant_vector_scaling_linearity():
    v = rep_tensor(U_FUND, U_FUND)
    lam = Scalar.imag_unit() + Scalar.from_int(2)
    xi = [Scalar.zero(), lam, -Q * lam, Scalar.zero()]
    assert all(r.is_zero() for r in invariant_vector_check(v, xi))


def test_perturbed_vector_fails():
    v = rep_tensor(U_FUND, U_FUND)
    xi = [Scalar.zero(), Scalar.one(), -(Q + Q), Scalar.zero()]
    assert not all(r.is_zero() for r in invariant_vector_check(v, xi))
    # the conjugate-parameter coefficient also fails: the braiding convention
    # pins the coefficient to the parameter itself
    xi2 = [Scalar.zero(), Scalar.one(), -A.params["qb"], Scalar.zero()]
    assert not all(r.is_zero() for r in invariant_vector_check(v, xi2))


def test_invariant_vector_takes_fraction_coordinates():
    v = rep_tensor(U_FUND, U_FUND)
    half = Fraction(1, 2)
    assert all(r.is_zero() for r in invariant_vector_check(v, [0, half, -Q * half, 0]))
    assert not all(r.is_zero() for r in invariant_vector_check(v, [0, half, -Q, 0]))


def test_identity_fixes_any_vector():
    ident = AlgMatrix.identity(A, QUBIT)
    assert all(r.is_zero() for r in invariant_vector_check(ident, [Q, Scalar.one()]))


def test_constraint_derivation():
    # no residual: the equations are the expected ones and force the modulus relation
    equations, residuals = constraint_derivation()
    assert residuals == []
    names = [name for name, _, _ in equations]
    assert names == ["e0e0", "e0e1", "e1e0", "e1e1"]


def test_uq2_corep_bijection_fundamental_case():
    inc = su_to_uq2()
    assert inc.check()
    B = inc.target
    v = matrix_apply(inc, U_FUND)
    assert uq2_from_su2_rep(v, delta_uq2()) == []
    # the converted matrix has the expected entries ((a, -q g' z), (g, a' z))
    u = v * zpower_matrix(B, QUBIT).adjoint()
    assert u[0, 0] == B.gen("a")
    assert u[0, 1] == B.gen("g'").scale(-Q) * B.gen("z")
    assert u[1, 0] == B.gen("g")
    assert u[1, 1] == B.gen("a'") * B.gen("z")


def test_uq2_corep_bijection_names_each_failing_part():
    wrong = AlgMatrix(A, QUBIT, [[A.gen("a"), A.gen("g'").scale(Q)], [A.gen("g"), A.gen("a'")]])
    assert uq2_from_su2_rep(matrix_apply(su_to_uq2(), wrong), delta_uq2()) == [
        "v U* is not unitary",
        "v U* fails the ordinary corepresentation law",
    ]


def test_uq2_corep_bijection_rejects_a_delta_over_another_presentation():
    v = matrix_apply(su_to_uq2(), U_FUND)
    with pytest.raises(PresentationMismatchError):
        uq2_from_su2_rep(v, delta_uq2(Scalar.q().inverse()))


# -- one-pass matrix product against the entrywise accumulation ------------------------


def _entrywise_product(m1, m2):
    """Reference product: entry (r, c) summed one Element product at a time."""
    n = m1.dim
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = m1.pres.zero()
            for k in range(n):
                acc = acc + m1.entries[r][k] * m2.entries[k][c]
            row.append(acc)
        rows.append(row)
    return AlgMatrix(m1.pres, m1.space, rows)


def _random_matrix(rng, pres, space):
    """Seeded entries: entry (0, n-1) of a matrix larger than 1x1 and about a
    third of the rest zero, the others short sums of short words."""
    coeffs = [Scalar.one(), -Q, Q.conjugate(), Scalar.from_int(3) / Q, Scalar.from_int(-2)]

    def entry():
        if rng.random() < 0.35:
            return pres.zero()
        raw = [
            (rng.choice(coeffs), tuple(rng.randrange(pres.n_gens) for _ in range(rng.randrange(3))))
            for _ in range(rng.randrange(1, 4))
        ]
        return pres.normalize_raw(raw)

    rows = [[entry() for _ in range(space.dim)] for _ in range(space.dim)]
    if space.dim > 1:
        rows[0][-1] = pres.zero()
    return AlgMatrix(pres, space, rows)


_PRODUCT_ALGEBRAS = {
    "suq2": lambda: A,
    "suq2-tensor2": lambda: twisted_tensor([A, A], A.params["zeta"]),
    "uq2": uq2_presentation,
    "free-abcd": lambda: free_presentation(("a", "b", "c", "d"), (0, -1, 1, 0), label="free-abcd"),
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_ALGEBRAS))
@pytest.mark.parametrize("space", [QUBIT, QUBIT.tensor(QUBIT)], ids=["2x2", "4x4"])
def test_matrix_product_matches_the_entrywise_sum(name, space):
    rng = random.Random(f"{name}-{space.dim}")
    pres = _PRODUCT_ALGEBRAS[name]()
    for _ in range(3):
        m1, m2 = _random_matrix(rng, pres, space), _random_matrix(rng, pres, space)
        assert m1 * m2 == _entrywise_product(m1, m2)
        assert m1 * AlgMatrix.identity(pres, space) == m1


# -- the tensor product entry formula against the operator model -----------------------


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


def _leg2_matrix(v2, space1, zeta, shift=0):
    """(i2 (x) id)(v2) with the twist conj(zeta)^(deg(S) (deg(x) - shift))."""
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
                twist = zbar ** (l * (d1[i] - shift))
                out[i * n2 + j][i * n2 + jp] = el.scale(twist)
    return out


def _operator_model_tensor(v1, v2, shift=0):
    """Reference tensor product: the matrix product i1(v1) i2(v2) of the two legs."""
    pres = v1.pres
    space = v1.space.tensor(v2.space)
    m1 = AlgMatrix(pres, space, _leg1_matrix(v1, v2.dim))
    m2 = AlgMatrix(pres, space, _leg2_matrix(v2, v1.space, pres.params["zeta"], shift))
    return m1 * m2


_TENSOR_ALGEBRAS = {
    **{name: _PRODUCT_ALGEBRAS[name] for name in ("suq2", "suq2-tensor2", "uq2")},
    "torus": torus_presentation,
}

# weights other than QUBIT's on the first factor exercise the bilinear exponent
_TENSOR_SPACES = {
    "2(x)2": (QUBIT, QUBIT),
    "2(x)4": (QUBIT, QUBIT.tensor(QUBIT)),
    "4(x)2": (QUBIT.tensor(QUBIT), QUBIT),
    "2(x)1": (QUBIT, GradedSpace((0,))),
    "1(x)2": (GradedSpace((0,)), QUBIT),
    "(2,-1)(x)2": (GradedSpace((2, -1)), QUBIT),
}


@pytest.mark.parametrize("name", sorted(_TENSOR_ALGEBRAS))
@pytest.mark.parametrize("spaces", sorted(_TENSOR_SPACES))
def test_rep_tensor_matches_the_operator_model(name, spaces):
    rng = random.Random(f"tensor-{name}-{spaces}")
    pres = _TENSOR_ALGEBRAS[name]()
    s1, s2 = _TENSOR_SPACES[spaces]
    nonzero = 0
    for _ in range(6):
        v1, v2 = _random_matrix(rng, pres, s1), _random_matrix(rng, pres, s2)
        v = rep_tensor(v1, v2)
        assert v == _operator_model_tensor(v1, v2)
        nonzero += len(v.nonzero_entries())
    assert nonzero
