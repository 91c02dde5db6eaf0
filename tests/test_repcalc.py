"""Representation calculus: unitarity, corepresentations, fixed vectors."""

import random

import pytest

from suq2 import (
    AlgMatrix,
    GradedSpace,
    NotInvariantError,
    QUBIT,
    Scalar,
    constraint_derivation,
    corep_check,
    delta_su,
    free_presentation,
    fundamental_matrix,
    invariant_vector_check,
    matrix_apply,
    rep_tensor,
    su_to_uq2,
    suq2_presentation,
    twisted_tensor,
    uq2_from_su2_rep,
    uq2_presentation,
    zpower_matrix,
)
from suq2.repcalc import _leg1_matrix, _leg2_matrix, matrix_embed

A = suq2_presentation()
Q = A.params["q"]
U_FUND = fundamental_matrix(A)
DELTA = delta_su()
DELTA.check()


def test_fundamental_matrix_is_unitary():
    ok, r1, r2 = U_FUND.is_unitary()
    assert ok
    assert r1.is_zero() and r2.is_zero()


def test_identity_is_unitary_and_diag_gamma_is_not():
    ident = AlgMatrix.identity(A, QUBIT)
    assert ident.is_unitary()[0]
    bad = AlgMatrix(A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("g")]])
    ok, r1, _ = bad.is_unitary()
    assert not ok
    assert r1[0, 0] == A.gen("g") * A.gen("g'") - A.unit()


def test_invariance_condition():
    assert U_FUND.is_invariant()
    swapped = AlgMatrix(
        A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("a")]]
    )
    assert not swapped.is_invariant()


def test_fundamental_corep():
    ok, res = corep_check(U_FUND, DELTA, mode="braided")
    assert ok
    assert res.is_zero()


def test_trivial_corep():
    triv = AlgMatrix.identity(A, GradedSpace((0,)))
    ok, _ = corep_check(triv, DELTA, mode="braided")
    assert ok


def test_perturbed_matrix_fails_corep():
    wrong = AlgMatrix(
        A,
        QUBIT,
        [[A.gen("a"), A.gen("g'").scale(Q)], [A.gen("g"), A.gen("a'")]],
    )
    ok, res = corep_check(wrong, DELTA, mode="braided")
    assert not ok
    assert not res.is_zero()


def test_corep_check_requires_invariance():
    swapped = AlgMatrix(
        A, QUBIT, [[A.gen("g"), A.zero()], [A.zero(), A.gen("a")]]
    )
    with pytest.raises(NotInvariantError, match="not-T-invariant"):
        corep_check(swapped, DELTA, mode="braided")


def test_tensor_square_is_a_corep_and_unitary():
    v = rep_tensor(U_FUND, U_FUND)
    assert v.space.degrees == (2, 1, 1, 0)
    assert v.is_invariant()
    assert v.is_unitary()[0]
    ok, _ = corep_check(v, DELTA, mode="braided")
    assert ok


def test_tensor_with_trivial_second_factor_is_identity_operation():
    triv = AlgMatrix.identity(A, GradedSpace((0,)))
    v = rep_tensor(U_FUND, triv)
    assert v.entries == U_FUND.entries
    # a trivial first factor yields the character-conjugated copy: different
    # entries on the degree-carrying positions, but still a corepresentation
    w = rep_tensor(triv, U_FUND)
    assert w.is_unitary()[0]
    ok, _ = corep_check(w, DELTA, mode="braided")
    assert ok


def mixed_leg_matrices(v, product):
    """The two mixed-leg images of an invariant matrix in a tensor square.

    Returns ``(i1 (x) j2)(v)`` and ``(i2 (x) j1)(v)`` as matrices over the
    tensor-product presentation; for degree-zero v these must commute.
    """
    zeta = product.params["zeta"]
    space = v.space.tensor(v.space)
    a = AlgMatrix(product, space, _leg1_matrix(matrix_embed(product, 2, v), v.dim))
    b = AlgMatrix(product, space, _leg2_matrix(matrix_embed(product, 1, v), v.space, zeta))
    return a, b


def test_mixed_leg_images_commute():
    a, b = mixed_leg_matrices(U_FUND, DELTA.target)
    assert a * b == b * a


def test_invariant_vector():
    v = rep_tensor(U_FUND, U_FUND)
    xi = [Scalar.zero(), Scalar.one(), -Q, Scalar.zero()]
    ok, res = invariant_vector_check(v, xi)
    assert ok
    assert all(r.is_zero() for r in res)


def test_invariant_vector_scaling_linearity():
    v = rep_tensor(U_FUND, U_FUND)
    lam = Scalar.imag_unit() + Scalar.from_int(2)
    xi = [Scalar.zero(), lam, -Q * lam, Scalar.zero()]
    ok, _ = invariant_vector_check(v, xi)
    assert ok


def test_perturbed_vector_fails():
    v = rep_tensor(U_FUND, U_FUND)
    xi = [Scalar.zero(), Scalar.one(), -(Q + Q), Scalar.zero()]
    ok, res = invariant_vector_check(v, xi)
    assert not ok
    # the conjugate-parameter coefficient also fails: the braiding convention
    # pins the coefficient to the parameter itself
    xi2 = [Scalar.zero(), Scalar.one(), -A.params["qb"], Scalar.zero()]
    ok2, _ = invariant_vector_check(v, xi2)
    assert not ok2


def test_identity_fixes_any_vector():
    ident = AlgMatrix.identity(A, QUBIT)
    ok, _ = invariant_vector_check(ident, [Q, Scalar.one()])
    assert ok


def test_constraint_derivation():
    rep = constraint_derivation()
    assert rep.matches_expected
    assert rep.implies_modulus_relation
    assert rep.ok
    names = [name for name, _, _ in rep.equations]
    assert names == ["e0e0", "e0e1", "e1e0", "e1e1"]


def test_uq2_corep_bijection_fundamental_case():
    inc = su_to_uq2()
    inc.check()
    B = inc.target
    v = matrix_apply(inc, U_FUND)
    report = uq2_from_su2_rep(v)
    assert report.unitary
    assert report.corep
    assert report.roundtrip
    assert report.diagonal_alone
    # the converted matrix has the expected entries ((a z', -q g'), (g z', a'))
    u = v * zpower_matrix(B, QUBIT).adjoint()
    assert u[0, 0] == B.gen("a") * B.gen("z'")
    assert u[0, 1] == B.gen("g'").scale(-Q)
    assert u[1, 0] == B.gen("g") * B.gen("z'")
    assert u[1, 1] == B.gen("a'")


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
    """Seeded entries: entry (0, n-1) and about a third of the rest zero, the
    others short sums of short words."""
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
