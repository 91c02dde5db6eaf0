"""Named verification checks behind the CLI ``verify`` subcommand.

Every check runs over the formal parameter, and every coefficient a check
builds is a Laurent polynomial in q and qb (no denominator other than 1;
pinned by a test).  So a pass is an exact Laurent-polynomial identity and
holds at every q, qb != 0.  Each check returns a :class:`CheckResult` whose
``residuals`` list renders whatever failed.  That list is the verdict: a
check passes exactly when it has no residuals.  A check's id is its key in
:data:`CHECKS` and nowhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .algebra import confluence_check, suq2_presentation, torus_presentation
from .braided import braiding_failures, embed, twisted_tensor
from .morphisms import (
    cancellation_witness,
    compose,
    delta_su,
    delta_uq2,
    equal_on_generators,
    identity_morphism,
    iota1,
    iota2,
    phi_symmetry,
    q_inverse_iso,
    su_to_uq2,
    tensor_morphism,
)
from .repcalc import (
    constraint_derivation,
    corep_check,
    fundamental_matrix,
    invariant_vector_check,
    matrix_apply,
    matrix_embed,
    rep_tensor,
    uq2_from_su2_rep,
)
from .scalars import Scalar


@dataclass
class CheckResult:
    anchor: str
    residuals: list
    details: dict

    @property
    def ok(self):
        """Pass iff no residual is left."""
        return not self.residuals


def _result(anchor, residuals, **details):
    return CheckResult(anchor, list(residuals), details)


# ---------------------------------------------------------------------------


def check_unitary_u():
    r1, r2 = fundamental_matrix().unitarity_residuals()
    residuals = [
        f"(u u* - 1)[{r},{c}] = {el.render()}" for (r, c), el in r1.nonzero_entries()
    ] + [
        f"(u* u - 1)[{r},{c}] = {el.render()}" for (r, c), el in r2.nonzero_entries()
    ]
    return _result(
        "the fundamental 2x2 matrix ((a, -q g'), (g, a')) is unitary",
        residuals,
    )


def check_delta_hom():
    residuals = [
        f"image of rule {rule.lhs} leaves {el.render()}" for rule, el in delta_su().residuals
    ]
    return _result(
        "the comultiplication images satisfy all five defining relations "
        "inside the twisted square, for the formal parameter",
        residuals,
    )


def _coassoc(d, zeta):
    """Coassociativity residuals of d: B -> B x B, then (d x id) o d and (id x d) o d.

    The triple product is twisted by ``zeta``.  Each generator on which the
    two composites differ gives one line ``"<name>: <left - right>"``.
    """
    B = d.source
    B3 = twisted_tensor([B, B, B], zeta)
    ident = identity_morphism(B)
    left = compose(tensor_morphism([d, ident], B3), d)
    right = compose(tensor_morphism([ident, d], B3), d)
    residuals = []
    for i in range(B.n_gens):
        li, ri = left.letter_image(i), right.letter_image(i)
        if li != ri:
            residuals.append(f"{B.generators[i].name}: {(li - ri).render()}")
    return residuals, left, right


def check_delta_coassoc():
    A = suq2_presentation()
    residuals, left, right = _coassoc(delta_su(), A.params["zeta"])
    # both composites also match the three-leg matrix product expansion
    A3 = left.target
    u = fundamental_matrix(A)
    t3 = matrix_embed(A3, 1, u) * matrix_embed(A3, 2, u) * matrix_embed(A3, 3, u)
    for mor in (left, right):
        if not (matrix_apply(mor, u) - t3).is_zero():
            residuals.append(f"{mor.name} disagrees with the triple matrix product")
    return _result(
        "(delta x id) o delta = (id x delta) o delta on all generators, and "
        "both equal the entrywise triple product j1(u) j2(u) j3(u)",
        residuals,
    )


def check_delta_equivariance():
    return _result(
        "the comultiplication sends each generator to a homogeneous element "
        "of the same degree",
        delta_su().degree_residuals(),
    )


_BRAIDING_BASE = (
    "j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x) for the 16 generator pairs"
)


def check_cancellation_witness():
    """Span witnesses j1(w) = sum c delta(a) j2(b) for every word w.

    Proved by induction on the length of w from finitely many base
    identities (see :func:`morphisms.cancellation_witness`): delta respects
    the relations, the two matrix identities, and the cross-leg law on
    generator pairs.
    """
    return _result(
        "j1(u) = delta(u) j2(u)* and j2(u) = j1(u)* delta(u) entrywise; hence "
        "every word has an explicit delta(a) j2(b) expansion",
        cancellation_witness(),
        certificate={
            "method": "induction on word length",
            "base": [
                "delta respects the defining relations",
                "j1(u) = delta(u) j2(u)*",
                "j2(u) = j1(u)* delta(u)",
                _BRAIDING_BASE,
            ],
        },
    )


def check_prop_8_44():
    """j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x) for all monomials x, y.

    Both sides are multiplicative in x and in y, and the degree pairing is a
    bicharacter, so the 16 generator pairs prove the law for every pair of
    monomials by induction on word length.
    """
    A = suq2_presentation()
    AA = twisted_tensor([A, A], A.params["zeta"])
    failures = braiding_failures(A, partial(embed, AA, 1), partial(embed, AA, 2))
    return _result(
        "j1(x) j2(y) = zeta^(deg x deg y) j2(y) j1(x) for homogeneous monomials",
        [f"x={x}, y={y}" for x, y in failures],
        pairs_checked=A.n_gens**2,
        certificate={"method": "induction on word length", "base": [_BRAIDING_BASE]},
    )


def check_tensprod_corep():
    d = delta_su()
    u = fundamental_matrix(d.source)
    v = rep_tensor(u, u)
    residuals = [
        f"corepresentation residual [{r},{c}] = {el.render()}"
        for (r, c), el in corep_check(v, d).nonzero_entries()
    ]
    if not all(r.is_zero() for r in v.unitarity_residuals()):
        residuals.append("tensor square is not unitary")
    return _result(
        "the tensor square of the fundamental representation is again a "
        "unitary invariant corepresentation",
        residuals,
    )


def check_invariant_vector():
    A = suq2_presentation()
    q = A.params["q"]
    v = rep_tensor(fundamental_matrix(A), fundamental_matrix(A))
    xi = [Scalar.zero(), Scalar.one(), -q, Scalar.zero()]
    residuals = [
        f"coordinate {i}: {el.render()}"
        for i, el in enumerate(invariant_vector_check(v, xi))
        if not el.is_zero()
    ]
    xi_bad = [Scalar.zero(), Scalar.one(), -(q + q), Scalar.zero()]
    if all(el.is_zero() for el in invariant_vector_check(v, xi_bad)):
        residuals.append("the doubled-coefficient perturbation was wrongly fixed")
    return _result(
        "the tensor square fixes e0 x e1 - q e1 x e0 and does not fix the "
        "doubled-coefficient perturbation",
        residuals,
    )


def check_invariance_constraints():
    equations, residuals = constraint_derivation()
    return _result(
        "invariance of e0 x e1 - q e1 x e0 for a generic invariant unitary "
        "forces exactly b = -q c*, d = a*, b* = -q conj(zeta) c, hence "
        "conj(q) zeta = q when b is nonzero",
        residuals,
        equations=[f"{n}: {l} = {r}" for n, l, r in equations],
    )


def check_aq_symmetry():
    A = suq2_presentation()
    phi = phi_symmetry()
    d_flip = delta_su(source=phi.source)
    d_tilde = delta_su(A.params["q"].conjugate().inverse())
    # tensor_morphism rejects a phi that is not degree-preserving
    phi2 = tensor_morphism([phi, phi], d_tilde.target)
    residuals = []
    if not equal_on_generators(compose(phi2, d_flip), compose(d_tilde, phi)):
        residuals.append("(phi x phi) o delta != delta o phi")
    return _result(
        "the grading flip is isomorphic to the algebra at parameter "
        "1/conj(q) via a |-> a'~, g |-> q~ g'~, compatibly with the "
        "comultiplications",
        residuals,
    )


def check_q_inverse_iso():
    A = suq2_presentation()
    q = A.params["q"]
    f = q_inverse_iso(q)
    g = q_inverse_iso(q.inverse())
    residuals = []
    if not (
        equal_on_generators(compose(g, f), identity_morphism(A))
        and equal_on_generators(compose(f, g), identity_morphism(f.target))
    ):
        residuals.append("the double parameter inversion is not the identity")
    return _result(
        "a |-> a', g |-> q^-1 g is an isomorphism onto the algebra at "
        "parameter 1/q; doing it twice is the identity",
        residuals,
    )


def check_halmosh_poly():
    """a f(g) = f(qb g) a and a f(g') = f(q g') a for every polynomial f.

    The case m = 1 gives a g^(m+1) = qb^m g^m a g = qb^(m+1) g^(m+1) a, so
    both monomial laws hold for every m by induction, and for polynomials by
    linearity.
    """
    A = suq2_presentation()
    q, qb = A.params["q"], A.params["qb"]
    a, g, gs = A.gen("a"), A.gen("g"), A.gen("g'")
    residuals = []
    if a * g != (g * a).scale(qb):
        residuals.append("a g != qb g a")
    if a * gs != (gs * a).scale(q):
        residuals.append("a g' != q g' a")
    return _result(
        "a f(g) = f(qb g) a for every polynomial f, and the adjoint-variable "
        "analogue with q",
        residuals,
        certificate={"method": "induction on m", "base": ["a g = qb g a", "a g' = q g' a"]},
    )


def check_uq2_hom():
    residuals = [f"rule {r.lhs}: {el.render()}" for r, el in delta_uq2().residuals]
    return _result(
        "the extended comultiplication (z |-> z x z, a |-> a x a - q g'z x g, "
        "g |-> g x a + a'z x g) respects all relations",
        residuals,
    )


def check_uq2_coassoc():
    residuals, _, _ = _coassoc(delta_uq2(), Scalar.one())
    return _result(
        "the extended comultiplication is coassociative on all generators",
        residuals,
    )


def check_uq2_corep_bijection():
    inc = su_to_uq2()
    v = matrix_apply(inc, fundamental_matrix(inc.source))
    return _result(
        "u = v U* for the fundamental v is a unitary corepresentation of the "
        "extended algebra, the roundtrip recovers v, and the diagonal z-power "
        "matrix alone is a corepresentation",
        uq2_from_su2_rep(v, delta_uq2()),
    )


def check_torus_relations():
    T = torus_presentation()
    zeta = T.params["zeta"]
    U, Us, V, Vs = T.gen("U"), T.gen("U'"), T.gen("V"), T.gen("V'")
    residuals = []
    if U * V != (V * U).scale(zeta):
        residuals.append("U V != zeta V U")
    for name, el in (("U U'", U * Us), ("U' U", Us * U), ("V V'", V * Vs), ("V' V", Vs * V)):
        if el != T.unit():
            residuals.append(f"{name} != 1")
    if Vs * U != (U * Vs).scale(zeta):
        residuals.append("V' U != zeta U V'")
    rep = confluence_check(T)
    if not rep.ok:
        residuals.append(f"confluence divergences: {rep.divergences}")
    return _result(
        "two unitaries with U V = zeta V U: unitarity, the derived "
        "adjoint-ordered relation, and confluence of the directed rules",
        residuals,
    )


def check_su2_commutation():
    A = suq2_presentation()
    zeta = A.params["zeta"]
    i1, i2 = iota1(), iota2()
    failures = braiding_failures(A, i1.apply, i2.apply)
    # each embedding's four images, formed once for the 16 pairs
    deg = [g.degree for g in A.generators]
    img1, img2 = ([m.apply(A.gen(x)) for x in range(A.n_gens)] for m in (i1, i2))
    variant_fails = sum(
        img1[x] * img2[y] != (img2[y] * img2[x]).scale(zeta ** (deg[x] * deg[y]))
        for x, y in itertools.product(range(A.n_gens), repeat=2)
    )
    return _result(
        "i1(x) i2(y) = zeta^(deg x deg y) i2(y) i1(x) for the embeddings "
        "into the extended tensor square",
        [f"x={x}, y={y}" for x, y in failures],
        note=(
            "the law holds with i1(x) as the final factor; the variant "
            "ending in i2(x) fails on "
            f"{variant_fails} of 16 generator pairs, so the i1 form is the "
            "correct reading"
        ),
    )


CHECKS = {
    "unitary-u": check_unitary_u,
    "delta-hom": check_delta_hom,
    "delta-coassoc": check_delta_coassoc,
    "delta-equivariance": check_delta_equivariance,
    "cancellation-witness": check_cancellation_witness,
    "prop-8-44": check_prop_8_44,
    "tensprod-corep": check_tensprod_corep,
    "invariant-vector": check_invariant_vector,
    "invariance-constraints": check_invariance_constraints,
    "aq-symmetry": check_aq_symmetry,
    "q-inverse-iso": check_q_inverse_iso,
    "halmosh-poly": check_halmosh_poly,
    "uq2-hom": check_uq2_hom,
    "uq2-coassoc": check_uq2_coassoc,
    "uq2-corep-bijection": check_uq2_corep_bijection,
    "torus-relations": check_torus_relations,
    "su2-commutation": check_su2_commutation,
}


def run_check(check_id):
    try:
        fn = CHECKS[check_id]
    except KeyError:
        raise KeyError(f"unknown check id {check_id!r}") from None
    return fn()


def run_all():
    """Every check's result, keyed by its id, in sorted id order."""
    return {cid: run_check(cid) for cid in sorted(CHECKS)}
