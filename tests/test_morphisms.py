"""Generator morphisms: relation checking, application, the named maps."""

import collections
import itertools

import pytest

from suq2 import (
    PresentationMismatchError,
    Scalar,
    UnverifiedMorphismError,
    cancellation_witness,
    compose,
    delta_su,
    delta_uq2,
    embed,
    equal_on_generators,
    grading_flip,
    identity_morphism,
    iota1,
    iota2,
    phi_symmetry,
    q_inverse_iso,
    rho_scale,
    su_to_uq2,
    suq2_presentation,
    tensor_morphism,
    twisted_tensor,
    uq2_presentation,
)
import suq2.algebra
from suq2 import checks, morphisms
from suq2.braided import braiding_failures, retag
from suq2.checks import _coassoc
from suq2.cli import main
from suq2.morphisms import GenMorphism
from suq2.repcalc import fundamental_matrix

A = suq2_presentation()
Q = A.params["q"]


def test_comultiplication_well_defined_and_equivariant():
    d = delta_su()
    assert d.check()
    assert d.degree_residuals() == []


def test_degree_residuals_are_the_equivariance_verdict(monkeypatch):
    d = delta_su()
    AA = d.target
    g = A.gen_index("g")
    j1a = embed(AA, 1, A.gen("a"))
    for image, degree in ((j1a, 0), (d.images[g] + j1a, "inhomogeneous")):
        images = {i: image if i == g else el for i, el in d.images.items()}
        skewed = GenMorphism(A, AA, images, name="skewed")
        expected = [f"g image has degree {degree}", f"g' image has degree {degree}"]
        assert skewed.degree_residuals() == expected
        monkeypatch.setattr(checks, "delta_su", lambda: skewed)
        report = checks.check_delta_equivariance()
        assert not report.ok and report.residuals == expected


def test_comultiplication_images():
    d = delta_su()
    AA = d.target
    a, g, gs, as_ = A.gen("a"), A.gen("g"), A.gen("g'"), A.gen("a'")
    j1 = lambda x: embed(AA, 1, x)
    j2 = lambda x: embed(AA, 2, x)
    assert d.apply(a) == j1(a) * j2(a) - (j1(gs) * j2(g)).scale(Q)
    assert d.apply(g) == j1(g) * j2(a) + j1(as_) * j2(g)
    # the starred images are the adjoints, reordered into normal form
    assert d.apply(gs) == j1(gs) * j2(as_) + j1(a) * j2(gs)


def test_scaled_generator_map_fails_with_residual():
    bad = GenMorphism(
        A,
        A,
        {
            A.gen_index("a"): A.gen("a"),
            A.gen_index("g"): A.gen("g").scale(Scalar.from_int(2)),
        },
        name="bad",
    )
    assert not bad.check()
    by_rule = {rule.lhs: el for rule, el in bad.residuals}
    g, gs = A.gen("g"), A.gen("g'")
    assert by_rule[(3, 2)] == (g * gs).scale(Scalar.from_int(3))
    with pytest.raises(UnverifiedMorphismError, match="unverified-morphism"):
        bad.apply(A.gen("a"))


def _doubled(m, name):
    """``m`` with the image of generator ``name`` doubled: equivariant, not a hom."""
    k = m.source.gen_index(name)
    images = {
        i: el.scale(Scalar.from_int(2)) if i == k else el for i, el in m.images.items()
    }
    return GenMorphism(m.source, m.target, images, name=f"{m.name} with 2{name}")


def test_identity_and_application():
    ident = identity_morphism(A)
    assert ident.check()
    x = A.gen("a") * A.gen("g") - A.unit().scale(Q)
    assert ident.apply(x) == x


def test_apply_is_multiplicative_and_star_preserving():
    d = delta_su()
    d.check()
    x = A.gen("a") * A.gen("g")
    y = A.gen("g'") * A.gen("a'")
    assert d.apply(x * y) == d.apply(x) * d.apply(y)
    assert d.apply(x.adjoint()) == d.apply(x).adjoint()


def test_equality_needs_matching_presentations():
    d = delta_su()
    with pytest.raises(PresentationMismatchError):
        equal_on_generators(d, identity_morphism(A))


def test_coassociativity():
    d = delta_su()
    d.check()
    A3 = twisted_tensor([A, A, A], A.params["zeta"])
    ident = identity_morphism(A)
    ident.check()
    left = compose(tensor_morphism([d, ident], A3), d)
    right = compose(tensor_morphism([ident, d], A3), d)
    assert equal_on_generators(left, right)


def _skewed_delta():
    # (rho_scale(1) x id) o delta: a verified, equivariant hom that is not delta
    d = delta_su()
    rho_x_id = tensor_morphism([rho_scale(A, 1), identity_morphism(A)], d.target)
    return compose(rho_x_id, d)


def test_coassoc_helper_names_every_failing_generator():
    # the skewed map is a verified equivariant hom, but not coassociative
    skewed = _skewed_delta()
    assert skewed.check() and not skewed.degree_residuals()
    residuals, left, right = _coassoc(skewed, A.params["zeta"])
    assert [line.split(":")[0] for line in residuals] == ["g", "g'", "a", "a'"]
    assert not equal_on_generators(left, right)
    assert _coassoc(delta_su(), A.params["zeta"])[0] == []


def test_comultiplication_preserves_total_degree():
    d = delta_su()
    d.check()
    for name in ("a", "g", "g'", "a'"):
        x = A.gen(name)
        assert d.apply(x).degree() == x.degree()
    x = A.gen("g") * A.gen("a") * A.gen("g")
    assert d.apply(x).degree() == x.degree() == 2


def test_q_inverse_roundtrip():
    f = q_inverse_iso(Q)
    g = q_inverse_iso(Q.inverse())
    assert f.check() and g.check()
    assert equal_on_generators(compose(g, f), identity_morphism(A))
    assert equal_on_generators(compose(f, g), identity_morphism(f.target))


def test_phi_symmetry_full_statement():
    phi = phi_symmetry()
    assert phi.check()
    assert not phi.degree_residuals()
    S = phi.source
    assert S is grading_flip(A)
    d_flip = delta_su(source=S)
    assert d_flip.check()
    qt = Q.conjugate().inverse()
    d_tilde = delta_su(qt)
    d_tilde.check()
    phi2 = tensor_morphism([phi, phi], d_tilde.target)
    assert equal_on_generators(compose(phi2, d_flip), compose(d_tilde, phi))


def test_rho_scale_is_an_automorphism():
    r1 = rho_scale(A, 1)
    assert r1.check()
    rm1 = rho_scale(A, -1)
    rm1.check()
    assert equal_on_generators(compose(r1, rm1), identity_morphism(A))
    zeta = A.params["zeta"]
    assert r1.apply(A.gen("g")) == A.gen("g").scale(zeta)
    assert r1.apply(A.gen("a")) == A.gen("a")


def test_iota2_image():
    i2 = iota2()
    i2.check()
    BB = i2.target
    B = BB.factors[0]
    assert i2.apply(A.gen("g")) == embed(BB, 1, B.gen("z")) * embed(BB, 2, B.gen("g"))
    assert i2.apply(A.gen("a")) == embed(BB, 2, B.gen("a"))


def test_delta_uq2_well_defined_and_coassociative():
    d = delta_uq2()
    assert d.check()
    B = d.source
    B3 = twisted_tensor([B, B, B], Scalar.one())
    ident = identity_morphism(B)
    ident.check()
    left = compose(tensor_morphism([d, ident], B3), d)
    right = compose(tensor_morphism([ident, d], B3), d)
    assert equal_on_generators(left, right)


def _uq2_tables(p):
    """The rules of U_q(2) and the images of a, g, z under its comultiplication.

    Written out by hand at the parameter ``p``: rules as ``{lhs: {rhs word:
    coefficient}}``, images as ``{generator: {(leg-1 word, leg-2 word):
    coefficient}}``, every word a space-separated string of generator names.
    """
    one, pb = Scalar.one(), p.conjugate()
    zeta = p / pb
    rules = {
        "g' g": {"g g'": one},
        "a g": {"g a": pb},
        "a g'": {"g' a": p},
        "a' g": {"g a'": pb.inverse()},
        "a' g'": {"g' a'": p.inverse()},
        "a a'": {"": one, "g g'": -(p * pb)},
        "a' a": {"": one, "g g'": -one},
        "z z'": {"": one},
        "z' z": {"": one},
        "z g": {"g z": zeta.inverse()},
        "z g'": {"g' z": zeta},
        "z a": {"a z": one},
        "z a'": {"a' z": one},
        "z' g": {"g z'": zeta},
        "z' g'": {"g' z'": zeta.inverse()},
        "z' a": {"a z'": one},
        "z' a'": {"a' z'": one},
    }
    images = {
        "a": {("a", "a"): one, ("g' z", "g"): -p},
        "g": {("g", "a"): one, ("a' z", "g"): one},
        "z": {("z", "z"): one},
    }
    return rules, images


UQ2_PARAMETERS = {"q": Q, "1/q": Q.inverse(), "1/conj(q)": Q.conjugate().inverse()}


@pytest.mark.parametrize("label", sorted(UQ2_PARAMETERS))
def test_uq2_is_derived_exactly_at_every_parameter(label):
    p = UQ2_PARAMETERS[label]
    rules, images = _uq2_tables(p)
    B = uq2_presentation(p)
    names = lambda w: " ".join(B.generators[i].name for i in w)
    assert {
        names(lhs): {names(w): c for c, w in rule.rhs} for lhs, rule in B.rules.items()
    } == rules

    d = delta_uq2(p)
    BB = d.target
    split = lambda w: tuple(names(local) for local in BB.split_legs(w))
    assert {
        B.generators[i].name: {split(w): c for w, c in el.terms()} for i, el in d.images.items()
    } == images

    assert d.check()
    assert _coassoc(d, Scalar.one())[0] == []
    i1, i2 = iota1(p), iota2(p)
    assert i1.check() and i2.check()
    assert braiding_failures(i1.source, i1.apply, i2.apply) == []


# -- proved verdicts: identity, composites and the tensor product functor ------------


def _record_constructions(monkeypatch):
    """Every morphism the checks build through compose, tensor_morphism, identity."""
    built = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            mor = fn(*args, **kwargs)
            built.append(mor)
            return mor

        return wrapper

    for name in ("compose", "tensor_morphism", "identity_morphism"):
        monkeypatch.setattr(checks, name, recording(getattr(checks, name)))
    return built


def test_proved_verdicts_pass_the_full_expansion(monkeypatch):
    built = _record_constructions(monkeypatch)
    assert all(res.ok for res in checks.run_all().values())
    assert sorted({m.name for m in built}) == [
        "(delta x id)",
        "(delta x id) o delta",
        "(delta_B x id)",
        "(delta_B x id) o delta_B",
        "(id x delta)",
        "(id x delta) o delta",
        "(id x delta_B)",
        "(id x delta_B) o delta_B",
        "(phi x phi)",
        "(phi x phi) o delta",
        "delta o phi",
        "id",
        "q_inverse_iso o q_inverse_iso",
    ]
    assert len(built) == 17
    for mor in built:
        assert mor.check() and mor.residuals == []
        # the oracle: the same images as a plain map, every relation expanded
        plain = GenMorphism(mor.source, mor.target, mor.images, name=mor.name)
        assert plain.check(), mor.name
        assert plain.residuals == []


def test_run_all_expands_only_the_named_base_maps(monkeypatch):
    # a fresh cache, so that every named map is built and expanded in this run
    monkeypatch.setattr(suq2.algebra, "_PRESENTATION_CACHE", {})
    built = _record_constructions(monkeypatch)
    expanded = []
    residuals = GenMorphism.residuals.fget

    def counting(self):
        if self._residuals is None:
            expanded.append(self)
        return residuals(self)

    # every expansion, through check() or not, reads the residuals property
    monkeypatch.setattr(GenMorphism, "residuals", property(counting))
    checks.run_all()
    assert built
    assert not any(m is e for m in built for e in expanded)
    # each named map expands exactly once per source: delta at q, at
    # 1/conj(q) and over the grading flip, q_inverse_iso at q and at 1/q
    assert len({(e.name, e.source, e.target) for e in expanded}) == len(expanded)
    assert collections.Counter(e.name for e in expanded) == {
        "delta": 3,
        "delta_B": 1,
        "inclusion": 1,
        "iota1": 1,
        "iota2": 1,
        "phi": 1,
        "q_inverse_iso": 2,
    }


def test_every_check_builds_only_laurent_coefficients(monkeypatch):
    # a fresh cache, so that every coefficient of a cold pass is seen; the
    # checks module docstring rests on this: a pass holds at every q, qb != 0
    monkeypatch.setattr(suq2.algebra, "_PRESENTATION_CACHE", {})
    built = []
    init = Scalar.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(Scalar, "__init__", recording)
    assert all(res.ok for res in checks.run_all().values())
    assert len(built) > 1000
    assert [s for s in built if s._den != {(0, 0): (1, 0)}] == []


def test_comultiplications_are_built_once_per_source():
    assert delta_su() is delta_su() is delta_su(Q)
    assert delta_uq2() is delta_uq2() is delta_uq2(Q)
    S = grading_flip(A)
    d_flip = delta_su(source=S)
    assert d_flip is not delta_su() and d_flip is delta_su(source=S)
    assert d_flip.source is S and d_flip.target.factors == (S, S)
    d_inv = delta_su(Q.inverse())
    assert d_inv is not delta_su() and d_inv.source is suq2_presentation(Q.inverse())
    assert delta_uq2(Q.inverse()) is not delta_uq2()
    assert delta_su().source is A and delta_uq2().source is uq2_presentation()


def test_a_fresh_presentation_cache_gives_fresh_maps(monkeypatch):
    d = delta_su()
    monkeypatch.setattr(suq2.algebra, "_PRESENTATION_CACHE", {})
    fresh = delta_su()
    assert fresh is not d and fresh.source is not d.source
    assert fresh is delta_su()
    assert fresh.check() and fresh.source is suq2_presentation()


def test_tensor_morphism_rejects_an_unverified_leg():
    bad = _doubled(identity_morphism(A), "g")
    assert not bad.degree_residuals() and not bad.check()
    AA = twisted_tensor([A, A], A.params["zeta"])
    with pytest.raises(
        UnverifiedMorphismError,
        match="unverified-morphism: 'id with 2g' does not respect the relations",
    ):
        tensor_morphism([identity_morphism(A), bad], AA)


def test_tensor_morphism_rejects_a_part_with_another_twist():
    d = delta_su()
    A3 = twisted_tensor([A, A, A], Scalar.one())
    with pytest.raises(PresentationMismatchError, match="'delta' maps into .* another twist"):
        tensor_morphism([d, identity_morphism(A)], A3)
    # the precondition is needed: retagged into the untwisted cube, the images
    # of delta no longer respect the relations
    images = {i: retag(el, A3, 0) for i, el in d.images.items()}
    assert not GenMorphism(A, A3, images).check()


def test_compose_names_the_broken_part():
    bad = _doubled(q_inverse_iso(Q), "a")
    back = q_inverse_iso(Q.inverse())
    assert not bad.check() and back.check()
    label = "unverified-morphism: 'q_inverse_iso with 2a' does not respect the relations"
    with pytest.raises(UnverifiedMorphismError, match=label):
        compose(back, bad)
    with pytest.raises(UnverifiedMorphismError, match=label):
        compose(bad, identity_morphism(A))


def test_cli_names_an_unverified_tensor_leg(monkeypatch, capsys):
    monkeypatch.setattr(checks, "phi_symmetry", lambda: _doubled(phi_symmetry(), "g"))
    assert main(["verify", "aq-symmetry"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unverified-morphism: 'phi with 2g' does not respect the relations\n"


def test_cli_names_an_unverified_parameter_inversion(monkeypatch, capsys):
    broken = _doubled(q_inverse_iso(Q), "g")
    inverse = q_inverse_iso(Q.inverse())
    monkeypatch.setattr(checks, "q_inverse_iso", lambda q: broken if q == Q else inverse)
    assert main(["verify", "q-inverse-iso"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: unverified-morphism: 'q_inverse_iso with 2g' does not respect the relations\n"
    )


# -- cancellation: test-only enumeration oracle ----------------------------------------

# (generator, entry (r, c) of matrix identity one, factor): entry (r, c) of
# j1(u) = delta(u) j2(u)* expands j1(x) for x = factor * u[r][c]
LETTER_EXPANSIONS = [
    ("a", (0, 0), Scalar.one()),
    ("g", (1, 0), Scalar.one()),
    ("a'", (1, 1), Scalar.one()),
    ("g'", (0, 1), -Q.inverse()),
]


def span_witness_failures(delta, max_len, letters=LETTER_EXPANSIONS):
    """Every word of length <= max_len whose span witness does not rewrite to j1(w).

    The witness j1(w) = sum c delta(a) j2(b) is built letter by letter as in
    the induction: j2(b) j1(x) = zeta^(-deg b deg x) j1(x) j2(b), then the
    letter expansion of x.  The degree scaling is the automorphism rho_scale.
    """
    AA = delta.target
    u = fundamental_matrix(A).entries
    letter_rep = {
        A.gen_index(name): [(coeff, u[r][k], u[c][k].adjoint()) for k in range(2)]
        for name, (r, c), coeff in letters
    }
    rho = {}

    def scaled(x, m):
        if m not in rho:
            rho[m] = rho_scale(A, m)
            rho[m].check()
        return rho[m].apply(x)

    reps = {(): [(Scalar.one(), A.unit(), A.unit())]}
    failures = []
    for length in range(max_len + 1):
        for word in itertools.product(range(A.n_gens), repeat=length):
            if word:
                x, k = word[-1], A.generators[word[-1]].degree
                reps[word] = [
                    (c1 * c2, a1 * a2, b2 * scaled(b1, -k))
                    for c1, a1, b1 in reps[word[:-1]]
                    for c2, a2, b2 in letter_rep[x]
                ]
            acc = AA.zero()
            for coeff, a_el, b_el in reps[word]:
                acc = acc + (delta.apply(a_el) * embed(AA, 2, b_el)).scale(coeff)
            if acc != embed(AA, 1, A.normalize_raw([(1, word)])):
                failures.append(word)
    return failures


def test_cancellation_witness_passes():
    # no residual line: delta respects the relations, both matrix identities
    # hold and the cross-leg law holds on every generator pair
    assert cancellation_witness() == []


@pytest.mark.parametrize("max_len", [3, 4])
def test_cancellation_oracle_agrees_with_the_proof(max_len):
    assert cancellation_witness() == []
    assert span_witness_failures(delta_su(), max_len) == []


def test_cancellation_rejects_a_skewed_comultiplication(monkeypatch):
    skewed = _skewed_delta()
    assert skewed.check() and not skewed.degree_residuals()
    monkeypatch.setattr(morphisms, "delta_su", lambda qparam=None: skewed)
    residuals = cancellation_witness()
    assert residuals
    assert not any(line.startswith(("delta image", "braiding")) for line in residuals)
    assert [line.split(":")[0] for line in residuals if line.startswith("first")] == [
        "first matrix identity fails at (0, 1)",
        "first matrix identity fails at (1, 0)",
    ]
    # the oracle agrees: the span witnesses of g and g' no longer rewrite
    failures = span_witness_failures(skewed, 3)
    assert (A.gen_index("g"),) in failures and (A.gen_index("g'"),) in failures


def test_cancellation_oracle_flags_a_broken_letter_expansion():
    broken = LETTER_EXPANSIONS[:3] + [("g'", (0, 1), -Q)]
    failures = span_witness_failures(delta_su(), 2, broken)
    assert (A.gen_index("g'"),) in failures
    assert all(A.gen_index("g'") in w for w in failures)


def test_cancellation_witness_single_letter_expansion():
    # the expansion for the degree-one generator read off the matrix identity:
    # j1(g) = delta(g) j2(a') - conj(q) delta(a') j2(g)
    d = delta_su()
    d.check()
    AA = d.target
    qb = A.params["qb"]
    j1 = lambda x: embed(AA, 1, x)
    j2 = lambda x: embed(AA, 2, x)
    got = d.apply(A.gen("g")) * j2(A.gen("a'")) - (
        d.apply(A.gen("a'")) * j2(A.gen("g"))
    ).scale(qb)
    assert got == j1(A.gen("g"))
