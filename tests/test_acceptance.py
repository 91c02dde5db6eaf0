"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is pinned here; the symbolic criteria
demand residuals that are exactly zero as elements.
"""

import itertools
import random

import numpy as np

from suq2 import (
    Scalar,
    confluence_check,
    embed,
    suq2_presentation,
    torus_presentation,
    twisted_tensor,
    uq2_presentation,
)
from suq2 import numeric
from suq2.checks import run_check

A = suq2_presentation()
Q, QB, ZETA = A.params["q"], A.params["qb"], A.params["zeta"]


def _report(num, label, ok):
    print(f"criterion {num:>2} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def _check_passes(check_id):
    res = run_check(check_id)
    assert res.residuals == [] or res.ok, res.residuals
    return res.ok


def test_criterion_01_relations_engine():
    _report(1, "unitary-u: exact zero residuals", _check_passes("unitary-u"))


def test_criterion_02_comultiplication_homomorphism():
    _report(2, "delta-hom for formal q", _check_passes("delta-hom"))


def test_criterion_03_coassociativity():
    _report(
        3,
        "delta-coassoc incl. triple matrix product",
        _check_passes("delta-coassoc") and _check_passes("delta-equivariance"),
    )


def test_criterion_04_cancellation_witnesses():
    res = run_check("cancellation-witness")
    assert res.details["certificate"]["method"] == "induction on word length"
    assert len(res.details["certificate"]["base"]) == 4
    _report(4, "matrix identities + span witnesses for every word length", res.ok)


def test_criterion_05_representation_theory():
    ok = (
        _check_passes("tensprod-corep")
        and _check_passes("invariant-vector")
        and _check_passes("invariance-constraints")
    )
    _report(5, "tensor-square corep, fixed vector, entry constraints", ok)


def test_criterion_06_symmetries():
    ok = _check_passes("q-inverse-iso") and _check_passes("aq-symmetry")
    _report(6, "parameter inversion and grading-flip symmetry", ok)


def test_criterion_07_extended_quantum_group():
    ok = (
        _check_passes("uq2-hom")
        and _check_passes("uq2-coassoc")
        and _check_passes("uq2-corep-bijection")
    )
    _report(7, "extended algebra: hom, coassoc, corep bijection", ok)


def test_criterion_08_rewrite_soundness():
    ok = True
    for pres in (suq2_presentation(), torus_presentation(), uq2_presentation()):
        report = confluence_check(pres)
        ok = ok and report.ok and report.critical_pairs > 0
    _report(8, "confluence: deglex certificate, every rule ambiguity resolves", ok)


def test_criterion_09_numeric_oracle():
    ok = True
    rng = random.Random(1)
    for qv in (0.5, 0.9, 0.3 + 0.4j, 0.6 - 0.3j):
        rep = numeric.build(qv, 30, 8)
        residuals = numeric.relation_residuals(rep)
        ok = ok and all(interior <= 1e-12 for interior, _ in residuals.values())
        worst = 0.0
        for _ in range(200):
            word = tuple(rng.randrange(4) for _ in range(rng.randint(1, 6)))
            worst = max(worst, numeric.oracle_compare(rep, A, [(Scalar.one(), word)]))
        ok = ok and worst <= 1e-11
        spectrum_dev = float(
            np.max(
                np.abs(
                    numeric.gamma_singular_values(rep)
                    - numeric.expected_singular_values(rep)
                )
            )
        )
        ok = ok and spectrum_dev <= 1e-12
    _report(9, "ladder oracle: relations, 200 words, spectrum", ok)


# -- criterion 10: property suites with >= 10^3 cases per law -------------------

_CASES = 1000


def _random_scalar(rng):
    total = Scalar.zero()
    for _ in range(rng.randint(1, 2)):
        total = total + Scalar.monomial(
            rng.randint(-2, 2),
            rng.randint(-2, 2),
            rng.randint(-3, 3),
            rng.randint(-1, 1),
        )
    return total


def _random_word(rng, alphabet=4, maxlen=3):
    return tuple(rng.randrange(alphabet) for _ in range(rng.randint(0, maxlen)))


def _random_element(rng, maxterms=2):
    raw = [
        (_random_scalar(rng), _random_word(rng))
        for _ in range(rng.randint(1, maxterms))
    ]
    return A.normalize_raw(raw)


def test_criterion_10_scalar_field_laws():
    rng = random.Random(101)
    ok = True
    for _ in range(_CASES):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b * c) == (a * b) * c
        ok = ok and a * (b + c) == a * b + a * c
        if not a.is_zero():
            ok = ok and (a * a.inverse()).is_one()
    _report(10, f"scalar field laws, {_CASES} cases each", ok)


def test_criterion_10_conjugation_laws():
    rng = random.Random(102)
    ok = True
    for _ in range(_CASES):
        a, b = _random_scalar(rng), _random_scalar(rng)
        ok = ok and a.conjugate().conjugate() == a
        ok = ok and (a * b).conjugate() == a.conjugate() * b.conjugate()
        ok = ok and (a + b).conjugate() == a.conjugate() + b.conjugate()
    _report(10, f"conjugation involution laws, {_CASES} cases each", ok)


def test_criterion_10_evaluation_homomorphism():
    rng = random.Random(103)
    ok = True
    count = 0
    while count < _CASES:
        a, b = _random_scalar(rng), _random_scalar(rng)
        radius = 0.2 + 0.7 * rng.random()
        angle = 2 * np.pi * rng.random()
        qv = radius * complex(np.cos(angle), np.sin(angle))
        va, vb = a.evaluate(qv), b.evaluate(qv)
        scale = max(1.0, abs(va), abs(vb))
        ok = ok and abs((a + b).evaluate(qv) - (va + vb)) / scale < 1e-9
        ok = ok and abs((a * b).evaluate(qv) - va * vb) / scale**2 < 1e-9
        ok = ok and abs(a.conjugate().evaluate(qv) - va.conjugate()) / scale < 1e-9
        count += 1
    _report(10, f"evaluation homomorphism, {_CASES} cases each", ok)


def test_criterion_10_element_ring_and_involution_laws():
    rng = random.Random(104)
    ok = True
    for _ in range(_CASES):
        x, y, z = (_random_element(rng) for _ in range(3))
        ok = ok and (x * y) * z == x * (y * z)
        ok = ok and x.adjoint().adjoint() == x
        ok = ok and (x * y).adjoint() == y.adjoint() * x.adjoint()
    _report(10, f"element associativity and involution, {_CASES} cases each", ok)


def test_criterion_10_degree_laws():
    rng = random.Random(105)
    ok = True
    for _ in range(_CASES):
        w1, w2 = _random_word(rng), _random_word(rng)
        x = A.element([(1, w1)])
        y = A.element([(1, w2)])
        prod = x * y
        if prod.is_zero():
            ok = ok and prod.degree() == "zero"
        else:
            ok = ok and prod.degree() == A.degree_of_word(w1) + A.degree_of_word(w2)
        ok = ok and x.degree() in (A.degree_of_word(w1), "zero")
    _report(10, f"degree additivity and preservation, {_CASES} cases each", ok)


def test_criterion_10_normalize_idempotence():
    rng = random.Random(106)
    ok = True
    for _ in range(_CASES):
        x = _random_element(rng, maxterms=3)
        ok = ok and A.normalize_raw([(c, w) for w, c in x.terms()]) == x
    _report(10, f"normalize idempotence, {_CASES} cases each", ok)


def test_criterion_10_cross_commutation_witness():
    rng = random.Random(107)
    AA = twisted_tensor([A, A], ZETA)
    ok = True
    for _ in range(_CASES):
        xw = _random_word(rng, maxlen=3)
        yw = _random_word(rng, maxlen=3)
        x, y = A.element([(1, xw)]), A.element([(1, yw)])
        k, l = A.degree_of_word(xw), A.degree_of_word(yw)
        lhs = embed(AA, 1, x) * embed(AA, 2, y)
        rhs = (embed(AA, 2, y) * embed(AA, 1, x)).scale(ZETA ** (k * l))
        ok = ok and lhs == rhs
    _report(10, f"cross-leg commutation witness, {_CASES} cases each", ok)


def test_criterion_10_monomial_commutation_ladder():
    a, g, gs = A.gen("a"), A.gen("g"), A.gen("g'")
    ok = True
    for m in range(0, 9):
        ok = ok and a * g**m == (g**m * a).scale(QB**m)
        ok = ok and a * gs**m == (gs**m * a).scale(Q**m)
    # cross-checked numerically at three parameter values
    for qv in (0.5, 0.3 + 0.4j, 0.8j):
        rep = numeric.build(qv, 12, 4)
        for m in range(0, 9):
            raw = [(Scalar.one(), (2,) + (0,) * m), (-(QB**m), (0,) * m + (2,))]
            ok = ok and numeric.oracle_compare(rep, A, raw) <= 1e-11
    _report(10, "monomial ladder commutation, m <= 8, symbolic + numeric", ok)
