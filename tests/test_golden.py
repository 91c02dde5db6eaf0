"""Golden reports: CLI output must stay byte-identical across rewrites.

Each file in ``tests/golden/`` is the exact stdout of ``suq2 <argv>`` for the
argv listed below, captured before the layers it covers were last rewritten.
These reports do not depend on ``PYTHONHASHSEED``.  A difference here is a
behaviour change: only a deliberate report change may update a file, and
the change log must say so.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

import suq2
import suq2.algebra
from suq2 import checks, morphisms
from suq2.braided import tensor_morphism
from suq2.checks import CHECKS
from suq2.cli import ALGEBRAS, main
from suq2.morphisms import GenMorphism, compose, identity_morphism, rho_scale

GOLDEN = pathlib.Path(__file__).parent / "golden"

# checks that build composites or share a comultiplication; each report is also
# compared from a fresh process, where run_check builds them with no other
# check run first
SINGLE_CHECKS = (
    "delta-coassoc",
    "uq2-coassoc",
    "aq-symmetry",
    "tensprod-corep",
    "uq2-corep-bijection",
    "cancellation-witness",
)

CASES = {
    "verify-all": ["verify", "all", "--seed", "1"],
    **{f"verify-{name}": ["verify", name] for name in SINGLE_CHECKS},
    **{f"confluence-{name}": ["confluence", "--algebra", name] for name in ALGEBRAS},
    "nf-suq2": ["nf", "a'*a*g^2 + (2/3 - i/5)*q^-2*a*g'*a' + a^3*g'"],
    "nf-torus": ["nf", "--algebra", "torus", "V'*U*V*U' - zeta + U'^2*V*U"],
    "nf-scalar-powers": ["nf", "((1 + q)/(2 - i*qb))^3*g + (q*qb)^-2*a^2 - zeta^5"],
    "nf-uq2": ["nf", "--algebra", "uq2", "z*g*z'*a' + (qb/q)*z'^2*g'*z^2"],
    "nf-suq2-tensor3": [
        "nf",
        "--algebra",
        "suq2-tensor3",
        "j3(a)*j2(g)*j1(g') + j2(a')*j1(a)",
    ],
    "mul-suq2": ["mul", "(1 + q*qb)*a^2 - g'", "a'^2*g + (q - qb)/(1 + q)"],
    "mul-suq2-tensor2": [
        "mul",
        "--algebra",
        "suq2-tensor2",
        "j2(g)*j1(a)",
        "j1(g')*j2(a') + i",
    ],
    "mul-suq2-content": [
        "mul",
        "2*a + (1+i)*g",
        "a'/(2*q + 2) + 3*g'/(6*qb + 3*i)",
    ],
    "adjoint-suq2": ["adjoint", "(3/q^2)*a*g + i*g'^2*a' - zeta"],
    "adjoint-suq2-rational": ["adjoint", "((1 + 2*qb)/3)*g*a' + (4/(4*q + 2))*a*g'"],
    "adjoint-suq2-flip": ["adjoint", "--algebra", "suq2-flip", "(q + i)*a*g*a'"],
    # compare only: relations and spectrum go through BLAS and LAPACK
    "numeric-compare": ["numeric", "compare", "--q", "0.5,0.3"],
    "numeric-compare-transported": ["numeric", "compare", "--q", "1.7,-0.4", "--count", "300"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / f"{name}.json").read_bytes()


def _fresh_process(argv):
    """Stdout of ``suq2 <argv>`` run in a new interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(suq2.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "suq2", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )
    assert res.returncode == 0
    return res.stdout


@pytest.mark.parametrize("name", SINGLE_CHECKS)
def test_single_check_matches_golden_in_a_fresh_process(name):
    assert _fresh_process(["verify", name]) == (GOLDEN / f"verify-{name}.json").read_bytes()


def test_shared_maps_leak_no_state_between_runs(monkeypatch, capsys):
    # the first run builds both comultiplications, the second reuses them
    monkeypatch.setattr(suq2.algebra, "_PRESENTATION_CACHE", {})
    reports = []
    for _ in range(2):
        assert main(["verify", "all"]) == 0
        reports.append(capsys.readouterr().out.encode("ascii"))
    assert reports[0] == reports[1] == (GOLDEN / "verify-all.json").read_bytes()
    assert main(["verify", "delta-hom"]) == 0
    warm = capsys.readouterr().out.encode("ascii")
    assert warm == _fresh_process(["verify", "delta-hom"])


def test_verify_options_are_inert(capsys):
    # every check is a finite proof, so no check reads --seed, --maxlen or --trials
    code = main(["verify", "all", "--seed", "7", "--maxlen", "5", "--trials", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("ascii") == (GOLDEN / "verify-all.json").read_bytes()


# -- failing reports under injected comultiplications ----------------------------------


def _skewed(d):
    """(rho_scale(1) x id) o delta: a verified, equivariant hom that is not delta."""
    A = d.source
    return compose(tensor_morphism([rho_scale(A, 1), identity_morphism(A)], d.target), d)


def _doubled(d):
    """delta with g |-> 2 delta(g): the images break the relations."""
    images = dict(d.images)
    g = d.source.gen_index("g")
    images[g] = images[g].scale(2)
    return GenMorphism(d.source, d.target, images, name=d.name)


FAULTS = {"skewed-delta": _skewed, "doubled-delta": _doubled}
FAULT_GOLDEN = GOLDEN / "faults"


def fault_reports(fault):
    """Exit code, stdout and stderr of ``verify <id>`` for every check id, as JSON.

    ``delta_su`` is replaced in ``checks`` and ``morphisms`` by the faulty map at
    the default parameter; every other parameter and source gets the real map.
    """
    real = morphisms.delta_su

    def faulty(qparam=None, source=None):
        d = real(qparam, source)
        return FAULTS[fault](d) if qparam is None and source is None else d

    runs = {}
    with mock.patch.object(checks, "delta_su", faulty), mock.patch.object(
        morphisms, "delta_su", faulty
    ):
        for cid in sorted(CHECKS):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["verify", cid])
            runs[cid] = {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return json.dumps(runs, indent=2, sort_keys=True) + "\n"


def test_every_fault_golden_file_has_a_fault():
    assert sorted(p.stem for p in FAULT_GOLDEN.glob("*.json")) == sorted(FAULTS)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failing_reports_match_golden(fault):
    assert fault_reports(fault).encode("ascii") == (FAULT_GOLDEN / f"{fault}.json").read_bytes()


def _fault_runs(fault):
    return json.loads((FAULT_GOLDEN / f"{fault}.json").read_text())


def test_injected_faults_fail_the_expected_checks():
    expected = {
        "skewed-delta": {"cancellation-witness": 1, "delta-coassoc": 1, "tensprod-corep": 1},
        "doubled-delta": {
            "delta-hom": 1,
            "cancellation-witness": 1,
            "delta-coassoc": 2,
            "tensprod-corep": 2,
        },
    }
    for fault, codes in expected.items():
        runs = _fault_runs(fault)
        assert {cid: r["exit_code"] for cid, r in runs.items() if r["exit_code"]} == codes
        for cid, r in runs.items():
            if r["exit_code"] == 2:
                assert r["stdout"] == ""
                assert r["stderr"].startswith("error: unverified-morphism:")


def test_a_report_passes_exactly_when_it_has_no_residuals():
    reports = json.loads((GOLDEN / "verify-all.json").read_text())["checks"]
    reports += [json.loads((GOLDEN / f"verify-{n}.json").read_text()) for n in SINGLE_CHECKS]
    codes = []
    for fault in FAULTS:
        for r in _fault_runs(fault).values():
            if r["stdout"]:
                reports.append(json.loads(r["stdout"]))
                codes.append((r["exit_code"], reports[-1]["result"]))
    assert sum(r["result"] == "fail" for r in reports) == 5
    for r in reports:
        assert (r["result"] == "pass") == (r["residuals"] == []), r["check"]
    assert all(code == (0 if result == "pass" else 1) for code, result in codes)
