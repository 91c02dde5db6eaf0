"""End-to-end CLI behaviour: JSON reports, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import suq2
from suq2.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_nf(capsys):
    code, report = run_cli(capsys, "nf", "--algebra", "suq2", "a'*a")
    assert code == 0
    assert report["schema"] == 1
    assert report["command"] == "nf"
    assert report["algebra"] == "suq2"
    assert report["result"] == "1 - g*g'"


def test_nf_unicode(capsys):
    code, report = run_cli(capsys, "nf", "--unicode", "a'*a")
    assert code == 0
    assert report["result"] == "1 - γ*γ*"


def test_deg(capsys):
    code, report = run_cli(capsys, "deg", "g")
    assert (code, report["result"]) == (0, 1)
    code, report = run_cli(capsys, "deg", "g + a")
    assert report["result"] == "inhomogeneous"
    code, report = run_cli(capsys, "deg", "g - g")
    assert report["result"] == "zero"


def test_mul_and_adjoint(capsys):
    code, report = run_cli(capsys, "mul", "a", "g")
    assert (code, report["result"]) == (0, "qb*g*a")
    code, report = run_cli(capsys, "adjoint", "a*g")
    assert (code, report["result"]) == (0, "g'*a'")


def test_tensor_algebra_normal_form(capsys):
    code, report = run_cli(capsys, "nf", "--algebra", "suq2-tensor2", "j2(g)*j1(g)")
    assert code == 0
    assert report["result"] == "q^-1*qb*j1(g)*j2(g)"


@pytest.mark.parametrize(
    "expr, message",
    [
        ("a*(", "column 3"),
        ("1/0", "error: zero-divisor"),
        ("0^-1", "error: zero-divisor"),
        ("(q - q)^-1", "error: zero-divisor"),
    ],
    ids=["syntax", "one-over-zero", "zero-inverse", "cancelled-zero-inverse"],
)
def test_parse_error_exit_code(capsys, expr, message):
    code = main(["nf", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_verify_single_check(capsys):
    code, report = run_cli(capsys, "verify", "unitary-u")
    assert code == 0
    assert report["check"] == "unitary-u"
    assert report["result"] == "pass"
    assert report["residuals"] == []
    assert report["paper_anchor"]


def test_verify_all(capsys):
    code, report = run_cli(capsys, "verify", "all")
    assert code == 0
    assert report["result"] == "pass"
    ids = [c["check"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == 17


def test_verify_report_is_byte_stable(capsys):
    code1 = main(["verify", "invariance-constraints"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "invariance-constraints"])
    out2 = capsys.readouterr().out
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_confluence_command(capsys):
    code, report = run_cli(capsys, "confluence", "--algebra", "uq2")
    assert code == 0
    assert report["result"] == "pass"
    assert report["details"]["critical_pairs"] > 0
    assert report["details"]["certificate"] == {
        "order": "deglex",
        "generators": ["g", "g'", "a", "a'", "z", "z'"],
        "ambiguities": 32,
    }
    assert report["details"]["words_checked"] == 32


def test_numeric_relations(capsys):
    code, report = run_cli(
        capsys, "numeric", "relations", "--q", "0.6,0.3", "--N", "12", "--M", "4"
    )
    assert code == 0
    assert report["result"] == "pass"
    assert len(report["residuals"]) == 5


def test_numeric_compare_and_spectrum(capsys):
    code, report = run_cli(
        capsys, "numeric", "compare", "--q", "0.5", "--N", "10", "--M", "4",
        "--count", "25", "--maxlen", "5", "--seed", "3",
    )
    assert code == 0 and report["result"] == "pass"
    code, report = run_cli(
        capsys, "numeric", "spectrum", "--q", "0.4,0.1", "--N", "8", "--M", "3"
    )
    assert code == 0 and report["result"] == "pass"


@pytest.mark.parametrize("qval", ["1.7,-0.4", "2"])
def test_numeric_spectrum_transported(capsys, qval):
    code, report = run_cli(capsys, "numeric", "spectrum", "--q", qval)
    assert code == 0 and report["result"] == "pass"
    assert report["residuals"][0].startswith("max relative singular-value deviation")


@pytest.mark.parametrize(
    "qval, values", [("0.4,0.1", "|q|^n,"), ("2", "|q|^-(n+1),")]
)
def test_numeric_spectrum_anchor_follows_q(capsys, qval, values):
    code, report = run_cli(capsys, "numeric", "spectrum", "--q", qval, "--N", "8")
    assert code == 0 and report["result"] == "pass"
    assert f"singular values {values}" in report["paper_anchor"]


def test_rewrite_limit_error_exit_code(capsys, monkeypatch):
    # a fresh presentation cache, so the word below is not yet memoized
    monkeypatch.setattr(suq2.algebra, "_PRESENTATION_CACHE", {})
    monkeypatch.setattr(suq2.algebra.Presentation, "DEFAULT_STEP_LIMIT", 2)
    code = main(["nf", "a*a'"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: rewrite-limit: reduction exceeded 2 steps" in captured.err
    assert "Traceback" not in captured.err


def test_unverified_morphism_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(suq2.morphisms.GenMorphism, "check", lambda self: False)
    code = main(["verify", "delta-coassoc"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: unverified-morphism" in captured.err
    assert "Traceback" not in captured.err


def test_numeric_tolerance_override_can_fail(capsys):
    code, report = run_cli(
        capsys, "numeric", "relations", "--q", "0.5", "--N", "8", "--M", "3",
        "--tol", "1e-30",
    )
    assert code == 1
    assert report["result"] == "fail"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, report = run_cli(capsys, "nf", "a*a'", "--out", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == report


def test_unwritable_out_file_is_a_usage_error(tmp_path):
    missing = tmp_path / "missing-dir" / "report.json"
    res = _run_module("nf", "a", "--out", str(missing))
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error: out-file:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not missing.parent.exists()


def test_bad_q_value_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["numeric", "relations", "--q", "nope"])
    assert exc.value.code == 2


def _run_module(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(suq2.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "suq2", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_python_dash_m_entry_point():
    ok = _run_module("nf", "a a'")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["command"] == "nf"
    bad = _run_module("nf", "1/0")
    assert bad.returncode == 2
    assert "error: zero-divisor" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_huge_scalar_powers(capsys):
    code, report = run_cli(capsys, "nf", "q^3000000")
    assert (code, report["result"]) == (0, "q^3000000")
    code, report = run_cli(capsys, "nf", "qb^-3000000*a")
    assert (code, report["result"]) == (0, "qb^-3000000*a")


@pytest.mark.parametrize(
    "algebra, template",
    [("suq2", "{open}q{close}"), ("suq2-tensor2", "j1({open}a{close})")],
    ids=["nested-parentheses", "nested-leg-embedding"],
)
def test_deep_nesting_is_a_parse_error(algebra, template):
    def nested(depth):
        return template.format(open="(" * depth, close=")" * depth)

    ok = _run_module("nf", "--algebra", algebra, nested(200))
    assert ok.returncode == 0, ok.stderr
    for depth in (201, 250):
        deep = _run_module("nf", "--algebra", algebra, nested(depth))
        assert deep.returncode == 2
        assert "error: parse-depth" in deep.stderr
        assert "Traceback" not in deep.stderr
