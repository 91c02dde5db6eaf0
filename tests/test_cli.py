"""End-to-end CLI behaviour: JSON reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


@pytest.mark.parametrize("qval", ["nan", "inf,0", "0.5,-inf", "nan,nan"])
def test_non_finite_q_is_an_error(capsys, qval):
    assert main(["numeric", "compare", "--q", qval, "--count", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: qval must be finite" in captured.err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1"),
        ("--tol", "1e-3x"),
        ("--count", "-5"),
        ("--count", "0"),
        ("--maxlen", "0"),
        ("--maxlen", "-2"),
    ],
)
def test_numeric_options_out_of_range_are_usage_errors(capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["numeric", "compare", "--q", "0.5", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}:" in captured.err


def test_numeric_option_bounds_are_inclusive(capsys):
    code, report = run_cli(
        capsys, "numeric", "compare", "--q", "0.5", "--N", "8", "--M", "3",
        "--tol", "0", "--count", "1", "--maxlen", "1",
    )
    assert code in (0, 1)
    assert report["tolerance"] == 0.0
    assert report["count"] == 1 and report["max_word_length"] == 1


def test_numeric_errors_print_no_traceback():
    for argv in (("--q", "nan"), ("--q", "0.5", "--tol", "nan")):
        res = _run_module("numeric", "relations", *argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr


def test_oversized_numeric_model_is_an_error():
    # (N+1)*M = 800,008 basis vectors would be two 9 TiB dense matrices
    res = _run_module("numeric", "relations", "--q", "0.5", "--N", "100000")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: model-size:")
    assert "Traceback" not in res.stderr


def _module_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(suq2.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "suq2", *argv],
        env=_module_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


_IMPORT_PROBE = """
import os, time
w0, c0 = time.monotonic(), time.process_time()
import suq2.cli
w1, c1 = time.monotonic(), time.process_time()
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"), c1 - c0, w1 - w0)
"""


def _import_probe(**extra):
    env = _module_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    env.update(extra)
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    value, cpu, wall = res.stdout.split()
    return value, float(cpu), float(wall)


def test_import_keeps_blas_workers_from_spinning():
    # an idle OpenBLAS worker that busy-waits shows as CPU time beyond the
    # wall time of a single-threaded import (about 1.9x without the timeout)
    value, cpu, wall = _import_probe()
    assert value == "4"
    assert cpu < 1.3 * wall + 0.01


def test_import_keeps_a_callers_blas_timeout():
    value, _, _ = _import_probe(OPENBLAS_THREAD_TIMEOUT="10")
    assert value == "10"


def test_python_dash_m_entry_point():
    ok = _run_module("nf", "a a'")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["command"] == "nf"
    bad = _run_module("nf", "1/0")
    assert bad.returncode == 2
    assert "error: zero-divisor" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_leading_minus_is_expression_text(tmp_path):
    out = tmp_path / "report.json"
    cases = [
        (("nf", "-q"), 0, "-q"),
        (("nf", "-2*q"), 0, "-2*q"),
        (("mul", "a", "-g"), 0, "-qb*g*a"),
        (("deg", "-g*a"), 0, 1),
        (("adjoint", "-g"), 0, "-g'"),
        (("nf", "-U", "--algebra", "torus"), 0, "-U"),
        (("nf", "--unicode", "-g'", "--out", str(out)), 0, "-γ*"),
        (("nf", "-q", "-h"), 0, None),
        (("nf", "-h", "-q"), 0, None),
        (("nf", "-q", "--bogus"), 2, None),
    ]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "suq2", *argv],
            env=_module_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for argv, _, _ in cases
    ]
    for (argv, code, result), proc in zip(cases, procs):
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == code, (argv, stderr)
        assert "Traceback" not in stderr
        if result is not None:
            assert json.loads(stdout)["result"] == result, argv
        elif code == 0:
            assert stdout.startswith("usage: suq2 nf"), argv
        else:
            assert "unrecognized arguments: --bogus" in stderr
    assert json.loads(out.read_text())["result"] == "-γ*"


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


@pytest.mark.parametrize(
    "expr, message",
    [
        ("2^14300", "error: int-digits: a coefficient"),
        ("1" * 4301, "error: int-digits: integer literal has 4301 digits"),
    ],
    ids=["rendered-power", "literal"],
)
def test_int_digit_limit_is_a_labelled_error(capsys, expr, message):
    code = main(["nf", expr])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_long_integers_under_the_digit_limit(capsys):
    code, report = run_cli(capsys, "nf", "2^14000")
    assert code == 0
    assert report["result"] == str(2**14000)


# -- fuzzing the expression front-end through the CLI -------------------------

_SCALAR_ATOMS = ("q", "qb", "zeta", "i", "0", "1", "2", "17")
# z is no generator of the default algebra: an unknown-name error
_GENERATOR_ATOMS = ("a", "a'", "g", "g'", "z")
# longest word an expression may expand to: the rewriting cost of words like
# a'^n a^n grows steeply with n, and the fuzz test is after crashes, not load
_MAX_LETTERS = 8


@st.composite
def _factor(draw, budget, depth):
    """(text, letters) of one factor using at most ``budget`` letters."""
    kinds = ["scalar"] + ["generator"] * (budget > 0) + ["group"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        text, letters = draw(st.sampled_from(_SCALAR_ATOMS)), 0
    elif kind == "generator":
        text, letters = draw(st.sampled_from(_GENERATOR_ATOMS)), 1
    else:
        inner, letters = draw(_expression(budget, depth - 1))
        text = f"({inner})"
    postfix = draw(st.sampled_from(("", "'", "^", "^-")))
    if postfix == "'":
        text += "'"
    elif postfix:
        # a power of a group multiplies out its terms, so it stays small
        top = 3 if kind == "group" else 50
        if postfix == "^" and letters:
            top = min(top, budget // letters)
        n = draw(st.integers(min_value=0, max_value=top))
        text += f"{postfix}{n}"
        letters *= n if postfix == "^" else 1
    return text, letters


@st.composite
def _expression(draw, budget=_MAX_LETTERS, depth=2):
    """(text, letters) of a sum of products of factors."""
    terms, longest = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        factors, used = [], 0
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            text, letters = draw(_factor(budget - used, depth))
            factors.append(text)
            used += letters
        joiners = [draw(st.sampled_from(("*", "/", " "))) for _ in factors[1:]]
        term = factors[0] + "".join(j + f for j, f in zip(joiners, factors[1:]))
        terms.append(term)
        longest = max(longest, used)
    signs = [draw(st.sampled_from((" + ", " - "))) for _ in terms[1:]]
    lead = draw(st.sampled_from(("", "-")))
    return lead + terms[0] + "".join(s + t for s, t in zip(signs, terms[1:])), longest


@st.composite
def expression_text(draw):
    """Bounded expression text, sometimes broken by one stray character."""
    text, _ = draw(_expression())
    assume(len(text) <= 60)
    if draw(st.booleans()):
        # no digit or "^" is inserted, so no power can grow
        pos = draw(st.integers(min_value=0, max_value=len(text)))
        if draw(st.booleans()):
            text = text[:pos] + draw(st.sampled_from("()'*/+-")) + text[pos:]
        elif pos < len(text) and text[pos] in "()":
            text = text[:pos] + text[pos + 1 :]
    return text


@settings(max_examples=200, deadline=None)
@given(expression_text())
@example("1/0")
@example("q^3000000")
@example("(" * 201 + "q" + ")" * 201)
@example("2^14300")
def test_cli_survives_any_bounded_expression(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["nf", text])
        except SystemExit as ex:
            # argparse's usage error, e.g. for text that starts like an option
            code = ex.code
    assert code in (0, 1, 2), (text, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert json.loads(out.getvalue())["command"] == "nf"
