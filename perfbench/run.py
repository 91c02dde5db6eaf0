"""Cold-process benchmark for suq2.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload one after another, each in a fresh interpreter
(``worker.py``), until ``--seconds`` have gone by; at least one pass always
runs, and the last may end after the deadline.  Every pass of a run uses the
same seeded inputs.  The presentation cache and the reduction memos live for
the whole process, so a pass never reuses another pass's warm state.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as lower
medians over the passes of the run, each pass being a fresh set-up; the
per-pass times are printed too.  Every time is in calibrated seconds, wall
time corrected for the drifting speed of a shared host (``speed.py``); the
raw wall times are printed above the result line.  Calibration leaves a few
passes slow, never fast, so of two middle passes the lower one is taken.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones, plus ``trace.overhead_frac``.  After the passes, one more
interpreter runs the workload's negative controls, which must be reported as
failures by the engine.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it give
the item latencies, ``fail_frac``, the controls and run metadata.  The exit
code is 0 only if every verdict matched its known answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from speed import wall

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
HARD_LIMIT_S = 170  # every run must end within 180 s
ITEM_TAIL_MIN = 1000  # p99 needs at least ten samples beyond it


def _spawn(workload, seed, mode, trace, deadline):
    argv = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--trace", str(trace), "--spawned-at", repr(wall()),
    ]
    # a fixed hash seed keeps set iteration, and with it every traced count,
    # identical from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - wall()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-p * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]


def _metadata():
    import numpy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "suq2").glob("*.py"))
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_suq2_lines": lines,
    }


def _layer_values(traced):
    """Per-layer values: times are medians over passes, counts must repeat exactly."""
    out, mismatched = {}, []
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        if name.endswith("_s") or name.endswith("us_per_call"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
    return out, mismatched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "suq2" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no suq2 sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = wall()
    hard_deadline = start + HARD_LIMIT_S
    plain, traced = [], []
    try:
        while not (plain and (traced or not args.trace)) or wall() - start < args.seconds:
            plain.append(_spawn(args.workload, args.seed, "pass", 0, hard_deadline))
            if args.trace:
                traced.append(_spawn(args.workload, args.seed, "pass", 1, hard_deadline))
        controls = _spawn(args.workload, args.seed, "controls", 0, hard_deadline)["controls"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for failure in sorted(set(failures))[:20]:
        print(f"FAIL {failure}")
    correct = not failures and all(controls.values())

    items = sorted(s for p in plain for s in p["item_s"])
    per_pass = len(plain[0]["item_s"])
    if per_pass >= ITEM_TAIL_MIN:
        print(
            f"items: {len(items)} timed over {len(plain)} passes, "
            f"item_p50_ms {_percentile(items, 50) * 1e3:.4f}, "
            f"item_p99_ms {_percentile(items, 99) * 1e3:.4f}"
        )
    for name in ("verdict_s", "cpu_s", "setup_s", "raw_verdict_s", "raw_setup_s", "speed"):
        print(f"passes {name}: " + " ".join(f"{p[name]:.4f}" for p in plain))
    print(f"fail_frac: {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")
    print(f"controls (true = reported as a failure, as required): {json.dumps(controls)}")
    print(f"meta: {json.dumps(_metadata())}")

    measured = {
        "setup_s": statistics.median_low(p["setup_s"] for p in plain),
        "verdict_s": statistics.median_low(p["verdict_s"] for p in plain),
        "cpu_s": statistics.median_low(p["cpu_s"] for p in plain),
        "peak_rss_mb": statistics.median_low(p["peak_rss_mb"] for p in plain),
    }
    wanted = spec["end_to_end"]
    if args.trace:
        plain_verdict = measured["verdict_s"]
        measured, mismatched = _layer_values(traced)
        for name in mismatched:
            print(f"FAIL traced count {name} differs between passes of one seed")
        correct = correct and not mismatched
        traced_verdict = statistics.median_low(p["verdict_s"] for p in traced)
        measured["trace.overhead_frac"] = traced_verdict / plain_verdict - 1
        wanted = spec["per_layer"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
