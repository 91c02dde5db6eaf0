"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _worker(workload, mode, trace, seed=2):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--trace", str(trace),
            "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
        ],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_worker(workload, "pass", 1)["layers"] for _ in range(2))
    counts = {
        name for name in first if not (name.endswith("_s") or name.endswith("us_per_call"))
    }
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["scalars.constructions"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_controls_are_reported_as_failures(workload):
    controls = _worker(workload, "controls", 0)["controls"]
    assert controls and all(controls.values()), controls


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_program_time_by_reference_speed():
    from speed import REF_S, SpeedSampler

    sampler = SpeedSampler()
    # a reference run every 0.1 s; it takes REF_S until t = 1, then 2 * REF_S
    t, ticks = 0.0, []
    while t < 2.0:
        ref = REF_S if t < 1.0 else 2 * REF_S
        ticks.append((t, t + ref, t, t + ref))
        t += 0.1 + ref
    sampler.ticks = ticks
    sampler._index()
    wall, cpu, factor = sampler.calibrate(0.2, 0.8, 0.2, 0.8)
    assert factor == pytest.approx(1.0)
    in_ticks = sum(b - a for a, b, _, _ in ticks if a >= 0.2 and b <= 0.8)
    assert wall == pytest.approx(0.6 - in_ticks)
    assert cpu == pytest.approx(wall)
    # well inside the slow half, program time counts half
    wall, _, factor = sampler.calibrate(1.5, 1.9)
    assert factor == pytest.approx(0.5)
    # set-up starts before the first sample: scaled by its sampled part
    wall, _, factor = sampler.calibrate(-0.5, 0.5)
    assert factor == pytest.approx(1.0)
    assert wall == pytest.approx(1.0 - sum(b - a for a, b, _, _ in ticks if b <= 0.5))
