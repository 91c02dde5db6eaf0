"""One cold pass of one workload, in the interpreter that runs this file.

Usage (``run.py`` starts it; it is not meant to be called by hand)::

    python3 perfbench/worker.py --workload NAME --seed N --mode pass|controls
        --trace 0|1 --spawned-at CLOCK_MONOTONIC_SECONDS

Imports ``suq2`` from ``src`` next to this directory and refuses any other
copy.  A :class:`speed.SpeedSampler` runs from the start of this script until
the last verdict, and every reported time is in calibrated seconds (see
``speed.py``); the raw wall times are reported next to them.  Prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedSampler, wall

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    sampler = SpeedSampler()
    sampler.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "controls"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import suq2
    import suq2.cli  # noqa: F401  (imports checks and numeric)
    import suq2.render  # noqa: F401

    if Path(suq2.__file__).resolve().parent != SRC / "suq2":
        sampler.stop()
        print(f"error: imported suq2 from {suq2.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_end = wall()
    out = {"raw_setup_s": setup_end - args.spawned_at}

    if args.mode == "controls":
        sampler.stop()
        out["controls"] = workload.controls()
    elif args.mode == "pass":
        t0, c0 = wall(), time.process_time()
        laps = workload.run(tracer)
        t1, c1 = wall(), time.process_time()
        sampler.stop()
        out["raw_verdict_s"] = t1 - t0
        out["verdict_s"], out["cpu_s"], factor = sampler.calibrate(t0, t1, c0, c1)
        out["speed"] = factor
        out["item_s"] = [sampler.calibrate(w0, w1)[0] for w0, w1, _, _ in laps]
        if tracer is not None:
            from suq2.checks import CHECKS

            layers = layer_metrics(tracer.snapshot(), sorted(CHECKS))
            # span times are raw; put them on the same calibrated scale
            out["layers"] = {
                name: value * factor if name.endswith(("_s", "us_per_call")) else value
                for name, value in layers.items()
            }
        out["attempted"], out["failures"] = workload.check()
    out["setup_s"] = sampler.calibrate(args.spawned_at, setup_end)[0]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
