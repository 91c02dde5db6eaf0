"""Probe for the rational-coefficient cliff (a known defect, see NOTES.md).

Squares two-term sums whose two coefficients sit on the same generator, so
that they add into one rational function with two unrelated multi-term
denominators, then takes the adjoint, as ``suq2 mul`` and ``suq2 adjoint``
would.  The ``rational-calc`` workload leaves this shape out so that its runs
stay steady; this script exists so the cliff can be reproduced.

Usage, from the root of a checkout::

    python3 perfbench/cliff_probe.py --count 100 --seed 1 --limit 10

Each expression is cut off after ``--limit`` seconds (SIGALRM) and counted
as over the limit.  Expressions slower than one second are printed.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time
from pathlib import Path

NUM = ("q", "qb", "zeta", "i", "q^2", "qb^2", "q*qb", "i*q", "zeta*qb")
DEN = ("q", "qb", "q*qb", "q^2", "qb^2")
LETTERS = ("a", "a'", "g", "g'")


class _OverLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OverLimit()


def _poly(rng, monos, const):
    terms = [str(const)] if const else []
    for mono in rng.sample(monos, 2):
        c = rng.randint(1, 3)
        terms.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(terms)


def _coeff(rng):
    return f"(({_poly(rng, NUM, rng.randint(0, 2))})/({_poly(rng, DEN, rng.randint(1, 3))}))"


def expressions(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        x = rng.choice(LETTERS)
        s = f"({_coeff(rng)}*{x} + {_coeff(rng)}*{x})"
        yield f"{s}*{s}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--limit", type=int, default=10, help="seconds per expression")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from suq2 import parse, suq2_presentation

    pres = suq2_presentation()
    signal.signal(signal.SIGALRM, _on_alarm)
    times = []
    for k, text in enumerate(expressions(args.count, args.seed)):
        t0 = time.perf_counter()
        signal.alarm(args.limit)
        try:
            parse(text, pres).adjoint()
            dt = time.perf_counter() - t0
        except _OverLimit:
            dt = float("inf")
        finally:
            signal.alarm(0)
        times.append(dt)
        if dt > 1:
            print(f"#{k}: {dt:.2f} s  {text}", flush=True)
    times.sort()
    n = len(times)
    print(
        f"count {n}, seed {args.seed}: p50 {times[n // 2] * 1e3:.1f} ms, "
        f"p90 {times[int(n * 0.9)] * 1e3:.1f} ms, max {times[-1]:.2f} s, "
        f"over {args.limit} s: {sum(t == float('inf') for t in times)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
