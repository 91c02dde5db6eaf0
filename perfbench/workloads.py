"""The four benchmark workloads and their correctness gates.

Each workload is a closed loop with one caller: the next item is submitted
only after the previous verdict is back, with no threads.  ``setup`` builds
the presentations and inputs from the seed, ``run`` is the timed part and
returns the clock readings around every item, in a fixed order, ``check``
compares every verdict with its known answer after the timer has stopped,
and ``controls`` builds deliberately broken inputs from the public API that
the engine must report as failures.

Why these four (each stresses a different layer, see NOTES.md):

* ``verify-all``: the main user job; L0 polynomial multiply, L3 morphisms.
* ``confluence-tensor``: L1 word enumeration, redex finding, ``reduce_word``.
* ``oracle-compare``: the only workload dominated by the numeric oracle.
* ``rational-calc``: the only workload on the ``scalars`` gcd path.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import numpy as np

import suq2
from suq2 import cli, numeric
from suq2.algebra import Generator, Presentation, RewriteRule
from suq2.checks import CHECKS
from suq2.errors import UnverifiedMorphismError
from suq2.morphisms import GenMorphism

from speed import wall

ORACLE_Q = 0.5 + 0.3j
ORACLE_TOL = 1e-11


def _clock():
    return wall(), time.process_time()


def _lap(start):
    """(wall start, wall end, cpu start, cpu end) of an item begun at ``start = _clock()``."""
    end_wall, end_cpu = _clock()
    return start[0], end_wall, start[1], end_cpu


class VerifyAll:
    """All 17 named checks through ``cli.main(["verify", "all", ...])``."""

    def __init__(self, seed):
        self.argv = ["verify", "all", "--seed", str(seed), "--maxlen", "3", "--trials", "200"]

    def setup(self):
        pass

    def run(self, tracer):
        buf = io.StringIO()
        start = _clock()
        with contextlib.redirect_stdout(buf):
            try:
                self.exit_code = cli.main(self.argv)
            except Exception as ex:  # an engine error is a failed verdict
                self.exit_code = repr(ex)
        lap = _lap(start)
        self.report = buf.getvalue()
        if tracer is not None:
            tracer.count("cli.report_bytes", len(self.report.encode("ascii")))
        return [lap]

    def check(self):
        want = sorted(CHECKS)
        try:
            got = {c["check"]: c["result"] for c in json.loads(self.report)["checks"]}
        except (ValueError, KeyError, TypeError):
            return len(want), [f"no verify report (exit {self.exit_code})"]
        failures = [f"{cid}: {got.get(cid, 'missing')}" for cid in want if got.get(cid) != "pass"]
        if self.exit_code != 0 and not failures:
            failures.append(f"exit code {self.exit_code} with every check passing")
        return len(want), failures

    def controls(self):
        # a map doubling gamma breaks relation R6; check() must say so and
        # apply() must refuse to run
        A = suq2.suq2_presentation()
        bad = GenMorphism(
            A,
            A,
            {A.gen_index("a"): A.gen("a"), A.gen_index("g"): A.gen("g").scale(2)},
            name="broken",
        )
        refused = False
        try:
            bad.apply(A.gen("a"))
        except UnverifiedMorphismError:
            refused = True
        return {"broken-morphism": (not bad.check()) and refused}


class ConfluenceTensor:
    """``confluence_check`` on the triple twisted tensor and on U_q(2)."""

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        A = suq2.suq2_presentation()
        self.jobs = [
            (suq2.twisted_tensor([A, A, A], A.params["zeta"]), 4),
            (suq2.uq2_presentation(), 5),
        ]

    def run(self, tracer):
        self.reports = []
        laps = []
        for pres, maxlen in self.jobs:
            start = _clock()
            try:
                rep = suq2.confluence_check(pres, maxlen=maxlen, trials=500, seed=self.seed)
            except Exception as ex:  # an engine error is a failed verdict
                rep = ex
            laps.append(_lap(start))
            self.reports.append(rep)
        return laps

    def check(self):
        failures = []
        for (pres, _), rep in zip(self.jobs, self.reports):
            if isinstance(rep, Exception):
                failures.append(f"{pres.label}: {rep!r}")
            elif not rep.ok:
                failures.append(f"{pres.label}: {rep.divergences[:3]}")
        return len(self.jobs), failures

    def controls(self):
        q, qb, one = suq2.Scalar.q(), suq2.Scalar.qbar(), suq2.Scalar.one()
        gens = (
            Generator("g", 1, 1),
            Generator("g'", -1, 0),
            Generator("a", 0, 3),
            Generator("a'", 0, 2),
        )
        # a g -> qb g a together with its inverse: reduction never terminates
        looping = Presentation(
            "looping",
            gens,
            [
                RewriteRule((2, 0), ((qb, (0, 2)),)),
                RewriteRule((0, 2), ((qb.inverse(), (2, 0)),)),
            ],
        )
        # U U' -> 1 and U' U -> 2 disagree on the overlap U U' U
        u_gens = (Generator("U", 0, 1), Generator("U'", 0, 0))
        diverging = Presentation(
            "diverging",
            u_gens,
            [
                RewriteRule((0, 1), ((one, ()),)),
                RewriteRule((1, 0), ((suq2.Scalar.from_int(2), ()),)),
                RewriteRule((0, 0), ((one, ()),)),
            ],
        )
        loop_rep = suq2.confluence_check(looping, maxlen=3, trials=20, seed=self.seed)
        div_rep = suq2.confluence_check(diverging, maxlen=3, trials=10, seed=self.seed)
        return {
            "looping-rules": any(d["kind"] == "non-termination" for d in loop_rep.divergences),
            "divergent-rules": any(d["kind"] == "critical-pair" for d in div_rep.divergences),
        }


class OracleCompare:
    """``oracle_compare`` of seeded random words against the ladder model."""

    COUNT = 1000
    MAXLEN = 6

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        self.pres = suq2.suq2_presentation()
        self.model = numeric.build(ORACLE_Q, 30, 8)
        rng = random.Random(self.seed)
        self.words = [
            tuple(rng.randrange(4) for _ in range(rng.randint(1, self.MAXLEN)))
            for _ in range(self.COUNT)
        ]

    def run(self, tracer):
        one = suq2.Scalar.one()
        self.devs = []
        laps = []
        for word in self.words:
            start = _clock()
            try:
                dev = numeric.oracle_compare(self.model, self.pres, [(one, word)])
            except Exception as ex:  # an engine error is a failed verdict
                dev = repr(ex)
            laps.append(_lap(start))
            self.devs.append(dev)
        return laps

    def check(self):
        failures = [
            f"word {list(w)}: deviation {d}"
            for w, d in zip(self.words, self.devs)
            if isinstance(d, str) or not d <= ORACLE_TOL
        ]
        return len(self.words), failures

    def controls(self):
        # R2 with q in place of qb: the oracle must see a g != q g a
        base = suq2.suq2_presentation()
        q = base.params["q"]
        rules = [
            RewriteRule(r.lhs, ((q, (0, 2)),)) if r.lhs == (2, 0) else r
            for r in base.rules.values()
        ]
        wrong = Presentation("wrong-r2", base.generators, rules, params=dict(base.params))
        dev = numeric.oracle_compare(self.model, wrong, [(suq2.Scalar.one(), (2, 0))])
        return {"wrong-rule-oracle": dev > ORACLE_TOL}


# Monomials for rational coefficients of degree <= 2.  Every integer weight is
# positive, so at ORACLE_Q (positive real part) no denominator comes near zero.
_NUM_MONOS = ("q", "qb", "zeta", "i", "q^2", "qb^2", "q*qb", "i*q", "zeta*qb")
_DEN_MONOS = ("q", "qb", "q*qb")
_LETTERS = ("g", "g'", "a", "a'")


def _poly(rng, monos, const):
    terms = [(const, "1")] if const else []
    for mono in rng.sample(monos, 1 if not const else rng.randint(0, 1)):
        terms.append((rng.randint(1, 3), mono))
    return terms


def _poly_text(terms):
    return " + ".join(str(c) if m == "1" else (m if c == 1 else f"{c}*{m}") for c, m in terms)


def _poly_value(terms, qv):
    values = {
        "1": 1, "q": qv, "qb": qv.conjugate(), "zeta": qv / qv.conjugate(), "i": 1j,
    }
    total = 0j
    for c, mono in terms:
        v = 1
        for factor in mono.split("*"):
            base, _, power = factor.partition("^")
            v *= values[base] ** int(power or 1)
        total += c * v
    return total


class RationalCalc:
    """``parse`` then ``adjoint`` of (c1 x + c2 y)(c3 z + ...) with rational c's."""

    COUNT = 1000
    CHECK_N, CHECK_M = 12, 4  # a small ladder model is exact for words of length <= 2

    def __init__(self, seed):
        self.seed = seed
        self.model = None

    def _factor(self, rng, nterms):
        terms = []
        for _ in range(nterms):
            num = _poly(rng, _NUM_MONOS, rng.randint(0, 2))
            den = _poly(rng, _DEN_MONOS, rng.randint(1, 3))
            terms.append((num, den, rng.choice(_LETTERS)))
        return terms

    def setup(self):
        self.pres = suq2.suq2_presentation()
        rng = random.Random(self.seed)
        self.items = []
        for _ in range(self.COUNT):
            left, right = self._factor(rng, 2), self._factor(rng, rng.randint(1, 2))
            text = "*".join(
                "(" + " + ".join(
                    f"(({_poly_text(n)})/({_poly_text(d)}))*{x}" for n, d, x in side
                ) + ")"
                for side in (left, right)
            )
            self.items.append((text, left, right))

    def run(self, tracer):
        self.results = []
        laps = []
        for text, _, _ in self.items:
            start = _clock()
            try:
                x = suq2.parse(text, self.pres)
                result = (x, x.adjoint())
            except Exception as ex:  # an engine error is a failed verdict
                result = repr(ex)
            laps.append(_lap(start))
            self.results.append(result)
        return laps

    def _deviation(self, left, right, x):
        """Relative max deviation between the raw product and ``x`` on the model."""
        if self.model is None:  # built on first use: checking is not timed
            self.model = numeric.build(ORACLE_Q, self.CHECK_N, self.CHECK_M)
            a, g = self.model.alpha, self.model.gamma
            self.letters = {"a": a, "a'": a.conj().T, "g": g, "g'": g.conj().T}
            self.mask = self.model.interior_mask(2)

        def side(terms):
            return sum(
                (_poly_value(n, ORACLE_Q) / _poly_value(d, ORACLE_Q)) * self.letters[v]
                for n, d, v in terms
            )

        direct = (side(left) @ side(right))[:, self.mask]
        normal = numeric.evaluate_element(self.model, x)[:, self.mask]
        return float(np.max(np.abs(direct - normal))) / max(1.0, float(np.max(np.abs(direct))))

    def check(self):
        failures = []
        for (text, left, right), res in zip(self.items, self.results):
            if isinstance(res, str):
                failures.append(f"{text}: {res}")
            elif res[1].adjoint() != res[0]:
                failures.append(f"{text}: adjoint is not an involution")
            elif not self._deviation(left, right, res[0]) <= ORACLE_TOL:
                failures.append(f"{text}: differs from the raw product on the oracle")
        return len(self.items), failures

    def controls(self):
        # the gate must reject a result that is off by one small term
        text, left, right = self.items[0]
        x = suq2.parse(text, self.pres) + suq2.parse("q*g g'", self.pres)
        return {"perturbed-product": self._deviation(left, right, x) > ORACLE_TOL}


WORKLOADS = {
    "verify-all": VerifyAll,
    "confluence-tensor": ConfluenceTensor,
    "oracle-compare": OracleCompare,
    "rational-calc": RationalCalc,
}
