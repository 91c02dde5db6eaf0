"""Span tracer that wraps the public functions of the ``suq2`` modules from outside.

Nothing under ``src/suq2`` is edited: :meth:`Tracer.install` replaces each
public function and method with a timing wrapper, in the module or class that
defines it and in every ``suq2`` namespace that imported it by name.  Spans are
aggregated in memory per name as (calls, inclusive seconds, self seconds),
where a span's self time is its duration minus the durations of its direct
child spans.  Per-call records are not kept: a single ``verify all`` makes
about a million traced calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layers, in the order of the ROADMAP (L0 .. L5, then the oracle).
MODULES = (
    "scalars",
    "algebra",
    "braided",
    "morphisms",
    "repcalc",
    "checks",
    "parser",
    "render",
    "cli",
    "numeric",
)

# Operators are public API too; only these dunders are wrapped.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__call__",
}

# Constant-time predicates and accessors called in the innermost loops.  Their
# cost stays in the self time of the span that calls them; wrapping them would
# only add tracing overhead.
_SKIP = {
    "is_zero", "is_one", "adjoint_index", "degree_of_word", "leg_of",
    "local_index", "zero", "one", "q", "qbar", "zeta", "imag_unit",
}

# GaussianRational is the inner arithmetic of Scalar; its time stays in the
# self time of the Scalar span that calls it.
_SKIP_CLASSES = {"GaussianRational"}


class Tracer:
    """Timing wrappers plus counters; create one per process, then :meth:`install`."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}  # name -> int
        self._stack = []

    # -- recording -----------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(out)
            return out

        return wrapper

    def count(self, name, n=1):
        """Add ``n`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    # -- hooks for counts read at layer boundaries -----------------------------------

    def _before_reduce_word(self, args):
        pres, word = args[0], args[1]
        hit = pres.memo_enabled and tuple(word) in pres._memo
        self.count("algebra.reduce_word.memo_hits", int(hit))

    def _after_confluence(self, report):
        self.count("algebra.confluence.words_checked", report.words_checked)
        self.count("algebra.confluence.critical_pairs", report.critical_pairs)

    # -- installation -----------------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the modules in :data:`MODULES`."""
        hooks = {
            "algebra.Presentation.reduce_word": (self._before_reduce_word, None),
            "algebra.confluence_check": (None, self._after_confluence),
        }
        checks = sys.modules["suq2.checks"]
        # checks run through the CHECKS table, so each check's span is named by its id
        check_ids = {id(fn): cid for cid, fn in checks.CHECKS.items()}
        replaced = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"suq2.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{check_ids.get(id(obj), attr)}"
                    wrapper = self._wrap(name, obj, *hooks.get(name, (None, None)))
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and attr not in _SKIP_CLASSES:
                    self._install_class(short, obj, hooks)
        for check_id, fn in list(checks.CHECKS.items()):
            checks.CHECKS[check_id] = replaced[id(fn)][1]
        # rebind every `from .x import f` copy of a wrapped function
        for modname, mod in list(sys.modules.items()):
            if modname != "suq2" and not modname.startswith("suq2."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _install_class(self, short, cls, hooks):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            if attr.startswith("_") and attr not in _OPERATORS:
                if not (attr == "__init__" and cls.__name__ == "Scalar"):
                    continue
            name = f"{short}.{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__, before, after)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw, before, after))

    # -- results --------------------------------------------------------------------------

    def snapshot(self):
        """A copy of the span table and counters, safe to keep while tracing goes on."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items() if v[0]},
            "counts": dict(self.counts),
        }


def _calls(spans, *names):
    return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)


def _self_s(spans, *names):
    return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)


def _incl_s(spans, *names):
    return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)


def layer_metrics(snapshot, check_ids):
    """Per-layer metric values (name -> number) from one pass's snapshot.

    Counts are exact; times are seconds.  A layer the workload never touches
    reports zero calls and zero time.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]
    out = {}
    for short in MODULES:
        out[f"{short}.self_s"] = sum(
            v[2] for k, v in spans.items() if k.startswith(f"{short}.")
        )

    scalar_ops = [
        k for k in spans
        if k.startswith("scalars.Scalar.") and k != "scalars.Scalar.__init__"
    ]
    out["scalars.calls"] = _calls(spans, *scalar_ops)
    out["scalars.constructions"] = _calls(spans, "scalars.Scalar.__init__")
    calls = out["scalars.calls"]
    out["scalars.us_per_call"] = out["scalars.self_s"] / calls * 1e6 if calls else 0.0

    named = {
        "algebra.reduce_word": ("algebra.Presentation.reduce_word",),
        "algebra.normalize_raw": ("algebra.Presentation.normalize_raw",),
        "algebra.element_add": ("algebra.Element.__add__", "algebra.Element.__radd__"),
        "algebra.element_mul": ("algebra.Element.__mul__",),
        "braided.embed": ("braided.embed",),
        "morphisms.apply": ("morphisms.GenMorphism.apply",),
        "morphisms.check": ("morphisms.GenMorphism.check",),
        "morphisms.compose": ("morphisms.compose",),
        "morphisms.cancellation_witness": ("morphisms.cancellation_witness",),
        "repcalc.matmul": ("repcalc.AlgMatrix.__mul__",),
        "numeric.oracle_compare": ("numeric.oracle_compare",),
        "parser.parse": ("parser.parse",),
    }
    for metric, names in named.items():
        out[f"{metric}.calls"] = _calls(spans, *names)
        out[f"{metric}.self_s"] = _self_s(spans, *names)
    rw_calls = out["algebra.reduce_word.calls"]
    hits = counts.get("algebra.reduce_word.memo_hits", 0)
    out["algebra.memo_hit_frac"] = hits / rw_calls if rw_calls else 0.0

    words = counts.get("algebra.confluence.words_checked", 0)
    pairs = counts.get("algebra.confluence.critical_pairs", 0)
    out["algebra.confluence.words_checked"] = words
    out["algebra.confluence.critical_pairs"] = pairs
    out["algebra.confluence.pair_frac"] = pairs / words if words else 0.0

    out["braided.twisted_tensor.self_s"] = _self_s(spans, "braided.twisted_tensor")
    out["repcalc.corep_check.self_s"] = _self_s(spans, "repcalc.corep_check")
    for check_id in check_ids:
        out[f"checks.{check_id}_s"] = _incl_s(spans, f"checks.{check_id}")
    out["numeric.build_s"] = _incl_s(spans, "numeric.build")
    out["numeric.evaluate_raw.self_s"] = _self_s(spans, "numeric.evaluate_raw")
    out["numeric.evaluate_element.self_s"] = _self_s(spans, "numeric.evaluate_element")
    out["render.render_element.self_s"] = _self_s(spans, "render.render_element")
    out["cli.main_s"] = _incl_s(spans, "cli.main")
    out["cli.report_bytes"] = counts.get("cli.report_bytes", 0)
    return out
