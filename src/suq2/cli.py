"""Command-line interface: normal forms, verification driver, numeric oracle.

Subcommands::

    nf         normal form of an expression in a chosen algebra
    deg        degree of an expression (integer, "zero", or "inhomogeneous")
    mul        product of two expressions, normalized
    adjoint    adjoint of an expression, normalized
    verify     run one named identity check, or all of them
    confluence diamond-lemma proof of a rule set: deglex termination
               certificate plus resolved ambiguities
    numeric    truncated-operator oracle: relation residuals, normal-form
               comparisons, spectrum of the ladder operator

Each command handler returns its JSON report (schema 1) and exit code;
:func:`main` alone emits the report and maps results to exit codes: 0 on
pass, 1 on a failed check, 2 on usage, parse and engine errors (one
``error: <label>: ...`` line on stderr and no report).  Reports are
byte-stable for fixed options and seed; ``--out PATH`` writes the report to
a file before printing it (an unwritable path is ``error: out-file``,
exit 2, and prints no report).  When standard output closes before the
report is written, as when a reader such as ``head`` stops early, the run
ends with exit code 141 (:data:`EXIT_CLOSED_STDOUT`, the code a shell
gives a process ended by SIGPIPE) and prints nothing more, on either
stream.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .algebra import (
    confluence_check,
    suq2_presentation,
    torus_presentation,
    uq2_presentation,
)
from .braided import grading_flip, twisted_tensor
from .checks import CHECKS, run_all, run_check
from .errors import (
    PoleError,
    RewriteLimitError,
    UnverifiedMorphismError,
    ZeroDivisorError,
)
from .parser import parse
from .scalars import Scalar

SCHEMA = 1
EXIT_CLOSED_STDOUT = 141


def _suq2_tensor(legs):
    A = suq2_presentation()
    return twisted_tensor([A] * legs, A.params["zeta"])


# every algebra a command accepts by name, and its builder
ALGEBRAS = {
    "suq2": suq2_presentation,
    "torus": torus_presentation,
    "uq2": uq2_presentation,
    "suq2-tensor2": lambda: _suq2_tensor(2),
    "suq2-tensor3": lambda: _suq2_tensor(3),
    "suq2-flip": lambda: grading_flip(suq2_presentation()),
}


def _algebra(name):
    return ALGEBRAS[name]()


def _parse_qval(text):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a complex value as 're' or 're,im', got {text!r}"
    )


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def _tolerance(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite nonnegative number, got {text!r}"
        )
    return value


def _emit(report, out_path):
    text = json.dumps(report, indent=2, ensure_ascii=True)
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            raise ValueError(f"out-file: {ex}") from None
    print(text, flush=True)


def _expression_command(args):
    pres = _algebra(args.algebra)
    el = parse(args.expr[0], pres)
    if args.command == "mul":
        el = el * parse(args.expr[1], pres)
    elif args.command == "adjoint":
        el = el.adjoint()
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "algebra": args.algebra,
        "result": el.degree() if args.command == "deg" else el.render(args.unicode),
        "residuals": [],
        "paper_anchor": "",
    }
    return report, 0


def _check_report(check_id, res):
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "algebra": "suq2",
        "check": check_id,
        "result": "pass" if res.ok else "fail",
        "residuals": res.residuals,
        "paper_anchor": res.anchor,
    }
    if res.details:
        report["details"] = {
            k: res.details[k] for k in sorted(res.details)
        }
    return report


def _verify_command(args):
    if args.check != "all":
        res = run_check(args.check)
        return _check_report(args.check, res), 0 if res.ok else 1
    results = run_all()
    ok = all(r.ok for r in results.values())
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "algebra": "suq2",
        "result": "pass" if ok else "fail",
        "checks": [_check_report(cid, r) for cid, r in results.items()],
    }
    return report, 0 if ok else 1


def _confluence_command(args):
    pres = _algebra(args.algebra)
    rep = confluence_check(pres)
    report = {
        "schema": SCHEMA,
        "command": "confluence",
        "algebra": args.algebra,
        "result": "pass" if rep.ok else "fail",
        "residuals": [json.dumps(d, sort_keys=True) for d in rep.divergences],
        "paper_anchor": "every rule rewrites to deglex-smaller words and every "
        "overlap ambiguity resolves to one normal form (Bergman's diamond lemma)",
        "details": {
            "certificate": rep.certificate,
            "critical_pairs": rep.critical_pairs,
            "words_checked": rep.words_checked,
        },
    }
    return report, 0 if rep.ok else 1


# default tolerance of each numeric mode; --tol overrides it
NUMERIC_TOL = {"relations": 1e-12, "compare": 1e-11, "spectrum": 1e-12}


def _numeric_command(args):
    from . import numeric  # numpy loads only for this command

    rep = numeric.build(args.qval, args.N, args.M)
    tol = NUMERIC_TOL[args.mode] if args.tol is None else args.tol
    extra = {}
    if args.mode == "relations":
        residuals = numeric.relation_residuals(rep)
        ok = all(interior <= tol for interior, _ in residuals.values())
        lines = [
            f"{name}: interior {interior:.3e}, full {full:.3e}"
            for name, (interior, full) in residuals.items()
        ]
        anchor = (
            "the five defining relations hold on the truncated ladder away "
            "from the boundary row"
        )
    elif args.mode == "compare":
        pres = suq2_presentation()
        rng = random.Random(args.seed)
        worst = 0.0
        worst_word = ()
        for _ in range(args.count):
            length = rng.randint(1, args.maxlen)
            word = tuple(rng.randrange(4) for _ in range(length))
            dev = numeric.oracle_compare(rep, pres, [(Scalar.one(), word)])
            if dev > worst:
                worst, worst_word = dev, word
        ok = worst <= tol
        extra = {"count": args.count, "max_word_length": args.maxlen, "seed": args.seed}
        lines = [f"max deviation {worst:.3e} at word {list(worst_word)}"]
        anchor = (
            "raw words and their engine normal forms evaluate to the same "
            "operator on the exact interior block"
        )
    else:  # spectrum
        dev = numeric.spectrum_deviation(rep)
        ok = dev <= tol
        lines = [f"max relative singular-value deviation {dev:.3e}"]
        anchor = (
            "the ladder operator, transported through 1/q, has singular "
            "values |q|^-(n+1), each with the winding multiplicity"
            if rep.transported
            else "the ladder operator has singular values |q|^n, each with "
            "the winding multiplicity"
        )
    qval = args.qval
    report = {
        "schema": SCHEMA,
        "command": f"numeric {args.mode}",
        "algebra": "suq2",
        "qval": f"{qval.real:g}" if qval.imag == 0 else f"{qval.real:g},{qval.imag:g}",
        "N": args.N,
        "M": args.M,
        "result": "pass" if ok else "fail",
        "tolerance": tol,
        **extra,
        "residuals": lines,
        "paper_anchor": anchor,
    }
    return report, 0 if ok else 1


class _ArgumentParser(argparse.ArgumentParser):
    """Reads an argument that starts with one '-' and names no option as a
    positional, so that expression text such as ``-q`` or ``-g*a`` needs no
    ``--`` before it.  Arguments that start with ``--`` are options as usual:
    no expression starts with two minus signs.
    """

    def _parse_optional(self, arg_string):
        if (
            arg_string.startswith("-")
            and not arg_string.startswith("--")
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    ap = _ArgumentParser(
        prog="suq2",
        description="Symbolic engine for the braided q-deformed SU(2) family "
        "at complex parameters, with a numeric operator oracle.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.add_argument("--out", metavar="PATH", help="also write the JSON report here")
        p.set_defaults(handler=handler)

    for name, nexpr, help_text in (
        ("nf", 1, "normal form of an expression"),
        ("deg", 1, "degree of an expression"),
        ("mul", 2, "normalized product of two expressions"),
        ("adjoint", 1, "adjoint of an expression"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", choices=ALGEBRAS, default="suq2")
        p.add_argument("--unicode", action="store_true", help="pretty generator names")
        p.add_argument("expr", nargs=nexpr, help="expression text")
        add_common(p, _expression_command)

    p = sub.add_parser("verify", help="run named identity checks")
    p.add_argument("check", choices=sorted(CHECKS) + ["all"])
    inert = "accepted, read by no check: every check is a finite proof"
    p.add_argument("--seed", type=int, default=1, help=inert)
    p.add_argument("--maxlen", type=int, default=3, help=inert)
    p.add_argument("--trials", type=int, default=200, help=inert)
    add_common(p, _verify_command)

    p = sub.add_parser("confluence", help="diamond-lemma proof that the rewrite "
                       "rules are sound, for words of every length")
    p.add_argument("--algebra", choices=ALGEBRAS, default="suq2")
    add_common(p, _confluence_command)

    p = sub.add_parser("numeric", help="truncated-operator oracle")
    p.add_argument("mode", choices=NUMERIC_TOL)
    p.add_argument("--q", dest="qval", type=_parse_qval, required=True,
                   metavar="RE[,IM]", help="numeric parameter value")
    p.add_argument("--N", type=int, default=30, help="radial cutoff")
    p.add_argument("--M", type=int, default=8, help="winding modulus")
    p.add_argument("--count", type=_positive_int, default=200,
                   help="random words to compare")
    p.add_argument("--maxlen", type=_positive_int, default=6,
                   help="random word length bound")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="override the tolerance")
    add_common(p, _numeric_command)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
        _emit(report, args.out)
    except (
        PoleError,
        ZeroDivisorError,
        RewriteLimitError,
        UnverifiedMorphismError,
        ValueError,
    ) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit has somewhere to write what is still buffered.
        # This is meant for the top-level process: the redirection holds
        # for the rest of whatever process runs main().
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
