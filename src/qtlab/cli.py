"""Command-line surface: thin adapters over the library, bit-exact output, and
one argparse parser per process, built on first use (parsing leaves it as is).

Exit codes: 0 success or check passed; 1 check failed, formulas inequivalent,
or oracle disagreement; 2 usage, parse, or file-format errors (formulas nested
past ``MAX_NESTING`` included); 3 internal error, with its traceback on stderr.

Bound files are read into integer ticks (``parse_ticks``), the ``--model``
atom stays public, and ``eval``, ``equiv`` and ``trivial`` (with the atom P)
each make one ``evaluate_ticks`` call on all they evaluate, at one unit.
``oracle-check`` calls ``evaluate``: the oracle reads public signals.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from .formulas import Atom, ParseError, parse_formula
from .intervals import IntervalError, TextFormatError
from .lab import (
    LabError,
    builtin_model,
    classify_trivial,
    enumerate_formulas,
    paper_check,
    parse_logic,
    trivialization_report,
)
from .oracle import compare_cells, compare_pointwise, sample_points
from .semantics import Env, EvalError, evaluate, evaluate_ticks
from .signals import (
    MAX_UNROLL,
    DomainError,
    Signal,
    SignalError,
    TimeDomain,
    equal,
    format_ticks,
    parse_ticks,
)

_USAGE_ERRORS = (ParseError, TextFormatError, IntervalError, SignalError,
                 DomainError, EvalError, LabError, OSError)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtlab",
        description="Exact evaluation of unit-window temporal logic over "
                    "eventually periodic dense-time signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_binds(p, model_required=False):
        p.add_argument("--model", required=model_required,
                       help="builtin model spec: mk:<k>, thm2, thm3:<n> (binds atom P)")
        p.add_argument("--bind", action="append", default=[], metavar="NAME=PATH",
                       help="bind an atom to a signal file (repeatable)")

    p = sub.add_parser("eval", help="print the truth signal of a formula")
    p.add_argument("--formula", required=True)
    add_model_binds(p)
    p.add_argument("--output", choices=("sig", "text"), default="text")

    p = sub.add_parser("equiv", help="exit 0 iff two formulas have equal truth sets")
    p.add_argument("--formula", action="append", required=True,
                   help="give exactly twice")
    add_model_binds(p)
    p.add_argument("--eventually", action="store_true",
                   help="compare tails only (half line)")

    p = sub.add_parser("trivial", help="classify a formula against the four constants")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", required=True,
                   help="builtin model spec: mk:<k>, thm2, thm3:<n>")
    p.add_argument("--eventually", action="store_true")

    p = sub.add_parser("enumerate",
                       help="enumerate semantic representatives and write a report")
    p.add_argument("--logic", required=True,
                   help="tl, qtl, qtl+c<m>, qtl+p<m>, or qtl+c<m>+p<w>")
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True, help="output file path")
    p.add_argument("--eventually", action="store_true",
                   help="classify tails instead of exact truth sets")

    p = sub.add_parser("paper", help="run a named turnkey check")
    p.add_argument("--check", required=True,
                   help="pnueli, hierarchy:<n>, counting:<k>, triviality:<k>")

    p = sub.add_parser("oracle-check",
                       help="engine vs pointwise-oracle agreement report")
    p.add_argument("--formula", required=True)
    p.add_argument("--model", required=True)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--samples", type=int, default=50)
    how.add_argument("--cells", action="store_true",
                     help="compare on every grid cell; the agreement counts one more "
                          "item, that the engine signal folds like the grid")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_env(parser: argparse.ArgumentParser, model: Optional[str], binds: List[str]) -> Env:
    """The model's public atom and the bound files, each in ticks of its own unit."""
    bindings: Dict[str, Signal] = {}
    domain: Optional[TimeDomain] = None
    if model is not None:
        env = builtin_model(model)
        domain = env.domain
        bindings.update(env.bindings)
    for item in binds:
        name, sep, path = item.partition("=")
        if not sep or not name:
            parser.error(f"--bind expects NAME=PATH, got {item!r}")
        if name in bindings:
            parser.error(f"atom {name!r} bound twice")
        try:
            sig = parse_ticks(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, TextFormatError) as exc:
            raise TextFormatError(f"{path}: {exc}") from None
        bindings[name] = sig
        if domain is None:
            domain = sig.domain
    if domain is None:
        parser.error("no atoms bound: give --model and/or --bind")
    return Env(domain, bindings)


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "eval":
        env = _load_env(parser, args.model, args.bind)
        (sig,) = evaluate_ticks(env, parse_formula(args.formula))
        sys.stdout.write(format_ticks(sig, text=args.output == "text"))
        return 0

    if args.command == "equiv":
        if len(args.formula) != 2:
            parser.error("equiv needs --formula exactly twice")
        env = _load_env(parser, args.model, args.bind)
        fa, fb = map(parse_formula, args.formula)
        if equal(*evaluate_ticks(env, fa, fb), eventually=args.eventually):
            print("equivalent")
            return 0
        print("inequivalent")
        return 1

    if args.command == "trivial":
        env = _load_env(parser, args.model, [])
        sig, p_atom = evaluate_ticks(env, parse_formula(args.formula), Atom("P"))
        print(classify_trivial(sig, p_atom, eventually=args.eventually))
        return 0

    if args.command == "enumerate":
        env = builtin_model(args.model)
        result = enumerate_formulas(parse_logic(args.logic), args.depth, env)
        text = trivialization_report(result, eventually=args.eventually).render()
        Path(args.report).write_text(text, encoding="utf-8")
        sys.stdout.write(text.splitlines()[-1] + "\n")
        return 0

    if args.command == "paper":
        report = paper_check(args.check)
        sys.stdout.write(report.render())
        return 0 if report.passed else 1

    if args.command == "oracle-check":
        if args.samples < 1:
            # zero comparisons would print agreement 0/0 and pass
            parser.error("--samples must be at least 1")
        if args.samples > MAX_UNROLL:
            parser.error(f"--samples must be at most {MAX_UNROLL}")
        env = builtin_model(args.model)
        formula = parse_formula(args.formula)
        sig = evaluate(formula, env)
        if args.cells:
            report = compare_cells(formula, env, sig)
            sys.stdout.write(f"cells {report.total - 1}\n")
        else:
            report = compare_pointwise(formula, env, sig,
                                       sample_points(sig, args.samples, args.seed))
        sys.stdout.write(report.render())
        return 0 if report.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as an honest negative (exit 1)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
