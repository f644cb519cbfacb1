"""Per-layer tracing from outside the program.

The tracer wraps the functions and methods listed in ``BOUNDARIES``, the
entry points of qtlab's seven modules plus the enumerator's admission step,
at every place they are reachable from: the defining class or module and
each qtlab module that imported them by name (``qtlab.lab.until`` as well as
``qtlab.semantics.until``).  Nothing under ``src/`` changes.

Every wrapped call is timed on one stack.  A boundary's self time is its
duration minus the time covered by the traced boundaries it called, so self
times of all boundaries add up to the traced time.  Hot boundaries (interval
algebra, oracle queries) only aggregate calls and self time; coarse ones
(``SPANS``) also keep one span each, with name, start, end, parent span and
the trace id of the operation that caused it, in memory until the run ends.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, metric name)
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("qtlab.intervals", "IntervalSet.__init__", "intervals.normalize"),
    ("qtlab.intervals", "IntervalSet.union", "intervals.union"),
    ("qtlab.intervals", "IntervalSet.intersection", "intervals.intersection"),
    ("qtlab.intervals", "IntervalSet.complement", "intervals.complement"),
    ("qtlab.signals", "Signal.slice", "signals.slice"),
    ("qtlab.signals", "Signal.canonicalize", "signals.canonicalize"),
    ("qtlab.signals", "align_many", "signals.align_many"),
    ("qtlab.signals", "combine", "signals.combine"),
    ("qtlab.signals", "parse_signal", "cli.parse_signal"),
    ("qtlab.signals", "format_signal", "cli.format_signal"),
    ("qtlab.formulas", "parse_formula", "formulas.parse"),
    ("qtlab.semantics", "diamond_unit_future", "semantics.F1"),
    ("qtlab.semantics", "diamond_unit_past", "semantics.O1"),
    ("qtlab.semantics", "count_unit", "semantics.C"),
    ("qtlab.semantics", "pnueli_unit", "semantics.Pn"),
    ("qtlab.semantics", "until", "semantics.U"),
    ("qtlab.semantics", "since", "semantics.S"),
    ("qtlab.semantics", "evaluate", "semantics.evaluate"),
    ("qtlab.oracle", "PointwiseSession.__init__", "oracle.session"),
    ("qtlab.oracle", "PointwiseSession.eval", "oracle.eval"),
    ("qtlab.oracle", "compare_pointwise", "oracle.compare"),
    ("qtlab.lab", "paper_check", "lab.paper_check"),
    ("qtlab.lab", "enumerate_formulas", "lab.enumerate"),
    ("qtlab.lab", "trivialization_report", "lab.report"),
    ("qtlab.lab", "_Enumeration.admit", "lab.admit"),
    ("qtlab.cli", "main", "cli.main"),
)

SPANS = frozenset({"cli.main", "lab.paper_check", "lab.enumerate", "lab.report",
                   "semantics.evaluate", "oracle.compare"})

OPERATORS = ("F1", "O1", "C", "Pn", "U", "S")
SIZES = ("n", "half")
# boundaries whose arguments or results feed counters (see _before, _after)
HOOKED = frozenset({"oracle.eval", "lab.admit", "lab.enumerate", "signals.canonicalize"}
                   | {f"semantics.{op}" for op in OPERATORS})


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("growth_exp"):
        return "exponent"
    return "count"


def _components(sig) -> int:
    return len(sig.pattern) + len(sig.prefix)


class Tracer:
    """Stack of open boundaries plus aggregates; ``clock`` is injectable so
    tests can drive it with synthetic times."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: List[list] = []  # [name, start, covered, span index or None]
        self.open_spans: List[int] = []
        self.spans: List[tuple] = []  # (name, start, end, parent, trace_id)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.trace_id: Optional[int] = None
        self.tag: Optional[str] = None  # input size label of the current operation

    def enter(self, name: str) -> None:
        span = None
        if name in SPANS:
            span = len(self.spans)
            parent = self.open_spans[-1] if self.open_spans else None
            self.spans.append((name, 0.0, 0.0, parent, self.trace_id))
            self.open_spans.append(span)
        self.stack.append([name, self.clock(), 0.0, span])

    def exit(self) -> float:
        """Close the innermost boundary and return its duration."""
        end = self.clock()
        name, start, covered, span = self.stack.pop()
        duration = end - start
        own = duration - covered
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        if span is not None:
            self.open_spans.pop()
            _, _, _, parent, trace_id = self.spans[span]
            self.spans[span] = (name, start, end, parent, trace_id)
        return duration

    def caller(self) -> Optional[str]:
        return self.stack[-1][0] if self.stack else None

    # -- hooks that count sizes and outcomes at the boundaries ---------------

    def _before(self, name: str, args: tuple) -> None:
        if name == "oracle.eval":
            session, f, t = args
            if self.caller() != "oracle.eval":
                self.counts["oracle.queries"] += 1
            if (f, t) in session._memo:
                self.counts["oracle.memo_hits"] += 1
        elif name == "lab.admit":
            state, _, sig = args
            if sig not in state.seen:
                self.counts["lab.admitted"] += 1

    def _after(self, name: str, args: tuple, result, duration: float) -> None:
        if name == "signals.canonicalize":
            self.counts["signals.canonicalize.in_components"] += _components(args[0])
            self.counts["signals.canonicalize.out_components"] += _components(result)
        elif name == "lab.enumerate":
            self.counts["lab.truncated"] += int(result.truncated)
        elif name.startswith("semantics.") and self.tag is not None:
            op = name.split(".", 1)[1]
            if op in OPERATORS:
                operands = args[0] if op == "Pn" else args[:2] if op in ("U", "S") else args[:1]
                key = f"{name}.{{}}.{self.tag}"
                self.counts[key.format("in_components")] += sum(map(_components, operands))
                self.counts[key.format("out_components")] += _components(result)
                self.counts[key.format("total_s")] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name not in HOOKED:
            def traced(*args, **kwargs):
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()
        else:
            def traced(*args, **kwargs):
                tracer._before(name, args)
                tracer.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = tracer.exit()
                tracer._after(name, args, result, duration)
                return result
        return traced

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, zero where the workload never reached it."""
        out: Dict[str, float] = {}
        for _, _, name in BOUNDARIES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        c = self.counts
        for key in ("signals.canonicalize.in_components", "signals.canonicalize.out_components",
                    "oracle.queries", "lab.admitted", "lab.truncated"):
            out[key] = c.get(key, 0)
        evals = self.calls.get("oracle.eval", 0)
        out["oracle.memo_hit_ratio"] = c.get("oracle.memo_hits", 0) / evals if evals else 0.0
        candidates = self.calls.get("lab.admit", 0)
        out["lab.candidates"] = candidates
        out["lab.admit_ratio"] = c.get("lab.admitted", 0) / candidates if candidates else 0.0
        for op in OPERATORS:
            name = f"semantics.{op}"
            for size in SIZES:
                for what in ("in_components", "out_components"):
                    out[f"{name}.{what}.{size}"] = c.get(f"{name}.{what}.{size}", 0)
            big, small = c.get(f"{name}.total_s.n", 0.0), c.get(f"{name}.total_s.half", 0.0)
            # doubling the input multiplies the operator's time, children
            # included, by 2**growth_exp
            out[f"{name}.growth_exp"] = math.log2(big / small) if big > 0 and small > 0 else 0.0
        return out


def _resolve(owner, path: str):
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installed:
    """Wrappers patched into the live qtlab modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self.patches: List[Tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qtlab" or n.startswith("qtlab.")]
        for module_name, path, name in BOUNDARIES:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original)
            sites = [(owner, attr)]
            if "." not in path:  # module-level function: also its import sites
                sites += [(m, a) for m in modules if m is not owner
                          for a, v in vars(m).items() if v is original]
            for site, a in sites:
                self.patches.append((site, a, original))
                setattr(site, a, wrapped)

    def remove(self) -> None:
        for site, attr, original in reversed(self.patches):
            setattr(site, attr, original)
        self.patches.clear()
