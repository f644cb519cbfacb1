"""Differential oracle: memoized pointwise evaluation, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" by first-order scanning instead, so the two
routes share nothing but the exact set and slicing primitives and the signal
layer's tick scale.  The scanning route never calls the engine; only the
agreement harness at the bottom runs it once per check, as the comparison
target, whose public Fraction signal it reads as it is.

Like the engine, a session scales its formula's atoms once to integer ticks
(``tick_unit`` and ``to_ticks`` from qtlab.signals), so its grid, windows and
horizons are ints and a time unit is Q ticks.  Since that scaling is shared,
a fault in it would not show as a disagreement: its own tests in
test_signals pin it.  A query's public time t maps to its tick t Q when that
is whole, and otherwise to the odd tick 2 floor(t Q / 2) + 1: every grid
point is an even tick, so that tick lies in the same open gap as t, and so
do its shifts by whole units and periods.

The scans rest on one structural fact, checked empirically by the agreement
harness rather than assumed silently by both sides: truth values of every
subformula are constant on the cells of one grid, cut by atom component
endpoints (and, on the half line, the origin) shifted by at most one unit
per level of modal nesting.  Cells are numbered, grid points even and the
open gaps between them odd, so every modal window is a range of cells.

A session compiles its formula once into a table of integer node ids, one
per distinct subformula, each with its type, child ids, count (or atom
signal), period and transient bound.  It memoizes each operand's truth by
(node id, cell), evaluating it at the cell's point or gap midpoint on a
miss, and caches per cell that time and its forward and backward unit
windows, which every node visiting the cell shares.  A query's own windows
are cut from its tick.  An until or since scan's result is memoized for
every cell the scan walked, keyed by (node id, first scanned cell).  A run
modality is decided by exhaustive placement of its operand tuple over the
window's cells, memoized per (operand, cell), with no greedy shortcut, which
keeps it an independent check of the engine's left-to-right placement.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .formulas import (
    And,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    FalseConst,
    Formula,
    Implies,
    Not,
    Or,
    Pnueli,
    Since,
    TrueConst,
    Until,
    children,
    metrics,
)
from .intervals import format_rational, rat
from .signals import (MAX_UNROLL, DomainError, Signal, TimeDomain, _lcm, check_unroll,
                      tick_unit, to_ticks)


class _Grid:
    """The session's candidate truth-change points, numbered, and the cells
    they cut the time domain into, all in ticks of the given unit.

    The point set {endpoint of some signal component, shifted by a whole
    number of units of magnitude at most the modal depth} is eventually
    periodic: past max(transient) + depth units it repeats with the lcm of
    the signal periods.  On the half line the origin bounds every signal, so
    it and its first depth - 1 unit translates join the set.  The prefix and
    one period of the tail are built once: grid point i is prefix[i] below
    the tail's start and a point of an unrolled tail copy from there on.
    Cell 2i is point i and cell 2i + 1 the open gap after it, so on the half
    line cell 0 is the origin, and on the full line the numbering runs on
    through the negative integers.
    """

    def __init__(self, signals: Sequence[Signal], domain: TimeDomain, depth: int, unit: int):
        self.half = domain is TimeDomain.HALF_LINE
        self.period = reduce(_lcm, (s.period for s in signals)) if signals else unit
        pad = depth * unit
        self.start = 0
        if self.half:
            self.start = max((s.transient for s in signals), default=0) + pad
        end = self.start + self.period
        reach = end + pad if self.half else self.period
        shifts = range(-pad, pad + 1, unit)
        ends = [e for s in signals for comp in s.slice(0, reach)
                for e in (comp.lower, comp.upper)]
        check_unroll(len(ends) * len(shifts), "the oracle's grid")
        if self.half:
            # the origin is a grid point even for a formula without modalities
            points = set(range(0, max(pad, unit), unit))
            points.update(e + k for e in ends for k in shifts if 0 <= e + k < end)
        else:
            # purely periodic: one period of endpoint translates, reduced mod period
            points = {(e + k) % self.period for e in ends for k in shifts}
        ordered = sorted(points)
        cut = bisect_left(ordered, self.start)
        self.prefix: List[int] = ordered[:cut]
        # offsets in [0, period); a tail without points gets one per period
        self.tail = [p - self.start for p in ordered[cut:]] or [0]

    def point(self, i: int) -> int:
        """Grid point i."""
        if self.half and i < len(self.prefix):
            return self.prefix[i]
        m, j = divmod(i - len(self.prefix), len(self.tail))
        return self.start + m * self.period + self.tail[j]

    def locate(self, t: int) -> int:
        """The cell that holds t."""
        if self.half and t < self.start:
            i = bisect_right(self.prefix, t) - 1
            return 2 * i + (self.prefix[i] != t)
        m, off = divmod(t - self.start, self.period)
        j = bisect_right(self.tail, off) - 1  # -1: the last point of the copy before
        i = len(self.prefix) + m * len(self.tail) + j
        return 2 * i + (j < 0 or self.tail[j] != off)

    def rep(self, c: int) -> int:
        """A time in cell c: its point, or the midpoint of its gap, a whole
        tick since grid points are even ticks."""
        i = c >> 1
        if c & 1:
            return (self.point(i) + self.point(i + 1)) // 2
        return self.point(i)

    def cells(self, a: int, b: int, closed_a: bool = False, closed_b: bool = False) -> range:
        """The cells that meet the window from a to b, each end open unless
        closed; empty unless a < b.  A cell's parity tells a point (even)
        from an open interval (odd)."""
        if a >= b:
            return range(0)
        lo, hi = self.locate(a), self.locate(b)
        return range(lo + (lo % 2 == 0 and not closed_a), hi + (hi % 2 == 1 or closed_b))


def _placeable(n: int, cells: Sequence[int], holds: Callable[[int, int], bool]) -> bool:
    """Whether operands 0..n-1 fit at strictly increasing times in the cells,
    operand j only where holds(j, cell): a point cell takes one operand, an
    open cell any consecutive run of them.

    The exhaustive search place(j, r), "operands j.. fit into cells r..",
    tries every placement: skip cell r, or put operand j there and go on to
    place(j + 1, r + 1) after a point or place(j + 1, r) inside an open cell.
    It is memoized on (j, r), the table filled from the last cell back, so
    the search takes O(n * len(cells)) steps and calls holds at most once per
    (operand, cell), only where the rest of the run fits.
    """
    fit = [False] * n + [True]  # place(j, r) for the cells scanned so far
    for c in reversed(cells):
        new = fit[:]
        after = fit if c % 2 == 0 else new  # a point holds one operand
        for j in range(n - 1, -1, -1):
            if not new[j] and after[j + 1] and holds(j, c):
                new[j] = True
        fit = new
        if fit[0]:
            return True
    return fit[0]


class PointwiseSession:
    """One formula, one environment, membership queries over one grid: the
    formula's atoms scaled once to ticks of one unit, the formula compiled
    once into a node table (children before parents), operand truth memoized
    per (node id, cell), and each cell's representative tick and unit
    windows cached for every node."""

    def __init__(self, formula: Formula, env) -> None:
        self.formula = formula
        self.env = env
        self._half = env.domain is TimeDomain.HALF_LINE
        depth, atoms = metrics(formula)
        public = {a: env.signal(a) for a in sorted(atoms)}
        self.unit = tick_unit(public.values())  # ticks per time unit
        self._atoms = {a: to_ticks(s, self.unit) for a, s in public.items()}
        self._grid = _Grid(list(self._atoms.values()), env.domain, depth, self.unit)
        self._ids: Dict[tuple, int] = {}
        self._kind: List[type] = []
        self._kids: List[Tuple[int, ...]] = []
        self._arg: list = []  # an atom's signal, else the witnesses a window needs
        self._period: List[int] = []  # of the node's truth (its tail, on the half line)
        self._tbound: List[int] = []  # past it the node's truth is periodic
        self._root = self._compile(formula)
        self._memo: Dict[Tuple[int, int], bool] = {}
        self._scans: Dict[Tuple[int, int], bool] = {}  # until/since by first scanned cell
        self._reps: Dict[int, int] = {}
        self._ahead: Dict[int, range] = {}  # cells of (t, t + unit), t the cell's rep
        self._behind: Dict[int, range] = {}  # cells of (t - unit, t), cut at the origin

    def _compile(self, f: Formula) -> int:
        """The node id of f, adding f and its subformulas to the table on
        first sight.  Nodes are keyed by type, child ids and payload, so no
        formula is ever hashed."""
        kind = type(f)
        kids = tuple(map(self._compile, children(f)))
        # n for C<n>, one for F1 and O1; an atom's name keys it, its signal is kept
        arg = f.name if kind is Atom else f.n if kind is Count else 1
        key = (kind, kids, arg)
        got = self._ids.get(key)
        if got is not None:
            return got
        if kids:
            period = reduce(_lcm, (self._period[k] for k in kids))
            tbound = max(self._tbound[k] for k in kids)
            if kind is DiamondPast:
                tbound += self.unit
            elif kind is Since:
                tbound += period
        elif kind is Atom:
            arg = self._atoms.get(f.name)
            if arg is None:
                raise ValueError(f"atom {f.name} is not in the session's formula")
            period, tbound = arg.period, arg.transient
        else:
            period, tbound = self.unit, 0
        got = self._ids[key] = len(self._kind)
        self._kind.append(kind)
        self._kids.append(kids)
        self._arg.append(arg)
        self._period.append(period)
        self._tbound.append(tbound)
        return got

    # -- evaluation ----------------------------------------------------------

    def eval(self, f: Formula, t: Fraction) -> bool:
        """Truth of f, the session's formula or a subformula of it, at t.
        The windows of f's own modalities are cut from t's tick; their
        operands are looked up per cell."""
        if self._half and t < 0:
            raise DomainError(f"{t} is outside the half line")
        return self._at(self._root if f is self.formula else self._compile(f), self._tick(t), None)

    def _tick(self, t: Fraction) -> int:
        """t in ticks or, off the tick lattice, the odd tick 2 floor(t Q / 2)
        + 1, in the same open gap between even ticks as t."""
        num, den = t.numerator * self.unit, t.denominator
        if num % den == 0:
            return num // den
        return 2 * (num // (2 * den)) + 1

    def _cell(self, i: int, c: int) -> bool:
        key = (i, c)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._at(i, None, c)
        return got

    def _window(self, t: int, back: bool) -> range:
        """The cells of the open unit window after t, or before it (cut at
        the origin on the half line)."""
        u = self.unit
        if not back:
            return self._grid.cells(t, t + u)
        if self._half and t < u:
            return self._grid.cells(0, t, closed_a=True)
        return self._grid.cells(t - u, t)

    def _at(self, i: int, t: Optional[int], cell: Optional[int]) -> bool:
        """Truth of node i at the tick t or, with t None, anywhere in the
        cell; there boolean operands share the cell's memo entries and a
        modality takes the cell's cached representative time and windows."""
        kind, kids = self._kind[i], self._kids[i]
        if kind is Not or kind is And or kind is Or or kind is Implies:
            if cell is None:
                def sub(k):
                    return self._at(k, t, None)
            else:
                def sub(k):
                    return self._cell(k, cell)
            if kind is Not:
                return not sub(kids[0])
            if kind is And:
                return sub(kids[0]) and sub(kids[1])
            if kind is Or:
                return sub(kids[0]) or sub(kids[1])
            return (not sub(kids[0])) or sub(kids[1])
        if kind is TrueConst:
            return True
        if kind is FalseConst:
            return False
        if cell is not None:
            t = self._reps.get(cell)
            if t is None:
                t = self._reps[cell] = self._grid.rep(cell)
        if kind is Atom:
            return self._arg[i].contains(t)
        if kind is Until or kind is Since:
            return self._order(i, t)
        back = kind is DiamondPast
        if cell is None:
            cells = self._window(t, back)
        else:
            cache = self._behind if back else self._ahead
            cells = cache.get(cell)
            if cells is None:
                cells = cache[cell] = self._window(t, back)
        if kind is Pnueli:
            return _placeable(len(kids), cells, lambda j, c: self._cell(kids[j], c))
        return self._count(kids[0], self._arg[i], cells)

    def _count(self, operand: int, need: int, cells: range) -> bool:
        """At least `need` witness points of the operand among the cells."""
        for c in cells:
            if self._cell(operand, c):
                if c & 1:
                    return True  # a whole interval of witnesses beats any n
                need -= 1
                if need <= 0:
                    return True
        return False

    def _order(self, i: int, t: int) -> bool:
        """Strict until or since at t, over the cells ordered away from t up
        to the node's horizon: a witness of the right operand with the left
        operand holding on every cell before it (and, inside an open cell,
        around it).  Each operand is looked up at most once per cell, the
        right one first.

        A scan decides as the scan from any later cell it walks through, so
        every walked cell takes the result of the cell where it stopped.  A
        scan that reaches its horizon saw the left operand hold without the
        right one for a full period past the node's transient bound (or back
        to the origin), which repeats forever: False for every walked cell."""
        left, right = self._kids[i]
        grid, period = self._grid, self._period[i]
        if self._kind[i] is Until:
            cells = grid.cells(t, max(t, self._tbound[i]) + period, closed_b=True)
        else:
            lo = 0 if self._half else t - period
            cells = reversed(grid.cells(lo, t, closed_a=True))
        walked, got = [], None
        for c in cells:
            got = self._scans.get((i, c))
            if got is None:
                walked.append(c)
                holds = self._cell(right, c)
                if holds and not c & 1:
                    got = True
                elif not self._cell(left, c):
                    got = False
                elif holds:
                    got = True
            if got is not None:
                break
        got = bool(got)  # None: the scan reached its horizon undecided
        for c in walked:
            self._scans[i, c] = got
        return got


def pointwise_eval(formula: Formula, env, t) -> bool:
    """One membership query through the oracle route."""
    return PointwiseSession(formula, env).eval(formula, rat(t))


def critical_points(signal: Signal) -> List[Fraction]:
    """Component endpoints of a two-period window of the signal, plus the
    window bounds themselves, sorted ascending."""
    span = signal.transient + 2 * signal.period
    lo = Fraction(0) if signal.domain is TimeDomain.HALF_LINE else -span
    pts = {lo, span}
    for comp in signal.slice(lo, span):
        for e in (comp.lower, comp.upper):
            pts.add(e)
    return sorted(pts)


def sample_points(signal: Signal, count: int = 50, seed: int = 0) -> List[Fraction]:
    """Exactly `count` deterministic query points, drawn in priority order:
    critical points of a two-period window first, then the midpoints between
    them, then seeded random small-denominator rationals."""
    if count <= 0:
        return []
    crit = critical_points(signal)
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    chosen: List[Fraction] = []
    seen = set()
    for t in crit + mids:
        if len(chosen) == count:
            break
        if t not in seen:
            seen.add(t)
            chosen.append(t)
    rng = random.Random(seed)
    lo, hi = crit[0], crit[-1]
    width = hi - lo
    denom = 24
    misses = 0
    while len(chosen) < count:
        q = rng.randint(2, denom)
        t = lo + Fraction(rng.randint(0, math.floor(q * width)), q)
        if t in seen:
            misses += 1
            if misses > 8:
                denom *= 4
                misses = 0
            continue
        seen.add(t)
        chosen.append(t)
    return sorted(chosen)


@dataclass(frozen=True)
class AgreementReport:
    lines: Tuple[str, ...]
    agreements: int
    total: int

    @property
    def passed(self) -> bool:
        return self.agreements == self.total

    def render(self) -> str:
        body = "".join(line + "\n" for line in self.lines)
        return body + f"agreement {self.agreements}/{self.total}\n"


def compare_pointwise(formula: Formula, env, engine_signal: Signal,
                      points: Sequence) -> AgreementReport:
    """Compare an engine-computed truth signal against oracle queries at the
    given points, one report line per point."""
    session = PointwiseSession(formula, env)
    lines = []
    agree = 0
    total = 0
    for raw in points:
        t = rat(raw)
        e = engine_signal.contains(t)
        o = session.eval(formula, t)
        agree += e == o
        total += 1
        lines.append(f"t={format_rational(t)} engine={int(e)} oracle={int(o)}")
    return AgreementReport(tuple(lines), agree, total)


def agreement_check(formula: Formula, env, samples: int = 50,
                    seed: int = 0) -> AgreementReport:
    """Run the engine once, then replay `samples` membership queries through
    the oracle route and report every comparison.

    The engine import sits here at the comparison boundary on purpose: the
    oracle route above never touches it, so the two answers stay independent.
    Fewer than one sample is refused: a verdict over no points is no pass.
    So is more than MAX_UNROLL, which would run for hours.
    """
    if samples < 1:
        raise ValueError(f"agreement needs at least one sample, not {samples}")
    if samples > MAX_UNROLL:
        raise ValueError(f"agreement takes at most {MAX_UNROLL} samples, not {samples}")
    from .semantics import evaluate

    engine_signal = evaluate(formula, env)
    points = sample_points(engine_signal, samples, seed)
    return compare_pointwise(formula, env, engine_signal, points)
