"""Differential oracle: memoized pointwise evaluation, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" by first-order scanning instead, so the two
routes share nothing but the exact set and slicing primitives and the signal
layer's tick scale.  The scanning route never calls the engine; only the
agreement harness at the bottom runs it once per check, as the comparison
target.

Like the engine, a session scales its formula's atoms once to integer ticks
(``tick_unit`` and ``to_ticks`` from qtlab.signals), so its grid, windows and
horizons are ints and a time unit is Q ticks.  Since that scaling is shared,
a fault in it would not show as a disagreement: its own tests in
test_signals pin it.  A query's public time t maps to its tick t Q when that
is whole, and otherwise to the odd tick 2 floor(t Q / 2) + 1: every grid
point is an even tick, so that tick lies in the same open gap as t, and so
in t's grid cell.  The harness reads the engine's signal alike, at that
signal's own ``tick_unit``, where every engine endpoint is an even tick
whether or not the session's grid holds it: that is what it checks.

The scans rest on the grid lemma.  Let E be the endpoints of the atoms'
components and B_j the times e + k, e in E and k an integer with |k| <= j,
and on the half line also 0, ..., j - 1.  The cells of B_j are its points
and the gaps of the domain between them (on the half line the first gap
holds the origin unless it is a point).  A session's grid is B_d, d its
formula's modal depth, and on the half line the origin (``_Grid``).

Lemma: a formula over the grid's atoms of modal depth at most j is constant
on every cell of B_j, so for j = d on every cell of the grid.  A point is
one time, so take t in a gap of B_j and induct on the formula:

- an atom changes truth only at its endpoints, in B_0; true, false never;
- a connective is pointwise in operands of depth at most j;
- U and S: the operands, of depth at most j - 1, are constant on the cells
  of B_{j-1}, a subset of B_j.  While t moves in its gap, its future (past)
  meets the same cells of B_{j-1} in the same order, a point in one time
  and a gap in infinitely many.  So the first of them where the right
  operand holds or the left one fails decides, a point by the right operand
  and a gap by both: the guarded walk of ``_order``;
- F1, O1, C<n> and Pn<k> place a run of operands of depth at most j - 1 at
  increasing times of the open unit window after (before) t.  A window end
  t + 1 or t - 1 at a point p of B_{j-1} puts t at p - 1 or p + 1, in B_j;
  t - 1 passes the origin at t = 1, in B_j unless j = 1 and the origin lies
  in the first gap of B_0, which the window then meets in infinitely many
  times on either side of 1.  So as t moves in its gap the window meets the
  same cells as under U, and the run fits exactly when it splits in order
  over them, one operand to a point and a consecutive run to a gap, each
  operand where it holds: what ``_placeable`` decides.

Cells are numbered, grid points even and gaps odd, so every modal window is
a range of cells.  A query is the answer of the cell that holds its tick, so
every answer, the formula's own as well as its operands', rests on the
lemma.  Its precondition, the grid's atoms and modal depth at most d, is
checked per query: ``PointwiseSession.eval`` refuses a deeper formula and
``_compile`` an atom the grid lacks.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    Since,
    TrueConst,
    Until,
    children,
    metrics,
)
from .intervals import format_rational, rat
from .signals import (MAX_UNROLL, DomainError, Signal, TimeDomain, _lcm, check_unroll,
                      tick_unit, to_ticks)


def _tick(t: Fraction, unit: int) -> int:
    """t in ticks of the unit or, off the tick lattice, the odd tick
    2 floor(t unit / 2) + 1, in the same open gap between even ticks as t."""
    num, den = t.numerator * unit, t.denominator
    if num % den == 0:
        return num // den
    return 2 * (num // (2 * den)) + 1


class _Grid:
    """The grid of the module docstring, B_d and on the half line the origin,
    numbered, and the cells it cuts the domain into, in ticks of the unit.

    Past max(transient) + d units B_d repeats with the lcm of the signal
    periods, so the prefix and one period of the tail are built once: grid
    point i is prefix[i] below the tail's start and a point of an unrolled
    tail copy from there on.  Cell 2i is point i and cell 2i + 1 the gap
    after it, so on the half line cell 0 is the origin, and on the full line
    the numbering runs on through the negative integers.
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

    def span(self, lo: int, hi: int, closed_a: bool = False, closed_b: bool = False) -> range:
        """The cells of a nonempty window that starts in cell lo and ends in
        cell hi: an end cell that is a point is dropped unless closed."""
        return range(lo + (lo % 2 == 0 and not closed_a), hi + (hi % 2 == 1 or closed_b))


class PointwiseSession:
    """One formula, one environment, membership queries over one grid: the
    formula's atoms scaled once to ticks of one unit, the formula compiled
    once into a node table (children before parents), and every node's
    truth memoized per (node id, cell)."""

    def __init__(self, formula: Formula, env) -> None:
        self.formula = formula
        self.depth, atoms = metrics(formula)
        public = {a: env.signal(a) for a in sorted(atoms)}
        self.unit = tick_unit(public.values())  # ticks per time unit
        self._atoms = {a: to_ticks(s, self.unit) for a, s in public.items()}
        self._grid = _Grid(list(self._atoms.values()), env.domain, self.depth, self.unit)
        self._ids: Dict[tuple, int] = {}
        self._kind: List[type] = []
        self._kids: List[Tuple[int, ...]] = []
        self._arg: list = []  # an atom's signal, else the copies of a window's run
        self._period: List[int] = []  # of the node's truth (its tail, on the half line)
        self._tbound: List[int] = []  # past it the node's truth is periodic
        self._root = self._compile(formula)
        self._memo: Dict[Tuple[int, int], bool] = {}
        # per step, (node id, guard id or None, cell) -> where a walk through
        # the cell stopped
        self._skip: Dict[int, Dict[Tuple[int, Optional[int], int], int]] = {1: {}, -1: {}}

    def _compile(self, f: Formula) -> int:
        """The node id of f, adding f and each subformula of it to the table
        on first sight.  Nodes are keyed by type, child ids and payload, so no
        formula is ever hashed."""
        kind = type(f)
        kids = tuple(map(self._compile, children(f)))
        # n for C<n>, one for F1, O1 and Pn<k>; an atom's name keys it, its signal is kept
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
        """Truth of f at t, the answer of the grid cell that holds t; f is the
        session's formula or one the grid lemma covers (module docstring)."""
        t = rat(t)
        if self._grid.half and t < 0:
            raise DomainError(f"{t} is outside the half line")
        if f is not self.formula and (d := metrics(f)[0]) > self.depth:
            raise ValueError(f"modal depth {d} is past the session's grid, of depth {self.depth}")
        i = self._root if f is self.formula else self._compile(f)
        return self._cell(i, self._grid.locate(_tick(t, self.unit)))

    def _cell(self, i: int, c: int) -> bool:
        key = (i, c)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._at(i, c)
        return got

    def _window(self, c: int, t: int, back: bool) -> range:
        """The cells of the open unit window after t, in cell c, or before it
        (cut at the origin, cell 0, on the half line)."""
        grid, u = self._grid, self.unit
        if not back:
            return grid.span(c, grid.locate(t + u))
        if grid.half and t < u:
            return grid.span(0, c, closed_a=True)
        return grid.span(grid.locate(t - u), c)

    def _at(self, i: int, c: int) -> bool:
        """Truth of node i anywhere in cell c: a boolean node from its
        operands' entries for c, any other at the cell's representative tick."""
        kind, kids = self._kind[i], self._kids[i]
        if kind is Not:
            return not self._cell(kids[0], c)
        if kind is And:
            return self._cell(kids[0], c) and self._cell(kids[1], c)
        if kind is Or:
            return self._cell(kids[0], c) or self._cell(kids[1], c)
        if kind is Implies:
            return not self._cell(kids[0], c) or self._cell(kids[1], c)
        if kind is TrueConst:
            return True
        if kind is FalseConst:
            return False
        t = self._grid.rep(c)
        if kind is Atom:
            return self._arg[i].contains(t)
        if kind is Until or kind is Since:
            return self._order(i, c, t)
        cells = self._window(c, t, kind is DiamondPast)
        # past the window's cell count, more copies of C<n>'s operand fit
        # only in an open cell, where any number do
        return self._placeable(kids * min(self._arg[i], len(cells) + 1), cells)

    def _first(self, k: int, c: int, end: int, step: int, guard: Optional[int] = None) -> int:
        """The first cell from c toward end (exclusive), by step, where node
        k holds or, given a guard, node guard fails; end if there is none.
        Every cell the walk passes keeps a pointer, per step and keyed by
        (k, guard), to where the walk stopped: a witness or a cell not yet
        examined.  A later walk jumps along it, compressing the path."""
        skip, passed = self._skip[step], []
        while (end - c) * step > 0:
            nxt = skip.get((k, guard, c))
            if nxt is None:
                if self._cell(k, c) or (guard is not None and not self._cell(guard, c)):
                    break
                nxt = c + step
            passed.append(c)
            c = nxt
        for x in passed:
            skip[k, guard, x] = c
        return c if (end - c) * step > 0 else end

    def _placeable(self, kids: Tuple[int, ...], cells: range) -> bool:
        """Whether the operands fit at strictly increasing times in the
        cells, operand j only where it holds: a point cell takes one operand,
        an open cell any consecutive run of them.

        The placement is decided right to left, independent of the engine's
        left to right placement: "operands j.. fit into the cells scanned so
        far" is monotone in j, so it is a threshold m, which starts at the
        operand count and is decided at 0.  A cell can lower m only where
        operand m - 1 holds: by one at a point, and inside an open cell on
        through m - 2, m - 3, ... while each of those holds there.
        So every other cell is a no-op, and the backward pointers on operand
        m - 1 jump straight to the next cell that moves m."""
        m, c, end = len(kids), cells.stop - 1, cells.start - 1
        while m:
            c = self._first(kids[m - 1], c, end, -1)
            if c == end:
                return False
            m -= 1
            while c & 1 and m and self._cell(kids[m - 1], c):
                m -= 1
            c -= 1
        return True

    def _order(self, i: int, c: int, t: int) -> bool:
        """Strict until or since at t, in cell c, over the cells ordered away
        from t up to the node's horizon: a witness of the right operand with
        the left operand holding on every cell before it (and, inside an open
        cell, around it).

        One guarded walk finds the first cell where the right operand holds
        or the left one fails, and that cell decides.  A walk that reaches
        its horizon saw the left operand hold without the right one for a
        full period past the node's transient bound (or back to the origin),
        which repeats forever: False."""
        left, right = self._kids[i]
        grid, period = self._grid, self._period[i]
        if self._kind[i] is Until:
            cells = grid.span(c, grid.locate(max(t, self._tbound[i]) + period), closed_b=True)
            c, end, step = cells.start, cells.stop, 1
        else:
            lo = 0 if grid.half else grid.locate(t - period)
            cells = grid.span(lo, c, closed_a=True)
            c, end, step = cells.stop - 1, cells.start - 1, -1
        c = self._first(right, c, end, step, left)
        # the walk has just looked the right operand up at the cell it stopped in
        return c != end and self._memo[right, c] and (not c & 1 or self._cell(left, c))


def _critical_ticks(signal: Signal) -> Tuple[List[int], int]:
    """The critical points in even ticks of the signal's own tick_unit, and that unit."""
    unit = tick_unit([signal])
    s = to_ticks(signal, unit)
    span = s.transient + 2 * s.period
    lo = 0 if s.domain is TimeDomain.HALF_LINE else -span
    pts = {lo, span}
    pts.update(e for comp in s.slice(lo, span) for e in (comp.lower, comp.upper))
    return sorted(pts), unit


def critical_points(signal: Signal) -> List[Fraction]:
    """Component endpoints of a two-period window of the signal, plus the
    window bounds themselves, sorted ascending."""
    crit, unit = _critical_ticks(signal)
    return [Fraction(x, unit) for x in crit]


def sample_points(signal: Signal, count: int = 50, seed: int = 0) -> List[Fraction]:
    """Exactly `count` deterministic query points, drawn in priority order:
    critical points of a two-period window first, then the midpoints between
    them, then seeded random small-denominator rationals.  The critical
    points are distinct even ticks, so their midpoints are whole ticks;
    every point is kept as a reduced (numerator, denominator) pair, sorted
    on the exact integer key of a common denominator, made a Fraction on return."""
    if count <= 0:
        return []
    def reduced(num: int, den: int) -> Tuple[int, int]:
        g = math.gcd(num, den)
        return num // g, den // g
    crit, unit = _critical_ticks(signal)
    mids = [(a + b) // 2 for a, b in zip(crit, crit[1:])]
    chosen = [reduced(x, unit) for x in (crit + mids)[:count]]
    seen = set(chosen)
    rng = random.Random(seed)
    lo, width = crit[0], crit[-1] - crit[0]
    denom, misses = 24, 0
    while len(chosen) < count:
        q = rng.randint(2, denom)
        k = rng.randint(0, q * width // unit)
        t = reduced(lo * q + k * unit, unit * q)  # lo + k/q time units
        if t in seen:
            misses += 1
            if misses > 8:
                denom *= 4
                misses = 0
            continue
        seen.add(t)
        chosen.append(t)
    scale = math.lcm(*(den for _, den in chosen))
    chosen.sort(key=lambda t: t[0] * (scale // t[1]))
    return [Fraction(num, den) for num, den in chosen]


class AgreementReport(NamedTuple):
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
    given points, one report line per point.  The engine signal is read in
    ticks of its own tick_unit: the oracle's grid may not hold its endpoints.
    No points are refused: a verdict over no points is no pass."""
    session = PointwiseSession(formula, env)
    unit = tick_unit([engine_signal])
    ticks = to_ticks(engine_signal, unit)
    lines, agree = [], 0
    for raw in points:
        t = rat(raw)
        o = session.eval(formula, t)  # first, so a time before the origin raises as t
        e = ticks.contains(_tick(t, unit))
        agree += e == o
        lines.append(f"t={format_rational(t)} engine={int(e)} oracle={int(o)}")
    if not lines:
        raise ValueError("agreement needs at least one point")
    return AgreementReport(tuple(lines), agree, len(lines))


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
