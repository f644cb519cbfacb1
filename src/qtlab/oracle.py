"""Differential oracle: pointwise evaluation over grid cells, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" from per-cell truth tables instead, so the two
routes share nothing but the exact set and slicing primitives and the signal
layer's tick scale.  Nothing in this module calls the engine: each harness
at the bottom compares a truth signal that its caller computed with the
engine.

Like the engine, a session scales its formula's atoms, at either scale,
once to integer ticks (``tick_unit`` and ``to_ticks`` from qtlab.signals),
so its grid, windows and bounds are ints and a time unit is Q ticks.  That
scaling is shared, so a fault in it would not show as a disagreement: its
own tests in test_signals pin it, at both scales.  A query's time t maps to
its tick t Q when that is whole, and otherwise to the odd tick
2 floor(t Q / 2) + 1: every grid point is an even tick, so that tick lies in
the same open gap as t, and so in t's grid cell.  The harness reads the
engine's signal alike, at that signal's own ``tick_unit``, where every
engine endpoint is an even tick whether or not the session's grid holds it:
that is what it checks.

The tables rest on the grid lemma.  Let E be the endpoints of the atoms'
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
  operand holds or the left one fails, a stop cell, decides, a point by the
  right operand and a gap by both: one backward (forward) sweep carries each
  stop cell's answer to the cells before (after) it;
- F1, O1, C<n> and Pn<k> place a run of operands of depth at most j - 1 at
  increasing times of the open unit window after (before) t.  A window end
  t + 1 or t - 1 at a point p of B_{j-1} puts t at p - 1 or p + 1, in B_j;
  t - 1 passes the origin at t = 1, in B_j unless j = 1 and the origin lies
  in the first gap of B_0, which the window then meets in infinitely many
  times on either side of 1.  So as t moves in its gap the window meets the
  same cells as under U, and the run fits exactly when it splits in order
  over them, one operand to a point and a consecutive run to a gap, each
  operand where it holds.  For C<n>, n copies of one operand, and F1, O1
  (n = 1), that is a gap or n points where it holds, by prefix counts.

So each node's truth is a table over the cells, filled children first in
one pass per node (``_fill``).  Cells are numbered, grid points even and
gaps odd, so every modal window is a range of cells.  A query reads the
entry of the cell that holds its tick, so every answer, the formula's own
as well as its operands', rests on the lemma.  Its precondition, the grid's
atoms and modal depth at most d, is checked per query: ``eval`` refuses a
deeper formula and ``_compile`` an atom the grid lacks.

Folding.  Past max(transients) + d the grid repeats with the lcm G of the
atoms' periods, 2 len(tail) cells a period.  On the full line translation
by G fixes the atoms and commutes with every operator: cell c folds to c
mod 2 len(tail).  On the half line a node's bound b is its atom's
transient, 0 for a constant, else its operands' largest bound T, plus 1 for
O1 and G for S.  Past b its truth repeats with G: a connective reads its
operands at t, U, F1, C<n> and Pn<k> after t, O1 in (t - 1, t).  And S, at
t >= T + q for a period q of its operands past T, walks back from t + q
over [t, t + q), the translate of [t - q, t), which the walk from t crosses
first: both stop there at translates, with one answer, or both go on alike
below t - q.  A table runs one period past its fold start, the first grid
point at or past b and the tail's start, and later cells fold into that
period.  (The node's own period need not divide G: a constant's is 1.)
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import and_, or_
from typing import Dict, List, NamedTuple, Sequence, Tuple

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
from .intervals import IntervalSet, rat
from .signals import DomainError, Signal, TimeDomain, _lcm, check_unroll, tick_unit, to_ticks


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


class PointwiseSession:
    """One formula, one environment, membership queries over one grid: the
    formula's atoms scaled once to ticks of one unit, the formula compiled
    once into a node table (children before parents), and each node's truth
    filled once, on first use, into its table of cells (module docstring)."""

    def __init__(self, formula: Formula, env) -> None:
        self.formula = formula
        self.depth, atoms = metrics(formula)
        bound = {a: env.signal(a) for a in sorted(atoms)}  # public or in ticks
        self.unit = tick_unit(bound.values())  # ticks per time unit
        self._atoms = {a: to_ticks(s, self.unit) for a, s in bound.items()}
        self._grid = _Grid(list(self._atoms.values()), env.domain, self.depth, self.unit)
        self._cycle = 2 * len(self._grid.tail)  # cells per grid period
        self._ids: Dict[tuple, int] = {}
        self._kind: List[type] = []
        self._kids: List[Tuple[int, ...]] = []
        self._arg: list = []  # an atom's signal, else n for C<n> and one for the rest
        self._bound: List[int] = []  # past it the node's truth repeats with the grid period
        self._root = self._compile(formula)
        self._memo: Dict[int, List[bool]] = {}  # node id -> its table
        self._wins: Dict[bool, Tuple[List[int], List[int]]] = {False: ([], []), True: ([], [])}

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
        bound = 0
        if kids:
            bound = max(self._bound[k] for k in kids)
            bound += self.unit if kind is DiamondPast else self._grid.period if kind is Since else 0
        elif kind is Atom:
            arg = self._atoms.get(f.name)
            if arg is None:
                raise ValueError(f"atom {f.name} is not in the session's formula")
            bound = arg.transient
        got = self._ids[key] = len(self._kind)
        self._kind.append(kind)
        self._kids.append(kids)
        self._arg.append(arg)
        self._bound.append(bound)
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
        c, table, cycle = self._grid.locate(_tick(t, self.unit)), self._table(i), self._cycle
        return table[c if 0 <= c < len(table) else len(table) - cycle + (c - len(table)) % cycle]

    def _table(self, i: int) -> List[bool]:
        if i not in self._memo:
            fold, grid = 0, self._grid
            if grid.half:  # the first grid point at or past the bound and the tail's start
                fold = grid.locate(max(grid.start, self._bound[i]))
                fold += fold & 1
            self._memo[i] = self._fill(i, fold + self._cycle)
        return self._memo[i]

    def _read(self, k: int, lo: int, hi: int) -> List[bool]:
        """Node k's truth on cells lo to hi - 1, each folded into its table."""
        table, p = self._table(k), self._cycle
        n = len(table)
        if 0 <= lo and hi <= n:
            return table[lo:hi]
        return [table[c] if 0 <= c < n else table[n - p + (c - n) % p] for c in range(lo, hi)]

    def _windows(self, back: bool, n: int) -> Tuple[List[int], List[int]]:
        """The first cells and ends of the unit windows after (before) cells 0 to
        n - 1, cut at the origin on the half line; once per session and direction."""
        grid, u = self._grid, self.unit
        if len(self._wins[back][0]) < n:
            # the grid points from a unit before cell 0 to a unit past cell n - 1
            first = 0 if grid.half else grid.locate(grid.point(0) - u) >> 1
            last = grid.locate(grid.point(n // 2) + u) >> 1
            pts = [grid.point(i) for i in range(first, last + 2)]
            reps = [x for a, b in zip(pts[-first:n // 2 - first], pts[1 - first:])
                    for x in (a, (a + b) // 2)]
            if back:  # from the point at t - u, or through the gap that holds it
                starts = [2 * (first + bisect_right(pts, t - u)) - 1 if t >= u or not grid.half
                          else 0 for t in reps]
                stops = [c + (c & 1) for c in range(n)]
            else:
                starts = [c | 1 for c in range(n)]
                stops = [2 * (first + bisect_left(pts, t + u)) for t in reps]
            self._wins[back] = starts, stops
        return tuple(ends[:n] for ends in self._wins[back])

    def _fill(self, i: int, n: int) -> List[bool]:
        """Node i's truth on cells 0 to n - 1, in one pass over its operands'
        tables: the sweeps of the module docstring."""
        kind, kids = self._kind[i], self._kids[i]
        if kind is TrueConst or kind is FalseConst:
            return [kind is TrueConst] * n
        if kind is Atom:  # each component's cell range: its endpoints are grid points
            grid, table = self._grid, [False] * n
            for comp in self._arg[i].slice(grid.point(0), grid.point(n // 2)):
                lo = grid.locate(comp.lower) + (not comp.lower_closed)
                hi = min(grid.locate(comp.upper) + comp.upper_closed, n)
                table[lo:hi] = [True] * (hi - lo)
            return table
        if kind is Not:
            return [not x for x in self._read(kids[0], 0, n)]
        if kind is And or kind is Or or kind is Implies:
            a, b = (self._read(k, 0, n) for k in kids)
            if kind is Implies:
                a = [not x for x in a]
            return list(map(and_ if kind is And else or_, a, b))
        if kind is Until or kind is Since:
            left, right = (self._read(k, 0, n) for k in kids)
            stop = [r or not x for x, r in zip(left, right)]
            answer = [r and (not c & 1 or x) for c, (x, r) in enumerate(zip(left, right))]
            # beyond the sweep: until's first stop cell in the last period, since's last one
            back = range(n - 1, -1, -1)
            wrap = range(n - self._cycle, n) if kind is Until else () if self._grid.half else back
            now = next((answer[c] for c in wrap if stop[c]), False)
            table = [False] * n
            for c in back if kind is Until else range(n):
                table[c] = answer[c] if c & 1 and stop[c] else now
                if stop[c]:
                    now = answer[c]
            return table
        starts, stops = self._windows(kind is DiamondPast, n)
        lo, hi = starts[0], stops[-1]
        ops = [self._read(k, lo, hi) for k in kids]
        if kind is not Pnueli:
            # an open cell fits any number of copies, a point one
            need = self._arg[i]
            counts = list(accumulate((h and (need if c & 1 else 1)
                                      for c, h in zip(range(lo, hi), ops[0])), initial=0))
            return [counts[b - lo] - counts[a - lo] >= need for a, b in zip(starts, stops)]
        lasts = []  # per operand, the last cell at or before each where it holds
        for op in ops:
            last = lo - 1
            lasts.append([(last := c if h else last) for c, h in zip(range(lo, hi), op)])

        # right to left: "operands j.. fit in the cells scanned so far" is a threshold m
        # in j, lowered only where operand m - 1 holds: by one at a point, on in a gap
        def fits(a: int, b: int) -> bool:
            m, c = len(ops), b - 1
            while m and c >= a:
                c = lasts[m - 1][c - lo]
                if c >= a:
                    m -= 1
                    while m and c & 1 and ops[m - 1][c - lo]:
                        m -= 1
                c -= 1
            return not m

        return list(map(fits, starts, stops))


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
        lines.append(f"t={t!s} engine={int(e)} oracle={int(o)}")
    if not lines:
        raise ValueError("agreement needs at least one point")
    return AgreementReport(tuple(lines), agree, len(lines))


def compare_cells(formula: Formula, env, engine_signal: Signal) -> AgreementReport:
    """Compare an engine-computed truth signal with the oracle's table on
    every grid cell to one grid period past the later of the root's fold
    start and the engine's transient, which need not be least.  One line per
    failure; one more item checks that the signal folds like the table: in
    the session's ticks, grid points for endpoints there, and the grid period
    for a period of its tail.  Then agreement there is agreement everywhere."""
    session = PointwiseSession(formula, env)
    grid, unit, root = session._grid, session.unit, session._root
    try:
        s = to_ticks(engine_signal, unit)
    except ValueError as e:
        return AgreementReport((f"engine signal off the session's ticks: {e}",), 0, 1)
    lines, constant = [], s.pattern in (IntervalSet.EMPTY, IntervalSet.span(0, s.period))
    if grid.period % s.period and not constant:
        lines.append(f"engine period {Fraction(s.period, unit)} does not divide "
                     f"the grid's, {Fraction(grid.period, unit)}")
    n = grid.locate(s.transient + grid.period)
    n = max(n + (n & 1), len(session._table(root)))
    lines += [f"engine endpoint {Fraction(e, unit)} is not a grid point"
              for comp in s.slice(grid.point(0), grid.point(n // 2))
              for e in (comp.lower, comp.upper) if grid.locate(e) & 1]
    agree = n + (not lines)
    for c, o in enumerate(session._read(root, 0, n)):
        if s.contains(grid.rep(c)) != o:
            agree -= 1
            lines.append(f"cell {c} t={Fraction(grid.rep(c), unit)} engine={int(not o)} "
                         f"oracle={int(o)}")
    return AgreementReport(tuple(lines), agree, n + 1)

