"""Differential oracle: memoized pointwise evaluation, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" by first-order scanning instead, so the two
routes share nothing but the exact set and slicing primitives.  The scanning
route never calls the engine; only the agreement harness at the bottom runs
it once per check, as the comparison target.

The scans rest on one structural fact, checked empirically by the agreement
harness rather than assumed silently by both sides: truth values of every
subformula are constant on the cells of one grid, cut by atom component
endpoints (and, on the half line, the origin) shifted by at most one integer
per level of modal nesting.  Cells are numbered, grid points even and the
open gaps between them odd, so every modal window is a range of cells, and
the session memoizes each operand's truth by (subformula, cell), evaluating
it at the cell's point or gap midpoint on a miss.  A query's own windows are
cut from its exact time.  A run modality is decided by exhaustive placement
of its operand tuple over the window's cells, memoized per (operand, cell),
with no greedy shortcut, which keeps it an independent check of the engine's
left-to-right placement.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .signals import DomainError, Signal, TimeDomain, _lcm, check_unroll


class _Grid:
    """The session's candidate truth-change points, numbered, and the cells
    they cut the time domain into.

    The point set {endpoint of some signal component, shifted by an integer
    of magnitude at most the modal depth} is eventually periodic: past
    max(transient) + depth it repeats with the lcm of the signal periods.
    On the half line the origin bounds every signal, so it and its first
    depth - 1 integer translates join the set.  The prefix and one period of
    the tail are built once: grid point i is prefix[i] below the tail's
    start and a point of an unrolled tail copy from there on.  Cell 2i is
    point i and cell 2i + 1 the open gap after it, so on the half line cell 0
    is the origin, and on the full line the numbering runs on through the
    negative integers.
    """

    def __init__(self, signals: Sequence[Signal], domain: TimeDomain, pad: int):
        self.half = domain is TimeDomain.HALF_LINE
        self.period = reduce(_lcm, (s.period for s in signals)) if signals else Fraction(1)
        self.start = Fraction(0)
        if self.half:
            self.start = max((s.transient for s in signals), default=Fraction(0)) + pad
        end = self.start + self.period
        reach = end + pad if self.half else self.period
        shifts = range(-pad, pad + 1)
        ends = [e for s in signals for comp in s.slice(Fraction(0), reach)
                for e in (comp.lower, comp.upper)]
        check_unroll(len(ends) * len(shifts), "the oracle's grid")
        if self.half:
            # the origin is a grid point even for a formula without modalities
            points = {Fraction(k) for k in range(max(pad, 1))}
            points.update(e + k for e in ends for k in shifts if 0 <= e + k < end)
        else:
            # purely periodic: one period of endpoint translates, reduced mod period
            points = {(e + k) % self.period for e in ends for k in shifts}
        ordered = sorted(points)
        cut = bisect_left(ordered, self.start)
        self.prefix: List[Fraction] = ordered[:cut]
        # offsets in [0, period); a tail without points gets one per period
        self.tail = [p - self.start for p in ordered[cut:]] or [Fraction(0)]

    def point(self, i: int) -> Fraction:
        """Grid point i."""
        if self.half and i < len(self.prefix):
            return self.prefix[i]
        m, j = divmod(i - len(self.prefix), len(self.tail))
        return self.start + m * self.period + self.tail[j]

    def locate(self, t: Fraction) -> int:
        """The cell that holds t."""
        if self.half and t < self.start:
            i = bisect_right(self.prefix, t) - 1
            return 2 * i + (self.prefix[i] != t)
        m, off = divmod(t - self.start, self.period)
        j = bisect_right(self.tail, off) - 1  # -1: the last point of the copy before
        i = len(self.prefix) + m * len(self.tail) + j
        return 2 * i + (j < 0 or self.tail[j] != off)

    def rep(self, c: int) -> Fraction:
        """A time in cell c: its point, or the midpoint of its gap."""
        i = c >> 1
        if c & 1:
            return (self.point(i) + self.point(i + 1)) / 2
        return self.point(i)

    def cells(self, a: Fraction, b: Fraction,
              closed_a: bool = False, closed_b: bool = False) -> range:
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
    """One formula, one environment, membership queries over one grid, with
    operand truth memoized per (subformula, cell)."""

    def __init__(self, formula: Formula, env) -> None:
        self.formula = formula
        self.env = env
        self._half = env.domain is TimeDomain.HALF_LINE
        depth, atoms = metrics(formula)
        self._grid = _Grid([env.signal(a) for a in sorted(atoms)], env.domain, depth)
        self._memo: Dict[Tuple[Formula, int], bool] = {}
        self._tbound: Dict[Formula, Fraction] = {}
        self._per: Dict[Formula, Fraction] = {}

    # -- structural bounds ---------------------------------------------------

    def _period(self, f: Formula) -> Fraction:
        """A period of the subformula's truth (of its tail, on the half line)."""
        got = self._per.get(f)
        if got is None:
            kids = children(f)
            if kids:
                got = reduce(_lcm, map(self._period, kids))
            elif isinstance(f, Atom):
                got = self.env.signal(f.name).period
            else:
                got = Fraction(1)
            self._per[f] = got
        return got

    def _transient_bound(self, f: Formula) -> Fraction:
        """Past this time the subformula's truth is periodic (half line)."""
        got = self._tbound.get(f)
        if got is None:
            kids = children(f)
            if kids:
                got = max(map(self._transient_bound, kids))
                if isinstance(f, DiamondPast):
                    got += 1
                elif isinstance(f, Since):
                    got += self._period(f)
            elif isinstance(f, Atom):
                got = self.env.signal(f.name).transient
            else:
                got = Fraction(0)
            self._tbound[f] = got
        return got

    # -- evaluation ----------------------------------------------------------

    def eval(self, f: Formula, t: Fraction) -> bool:
        """Truth of f at t.  The windows of f's own modalities are cut from
        the exact t; their operands are looked up per cell."""
        if self._half and t < 0:
            raise DomainError(f"{t} is outside the half line")
        return self._at(f, t, None)

    def _cell(self, f: Formula, c: int) -> bool:
        key = (f, c)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._at(f, None, c)
        return got

    def _at(self, f: Formula, t: Optional[Fraction], cell: Optional[int]) -> bool:
        """Truth of f at the time t or, with t None, anywhere in the cell;
        there boolean operands share the cell's memo entries and a modality
        cuts its windows from the cell's representative time."""
        if isinstance(f, (Not, And, Or, Implies)):
            if cell is None:
                def sub(g):
                    return self._at(g, t, None)
            else:
                def sub(g):
                    return self._cell(g, cell)
            if isinstance(f, Not):
                return not sub(f.operand)
            if isinstance(f, And):
                return sub(f.left) and sub(f.right)
            if isinstance(f, Or):
                return sub(f.left) or sub(f.right)
            return (not sub(f.left)) or sub(f.right)
        if isinstance(f, TrueConst):
            return True
        if isinstance(f, FalseConst):
            return False
        grid = self._grid
        if t is None:
            t = grid.rep(cell)
        if isinstance(f, Atom):
            return self.env.signal(f.name).contains(t)
        if isinstance(f, DiamondFuture):
            return self._count(f.operand, 1, grid.cells(t, t + 1))
        if isinstance(f, DiamondPast):
            if self._half and t < 1:
                return self._count(f.operand, 1, grid.cells(Fraction(0), t, closed_a=True))
            return self._count(f.operand, 1, grid.cells(t - 1, t))
        if isinstance(f, Count):
            return self._count(f.operand, f.n, grid.cells(t, t + 1))
        if isinstance(f, Pnueli):
            args = f.args
            return _placeable(len(args), grid.cells(t, t + 1),
                              lambda j, c: self._cell(args[j], c))
        if isinstance(f, Until):
            horizon = max(t, self._transient_bound(f)) + self._period(f)
            return self._order(f, grid.cells(t, horizon, closed_b=True))
        if isinstance(f, Since):
            lo = Fraction(0) if self._half else t - self._period(f)
            return self._order(f, reversed(grid.cells(lo, t, closed_a=True)))
        raise TypeError(f"not a formula: {f!r}")

    def _count(self, operand: Formula, need: int, cells: range) -> bool:
        """At least `need` witness points of the operand among the cells."""
        for c in cells:
            if self._cell(operand, c):
                if c & 1:
                    return True  # a whole interval of witnesses beats any n
                need -= 1
                if need <= 0:
                    return True
        return False

    def _order(self, f: Formula, cells: Iterable[int]) -> bool:
        """Strict until or since over cells ordered away from t: a witness of
        the right operand with the left operand holding on every cell before
        it (and, inside an open cell, around it).  Each operand is looked up
        at most once per cell, the right one first."""
        for c in cells:
            right = self._cell(f.right, c)
            if right and not c & 1:
                return True
            if not self._cell(f.left, c):
                return False
            if right:
                return True
        return False


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
    """
    from .semantics import evaluate

    engine_signal = evaluate(formula, env)
    points = sample_points(engine_signal, samples, seed)
    return compare_pointwise(formula, env, engine_signal, points)
