"""Differential oracle: memoized pointwise evaluation, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" by first-order scanning instead, so the two
routes share nothing but the exact set and slicing primitives.  The scanning route never calls
the engine; only the agreement harness at the bottom runs it once per
check, as the comparison target.

The scans rest on one structural fact, checked empirically by the agreement
harness rather than assumed silently by both sides: truth values of every
subformula are constant on the elementary regions cut by operand component
endpoints, shifted by at most one integer per level of modal nesting.  A run
modality is decided by exhaustive placement of its operand tuple over those
regions, with no greedy shortcut, which keeps it an independent check of the
engine's left-to-right placement.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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
    metrics,
)
from .intervals import Interval, IntervalError, format_rational
from .signals import Signal, TimeDomain, _lcm


@dataclass(frozen=True)
class TaggedRegion:
    """One region of a joint refinement plus each signal's constant value on it."""

    interval: Interval
    values: Tuple[bool, ...]


@dataclass(frozen=True)
class RegionDecomposition:
    window: Interval
    regions: Tuple[TaggedRegion, ...]


def region_decomposition(signals: Sequence[Signal], a, b) -> RegionDecomposition:
    """Cut the closed window [a, b] into points and open intervals on which
    every given signal is constant, tagging each region with the signals'
    truth values there.

    Cuts are the component endpoints of the signals strictly inside the
    window.  Requires a < b and a window inside the signals' shared domain.
    """
    lo, hi = Fraction(a), Fraction(b)
    if lo >= hi:
        raise IntervalError("region decomposition needs a nonempty window")
    cuts = sorted({e
                   for s in signals
                   for comp in s.slice(lo, hi)
                   for e in (comp.lower, comp.upper)
                   if lo < e < hi})
    pieces: List[Interval] = [Interval.point(lo)]
    prev = lo
    for c in cuts:
        pieces.append(Interval(prev, c, False, False))
        pieces.append(Interval.point(c))
        prev = c
    pieces.append(Interval(prev, hi, False, False))
    pieces.append(Interval.point(hi))
    regions = []
    for piece in pieces:
        rep = piece.lower if piece.is_point else (piece.lower + piece.upper) / 2
        regions.append(TaggedRegion(piece, tuple(s.contains(rep) for s in signals)))
    return RegionDecomposition(Interval(lo, hi, True, True), tuple(regions))


# region encoding used inside the session: ("point", q) or ("open", a, b)
_Region = Tuple


class _Grid:
    """The session's candidate truth-change points, queried by window.

    The point set {endpoint of some signal component, shifted by an integer
    of magnitude at most the modal depth} is eventually periodic: past
    max(transient) + depth it repeats with the lcm of the signal periods.
    Build the prefix and one period of the tail once, then answer window
    queries by bisect plus periodic unrolling instead of re-slicing the
    signals for every query.
    """

    def __init__(self, signals: Sequence[Signal], pad: int):
        self.start = Fraction(0)
        self.period = Fraction(1)
        self.prefix: List[Fraction] = []
        self.tail: List[Fraction] = []
        self.half = False
        if not signals:
            return
        period = Fraction(1)
        for s in signals:
            period = _lcm(period, s.period)
        self.period = period
        self.half = signals[0].domain is TimeDomain.HALF_LINE
        points = set()
        if not self.half:
            # purely periodic: one period of endpoint translates, reduced mod period
            for s in signals:
                for comp in s.slice(Fraction(0), period):
                    for e in (comp.lower, comp.upper):
                        for k in range(-pad, pad + 1):
                            points.add((e + k) % period)
            self.tail = sorted(points)
            return
        start = max(s.transient for s in signals) + pad
        self.start = start
        for s in signals:
            for comp in s.slice(Fraction(0), start + period + pad):
                for e in (comp.lower, comp.upper):
                    for k in range(-pad, pad + 1):
                        c = e + k
                        if 0 <= c < start + period:
                            points.add(c)
        ordered = sorted(points)
        cut = bisect_left(ordered, start)
        self.prefix = ordered[:cut]
        self.tail = [p - start for p in ordered[cut:]]  # offsets in [0, period)

    def query(self, a: Fraction, b: Fraction) -> List[Fraction]:
        """Grid points strictly inside (a, b), sorted ascending."""
        out = self.prefix[bisect_right(self.prefix, a):bisect_left(self.prefix, b)]
        if not self.tail:
            return out
        m_lo = math.floor((a - self.start) / self.period)
        if self.half:
            m_lo = max(0, m_lo)
        m_hi = math.floor((b - self.start) / self.period)
        for m in range(m_lo, m_hi + 1):
            base = self.start + m * self.period
            for off in self.tail:
                c = base + off
                if a < c < b:
                    out.append(c)
        return out


class PointwiseSession:
    """One formula, one environment, memoized membership queries."""

    def __init__(self, formula: Formula, env) -> None:
        self.formula = formula
        self.env = env
        self._sigs = list(env.bindings.values())
        depth, _ = metrics(formula)
        self._pad = depth
        self._gridobj = _Grid(self._sigs, depth)
        self._memo: Dict[Tuple[Formula, Fraction], bool] = {}
        self._tbound: Dict[Formula, Fraction] = {}
        self._per: Dict[Formula, Fraction] = {}

    # -- structural bounds ---------------------------------------------------

    def _period(self, f: Formula) -> Fraction:
        got = self._per.get(f)
        if got is not None:
            return got
        if isinstance(f, Atom):
            p = self.env.signal(f.name).period
        elif isinstance(f, (TrueConst, FalseConst)):
            p = Fraction(1)
        elif isinstance(f, (Not, DiamondFuture, DiamondPast, Count)):
            p = self._period(f.operand)
        elif isinstance(f, (And, Or, Implies, Until, Since)):
            p = _lcm(self._period(f.left), self._period(f.right))
        elif isinstance(f, Pnueli):
            p = Fraction(1)
            for a in f.args:
                p = _lcm(p, self._period(a))
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._per[f] = p
        return p

    def _transient_bound(self, f: Formula) -> Fraction:
        """Past this time the subformula's truth is periodic (half line)."""
        got = self._tbound.get(f)
        if got is not None:
            return got
        if isinstance(f, Atom):
            t = self.env.signal(f.name).transient
        elif isinstance(f, (TrueConst, FalseConst)):
            t = Fraction(0)
        elif isinstance(f, Not):
            t = self._transient_bound(f.operand)
        elif isinstance(f, (And, Or, Implies)):
            t = max(self._transient_bound(f.left), self._transient_bound(f.right))
        elif isinstance(f, (DiamondFuture, Count)):
            t = self._transient_bound(f.operand)
        elif isinstance(f, DiamondPast):
            t = self._transient_bound(f.operand) + 1
        elif isinstance(f, Until):
            t = max(self._transient_bound(f.left), self._transient_bound(f.right))
        elif isinstance(f, Since):
            t = max(self._transient_bound(f.left),
                    self._transient_bound(f.right)) + self._period(f)
        elif isinstance(f, Pnueli):
            t = max(self._transient_bound(a) for a in f.args)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._tbound[f] = t
        return t

    # -- region machinery ----------------------------------------------------

    def _grid(self, a: Fraction, b: Fraction) -> List[Fraction]:
        """Candidate truth-change points strictly inside (a, b): atom
        component endpoints, shifted by every integer up to the modal depth."""
        return self._gridobj.query(a, b)

    def _regions(self, a: Fraction, b: Fraction,
                 include_a: bool, include_b: bool) -> List[_Region]:
        out: List[_Region] = []
        if include_a:
            out.append(("point", a))
        if b > a:
            prev = a
            for c in self._grid(a, b):
                out.append(("open", prev, c))
                out.append(("point", c))
                prev = c
            out.append(("open", prev, b))
        if include_b and b > a:
            out.append(("point", b))
        return out

    @staticmethod
    def _rep(region: _Region) -> Fraction:
        if region[0] == "point":
            return region[1]
        return (region[1] + region[2]) / 2

    # -- evaluation ----------------------------------------------------------

    def eval(self, f: Formula, t: Fraction) -> bool:
        key = (f, t)
        got = self._memo.get(key)
        if got is not None:
            return got
        val = self._eval(f, t)
        self._memo[key] = val
        return val

    def _eval(self, f: Formula, t: Fraction) -> bool:
        if isinstance(f, TrueConst):
            return True
        if isinstance(f, FalseConst):
            return False
        if isinstance(f, Atom):
            return self.env.signal(f.name).contains(t)
        if isinstance(f, Not):
            return not self.eval(f.operand, t)
        if isinstance(f, And):
            return self.eval(f.left, t) and self.eval(f.right, t)
        if isinstance(f, Or):
            return self.eval(f.left, t) or self.eval(f.right, t)
        if isinstance(f, Implies):
            return (not self.eval(f.left, t)) or self.eval(f.right, t)
        if isinstance(f, DiamondFuture):
            return any(self.eval(f.operand, self._rep(r))
                       for r in self._regions(t, t + 1, False, False))
        if isinstance(f, DiamondPast):
            return self._diamond_past(f, t)
        if isinstance(f, Count):
            return self._count(f, t)
        if isinstance(f, Pnueli):
            return self._pnueli(f, t)
        if isinstance(f, Until):
            return self._until(f, t)
        if isinstance(f, Since):
            return self._since(f, t)
        raise TypeError(f"not a formula: {f!r}")

    def _diamond_past(self, f: DiamondPast, t: Fraction) -> bool:
        if self.env.domain is TimeDomain.HALF_LINE:
            if t <= 0:
                return False
            if t - 1 < 0:
                regions = self._regions(Fraction(0), t, True, False)
            else:
                regions = self._regions(t - 1, t, False, False)
        else:
            regions = self._regions(t - 1, t, False, False)
        return any(self.eval(f.operand, self._rep(r)) for r in regions)

    def _count(self, f: Count, t: Fraction) -> bool:
        need = f.n
        for r in self._regions(t, t + 1, False, False):
            if self.eval(f.operand, self._rep(r)):
                if r[0] == "open":
                    return True  # a whole interval of witnesses beats any n
                need -= 1
                if need <= 0:
                    return True
        return False

    def _pnueli(self, f: Pnueli, t: Fraction) -> bool:
        args = f.args
        n = len(args)
        regions = self._regions(t, t + 1, False, False)

        def place(j: int, r: int) -> bool:
            if j == n:
                return True
            if r == len(regions):
                return False
            if place(j, r + 1):
                return True
            reg = regions[r]
            if reg[0] == "point":
                return self.eval(args[j], reg[1]) and place(j + 1, r + 1)
            mid = self._rep(reg)
            jj = j
            while jj < n and self.eval(args[jj], mid):
                jj += 1
                if place(jj, r + 1):
                    return True
            return False

        return place(0, 0)

    def _until(self, f: Until, t: Fraction) -> bool:
        tb = max(self._transient_bound(f.left), self._transient_bound(f.right))
        horizon = max(t, tb) + self._period(f)
        for reg in self._regions(t, horizon, False, True):
            rep = self._rep(reg)
            if reg[0] == "point":
                if self.eval(f.right, rep):
                    return True
                if not self.eval(f.left, rep):
                    return False
            else:
                right = self.eval(f.right, rep)
                left = self.eval(f.left, rep)
                if right and left:
                    return True
                if not left:
                    return False
        return False  # one full tail period scanned without witness

    def _since(self, f: Since, t: Fraction) -> bool:
        if self.env.domain is TimeDomain.HALF_LINE:
            if t <= 0:
                return False
            regions = self._regions(Fraction(0), t, True, False)
        else:
            regions = self._regions(t - self._period(f), t, True, False)
        for reg in reversed(regions):
            rep = self._rep(reg)
            if reg[0] == "point":
                if self.eval(f.right, rep):
                    return True
                if not self.eval(f.left, rep):
                    return False
            else:
                right = self.eval(f.right, rep)
                left = self.eval(f.left, rep)
                if right and left:
                    return True
                if not left:
                    return False
        return False


def pointwise_eval(formula: Formula, env, t) -> bool:
    """One membership query through the oracle route."""
    return PointwiseSession(formula, env).eval(formula, Fraction(t))


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
        t = Fraction(raw)
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
