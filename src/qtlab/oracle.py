"""Differential oracle: memoized pointwise evaluation, independent of the engine.

The engine (qtlab.semantics) computes whole truth signals with per-operator
window constructions.  This module answers single membership queries "does
the formula hold at time t" by first-order scanning instead, so the two
routes share nothing but the exact set and slicing primitives.  The scanning route never calls
the engine; only the agreement harness at the bottom runs it once per
check, as the comparison target.

The scans rest on one structural fact, checked empirically by the agreement
harness rather than assumed silently by both sides: truth values of every
subformula are constant on the elementary regions cut by atom component
endpoints (and, on the half line, the origin), shifted by at most one
integer per level of modal nesting.  A run
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
from functools import reduce
from typing import Dict, Iterable, List, Sequence, Tuple

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
from .signals import Signal, TimeDomain, _lcm


# region encoding used inside the session: ("point", q) or ("open", a, b)
_Region = Tuple


class _Grid:
    """The session's candidate truth-change points, queried by window.

    The point set {endpoint of some signal component, shifted by an integer
    of magnitude at most the modal depth} is eventually periodic: past
    max(transient) + depth it repeats with the lcm of the signal periods.
    On the half line the origin bounds every signal, so it and its first
    depth - 1 integer translates join the set.  Build the prefix and one
    period of the tail once, then answer window queries by bisect plus
    periodic unrolling instead of re-slicing the signals for every query.
    """

    def __init__(self, signals: Sequence[Signal], domain: TimeDomain, pad: int):
        self.half = domain is TimeDomain.HALF_LINE
        self.period = reduce(_lcm, (s.period for s in signals)) if signals else Fraction(1)
        shifts = range(-pad, pad + 1)
        self.start = Fraction(0)
        self.prefix: List[Fraction] = []
        if not self.half:
            # purely periodic: one period of endpoint translates, reduced mod period
            self.tail = sorted({(e + k) % self.period
                                for s in signals
                                for comp in s.slice(Fraction(0), self.period)
                                for e in (comp.lower, comp.upper)
                                for k in shifts})
            return
        self.start = max((s.transient for s in signals), default=Fraction(0)) + pad
        end = self.start + self.period
        points = {Fraction(k) for k in range(pad)}
        points.update(e + k
                      for s in signals
                      for comp in s.slice(Fraction(0), end + pad)
                      for e in (comp.lower, comp.upper)
                      for k in shifts
                      if 0 <= e + k < end)
        ordered = sorted(points)
        cut = bisect_left(ordered, self.start)
        self.prefix = ordered[:cut]
        self.tail = [p - self.start for p in ordered[cut:]]  # offsets in [0, period)

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
        self._half = env.domain is TimeDomain.HALF_LINE
        depth, atoms = metrics(formula)
        self._grid = _Grid([env.signal(a) for a in sorted(atoms)], env.domain, depth)
        self._memo: Dict[Tuple[Formula, Fraction], bool] = {}
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

    # -- region machinery ----------------------------------------------------

    def _regions(self, a: Fraction, b: Fraction,
                 include_a: bool, include_b: bool) -> List[_Region]:
        """The window from a to b cut into points and open intervals at the
        grid points strictly inside it; empty unless a < b."""
        if a >= b:
            return []
        out: List[_Region] = [("point", a)] if include_a else []
        prev = a
        for c in self._grid.query(a, b):
            out.append(("open", prev, c))
            out.append(("point", c))
            prev = c
        out.append(("open", prev, b))
        if include_b:
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
            return self._count(f.operand, 1, self._regions(t, t + 1, False, False))
        if isinstance(f, DiamondPast):
            if self._half and t < 1:
                return self._count(f.operand, 1, self._regions(Fraction(0), t, True, False))
            return self._count(f.operand, 1, self._regions(t - 1, t, False, False))
        if isinstance(f, Count):
            return self._count(f.operand, f.n, self._regions(t, t + 1, False, False))
        if isinstance(f, Pnueli):
            return self._pnueli(f, t)
        if isinstance(f, Until):
            horizon = max(t, self._transient_bound(f)) + self._period(f)
            return self._order(f, self._regions(t, horizon, False, True))
        if isinstance(f, Since):
            if self._half:
                return self._order(f, reversed(self._regions(Fraction(0), t, True, False)))
            return self._order(f, reversed(self._regions(t - self._period(f), t, True, False)))
        raise TypeError(f"not a formula: {f!r}")

    def _count(self, operand: Formula, need: int, regions: List[_Region]) -> bool:
        """At least `need` witness points of the operand among the regions."""
        for r in regions:
            if self.eval(operand, self._rep(r)):
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

    def _order(self, f: Formula, regions: Iterable[_Region]) -> bool:
        """Strict until or since over regions ordered away from t: a witness
        of the right operand with the left operand holding on every region
        before it (and, inside an open region, around it).  Each operand is
        evaluated at most once per region, the right one first."""
        for reg in regions:
            rep = self._rep(reg)
            right = self.eval(f.right, rep)
            if right and reg[0] == "point":
                return True
            if not self.eval(f.left, rep):
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
