"""Eventually periodic subsets of the line and half line.

A Signal denotes the exact set of time points at which a predicate holds.  On
the full line the set is purely periodic: ``x`` belongs iff ``x mod period`` is
in ``pattern``.  On the half line a finite ``prefix`` describes ``[0,
transient)`` and the pattern repeats from ``transient`` on.  All endpoints are
rationals, so every boolean combination, slice and shift stays exact.

``canonicalize`` produces the representative form: the minimal period (1 for
constants), then the minimal transient at which the tail already matches the
periodic extension.  When the prefix disagrees with that extension at a single
point there is no smallest rational transient strictly above it; the canonical
form then uses the next period multiple, which keeps the form deterministic,
idempotent and independent of the input representation.  Two Signals denote
the same set iff their canonical forms are structurally equal.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Optional

from .intervals import (
    Interval,
    IntervalSet,
    RationalLike,
    TextFormatError,
    _coalesce,
    format_interval_list,
    format_rational,
    parse_interval_list,
    parse_rational,
    rat,
)


class SignalError(ValueError):
    """Signal representation that violates its invariants."""


class DomainError(ValueError):
    """Operation applied outside a signal's time domain, or across domains."""


# Most components a slice may unroll from pattern copies, or the oracle's grid
# points number: past it the unrolling raises SignalError, not a long run.
MAX_UNROLL = 100_000


def check_unroll(count: int, what: str) -> None:
    if count > MAX_UNROLL:
        raise SignalError(f"{what} would unroll to {count} components, "
                          f"past the limit of {MAX_UNROLL}")


class TimeDomain(Enum):
    FULL_LINE = "line"
    HALF_LINE = "halfline"


class Triviality(Enum):
    """Outcome of comparing a truth signal with the four trivial predicates."""

    TRUE = "True"
    FALSE = "False"
    P = "P"
    NOT_P = "NotP"
    NONE = "None"

    def __str__(self) -> str:
        return self.value


def _lcm(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.lcm(a.numerator, b.numerator), math.gcd(a.denominator, b.denominator))


def _cyclic_shift(pattern: IntervalSet, d: Fraction, p: Fraction) -> IntervalSet:
    """Shift a pattern within the cyclic window [0, p)."""
    d = d % p
    if d == 0 or pattern.is_empty:
        return pattern
    moved = pattern.shift(d)
    w = IntervalSet.span(0, p)
    return moved.intersection(w).union(moved.intersection(w.shift(p)).shift(-p))


def _prefix_function(seq: list) -> list[int]:
    """KMP prefix function: pi[i] is the length of the longest proper border
    of seq[:i + 1]."""
    pi = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = pi[k - 1]
        if seq[i] == seq[k]:
            k += 1
        pi[i] = k
    return pi


def _minimal_tail(p: Fraction, pattern: IntervalSet) -> tuple[Fraction, IntervalSet]:
    """Minimal period of a pattern, constants collapsing to period 1.

    A period of the periodic set maps its cyclic sequence of components onto
    a rotation of itself, and back.  Each component becomes a token (lower
    closed, length, upper closed, gap to the next start), the component that
    wraps across the period boundary joined first; the smallest rotation of
    the token sequence onto itself is its smallest period that divides the
    token count, read off a prefix function.
    """
    if pattern.is_empty:
        return Fraction(1), IntervalSet.EMPTY
    if pattern == IntervalSet.span(0, p):
        return Fraction(1), IntervalSet.span(0, 1)
    comps = list(pattern.components)
    first, last = comps[0], comps[-1]
    if last.upper == p and first.lower == 0 and first.lower_closed:
        comps = comps[1:-1] + [Interval(last.lower, first.upper + p,
                                        last.lower_closed, first.upper_closed)]
    starts = [c.lower for c in comps] + [comps[0].lower + p]
    tokens = [(c.lower_closed, c.upper - c.lower, c.upper_closed, nxt - c.lower)
              for c, nxt in zip(comps, starts[1:])]
    m = len(tokens)
    r = m - _prefix_function(tokens)[-1]
    if m % r:
        return p, pattern
    q = p * r / m
    return q, pattern.intersection(IntervalSet.span(0, q))


def _meeting(comps: tuple[Interval, ...], a: Fraction, b: Fraction) -> tuple[Interval, ...]:
    """The run of sorted, disjoint components that meet [a, b]."""
    i = bisect_left(comps, a, key=attrgetter("upper"))
    if i < len(comps) and comps[i].upper == a and not comps[i].upper_closed:
        i += 1
    j = bisect_left(comps, b, key=attrgetter("lower"))
    if j < len(comps) and comps[j].lower == b and comps[j].lower_closed:
        j += 1
    return comps[i:j]


def _within(s: IntervalSet, end: Fraction) -> bool:
    """s is a subset of [0, end): in normal form only the lower end of the
    first component and the upper end of the last can stick out."""
    if not s:
        return True
    first, last = s.components[0], s.components[-1]
    return (first.lower is not None and first.lower >= 0 and last.upper is not None
            and (last.upper < end or (last.upper == end and not last.upper_closed)))


def _clip(c: Interval, a: Fraction, b: Fraction) -> Interval:
    """A component that meets [a, b], cut down to it."""
    if c.lower < a:
        c = Interval(a, c.upper, True, c.upper_closed)
    if c.upper > b:
        c = Interval(c.lower, b, c.lower_closed, True)
    return c


@dataclass(frozen=True)
class Signal:
    """An eventually periodic rational point set over a time domain."""

    domain: TimeDomain
    period: Fraction
    pattern: IntervalSet
    transient: Fraction = Fraction(0)
    prefix: IntervalSet = field(default_factory=lambda: IntervalSet.EMPTY)

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", rat(self.period))
        object.__setattr__(self, "transient", rat(self.transient))
        if self.period <= 0:
            raise SignalError(f"period must be positive, got {self.period}")
        if self.transient < 0:
            raise SignalError(f"transient must be nonnegative, got {self.transient}")
        if self.domain is TimeDomain.FULL_LINE and (self.transient != 0 or self.prefix):
            raise SignalError("full-line signals are purely periodic: transient 0, empty prefix")
        if not _within(self.pattern, self.period):
            raise SignalError("pattern escapes [0, period)")
        if not _within(self.prefix, self.transient):
            raise SignalError("prefix escapes [0, transient)")

    # ------------------------------------------------------------ constructors

    @classmethod
    def constant(cls, domain: TimeDomain, value: bool) -> "Signal":
        pattern = IntervalSet.span(0, 1) if value else IntervalSet.EMPTY
        return cls(domain, Fraction(1), pattern)

    # ------------------------------------------------------------- point model

    def contains(self, x: RationalLike) -> bool:
        x = rat(x)
        if self.domain is TimeDomain.HALF_LINE:
            if x < 0:
                raise DomainError(f"{x} is outside the half line")
            if x < self.transient:
                return self.prefix.contains(x)
            return self.pattern.contains((x - self.transient) % self.period)
        return self.pattern.contains(x % self.period)

    def slice(self, a: RationalLike, b: RationalLike) -> IntervalSet:
        """The exact point set of the signal within [a, b].

        Only the prefix and pattern components that meet the window are
        taken: whole pattern copies inside it, a bisected run at either end.
        """
        a, b = rat(a), rat(b)
        if a > b:
            raise ValueError(f"empty window [{a}, {b}]")
        half = self.domain is TimeDomain.HALF_LINE
        if half and a < 0:
            raise DomainError("window escapes the half line")
        pieces: list[Interval] = []
        anchor = self.transient
        if half and a < anchor:
            pieces.extend(_meeting(self.prefix.components, a, b))
        lo = max(a, anchor) if half else a
        if lo <= b:
            comps = self.pattern.components
            k0 = math.floor((lo - anchor) / self.period)
            k1 = math.floor((b - anchor) / self.period)
            # every copy costs a step, even a copy of an empty pattern
            check_unroll((k1 - k0 + 1) * max(1, len(comps)), "slicing a signal")
            for k in range(k0, k1 + 1):
                off = anchor + k * self.period
                copy = comps if k0 < k < k1 else _meeting(comps, a - off, b - off)
                pieces.extend(c.shift(off) for c in copy)
        # the pieces come in order, but copies may touch across period
        # boundaries: coalesce, then only the outermost components can stick
        # out of the window
        out = list(_coalesce(pieces))
        if out:
            out[0] = _clip(out[0], a, b)
            out[-1] = _clip(out[-1], a, b)
        return IntervalSet._wrap(tuple(out))

    def window(self, a: RationalLike, b: RationalLike) -> IntervalSet:
        """The exact point set of the signal within [a, b); empty unless a < b."""
        a, b = rat(a), rat(b)
        if a >= b:
            return IntervalSet.EMPTY
        got = self.slice(a, b)
        if not got or not got.components[-1].upper_closed or got.components[-1].upper != b:
            return got
        last = got.components[-1]
        cut = () if last.is_point else (Interval(last.lower, b, last.lower_closed, False),)
        return IntervalSet._wrap(got.components[:-1] + cut)

    def shift(self, d: RationalLike) -> "Signal":
        """Translate the denoted set by d. Full line only: the half line has an origin."""
        if self.domain is not TimeDomain.FULL_LINE:
            raise DomainError("shift is a full-line operation")
        return Signal(
            TimeDomain.FULL_LINE,
            self.period,
            _cyclic_shift(self.pattern, rat(d), self.period),
        )

    # ---------------------------------------------------------- normalization

    def tail_extension(self) -> "Signal":
        """The unique full-line periodic set the signal eventually agrees with,
        in canonical form (minimal period, phase anchored at 0)."""
        p0, pat0 = _minimal_tail(self.period, self.pattern)
        pat_ext = _cyclic_shift(pat0, self.transient % p0, p0)
        return Signal(TimeDomain.FULL_LINE, p0, pat_ext)

    def canonicalize(self) -> "Signal":
        ext = self.tail_extension()
        if self.domain is TimeDomain.FULL_LINE:
            return ext
        p0 = ext.period
        # The last disagreement with the extension, looked for back from the
        # transient in windows that double: the cost follows its distance.
        tc, hi, width = Fraction(0), self.transient, p0
        while hi > 0:
            lo = max(hi - width, Fraction(0))
            dis = self.slice(lo, hi).symmetric_difference(ext.slice(lo, hi))
            if dis:
                last = dis.components[-1]
                # Disagreement at the point itself: any transient strictly above
                # works and none is least, so snap up to the period grid.
                tc = ((math.floor(last.upper / p0) + 1) * p0 if last.upper_closed
                      else last.upper)
                break
            hi, width = lo, 2 * width
        return self._reframe(tc, p0)

    def _reframe(self, transient: Fraction, period: Fraction) -> "Signal":
        """Re-express as a prefix on [0, transient) and one period from there
        on; the signal must already repeat with that period past transient."""
        if transient == self.transient and period == self.period:
            return self
        pattern = self.window(transient, transient + period).shift(-transient)
        if self.domain is TimeDomain.FULL_LINE:
            return Signal(TimeDomain.FULL_LINE, period, pattern)
        return Signal(TimeDomain.HALF_LINE, period, pattern, transient,
                      self.window(0, transient))


def align(a: Signal, b: Signal) -> tuple[Signal, Signal]:
    """Re-express both signals with the lcm period and the max transient."""
    aligned = align_many([a, b])
    return aligned[0], aligned[1]


def align_many(signals: list[Signal]) -> list[Signal]:
    if not signals:
        raise ValueError("nothing to align")
    domain = signals[0].domain
    if any(s.domain is not domain for s in signals):
        raise DomainError("cannot align signals over different domains")
    period = signals[0].period
    for s in signals[1:]:
        period = _lcm(period, s.period)
    transient = max(s.transient for s in signals)
    return [s._reframe(transient, period) for s in signals]


def combine(op: str, a: Signal, b: Optional[Signal] = None) -> Signal:
    """Pointwise boolean combination; the result is canonical."""
    if op == "not":
        if b is not None:
            raise ValueError("not takes a single signal")
        pattern = IntervalSet.span(0, a.period).difference(a.pattern)
        prefix = IntervalSet.span(0, a.transient).difference(a.prefix)
        return Signal(a.domain, a.period, pattern, a.transient, prefix).canonicalize()
    if b is None:
        raise ValueError(f"{op} takes two signals")
    if op == "and":
        fn = IntervalSet.intersection
    elif op == "or":
        fn = IntervalSet.union
    else:
        raise ValueError(f"unknown boolean operation {op!r}")
    aa, bb = align(a, b)
    return Signal(
        aa.domain,
        aa.period,
        fn(aa.pattern, bb.pattern),
        aa.transient,
        fn(aa.prefix, bb.prefix),
    ).canonicalize()


def equal(a: Signal, b: Signal, eventually: bool = False) -> bool:
    """Exact equality of denoted sets; with ``eventually``, equality of tails."""
    if a.domain is not b.domain:
        raise DomainError("cannot compare signals over different domains")
    if eventually:
        return a.tail_extension() == b.tail_extension()
    return a.canonicalize() == b.canonicalize()


def classify_trivial(s: Signal, p_atom: Signal, eventually: bool = False) -> Triviality:
    """Compare s against True, False, P and not P, in that precedence order."""
    candidates = (
        (Triviality.TRUE, Signal.constant(s.domain, True)),
        (Triviality.FALSE, Signal.constant(s.domain, False)),
        (Triviality.P, p_atom),
        (Triviality.NOT_P, combine("not", p_atom)),
    )
    for tag, candidate in candidates:
        if equal(s, candidate, eventually):
            return tag
    return Triviality.NONE


# ------------------------------------------------------------------ file format
#
# Line oriented UTF-8, # starts a comment, keys in any order:
#   domain line|halfline
#   period <rational>
#   pattern <interval-list>        subset of [0, period); {} allowed
#   transient <rational>           half line only, default 0
#   prefix <interval-list>         half line only, default {}

def format_signal(s: Signal) -> str:
    lines = [
        f"domain {s.domain.value}",
        f"period {format_rational(s.period)}",
        f"pattern {format_interval_list(s.pattern)}",
    ]
    if s.domain is TimeDomain.HALF_LINE:
        lines.append(f"transient {format_rational(s.transient)}")
        lines.append(f"prefix {format_interval_list(s.prefix)}")
    return "\n".join(lines) + "\n"


def parse_signal(text: str) -> Signal:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key in entries:
            raise TextFormatError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise TextFormatError(f"line {lineno}: key {key!r} has no value")
        entries[key] = value

    known = {"domain", "period", "pattern", "transient", "prefix"}
    for key in entries:
        if key not in known:
            raise TextFormatError(f"unknown key {key!r}")
    for key in ("domain", "period", "pattern"):
        if key not in entries:
            raise TextFormatError(f"missing key {key!r}")

    try:
        domain = TimeDomain(entries["domain"])
    except ValueError:
        raise TextFormatError(f"domain must be line or halfline, got {entries['domain']!r}") from None
    if domain is TimeDomain.FULL_LINE:
        for key in ("transient", "prefix"):
            if key in entries:
                raise TextFormatError(f"key {key!r} only applies to halfline signals")

    period = parse_rational(entries["period"])
    pattern = parse_interval_list(entries["pattern"])
    transient = parse_rational(entries.get("transient", "0"))
    prefix = parse_interval_list(entries.get("prefix", "{}"))
    try:
        return Signal(domain, period, pattern, transient, prefix)
    except SignalError as exc:
        raise TextFormatError(str(exc)) from exc
