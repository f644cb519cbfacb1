"""Eventually periodic subsets of the line and half line.

A Signal denotes the exact set of time points at which a predicate holds.  On
the full line the set is purely periodic: ``x`` belongs iff ``x mod period`` is
in ``pattern``.  On the half line a finite ``prefix`` describes ``[0,
transient)`` and the pattern repeats from ``transient`` on.  All endpoints are
exact, so every boolean combination, slice and shift stays exact.

Numbers come at one of two scales, told apart by ``unit``, the length of one
time unit.  A public Signal, every one the library reads or returns, has unit
1 and only ``Fraction`` numbers.  The evaluation engine runs on integer ticks
instead: every endpoint it makes lies on the lattice (1/Q)Z, Q = ``tick_unit``
of its atoms, so ``to_ticks`` scales the atoms by Q once, every number of the
Signals it builds from them is an ``int`` and the unit is Q ticks, and
``from_ticks`` scales the result back.  Every function here runs unchanged at
either scale; ``/`` is never applied to a tick.

``canonicalize`` produces the representative form: the minimal period (one
unit for constants), then the minimal transient at which the tail already
matches the periodic extension.  When the prefix disagrees with that extension
at a single point there is no smallest rational transient strictly above it;
the canonical form then uses the next period multiple, which keeps the form
deterministic, idempotent and independent of the input representation, the
scale included.  Two Signals at one scale denote the same set iff their
canonical forms are structurally equal.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .intervals import (
    Interval,
    IntervalSet,
    RationalLike,
    TextFormatError,
    _coalesce,
    exact,
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


def _lcm(a: RationalLike, b: RationalLike) -> RationalLike:
    """Least common multiple of two positive periods, in a's number type: a
    times the integer lcm(an, bn) / an * ad / gcd(ad, bd)."""
    an, ad = a.numerator, a.denominator
    return a * (math.lcm(an, b.numerator) // an * (ad // math.gcd(ad, b.denominator)))


def _cyclic_shift(pattern: IntervalSet, d: RationalLike, p: RationalLike) -> IntervalSet:
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


def _minimal_tail(p: RationalLike, pattern: IntervalSet,
                  unit: RationalLike) -> tuple[RationalLike, IntervalSet]:
    """Minimal period of a pattern, constants collapsing to period one unit.

    A period of the periodic set maps its cyclic sequence of components onto
    a rotation of itself, and back.  Each component becomes a token (lower
    closed, length, upper closed, gap to the next start), the component that
    wraps across the period boundary joined first; the smallest rotation of
    the token sequence onto itself is its smallest period that divides the
    token count, read off a prefix function.
    """
    if pattern.is_empty:
        return unit, IntervalSet.EMPTY
    if pattern == IntervalSet.span(0, p):
        return unit, IntervalSet.span(0, unit)
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
    q = starts[r] - starts[0]
    return q, pattern.intersection(IntervalSet.span(0, q))


def _meeting(comps: tuple[Interval, ...], a: RationalLike,
             b: RationalLike) -> tuple[Interval, ...]:
    """The run of sorted, disjoint components that meet [a, b]."""
    i = bisect_left(comps, a, key=attrgetter("upper"))
    if i < len(comps) and comps[i].upper == a and not comps[i].upper_closed:
        i += 1
    j = bisect_left(comps, b, key=attrgetter("lower"))
    if j < len(comps) and comps[j].lower == b and comps[j].lower_closed:
        j += 1
    return comps[i:j]


def _within(s: IntervalSet, end: RationalLike) -> bool:
    """s is a subset of [0, end): in normal form only the lower end of the
    first component and the upper end of the last can stick out."""
    if not s:
        return True
    first, last = s.components[0], s.components[-1]
    return (first.lower is not None and first.lower >= 0 and last.upper is not None
            and (last.upper < end or (last.upper == end and not last.upper_closed)))


def _clip(c: Interval, a: RationalLike, b: RationalLike) -> Interval:
    """A component that meets [a, b], cut down to it."""
    if c.lower < a:
        c = Interval(a, c.upper, True, c.upper_closed)
    if c.upper > b:
        c = Interval(c.lower, b, c.lower_closed, True)
    return c


def _map_ends(s: IntervalSet, fn: Callable) -> IntervalSet:
    """s with fn applied to every endpoint; fn must be increasing."""
    return IntervalSet._wrap(tuple(Interval(fn(c.lower), fn(c.upper), c.lower_closed,
                                            c.upper_closed) for c in s.components))


def _rationals(s: IntervalSet) -> IntervalSet:
    """s with every endpoint a Fraction."""
    if all(type(c.lower) is Fraction and type(c.upper) is Fraction for c in s.components):
        return s
    return _map_ends(s, rat)


@dataclass(frozen=True)
class Signal:
    """An eventually periodic rational point set over a time domain.

    ``unit`` is the length of one time unit: 1 on a public signal, whose
    numbers are made Fractions, and Q on a signal in ticks (see the module
    docstring), whose numbers are ints."""

    domain: TimeDomain
    period: RationalLike
    pattern: IntervalSet
    transient: RationalLike = 0
    prefix: IntervalSet = field(default_factory=lambda: IntervalSet.EMPTY)
    unit: int = 1

    def __post_init__(self) -> None:
        public = self.unit == 1
        if public:
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
        if public:
            object.__setattr__(self, "pattern", _rationals(self.pattern))
            object.__setattr__(self, "prefix", _rationals(self.prefix))

    # ------------------------------------------------------------ constructors

    @classmethod
    def constant(cls, domain: TimeDomain, value: bool, unit: int = 1) -> "Signal":
        pattern = IntervalSet.span(0, unit) if value else IntervalSet.EMPTY
        return cls(domain, unit, pattern, unit=unit)

    # ------------------------------------------------------------- point model

    def contains(self, x: RationalLike) -> bool:
        """Whether x is in the set, x at the signal's scale; x keeps the
        exact type it is given, so a tick stays an int."""
        x = exact(x)
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
        a, b = exact(a), exact(b)
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
            k0 = (lo - anchor) // self.period
            k1 = (b - anchor) // self.period
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
        a, b = exact(a), exact(b)
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
        return Signal(TimeDomain.FULL_LINE, self.period,
                      _cyclic_shift(self.pattern, exact(d), self.period), unit=self.unit)

    # ---------------------------------------------------------- normalization

    def tail_extension(self) -> "Signal":
        """The unique full-line periodic set the signal eventually agrees with,
        in canonical form (minimal period, phase anchored at 0)."""
        p0, pat0 = _minimal_tail(self.period, self.pattern, self.unit)
        pat_ext = _cyclic_shift(pat0, self.transient % p0, p0)
        return Signal(TimeDomain.FULL_LINE, p0, pat_ext, unit=self.unit)

    def canonicalize(self) -> "Signal":
        ext = self.tail_extension()
        if self.domain is TimeDomain.FULL_LINE:
            return ext
        p0 = ext.period
        # The last disagreement with the extension, looked for back from the
        # transient in windows that double: the cost follows its distance.
        tc, hi, width = 0, self.transient, p0
        while hi > 0:
            lo = max(hi - width, 0)
            dis = self.slice(lo, hi).symmetric_difference(ext.slice(lo, hi))
            if dis:
                last = dis.components[-1]
                # Disagreement at the point itself: any transient strictly above
                # works and none is least, so snap up to the period grid.
                tc = (last.upper // p0 + 1) * p0 if last.upper_closed else last.upper
                break
            hi, width = lo, 2 * width
        return self._reframe(tc, p0)

    def _reframe(self, transient: RationalLike, period: RationalLike) -> "Signal":
        """Re-express as a prefix on [0, transient) and one period from there
        on; the signal must already repeat with that period past transient."""
        if transient == self.transient and period == self.period:
            return self
        pattern = self.window(transient, transient + period).shift(-transient)
        if self.domain is TimeDomain.FULL_LINE:
            return Signal(TimeDomain.FULL_LINE, period, pattern, unit=self.unit)
        return Signal(TimeDomain.HALF_LINE, period, pattern, transient,
                      self.window(0, transient), self.unit)


def align(a: Signal, b: Signal) -> tuple[Signal, Signal]:
    """Re-express both signals with the lcm period and the max transient."""
    aligned = align_many([a, b])
    return aligned[0], aligned[1]


def align_many(signals: list[Signal]) -> list[Signal]:
    if not signals:
        raise ValueError("nothing to align")
    domain, unit = signals[0].domain, signals[0].unit
    if any(s.domain is not domain for s in signals):
        raise DomainError("cannot align signals over different domains")
    if any(s.unit != unit for s in signals):
        raise ValueError("cannot align signals at different time scales")
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
        return Signal(a.domain, a.period, pattern, a.transient, prefix, a.unit).canonicalize()
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
        aa.unit,
    ).canonicalize()


def _normal_form(s: Signal, eventually: bool) -> Signal:
    """What decides equality: the canonical form, or with ``eventually`` the tail."""
    return s.tail_extension() if eventually else s.canonicalize()


def equal(a: Signal, b: Signal, eventually: bool = False) -> bool:
    """Exact equality of denoted sets; with ``eventually``, equality of tails."""
    if a.domain is not b.domain:
        raise DomainError("cannot compare signals over different domains")
    return _normal_form(a, eventually) == _normal_form(b, eventually)


def trivial_classifier(p_atom: Signal, eventually: bool) -> Callable[[Signal], Triviality]:
    """A function comparing a signal against True, False, P and not P, in that
    precedence order.  The four normal forms are built once, here."""
    forms: dict[Signal, Triviality] = {}
    for tag, candidate in (
        (Triviality.TRUE, Signal.constant(p_atom.domain, True, p_atom.unit)),
        (Triviality.FALSE, Signal.constant(p_atom.domain, False, p_atom.unit)),
        (Triviality.P, p_atom),
        (Triviality.NOT_P, combine("not", p_atom)),
    ):
        forms.setdefault(_normal_form(candidate, eventually), tag)

    def classify(s: Signal) -> Triviality:
        if s.domain is not p_atom.domain:
            raise DomainError("cannot compare signals over different domains")
        return forms.get(_normal_form(s, eventually), Triviality.NONE)

    return classify


def classify_trivial(s: Signal, p_atom: Signal, eventually: bool = False) -> Triviality:
    """Compare s against True, False, P and not P, in that precedence order."""
    return trivial_classifier(p_atom, eventually)(s)


# ------------------------------------------------------------------- ticks

def tick_unit(signals: Iterable[Signal]) -> int:
    """Q = 2 lcm of the denominators of the public signals' endpoints, periods
    and transients.  Everything the engine builds from them lies on (2/Q)Z,
    even ticks, so the midpoint of two such points is a whole tick."""
    dens = set()
    for s in signals:
        dens.update(x.denominator for x in (s.period, s.transient))
        dens.update(x.denominator for part in (s.pattern, s.prefix) for c in part
                    for x in (c.lower, c.upper))
    return 2 * math.lcm(*dens)


def to_ticks(s: Signal, unit: int) -> Signal:
    """A public signal scaled by unit = Q: all of its numbers become ints."""
    def scale(x: Fraction) -> int:
        return x.numerator * (unit // x.denominator)

    return Signal(s.domain, scale(s.period), _map_ends(s.pattern, scale),
                  scale(s.transient), _map_ends(s.prefix, scale), unit)


def from_ticks(s: Signal) -> Signal:
    """The public signal, in Fractions, that a signal in ticks denotes."""
    def scale(x: int) -> Fraction:
        return Fraction(x, s.unit)

    return Signal(s.domain, scale(s.period), _map_ends(s.pattern, scale),
                  scale(s.transient), _map_ends(s.prefix, scale))


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
