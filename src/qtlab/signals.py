"""Eventually periodic subsets of the line and half line: sets, scales and frames.

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
``from_ticks`` scales the result back.  A file reads into a public Signal
with ``parse_signal``, or straight into ticks of its own tick unit with
``parse_ticks``, and ``format_ticks`` prints a result from its ticks, as
``format_signal`` prints it from Fractions.  ``tick_unit`` and ``to_ticks``
take a signal at either scale: one in ticks counts its own unit, and is
multiplied up to a multiple of it.  The engine picks its unit in one place,
``qtlab.semantics.evaluate_ticks``: the ``tick_unit`` of the atoms it uses.
The two readers share one reader of the text, and the two writers one
writer.  ``Frame.of`` admits only signals of one domain and one scale, for
every function where signals meet; ``format_signal`` takes public signals
only, ``format_ticks`` signals in ticks only, and every other function runs
at either scale; ``/`` is never applied to a tick.

``canonicalize`` produces the representative form: ``Signal.constant`` at once
for the empty and the full set, else the minimal period, then the minimal
transient at which the tail already matches the periodic extension, found
by one walk back over the components of the set and of its shift by a
period, compared in lockstep.  When the prefix disagrees with that extension
at a single point there is no smallest rational transient strictly above it;
the canonical form then uses the next period multiple, which keeps the form
deterministic, idempotent and independent of the input representation, the
scale included.  Two Signals at one scale denote the same set iff their
canonical forms are structurally equal.

A Signal is a tuple underneath, and ``Signal.__new__`` checks it as
``Interval`` is checked: a positive period, a nonnegative transient, no
prefix on the full line, and each part within its span.  Every public way
of building one runs it (``_make``, ``_replace``, copy, pickle, the readers,
``builtin_model``, every caller outside this module).  The private
``_signal`` skips only those checks, still making a public signal's numbers
Fractions, and builds only signals valid by construction: ``_frame`` (a
frame's period; its callers give a t_bound of 0 on the full line, and the
parts are truth cut to [t_bound, t_bound + period), moved to [0, period),
and to [0, t_bound)), ``Signal.constant`` (one unit, empty or all of it),
the minimal tails of ``canonicalize`` and ``tail_extension`` (a period
``_minimal_tail`` finds, the pattern within it), ``combine("not")`` (a
valid signal's parts complemented within their spans), and ``to_ticks``,
``from_ticks`` and ``parse_ticks``' rescale (a valid signal's numbers
multiplied or divided by one positive factor, exactly).  A ``Frame`` says
where signals repeat: their domain, scale, max transient and the lcm period
of the tails that are not constant (an empty or full tail repeats with any
period, so its own does not count).  ``_apply`` slices operands as they are
over a window of their frame and runs a kernel on the cuts, for ``combine``
and the engine's operators; ``_frame`` alone cuts a set into a prefix and a
pattern at a frame, by bisection, for them, for ``shift``, the enumerator
and every reframing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .intervals import (
    Interval,
    IntervalSet,
    RationalLike,
    TextFormatError,
    _has_gap,
    _merge,
    _read_list,
    _read_rational,
    _set_of,
    _unchecked,
    exact,
    format_interval_list,
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


def _lcm(a: RationalLike, b: RationalLike) -> RationalLike:
    """Least common multiple of two positive periods, in a's number type: a
    times the integer lcm(an, bn) / an * ad / gcd(ad, bd)."""
    an, ad = a.numerator, a.denominator
    return a * (math.lcm(an, b.numerator) // an * (ad // math.gcd(ad, b.denominator)))


def _minimal_tail(p: RationalLike, pattern: IntervalSet,
                  unit: RationalLike) -> tuple[RationalLike, IntervalSet]:
    """Minimal period of a pattern, constants collapsing to period one unit.

    A period of the periodic set maps its cyclic sequence of components onto
    a rotation of itself, and back.  Each component becomes a token (lower
    closed, length, upper closed, gap to the next start), the component that
    wraps across the period boundary joined first.  The rotations that map
    the tokens onto themselves form a group, so the periods dividing their
    count m are the multiples of the least, d: from r = m, stripping each
    prime factor f of m while r / f stays one leaves d.  As the tokens repeat
    every r, r / f is one iff their first r repeat every r / f.
    """
    if not pattern:
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
    m = r = n = len(tokens)
    f = 2
    while n > 1:  # n % f == 0 for the prime factors f of m alone
        while n % f == 0 and r % f == 0 and tokens[r // f:r] == tokens[:r - r // f]:
            r //= f
        while n % f == 0:
            n //= f
        f += 1
    q = starts[r] - starts[0]
    return q, pattern if r == m else pattern.intersection(IntervalSet.span(0, q))


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
    return first.lower >= 0 and (last.upper < end
                                 or (last.upper == end and not last.upper_closed))


def _clip(c: Interval, a: RationalLike, b: RationalLike) -> Interval:
    """A component that meets [a, b], cut down to it."""
    if c.lower < a:
        c = _unchecked(a, c.upper, True, c.upper_closed)
    if c.upper > b:
        c = _unchecked(c.lower, b, c.lower_closed, True)
    return c


def _clipped(run: tuple[Interval, ...], a: RationalLike,
             b: RationalLike) -> tuple[Interval, ...]:
    """The run of components that meet [a, b], its outermost two cut down to it."""
    if len(run) < 2:
        return tuple(_clip(c, a, b) for c in run)
    return (_clip(run[0], a, b),) + run[1:-1] + (_clip(run[-1], a, b),)


def _below(run: tuple[Interval, ...], b: RationalLike) -> tuple[Interval, ...]:
    """A run of components within [a, b], the point b taken out of it."""
    if run and (c := run[-1]).upper == b and c.upper_closed:
        return run[:-1] + ((_unchecked(c.lower, b, c.lower_closed, False),) if c.lower < b else ())
    return run


def _map_ends(s: IntervalSet, fn: Callable) -> IntervalSet:
    """s with fn applied to every endpoint; fn must be strictly increasing."""
    return IntervalSet._wrap(tuple(_unchecked(fn(c.lower), fn(c.upper), c.lower_closed,
                                              c.upper_closed) for c in s.components))


def _rationals(s: IntervalSet) -> IntervalSet:
    """s with every endpoint a Fraction."""
    if all(type(c.lower) is Fraction and type(c.upper) is Fraction for c in s.components):
        return s
    return _map_ends(s, rat)


class Signal(namedtuple("Signal", "domain period pattern transient prefix unit")):
    """An eventually periodic rational point set over a time domain.

    ``unit`` is the length of one time unit: 1 on a public signal, whose
    numbers are made Fractions, and Q on a signal in ticks (see the module
    docstring), whose numbers are ints."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, domain: TimeDomain, period: RationalLike, pattern: IntervalSet,
                transient: RationalLike = 0, prefix: IntervalSet = IntervalSet.EMPTY,
                unit: int = 1) -> "Signal":
        public = unit == 1
        if public:
            period, transient = rat(period), rat(transient)
        if period <= 0:  # the number as public, in ticks too
            raise SignalError(f"period must be positive, got {Fraction(period, unit)}")
        if transient < 0:
            raise SignalError(f"transient must be nonnegative, got {Fraction(transient, unit)}")
        if domain is TimeDomain.FULL_LINE and (transient != 0 or prefix):
            raise SignalError("full-line signals are purely periodic: transient 0, empty prefix")
        if not _within(pattern, period):
            raise SignalError("pattern escapes [0, period)")
        if not _within(prefix, transient):
            raise SignalError("prefix escapes [0, transient)")
        if public:
            pattern, prefix = _rationals(pattern), _rationals(prefix)
        return tuple.__new__(cls, (domain, period, pattern, transient, prefix, unit))

    # ------------------------------------------------------------ constructors

    @classmethod
    def constant(cls, domain: TimeDomain, value: bool, unit: int = 1) -> "Signal":
        pattern = IntervalSet.span(0, unit) if value else IntervalSet.EMPTY
        return _signal(domain, unit, pattern, unit=unit)

    # ------------------------------------------------------------- point model

    def contains(self, x: RationalLike) -> bool:
        """Whether x is in the set, x at the signal's scale: an exact number
        on a public signal, an int tick on a signal in ticks."""
        x = exact(x)
        if type(x) is not int and self.unit != 1:
            raise TypeError(f"a signal in ticks of unit {self.unit} reads int ticks, not {x!r}")
        if self.domain is TimeDomain.HALF_LINE:
            if x < 0:
                raise DomainError(f"{x} is outside the half line")
            if x < self.transient:
                return self.prefix.contains(x)
            return self.pattern.contains((x - self.transient) % self.period)
        return self.pattern.contains(x % self.period)

    __contains__ = contains  # not tuple membership

    def slice(self, a: RationalLike, b: RationalLike) -> IntervalSet:
        """The exact point set of the signal within [a, b], at its scale.

        Only the prefix and pattern components that meet the window are
        taken: whole pattern copies inside it, a bisected run at either end.
        """
        a, b = exact(a), exact(b)
        if not type(a) is type(b) is int and self.unit != 1:
            raise TypeError(f"a signal in ticks of unit {self.unit} reads int ticks, "
                            f"not [{a!r}, {b!r}]")
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
                run = [tuple.__new__(Interval, (lo + off, hi + off, lc, hc))
                       for lo, hi, lc, hc in copy]
                # the pieces come in order, and normal but where a copy
                # touches the piece before it, across its start
                if run and pieces and not _has_gap(pieces[-1], run[0]):
                    run[0] = _merge(pieces.pop(), run[0])
                pieces += run
        # only the outermost components can stick out of the window
        return IntervalSet._wrap(_clipped(tuple(pieces), a, b))

    def shift(self, d: RationalLike) -> "Signal":
        """Translate the denoted set by d: x + d holds iff x did.  Full line
        only: the half line has an origin."""
        if self.domain is not TimeDomain.FULL_LINE:
            raise DomainError("shift is a full-line operation")
        p = self.period
        d = exact(d) % p
        if d == 0:
            return self
        return _frame(Frame(self.domain, p, 0, self.unit), 0, self.slice(-d, p - d).shift(d))

    # ---------------------------------------------------------- normalization

    def tail_extension(self) -> "Signal":
        """The unique full-line periodic set the signal eventually agrees with,
        in canonical form (minimal period, phase anchored at 0)."""
        p0, pat0 = _minimal_tail(self.period, self.pattern, self.unit)
        return _signal(TimeDomain.FULL_LINE, p0, pat0, unit=self.unit).shift(self.transient)

    def canonicalize(self) -> "Signal":
        """On the half line the transient ends the set D' where the signal
        and its tail extension disagree.  It is read off D, where x and x + p0
        disagree (p0 the minimal period): past sup D - p0, x + p0 agrees with
        each x + k p0, so with the extension, and D = D' there."""
        if not (self.pattern or self.prefix):
            return Signal.constant(self.domain, False, self.unit)
        if (self.pattern == IntervalSet.span(0, self.period)
                and self.prefix == IntervalSet.span(0, self.transient)):
            return Signal.constant(self.domain, True, self.unit)
        p0, pat0 = _minimal_tail(self.period, self.pattern, self.unit)
        if self.domain is TimeDomain.FULL_LINE:
            return _signal(self.domain, p0, pat0, unit=self.unit)
        # One cut reaches every transient found below: up to the transient t,
        # or the period multiple that a closed disagreement snaps up to.
        t = self.transient
        cut = self.slice(0, -(-t // p0) * p0 + p0)
        # The components on [0, t] and on [p0, t + p0], walked back in
        # lockstep while x and x + p0 agree: the first pair that differs holds
        # the last disagreement, the last point of its symmetric difference.
        xs = _clipped(_meeting(cut.components, 0, t), 0, t)
        ys = _clipped(_meeting(cut.components, p0, t + p0), p0, t + p0)
        i, j = len(xs), len(ys)
        while i and j:
            x, y = xs[i - 1], ys[j - 1]
            if (x.lower + p0 != y.lower or x.upper + p0 != y.upper
                    or x.lower_closed != y.lower_closed or x.upper_closed != y.upper_closed):
                break
            i, j = i - 1, j - 1
        tc = 0
        if i or j:
            last = IntervalSet._wrap(xs[i - 1:i]).symmetric_difference(
                IntervalSet._wrap(ys[j - 1:j]).shift(-p0)).components[-1]
            # Disagreement at the point itself: any transient strictly above
            # works and none is least, so snap up to the period grid.
            tc = (last.upper // p0 + 1) * p0 if last.upper_closed else last.upper
        if tc == t and p0 == self.period:
            return self
        return _frame(Frame(self.domain, p0, tc, self.unit), tc, cut)

    def _reframe(self, frame: "Frame") -> "Signal":
        """Re-express at frame: a prefix on [0, frame.transient) and one period
        from there on; the signal must already repeat so from that transient."""
        if frame.transient == self.transient and frame.period == self.period:
            return self
        return _frame(frame, frame.transient, self.slice(*frame.window(0)))


def _signal(domain: TimeDomain, period: RationalLike, pattern: IntervalSet,
            transient: RationalLike = 0, prefix: IntervalSet = IntervalSet.EMPTY,
            unit: int = 1) -> Signal:
    """A Signal past the range checks of ``Signal.__new__``, a public one's
    numbers still made Fractions: see the module docstring."""
    if unit == 1:
        period, transient = rat(period), rat(transient)
        pattern, prefix = _rationals(pattern), _rationals(prefix)
    return tuple.__new__(Signal, (domain, period, pattern, transient, prefix, unit))


class Frame(namedtuple("Frame", "domain period transient unit")):
    """Where signals repeat: each of them with ``period`` from ``transient``
    (0 on the full line), in one domain and at one scale.  ``window(m)`` runs
    from -m (0 on the half line) to m past a period from the transient;
    ``reach`` holds every kernel's window and a period past ``settled``, from
    which every kernel's truth set repeats."""

    __slots__ = ()

    @classmethod
    def of(cls, signals: Sequence[Signal]) -> "Frame":
        """The frame of signals over one domain and scale: max transient, and the
        lcm period of the tails not constant (any period repeats those), else one unit."""
        if not signals:
            raise ValueError("nothing to align")
        domain, unit = signals[0].domain, signals[0].unit
        if any(s.domain is not domain for s in signals):
            raise DomainError("cannot align signals over different domains")
        if any(s.unit != unit for s in signals):
            raise ValueError("cannot align signals at different time scales")
        periods = [s.period for s in signals if (c := s.pattern.components) and (
            len(c) > 1 or c[0].lower != 0 or not c[0].lower_closed or c[0].upper != s.period)]
        return cls(domain, reduce(_lcm, periods) if periods else unit,
                   max(s.transient for s in signals), unit)

    def window(self, m: RationalLike) -> tuple:
        return -m if self.domain is TimeDomain.FULL_LINE else 0, self.transient + self.period + m

    def reach(self) -> tuple:
        return self.window(max(self.period, self.unit))

    def settled(self) -> RationalLike:
        full = self.domain is TimeDomain.FULL_LINE
        return 0 if full else self.transient + max(self.period, self.unit)


def _frame(frame: Frame, t_bound: RationalLike, truth: IntervalSet) -> Signal:
    """The signal, in frame's domain, unit and period, that agrees with truth
    on [0, t_bound + period) and repeats that last period from t_bound on (0
    on the full line); not canonicalized.  The one place a set is cut into a
    prefix and a pattern: truth is split by bisection at t_bound and t_bound +
    period, into half-open pieces that drop whatever truth holds at or past
    t_bound + period, such as the closed end of a ``slice``."""
    comps, end = truth.components, t_bound + frame.period
    pattern = _below(_clipped(_meeting(comps, t_bound, end), t_bound, end), end)
    if t_bound:
        pattern = tuple([_unchecked(c.lower - t_bound, c.upper - t_bound, c.lower_closed,
                                    c.upper_closed) for c in pattern])
    prefix = _below(_clipped(_meeting(comps, 0, t_bound), 0, t_bound), t_bound) if t_bound > 0 else ()
    return _signal(frame.domain, frame.period, IntervalSet._wrap(pattern), t_bound,
                   IntervalSet._wrap(prefix), frame.unit)


def _apply(kernel: Callable[..., tuple], operands: Sequence[Signal], *params,
           margin: Callable[[Frame], RationalLike] = attrgetter("unit")) -> Signal:
    """The kernel on the operands' cuts over the window of their frame at the
    margin, framed at the t_bound it returns with the truth set, canonical."""
    frame = Frame.of(operands)
    lo, hi = frame.window(margin(frame))
    truth, t_bound = kernel(frame, [x.slice(lo, hi) for x in operands], *params)
    return _frame(frame, t_bound, truth).canonicalize()


def align_many(signals: list[Signal]) -> list[Signal]:
    """Re-express the signals with the lcm period and the max transient."""
    frame = Frame.of(signals)
    return [s._reframe(frame) for s in signals]


def combine(op: str, a: Signal, b: Optional[Signal] = None) -> Signal:
    """Pointwise boolean combination; the result is canonical.  The operands
    of ``and``/``or`` are cut once over their frame, and set-combined there."""
    if op == "not":
        if b is not None:
            raise ValueError("not takes a single signal")
        return _signal(a.domain, a.period, a.pattern.complement(0, a.period), a.transient,
                       a.prefix.complement(0, a.transient), a.unit).canonicalize()
    if b is None:
        raise ValueError(f"{op} takes two signals")
    fn = {"and": IntervalSet.intersection, "or": IntervalSet.union}.get(op)
    if fn is None:
        raise ValueError(f"unknown boolean operation {op!r}")
    return _apply(lambda frame, cuts: (fn(*cuts), frame.transient), [a, b],
                  margin=lambda frame: 0)


def _normal_form(s: Signal, eventually: bool) -> Signal:
    """What decides equality: the canonical form, or with ``eventually`` the tail."""
    return s.tail_extension() if eventually else s.canonicalize()


def equal(a: Signal, b: Signal, eventually: bool = False) -> bool:
    """Exact equality of denoted sets; with ``eventually``, equality of tails."""
    Frame.of([a, b])
    return _normal_form(a, eventually) == _normal_form(b, eventually)


# ------------------------------------------------------------------- ticks

def tick_unit(signals: Iterable[Signal]) -> int:
    """Q = the lcm of 2, of twice each denominator of a public signal's
    numbers, and of each signal in ticks' unit, doubled if a tick is odd.
    Every number is an even tick at Q, as is all the engine builds from
    them, so the midpoint of two such points is a whole tick."""
    dens, units = set(), set()
    for s in signals:
        if s.unit != 1:
            odd = (s.period | s.transient) & 1 or any(
                (c.lower | c.upper) & 1 for part in (s.pattern, s.prefix) for c in part)
            units.add(2 * s.unit if odd else s.unit)
            continue
        dens.update(x.denominator for x in (s.period, s.transient))
        dens.update(x.denominator for part in (s.pattern, s.prefix) for c in part
                    for x in (c.lower, c.upper))
    return math.lcm(2 * math.lcm(*dens), *units)


def to_ticks(s: Signal, unit: int) -> Signal:
    """s in ticks of unit = Q: a public s scaled by Q, a multiple of its
    denominators, one factor Q / den per denominator in one pass; s in ticks
    multiplied by Q over its unit, which must divide Q (s itself at k = 1)."""
    if s.unit != 1:
        k, rest = divmod(unit, s.unit)
        if rest:
            raise ValueError(f"cannot scale a signal of unit {s.unit} to ticks of unit {unit}")
        return s if k == 1 else _signal(s.domain, s.period * k, _map_ends(s.pattern, k.__mul__),
                                        s.transient * k, _map_ends(s.prefix, k.__mul__), unit)
    factors: dict[int, int] = {}

    def factor(x: Fraction) -> int:
        ticks, rest = divmod(unit, x.denominator)
        if rest:
            raise ValueError(f"{x} is not a whole number of ticks at unit {unit}")
        factors[x.denominator] = ticks
        return ticks

    def scale(part: IntervalSet) -> IntervalSet:
        get = factors.get
        return IntervalSet._wrap(tuple([
            _unchecked(lo.numerator * (get(lo.denominator) or factor(lo)),
                       hi.numerator * (get(hi.denominator) or factor(hi)), lc, uc)
            for lo, hi, lc, uc in part.components]))

    return _signal(s.domain, s.period.numerator * factor(s.period), scale(s.pattern),
                   s.transient.numerator * factor(s.transient), scale(s.prefix), unit)


def from_ticks(s: Signal) -> Signal:
    """The public signal, in Fractions, that a signal in ticks denotes."""
    def scale(x: int) -> Fraction:
        return Fraction(x, s.unit)

    return _signal(s.domain, scale(s.period), _map_ends(s.pattern, scale),
                   scale(s.transient), _map_ends(s.prefix, scale))


# ------------------------------------------------------------------ file format
#
# Line oriented UTF-8, # starts a comment, keys in any order:
#   domain line|halfline
#   period <rational>
#   pattern <interval-list>        subset of [0, period); {} allowed
#   transient <rational>           half line only, default 0
#   prefix <interval-list>         half line only, default {}

def _write(s: Signal, num: Callable[[RationalLike], str], text: bool = False) -> str:
    """The signal in the file format, or with text in the CLI's text layout,
    with num writing each number."""
    period, pattern = num(s.period), format_interval_list(s.pattern, num)
    if s.domain is TimeDomain.FULL_LINE:
        return (f"domain line\npattern {pattern} period {period}\n" if text
                else f"domain line\nperiod {period}\npattern {pattern}\n")
    transient, prefix = num(s.transient), format_interval_list(s.prefix, num)
    if text:
        return (f"domain halfline\nprefix {prefix} before {transient}\n"
                f"tail {pattern} period {period} from {transient}\n")
    return (f"domain halfline\nperiod {period}\npattern {pattern}\n"
            f"transient {transient}\nprefix {prefix}\n")


def format_signal(s: Signal) -> str:
    if s.unit != 1:
        raise ValueError(f"cannot print a signal in ticks of unit {s.unit}")
    return _write(s, str)


def format_ticks(s: Signal, text: bool = False) -> str:
    """What ``format_signal`` prints for ``from_ticks(s)``, or with text the
    CLI's text layout of it, written from the ticks: x as x/U in lowest terms."""
    unit = s.unit
    if unit == 1:
        raise ValueError("format_ticks prints a signal in ticks, not a public one")

    def num(x: int) -> str:
        g = math.gcd(x, unit)
        return str(x // g) if g == unit else f"{x // g}/{unit // g}"

    return _write(s, num, text)


def _read_signal(text: str) -> tuple:
    """The domain, period, pattern, transient and prefix of a signal file:
    each number as its numerator and denominator, each interval list as
    ``_read_list`` reads it."""
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
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
        entries[key], lines[key] = value, lineno

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

    def read(key: str, parse: Callable, default: str = "") -> object:
        try:
            return parse(entries.get(key, default))
        except TextFormatError as exc:
            raise TextFormatError(f"line {lines[key]}: {key}: {exc}") from exc

    return (domain, read("period", _read_rational), read("pattern", _read_list),
            read("transient", _read_rational, "0"), read("prefix", _read_list, "{}"))


def _checked(*fields) -> Signal:
    """The Signal of the fields a file holds, its refusal a format error."""
    try:
        return Signal(*fields)
    except SignalError as exc:
        raise TextFormatError(str(exc)) from exc


def parse_signal(text: str) -> Signal:
    domain, period, pattern, transient, prefix = _read_signal(text)
    return _checked(domain, Fraction(*period), _set_of(*pattern, Fraction),
                    Fraction(*transient), _set_of(*prefix, Fraction))


def parse_ticks(text: str) -> Signal:
    """``to_ticks(parse_signal(text), Q)`` for Q its ``tick_unit``, made
    without a ``Fraction``: each number a/b as written becomes a * U // b, at
    U twice the lcm of the b, and then all are divided by U / Q.  That is
    half the gcd of U and of the numbers in ticks, since in lowest terms,
    after normalizing, a number x in ticks has the denominator U / gcd(x, U)."""
    domain, period, pattern, transient, prefix = _read_signal(text)
    rows = pattern[0] + prefix[0]
    unit = 2 * math.lcm(period[1], transient[1], *{b for _, b, _, _, _, _ in rows},
                        *{d for _, _, _, d, _, _ in rows})

    def num(a: int, b: int) -> int:
        return a * unit // b

    s = _checked(domain, num(*period), _set_of(*pattern, num), num(*transient),
                 _set_of(*prefix, num), unit)
    comps = s.pattern.components + s.prefix.components
    k = math.gcd(unit, s.period, s.transient, *map(attrgetter("lower"), comps),
                 *map(attrgetter("upper"), comps)) // 2
    if k == 1:
        return s
    return _signal(domain, s.period // k, _map_ends(s.pattern, k.__rfloordiv__),
                   s.transient // k, _map_ends(s.prefix, k.__rfloordiv__), unit // k)
