"""Exact sets of rationals built from finitely many intervals.

Everything downstream (signals, the evaluation engine, the oracle) reduces to
algebra on these sets, so this module is deliberately small and exact: the only
number type is ``fractions.Fraction``, endpoints may be infinite, and every
``IntervalSet`` lives in a unique normal form (components sorted, pairwise
disjoint, non-adjacent).  Two sets denote the same subset of the line if and
only if they are structurally equal.

Intersection is defined through De Morgan from union and complement so that a
single normalization path stays authoritative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

RationalLike = Union[Fraction, int]


class IntervalError(ValueError):
    """Malformed interval: lower > upper, or a point with an open flag."""


class TextFormatError(ValueError):
    """Rational / interval / interval-list text that does not match the syntax."""


def rat(value: RationalLike) -> Fraction:
    """Coerce an int (or Fraction) to Fraction. Floats are rejected: no rounding here."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or an integer, optional leading ``-``. Lowest terms come for free."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise TextFormatError(f"not a rational: {text!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise TextFormatError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    return str(q)


@dataclass(frozen=True, slots=True)
class Interval:
    """One contiguous piece of the line, with per-endpoint closed flags.

    ``lower``/``upper`` may be None for minus/plus infinity; infinite endpoints
    are forced open.  A point interval is represented with both flags closed.
    """

    lower: Optional[Fraction]
    upper: Optional[Fraction]
    lower_closed: bool = True
    upper_closed: bool = True

    def __post_init__(self) -> None:
        lo = None if self.lower is None else rat(self.lower)
        hi = None if self.upper is None else rat(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo is None:
            object.__setattr__(self, "lower_closed", False)
        if hi is None:
            object.__setattr__(self, "upper_closed", False)
        if lo is not None and hi is not None:
            if lo > hi:
                raise IntervalError(f"lower {lo} above upper {hi}")
            if lo == hi and not (self.lower_closed and self.upper_closed):
                raise IntervalError(f"point {lo} must be closed on both sides")

    @classmethod
    def point(cls, q: RationalLike) -> "Interval":
        q = rat(q)
        return cls(q, q, True, True)

    @classmethod
    def open(cls, lo: Optional[RationalLike], hi: Optional[RationalLike]) -> "Interval":
        return cls(None if lo is None else rat(lo), None if hi is None else rat(hi), False, False)

    @classmethod
    def closed(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(rat(lo), rat(hi), True, True)

    @property
    def is_point(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def contains(self, x: RationalLike) -> bool:
        x = rat(x)
        if self.lower is not None:
            if x < self.lower or (x == self.lower and not self.lower_closed):
                return False
        if self.upper is not None:
            if x > self.upper or (x == self.upper and not self.upper_closed):
                return False
        return True

    def shift(self, d: RationalLike) -> "Interval":
        d = rat(d)
        return Interval(
            None if self.lower is None else self.lower + d,
            None if self.upper is None else self.upper + d,
            self.lower_closed,
            self.upper_closed,
        )

    def __str__(self) -> str:
        lo = "-inf" if self.lower is None else format_rational(self.lower)
        hi = "inf" if self.upper is None else format_rational(self.upper)
        return f"{'[' if self.lower_closed else '('}{lo},{hi}{']' if self.upper_closed else ')'}"


# Sort keys and merge predicates for normalization.  Lower bounds order as
# -inf < (q, closed) < (q, open); upper bounds as (q, open) < (q, closed) < +inf.

def _lower_key(iv: Interval):
    if iv.lower is None:
        return (0, Fraction(0), 0)
    return (1, iv.lower, 0 if iv.lower_closed else 1)


def _has_gap(a: Interval, b: Interval) -> bool:
    """True when b (whose lower sorts >= a's) does not touch or overlap a."""
    if a.upper is None or b.lower is None:
        return False
    if b.lower < a.upper:
        return False
    if b.lower == a.upper:
        return not (a.upper_closed or b.lower_closed)
    return True


def _merge(a: Interval, b: Interval) -> Interval:
    if a.upper is None or b.upper is None:
        hi, hic = None, False
    elif a.upper > b.upper:
        hi, hic = a.upper, a.upper_closed
    elif b.upper > a.upper:
        hi, hic = b.upper, b.upper_closed
    else:
        hi, hic = a.upper, a.upper_closed or b.upper_closed
    return Interval(a.lower, hi, a.lower_closed, hic)


class IntervalSet:
    """A finite union of intervals in unique normal form.

    The constructor is the normalization path: it accepts components in any
    order, overlapping or adjacent, and produces the sorted, disjoint,
    non-adjacent form.  All algebra returns new sets in normal form.
    """

    __slots__ = ("_components",)

    EMPTY: "IntervalSet"
    FULL: "IntervalSet"

    def __init__(self, intervals: Iterable[Interval] = ()):
        items = sorted(intervals, key=_lower_key)
        merged: list[Interval] = []
        for iv in items:
            if merged and not _has_gap(merged[-1], iv):
                merged[-1] = _merge(merged[-1], iv)
            else:
                merged.append(iv)
        self._components = tuple(merged)

    @classmethod
    def _wrap(cls, components: Tuple[Interval, ...]) -> "IntervalSet":
        """Trusted fast path for outputs that are normal by construction."""
        out = cls.__new__(cls)
        out._components = components
        return out

    @classmethod
    def point(cls, q: RationalLike) -> "IntervalSet":
        return cls._wrap((Interval.point(q),))

    @classmethod
    def span(cls, lo: RationalLike, hi: RationalLike) -> "IntervalSet":
        """The half-open window [lo, hi); empty unless lo < hi."""
        lo, hi = rat(lo), rat(hi)
        if lo >= hi:
            return cls.EMPTY
        return cls._wrap((Interval(lo, hi, True, False),))

    @property
    def components(self) -> Tuple[Interval, ...]:
        return self._components

    @property
    def is_empty(self) -> bool:
        return not self._components

    def __bool__(self) -> bool:
        return bool(self._components)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return "{" + ",".join(str(c) for c in self._components) + "}"

    def contains(self, x: RationalLike) -> bool:
        """Membership by binary search over the sorted components."""
        x = rat(x)
        comps = self._components
        lo, hi = 0, len(comps)
        while lo < hi:
            mid = (lo + hi) // 2
            c = comps[mid]
            if c.upper is not None and (x > c.upper or (x == c.upper and not c.upper_closed)):
                lo = mid + 1
            elif c.lower is not None and (x < c.lower or (x == c.lower and not c.lower_closed)):
                hi = mid
            else:
                return True
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not self._components:
            return other
        if not other._components:
            return self
        return IntervalSet(self._components + other._components)

    def complement(self) -> "IntervalSet":
        comps = self._components
        if not comps:
            return IntervalSet.FULL
        out: list[Interval] = []
        first = comps[0]
        if first.lower is not None:
            out.append(Interval(None, first.lower, False, not first.lower_closed))
        for a, b in zip(comps, comps[1:]):
            out.append(Interval(a.upper, b.lower, not a.upper_closed, not b.lower_closed))
        last = comps[-1]
        if last.upper is not None:
            out.append(Interval(last.upper, None, not last.upper_closed, False))
        return IntervalSet._wrap(tuple(out))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        # De Morgan on purpose: one normalization code path stays authoritative.
        return self.complement().union(other.complement()).complement()

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other).union(other.difference(self))

    def shift(self, d: RationalLike) -> "IntervalSet":
        d = rat(d)
        if d == 0 or not self._components:
            return self
        return IntervalSet._wrap(tuple(c.shift(d) for c in self._components))


IntervalSet.EMPTY = IntervalSet._wrap(())
IntervalSet.FULL = IntervalSet._wrap((Interval(None, None, False, False),))


# Text syntax, shared by every file format: [a,b] (a,b) [a,b) (a,b], rationals
# p/q or integer with optional leading -, lists comma separated, empty list {}.

def format_interval(iv: Interval) -> str:
    if iv.lower is None or iv.upper is None:
        raise TextFormatError("unbounded intervals have no text form")
    return str(iv)


def format_interval_list(intervals: Union[IntervalSet, Iterable[Interval]]) -> str:
    parts = [format_interval(iv) for iv in intervals]
    if not parts:
        return "{}"
    return ",".join(parts)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, chars: str) -> str:
        self.skip_ws()
        ch = self.peek()
        if ch not in chars or ch == "":
            raise TextFormatError(
                f"at position {self.pos}: expected one of {sorted(chars)}, got {ch!r}"
            )
        self.pos += 1
        return ch

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL_RE.match(self.text, self.pos)
        if not m:
            raise TextFormatError(f"at position {self.pos}: expected a rational")
        self.pos = m.end()
        return parse_rational(m.group())

    def interval(self) -> Interval:
        opener = self.expect("[(")
        lo = self.rational()
        self.expect(",")
        hi = self.rational()
        closer = self.expect("])")
        try:
            return Interval(lo, hi, opener == "[", closer == "]")
        except IntervalError as exc:
            raise TextFormatError(f"at position {self.pos}: {exc}") from exc


def parse_interval(text: str) -> Interval:
    sc = _Scanner(text)
    iv = sc.interval()
    sc.skip_ws()
    if sc.pos != len(text):
        raise TextFormatError(f"at position {sc.pos}: trailing input after interval")
    return iv


def parse_interval_list(text: str) -> IntervalSet:
    """Parse a comma separated interval list ({} for empty; braces optional)."""
    s = text.strip()
    if s == "{}":
        return IntervalSet.EMPTY
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1].strip()
    if not s:
        raise TextFormatError("empty interval list must be written {}")
    sc = _Scanner(s)
    items = [sc.interval()]
    sc.skip_ws()
    while sc.pos < len(s):
        sc.expect(",")
        items.append(sc.interval())
        sc.skip_ws()
    return IntervalSet(items)
