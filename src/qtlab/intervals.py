"""Exact sets of rationals built from finitely many intervals.

Everything downstream (signals, the evaluation engine, the oracle) reduces to
algebra on these sets, so this module is deliberately small and exact:
endpoints are exact numbers, so every set is bounded, and every
``IntervalSet`` lives in a unique normal form (components sorted, pairwise
disjoint, non-adjacent).  Two sets denote the same subset of the line if and
only if they are structurally equal.

An exact number is an ``int`` or a ``fractions.Fraction``, and the algebra
keeps the type it is given.  The convenience constructors ``Interval.point``
and ``open`` make ``Fraction``s; the evaluation engine runs on ``int``
ticks, a scale that ``qtlab.signals`` owns.  Text is read only for the file
readers of ``qtlab.signals``, by one private list reader: it runs the checks
of ``Interval`` on each end's numerator and denominator digits, and keeps
them as ints.  One builder makes the ends at the reader's scale from them,
and wraps a list that is normal as written: each interval starts after a
gap from the one before.  Any other list is normalized.
An ``Interval`` is a tuple, hashed and compared in C, and ``x in iv`` asks
for membership.  Its public constructors (``Interval(...)``, ``point``,
``open``, ``_make``, ``_replace``, copy, pickle) all check it.
The private ``_unchecked`` does not, nor ``tuple.__new__`` in the hottest
loops; they build only records valid by construction from valid ones and
numbers passed through ``exact``, or records whose checks ran on the ints
they were read from.  Translations and strictly increasing maps of the ends
(``shift``, ``signals._moved`` for slices and frames, ``_map_ends``,
``to_ticks``) keep lo <= hi and a point closed; ``_coalesce`` and the copy
join of ``signals._unroll`` take the hull of two valid components; ``span``,
``_clip``, ``_part``, the overlaps and gaps of ``intersection`` and
``complement``, and the truth pieces of the engine's kernels
(``count_kernel``, ``order_kernel``, ``pnueli_kernel``) are built only when
nonempty: lo < hi, or a closed point.

The algebra works on normal forms directly, each operation one linear pass:
``union`` hands both sorted component tuples to the constructor, whose sort
merges two sorted runs in one pass before it coalesces touching neighbours,
``intersection`` walks both tuples with two pointers, and ``complement(lo,
hi)`` emits the gaps within the span ``[lo, hi)``: a bounded set has no
complement on the whole line.  Membership is one ``bisect`` over the
components.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Tuple, Union

RationalLike = Union[Fraction, int]


class IntervalError(ValueError):
    """Malformed interval: lower > upper, or a point with an open flag."""


class TextFormatError(ValueError):
    """Rational / interval / interval-list text that does not match the syntax."""


def exact(value: RationalLike) -> RationalLike:
    """Return an int or Fraction unchanged. Floats are rejected: no rounding here."""
    if type(value) is int or type(value) is Fraction or isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int (or Fraction) to Fraction. Floats are rejected."""
    return value if type(value) is Fraction else Fraction(exact(value))


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")  # numerator, denominator digits


def _ints(text: str, num: str, den: str) -> Tuple[int, int]:
    """Numerator and positive denominator of text, read off its groups."""
    try:
        q = int(num), int(den or 1)
    except ValueError:  # int() refuses more digits than Python's limit
        raise TextFormatError(f"number of {len(text)} characters is too long to read") from None
    if not q[1]:
        raise TextFormatError(f"zero denominator: {text!r}")
    return q


def _read_rational(text: str) -> Tuple[int, int]:
    """The numerator and denominator written in ``p/q`` or an integer, optional leading ``-``."""
    s = text.strip()
    if not (m := _RATIONAL_RE.fullmatch(s)):
        raise TextFormatError(f"not a rational: {text!r}")
    return _ints(s, *m.groups())


class Interval(namedtuple("Interval", "lower upper lower_closed upper_closed")):
    """One bounded contiguous piece of the line, with per-endpoint closed
    flags.  A point interval is represented with both flags closed.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, lower: RationalLike, upper: RationalLike, lower_closed: bool = True,
                upper_closed: bool = True) -> "Interval":
        lo, hi = exact(lower), exact(upper)
        if lo > hi:
            raise IntervalError(f"lower {lo} above upper {hi}")
        if lo == hi and not (lower_closed and upper_closed):
            raise IntervalError(f"point {lo} must be closed on both sides")
        return tuple.__new__(cls, (lower, upper, lower_closed, upper_closed))

    @classmethod
    def point(cls, q: RationalLike) -> "Interval":
        q = rat(q)
        return cls(q, q, True, True)

    @classmethod
    def open(cls, lo: RationalLike, hi: RationalLike) -> "Interval":
        return cls(rat(lo), rat(hi), False, False)

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper

    def contains(self, x: RationalLike) -> bool:
        x = exact(x)
        return ((self.lower < x or (x == self.lower and self.lower_closed))
                and (x < self.upper or (x == self.upper and self.upper_closed)))

    __contains__ = contains  # not tuple membership

    def shift(self, d: RationalLike) -> "Interval":
        d = exact(d)
        return _unchecked(self.lower + d, self.upper + d, self.lower_closed, self.upper_closed)

    def __str__(self) -> str:
        return format_interval_list((self,))


def _unchecked(lower: RationalLike, upper: RationalLike, lower_closed: bool,
               upper_closed: bool) -> Interval:
    """An Interval past the checks of ``__new__``: see the module docstring."""
    return tuple.__new__(Interval, (lower, upper, lower_closed, upper_closed))


# Sort keys: an Interval's bare ends, for bisection, and _lower_key, which
# orders lower bounds as (q, closed) < (q, open).
_LOWER, _UPPER = itemgetter(0), itemgetter(1)


def _lower_key(iv: Interval):
    return (iv.lower, 0 if iv.lower_closed else 1)


def _coalesce(items: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Normal form of intervals already sorted by lower bound: join each to
    its predecessor when they overlap or touch."""
    merged: list[Interval] = []
    for iv in items:
        lo, up, lc, uc = iv
        if merged and (hi > lo or hi == lo and (hc or lc)):  # no gap: merge
            if up > hi or up == hi and uc and not hc:  # iv ends last
                hi, hc = up, uc
                merged[-1] = tuple.__new__(Interval, (merged[-1][0], up, merged[-1][2], uc))
        else:
            merged.append(iv)
            hi, hc = up, uc  # the upper end of merged[-1]
    return tuple(merged)


class IntervalSet:
    """A finite union of intervals in unique normal form.

    The constructor is the normalization path: it accepts components in any
    order, overlapping or adjacent, and produces the sorted, disjoint,
    non-adjacent form.  All algebra returns new sets in normal form.
    """

    __slots__ = ("_components",)

    EMPTY: "IntervalSet"

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._components = _coalesce(sorted(intervals, key=_lower_key))

    @classmethod
    def _wrap(cls, components: Tuple[Interval, ...]) -> "IntervalSet":
        """Trusted fast path for outputs that are normal by construction."""
        out = cls.__new__(cls)
        out._components = components
        return out

    @classmethod
    def span(cls, lo: RationalLike, hi: RationalLike) -> "IntervalSet":
        """The half-open window [lo, hi); empty unless lo < hi."""
        lo, hi = exact(lo), exact(hi)
        if lo >= hi:
            return cls.EMPTY
        return cls._wrap((_unchecked(lo, hi, True, False),))

    @property
    def components(self) -> Tuple[Interval, ...]:
        return self._components

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
        """Membership: the first component ending at or after x is the only
        candidate.  One ending open at x cannot be followed by one starting
        closed at x, since normal form would have merged the two."""
        comps = self._components
        i = bisect_left(comps, exact(x), key=_UPPER)
        return i < len(comps) and comps[i].contains(x)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not self._components:
            return other
        if not other._components:
            return self
        return IntervalSet(self._components + other._components)

    def complement(self, lo: RationalLike, hi: RationalLike) -> "IntervalSet":
        """The span [lo, hi) minus the set, in one pass: the gaps before,
        between and after the components, cut to the span."""
        lo, hi = exact(lo), exact(hi)
        out: list[Interval] = []
        start, closed = lo, True  # the lower end of the next gap
        for c in self._components:
            if c.lower >= hi:
                break
            if start < c.lower or (start == c.lower and closed and not c.lower_closed):
                out.append(_unchecked(start, c.lower, closed, not c.lower_closed))
            if start < c.upper or (start == c.upper and c.upper_closed):
                start, closed = c.upper, not c.upper_closed
        if start < hi:
            out.append(_unchecked(start, hi, closed, False))
        return IntervalSet._wrap(tuple(out))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        # Each output component is the overlap of one component from each
        # side.  The side whose component ends first moves on: that component
        # cannot meet the other side's next one.  Overlaps come out sorted,
        # and a point missing from either side separates any two of them, so
        # the result is in normal form as it stands.
        xs, ys = self._components, other._components
        out: list[Interval] = []
        i, j, nx, ny = 0, 0, len(xs), len(ys)
        while i < nx and j < ny:
            (xl, xu, xlc, xuc), (yl, yu, ylc, yuc) = x, y = xs[i], ys[j]
            # the later lower end, in _lower_key's order; the earlier upper end
            y_late = xl < yl or xl == yl and (xlc or not ylc)
            lo, lc = (yl, ylc) if y_late else (xl, xlc)
            if xu < yu or xu == yu and (yuc or not xuc):
                hi, hc, inner = xu, xuc, not y_late
                i += 1
            else:
                hi, hc, inner = yu, yuc, y_late
                j += 1
            if inner:  # one side's component lies inside the other's
                out.append(y if y_late else x)
            elif lo < hi or lo == hi and lc and hc:
                out.append(tuple.__new__(Interval, (lo, hi, lc, hc)))
        return IntervalSet._wrap(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        xs = self._components
        if not xs or not other._components:
            return self
        # any span holding this set will do; its upper end must lie past the
        # set, since the span leaves out hi itself
        return self.intersection(other.complement(xs[0].lower, xs[-1].upper + 1))

    def shift(self, d: RationalLike) -> "IntervalSet":
        d = exact(d)
        if d == 0 or not self._components:
            return self
        return IntervalSet._wrap(tuple(c.shift(d) for c in self._components))


IntervalSet.EMPTY = IntervalSet._wrap(())


# Text syntax, shared by every file format: [a,b] (a,b) [a,b) (a,b], rationals
# p/q or integer with optional leading -, lists comma separated, empty list {}.
# Blanks may stand around every token.  One compiled pattern reads an interval,
# its groups the opener, each end whole and in its two parts, and the closer;
# the list reader's pattern reads it with its separator, a comma or the end.

_INTERVAL_RE = re.compile(r"\s*([\[(])\s*({0})\s*,\s*({0})\s*([\])])\s*".format(
    _RATIONAL_RE.pattern))
_ITEM_RE = re.compile(_INTERVAL_RE.pattern + r"(?:(,)|\Z)")


def format_interval_list(intervals: Union[IntervalSet, Iterable[Interval]],
                         num: Callable[[RationalLike], str] = str) -> str:
    """The list text, {} when empty, with num writing each end."""
    return ",".join([f"{'[' if c.lower_closed else '('}{num(c.lower)},{num(c.upper)}"
                     f"{']' if c.upper_closed else ')'}" for c in intervals]) or "{}"


def _list_error(s: str, pos: int) -> TextFormatError:
    """The error of the list s whose item at pos does not read: no interval,
    an interval that ``_ints`` or ``Interval`` refuses, or no separator."""
    if not (m := _INTERVAL_RE.match(s, pos)):
        return TextFormatError(f"at position {pos}: expected an interval")
    opener, lo, ln, ld, hi, hn, hd, closer = m.groups()
    try:
        (a, b), (c, d) = _ints(lo, ln, ld), _ints(hi, hn, hd)
        Interval(Fraction(a, b), Fraction(c, d), opener == "[", closer == "]")
    except (TextFormatError, IntervalError) as exc:
        return TextFormatError(f"at position {pos}: {exc}")
    return TextFormatError(f"at position {m.end()}: expected ','")


def _read_list(text: str) -> Tuple[list, bool]:
    """The rows of a comma separated interval list ({} for empty; braces
    optional), and whether it is normal as written.  A row is the ints a, b,
    c, d of an interval's ends a/b and c/d as written, and its lower and upper
    closed flags.

    Each item is one match of the interval and its separator, its ends read
    as ints and checked as ``Interval`` checks them; only an item that fails
    goes to ``_list_error`` for its message."""
    s = text.strip()
    if s == "{}":
        return [], True
    if s.startswith("{") and s.endswith("}"):
        s = s[1:-1].strip()
    if not s:
        raise TextFormatError("empty interval list must be written {}")
    rows, pos, normal = [], 0, True
    while m := _ITEM_RE.match(s, pos):
        opener, _, ln, ld, _, hn, hd, closer, comma = m.groups()
        try:
            a, b, c, d = int(ln), int(ld or 1), int(hn), int(hd or 1)
        except ValueError:  # int() refuses more digits than Python's limit
            break
        lower_closed, upper_closed, order = opener == "[", closer == "]", c * b - a * d
        if not (b and d) or order < 0 or order == 0 and not (lower_closed and upper_closed):
            break
        if rows:  # normal while each interval starts after a gap from the one before
            last = rows[-1]
            gap = a * last[3] - last[2] * b  # the sign of this lower end less the last upper end
            normal &= gap > 0 or gap == 0 and not (last[5] or lower_closed)
        rows.append((a, b, c, d, lower_closed, upper_closed))
        pos = m.end()
        if not comma:
            return rows, normal
    raise _list_error(s, pos)


def _set_of(rows: list, normal: bool, num: Callable[[int, int], RationalLike]) -> IntervalSet:
    """The set of the rows that ``_read_list`` read, num(a, b) making each end."""
    items = []
    for a, b, c, d, lower_closed, upper_closed in rows:
        lo = num(a, b)
        items.append(_unchecked(lo, num(c, d) if c * b - a * d else lo,
                                lower_closed, upper_closed))
    return IntervalSet._wrap(tuple(items)) if normal else IntervalSet(items)
