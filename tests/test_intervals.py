"""Exact-set algebra: normal form, boolean algebra, text syntax."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qtlab.intervals import (
    Interval,
    IntervalError,
    IntervalSet,
    TextFormatError,
    format_interval_list,
    format_rational,
    parse_interval,
    parse_interval_list,
    parse_rational,
)


def iset(*ivs):
    return IntervalSet(ivs)


# ---------------------------------------------------------------- construction

def test_point_requires_closed_flags():
    with pytest.raises(IntervalError):
        Interval(F(1), F(1), True, False)
    with pytest.raises(IntervalError):
        Interval(F(2), F(1))


def test_infinite_endpoints_forced_open():
    iv = Interval(None, F(0))
    assert not iv.lower_closed and iv.upper_closed


def test_normalize_merges_touching_pieces():
    # [0,1) followed by [1,2] is one solid block.
    assert iset(Interval(0, 1, True, False), Interval.closed(1, 2)) == iset(Interval.closed(0, 2))
    # A closed endpoint glues a point to an open interval.
    assert iset(Interval.point(0), Interval.open(0, 1)) == iset(Interval(0, 1, True, False))
    # (0,1) and (1,2) stay apart: the shared endpoint belongs to neither.
    assert len(iset(Interval.open(0, 1), Interval.open(1, 2))) == 2


def test_union_examples():
    a = iset(Interval.open(0, 1))
    b = IntervalSet.point(1)
    assert a.union(b) == iset(Interval(0, 1, False, True))


def test_complement_of_right_ray():
    ray = iset(Interval(F(0), None, True, False))
    assert ray.complement() == iset(Interval(None, F(0), False, False))
    assert IntervalSet.EMPTY.complement() == IntervalSet.FULL
    assert IntervalSet.FULL.complement() == IntervalSet.EMPTY


def test_shift():
    a = iset(Interval.open(0, 1))
    assert a.shift(F(-1, 3)) == iset(Interval.open(F(-1, 3), F(2, 3)))
    assert a.shift(F(1, 2)).shift(F(-1, 2)) == a


def test_membership_bisect():
    a = iset(Interval.open(0, 1), Interval.point(2), Interval(3, None, False, False))
    assert not a.contains(0)
    assert a.contains(F(1, 2))
    assert not a.contains(1)
    assert a.contains(2)
    assert not a.contains(3)
    assert a.contains(10 ** 6)


# ------------------------------------------------------------------ strategies

@st.composite
def rationals(draw, max_den=12, span=6):
    den = draw(st.integers(1, max_den))
    num = draw(st.integers(-span * den, span * den))
    return F(num, den)


@st.composite
def interval_sets(draw, max_cuts=8, allow_rays=False):
    cuts = sorted(draw(st.lists(rationals(), max_size=max_cuts, unique=True)))
    ivs = []
    i = 0
    while i < len(cuts):
        if i + 1 < len(cuts) and draw(st.booleans()):
            lc, uc = draw(st.booleans()), draw(st.booleans())
            ivs.append(Interval(cuts[i], cuts[i + 1], lc, uc))
            i += 2
        else:
            ivs.append(Interval.point(cuts[i]))
            i += 1
    if allow_rays and cuts and draw(st.booleans()):
        ivs.append(Interval(None, cuts[0], False, draw(st.booleans())))
    return IntervalSet(ivs)


def sample_points(*sets):
    """Component endpoints, their midpoints, and a little padding around them."""
    finite = sorted(
        {e for s in sets for c in s for e in (c.lower, c.upper) if e is not None}
    )
    pts = set(finite)
    for a, b in zip(finite, finite[1:]):
        pts.add((a + b) / 2)
    if finite:
        pts.add(finite[0] - 1)
        pts.add(finite[-1] + 1)
    else:
        pts.add(F(0))
    return pts


@settings(max_examples=120, deadline=None)
@given(interval_sets(allow_rays=True), interval_sets())
def test_boolean_algebra_pointwise(a, b):
    union = a.union(b)
    inter = a.intersection(b)
    diff = a.difference(b)
    comp = a.complement()
    for x in sample_points(a, b):
        ax, bx = a.contains(x), b.contains(x)
        assert union.contains(x) == (ax or bx)
        assert inter.contains(x) == (ax and bx)
        assert diff.contains(x) == (ax and not bx)
        assert comp.contains(x) == (not ax)


@settings(max_examples=120, deadline=None)
@given(interval_sets(allow_rays=True), interval_sets(allow_rays=True))
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersection(b.complement())


@settings(max_examples=120, deadline=None)
@given(interval_sets(allow_rays=True))
def test_complement_involution(a):
    assert a.complement().complement() == a


@settings(max_examples=100, deadline=None)
@given(interval_sets(), rationals())
def test_shift_inverse(a, d):
    assert a.shift(d).shift(-d) == a


@settings(max_examples=100, deadline=None)
@given(interval_sets())
def test_normal_form_unique_under_resplitting(a):
    # Chop every component into touching halves; normalization must rebuild a.
    pieces = []
    for c in a:
        if c.is_point or c.lower is None or c.upper is None:
            pieces.append(c)
            continue
        mid = (c.lower + c.upper) / 2
        pieces.append(Interval(c.lower, mid, c.lower_closed, True))
        pieces.append(Interval(mid, c.upper, False, c.upper_closed))
    pieces.reverse()
    assert IntervalSet(pieces) == a


# ------------------------------------------------------------------ text forms

def test_rational_text():
    assert parse_rational("-1/3") == F(-1, 3)
    assert parse_rational("4/6") == F(2, 3)
    assert format_rational(F(2, 1)) == "2"
    with pytest.raises(TextFormatError):
        parse_rational("1/0")
    with pytest.raises(TextFormatError):
        parse_rational("0.5")


def test_interval_text_roundtrip():
    for text in ["[0,0]", "(1/3,2/3)", "[-1/2,3)", "(-2,-1]"]:
        assert str(parse_interval(text)) == text
    with pytest.raises(TextFormatError):
        parse_interval("[1,0]")
    with pytest.raises(TextFormatError):
        parse_interval("[0,1) extra")


def test_interval_list_text():
    assert parse_interval_list("{}") == IntervalSet.EMPTY
    assert format_interval_list(IntervalSet.EMPTY) == "{}"
    s = parse_interval_list("[0,0],(1/3,2/3)")
    assert s == iset(Interval.point(0), Interval.open(F(1, 3), F(2, 3)))
    assert format_interval_list(s) == "[0,0],(1/3,2/3)"
    # braces tolerated on input
    assert parse_interval_list("{[0,0],(1/3,2/3)}") == s
    with pytest.raises(TextFormatError):
        parse_interval_list("[0,1);(1,2)")
    with pytest.raises(TextFormatError):
        parse_interval_list("")


@settings(max_examples=80, deadline=None)
@given(interval_sets())
def test_interval_list_text_roundtrip(a):
    assert parse_interval_list(format_interval_list(a)) == a
