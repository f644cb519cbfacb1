"""Signal representation: membership, slicing, alignment, canonical forms."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtlab.semantics
from qtlab.cli import main
from qtlab.intervals import Interval, IntervalSet, TextFormatError
from qtlab.lab import Triviality, classify_trivial
from qtlab.signals import (
    MAX_UNROLL,
    DomainError,
    Frame,
    Signal,
    SignalError,
    TimeDomain,
    align_many,
    combine,
    equal,
    format_signal,
    format_ticks,
    from_ticks,
    parse_signal,
    parse_ticks,
    tick_unit,
    to_ticks,
)
from qtlab.intervals import format_interval_list
from qtlab.semantics import Env, count_unit, evaluate_ticks, pnueli_unit, until
from qtlab.signals import _frame, _minimal_tail, _within, _write
from gen import (PERIODS, irregular_signal, random_formula, random_fraction, random_point_set,
                 random_signal, read_interval_list)
from test_intervals import interval_sets, rationals
from test_semantics import _numbers

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def iset(*ivs):
    return IntervalSet(ivs)


def grid_signal(domain, period):
    """P true exactly at the nonnegative multiples of period (all multiples on the line)."""
    return Signal(domain, F(period), iset(Interval.point(0)))


M2 = grid_signal(LINE, F(1, 2))
M3 = grid_signal(LINE, F(1, 3))
THM2 = grid_signal(HALF, F(2, 3))


# ----------------------------------------------------------------- invariants

def test_construction_guards():
    with pytest.raises(SignalError):
        Signal(LINE, F(0), IntervalSet.EMPTY)
    with pytest.raises(SignalError):
        Signal(LINE, F(1), iset(Interval.point(0)), transient=F(1, 2))
    with pytest.raises(SignalError):
        Signal(LINE, F(1), iset(Interval(F(1, 2), F(3, 2))))
    with pytest.raises(SignalError):
        # pattern may not contain the period point itself
        Signal(LINE, F(1), iset(Interval(F(1, 2), F(1))))
    with pytest.raises(SignalError):
        Signal(HALF, F(1), IntervalSet.EMPTY, transient=F(1), prefix=iset(Interval.point(1)))
    # upper endpoint equal to the period is fine when open
    Signal(LINE, F(1), iset(Interval(F(1, 2), F(1), True, False)))


@pytest.mark.parametrize("fields, error", [
    ((LINE, F(0), IntervalSet.EMPTY, F(0), IntervalSet.EMPTY, 1), SignalError),
    ((HALF, F(1), IntervalSet.EMPTY, F(-1), IntervalSet.EMPTY, 1), SignalError),
    ((LINE, F(1), iset(Interval.point(0)), F(1, 2), IntervalSet.EMPTY, 1), SignalError),
    ((LINE, F(1), iset(Interval.point(1)), F(0), IntervalSet.EMPTY, 1), SignalError),
    ((HALF, F(1), IntervalSet.EMPTY, F(1), iset(Interval.point(1)), 1), SignalError),
    ((LINE, 0.5, IntervalSet.EMPTY, F(0), IntervalSet.EMPTY, 1), TypeError),
], ids=["zero period", "negative transient", "line transient", "pattern escapes",
        "prefix escapes", "float period"])
def test_every_way_of_building_a_signal_validates(fields, error):
    """The constructor, _make, _replace, copy and pickle all check the
    fields: a forged record, built past the checks, cannot be copied."""
    forged = tuple.__new__(Signal, fields)
    names = Signal._fields
    base = Signal(fields[0], F(1), IntervalSet.EMPTY)
    for build in (lambda: Signal(*fields),
                  lambda: Signal(**dict(zip(names, fields))),
                  lambda: Signal._make(fields),
                  lambda: base._replace(**dict(zip(names, fields))),
                  lambda: copy.copy(forged),
                  lambda: copy.deepcopy(forged),
                  lambda: pickle.loads(pickle.dumps(forged))):
        with pytest.raises(error):
            build()


def test_rebuilt_signals_stay_public():
    """Copies and replacements go through the constructor, so a public
    signal's numbers are still made Fractions."""
    s = Signal(HALF, F(2, 3), iset(Interval.point(0)), F(1), iset(Interval.open(0, 1)))
    assert copy.copy(s) == copy.deepcopy(s) == pickle.loads(pickle.dumps(s)) == s
    t = s._replace(period=2, transient=1)
    assert type(t.period) is F and type(t.transient) is F
    assert Signal._make(s) == s


def test_in_asks_for_membership_not_a_field():
    """A Signal is a tuple underneath; ``in`` still tests the point set."""
    assert F(2, 3) in THM2 and F(1, 3) not in THM2
    assert 1 not in THM2  # though 1 is its unit
    with pytest.raises(TypeError):
        HALF in THM2
    with pytest.raises(DomainError):
        -1 in THM2


@pytest.mark.parametrize("text, message", [
    ("domain line\nperiod 1\npattern [0,1]\n", "pattern escapes"),
    ("domain line\nperiod 1\npattern [0,1/2),[1,1]\n", "pattern escapes"),
    ("domain line\nperiod 1\npattern (-1/2,0],[1/2,3/4]\n", "pattern escapes"),
    ("domain halfline\nperiod 1\npattern {}\ntransient 1\nprefix [0,1/2),[3/4,1]\n",
     "prefix escapes"),
])
def test_components_at_the_frame_boundary_are_rejected(tmp_path, capsys, text, message):
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    with pytest.raises(SignalError, match=message):
        Signal(TimeDomain(fields["domain"]), F(fields["period"]),
               read_interval_list(fields["pattern"]), F(fields.get("transient", 0)),
               read_interval_list(fields.get("prefix", "{}")))
    with pytest.raises(TextFormatError, match=message):
        parse_signal(text)
    path = tmp_path / "bad.sig"
    path.write_text(text, encoding="utf-8")
    assert main(["eval", "--formula", "P", "--bind", f"P={path}"]) == 2
    assert message in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(interval_sets(), rationals())
def test_frame_check_matches_the_set_difference(s, end):
    assert _within(s, end) == (not s.difference(IntervalSet.span(0, end)))


# ----------------------------------------------------------------- membership

def test_membership_full_line_grid():
    assert M3.contains(F(2, 3))
    assert M3.contains(-4)
    assert not M3.contains(F(1, 2))


def test_membership_half_line():
    assert THM2.contains(F(4, 3))
    assert not THM2.contains(1)
    with pytest.raises(DomainError):
        THM2.contains(F(-1, 3))


def test_membership_prefix_vs_tail():
    s = Signal(HALF, F(1), iset(Interval.point(0)), transient=F(2), prefix=iset(Interval.open(0, 1)))
    assert s.contains(F(1, 2))
    assert not s.contains(F(3, 2))
    assert s.contains(2) and s.contains(3)
    assert not s.contains(F(5, 2))


# ---------------------------------------------------------------------- slice

def test_slice_unrolls_the_pattern():
    assert M3.slice(0, 1) == iset(
        Interval.point(0), Interval.point(F(1, 3)), Interval.point(F(2, 3)), Interval.point(1)
    )
    assert M3.slice(F(-1, 3), F(1, 6)) == iset(Interval.point(F(-1, 3)), Interval.point(0))


def test_slice_covers_prefix_and_tail():
    s = Signal(HALF, F(1), iset(Interval.point(0)), transient=F(2), prefix=iset(Interval.open(0, 1)))
    assert s.slice(0, 3) == iset(Interval.open(0, 1), Interval.point(2), Interval.point(3))
    with pytest.raises(DomainError):
        s.slice(-1, 0)
    with pytest.raises(ValueError, match=r"empty window \[1, 0\]"):
        s.slice(1, 0)


def _own_endpoints(s, a, b):
    """Every endpoint of the signal inside [a, b], unrolled from its fields
    without slicing."""
    out = set()
    if s.domain is HALF:
        out |= {e for c in s.prefix for e in (c.lower, c.upper)}
    for k in range(math.floor((a - s.transient) / s.period) - 1,
                   math.floor((b - s.transient) / s.period) + 1):
        off = s.transient + k * s.period
        out |= {e + off for c in s.pattern for e in (c.lower, c.upper)}
    return {e for e in out if a <= e <= b}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_slice_matches_membership(rng, domain):
    s = random_signal(rng, domain)
    if rng.random() < 0.5:  # pattern copies, and the prefix, touch across their seams
        p, closed = s.period, rng.random() < 0.5
        s = Signal(domain, p, s.pattern.union(iset(Interval(0, p / 4, True, closed),
                                                   Interval(3 * p / 4, p, closed, False))),
                   s.transient, s.prefix.union(IntervalSet.span(s.transient / 2, s.transient)))
    # windows that start before, inside or after the transient and cross
    # zero to several period boundaries, points and empty ones included
    lo = F(0) if domain is HALF else -3 * s.period
    a = random_fraction(rng, lo, s.transient + 2 * s.period, max_den=24)
    b = a + rng.choice([F(0), s.period, random_fraction(rng, 0, 4 * s.period, max_den=24)])
    got = s.slice(a, b)
    assert IntervalSet(got.components) == got  # normal form
    assert all(a <= c.lower and c.upper <= b for c in got)
    cuts = sorted({a, b} | _own_endpoints(s, a, b)
                  | {e for c in got for e in (c.lower, c.upper)})
    for t in cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]:
        assert got.contains(t) == s.contains(t), (s, a, b, t)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_shift_moves_membership_by_d(rng, in_ticks):
    """x + d is in s.shift(d) iff x is in s, for d negative, zero and longer
    than a period, at every endpoint of either set over two periods and at
    the midpoint of every gap between them."""
    s = random_signal(rng, LINE)
    if in_ticks:
        s = to_ticks(s, tick_unit([s]))
        p = s.period
        ds = [0, -rng.randint(1, 3 * p), rng.randint(p + 1, 3 * p)]
    else:
        p = s.period
        ds = [F(0), -random_fraction(rng, F(1, 24), 3 * p, max_den=24),
              p + random_fraction(rng, F(1, 24), 2 * p, max_den=24)]
    for d in ds:
        moved = s.shift(d)
        assert moved.period == p and moved.unit == s.unit
        cuts = sorted(_own_endpoints(s, -p, 2 * p)
                      | {e - d for e in _own_endpoints(moved, d - p, d + 2 * p)})
        # a signal in ticks reads whole ticks: a midpoint half a tick off
        # them is read off the line's pattern, as contains would
        for x in cuts + [F(u + v) / 2 for u, v in zip(cuts, cuts[1:])]:
            if not in_ticks:
                assert moved.contains(x + d) == s.contains(x), (s, d, x)
            elif x.denominator == 1:
                assert moved.contains(int(x) + d) == s.contains(int(x)), (s, d, x)
            else:
                assert moved.pattern.contains((x + d) % p) == s.pattern.contains(x % p), (s, d, x)


def test_shift_refuses_the_half_line():
    with pytest.raises(DomainError, match="full-line"):
        THM2.shift(1)


# ---------------------------------------------------------------------- align

def test_align_takes_lcm_period_and_max_transient():
    a = Signal(HALF, F(1, 2), iset(Interval.point(0)))
    b = Signal(HALF, F(1, 3), iset(Interval.point(0)), transient=F(5, 2),
               prefix=iset(Interval.open(0, F(5, 2))))
    aa, bb = align_many([a, b])
    assert aa.period == bb.period == F(1)
    assert aa.transient == bb.transient == F(5, 2)
    for s, orig in ((aa, a), (bb, b)):
        for x in [F(0), F(1, 3), F(1, 2), F(5, 2), F(17, 6), F(3)]:
            assert s.contains(x) == orig.contains(x)


def test_align_rejects_domain_mismatch():
    with pytest.raises(DomainError):
        align_many([M3, THM2])


def test_one_frame_class_names_each_refusal():
    """The engine reads the signal layer's Frame; Frame.of refuses no
    signals, two domains and two scales, each by name."""
    assert qtlab.semantics.Frame is Frame
    assert Frame.of([M2, M3]) == Frame(LINE, F(1), F(0), 1)
    for signals, error, message in (
        ([], ValueError, "nothing to align"),
        ([M3, THM2], DomainError, "cannot align signals over different domains"),
        ([THM2, to_ticks(THM2, 6)], ValueError, "cannot align signals at different time scales"),
    ):
        with pytest.raises(error) as err:
            Frame.of(signals)
        assert str(err.value) == message


# a half-line tail of one component from 0, a pattern of all but the period
# points, and empty and whole patterns at periods that are not one unit
PERIODIC_H = Signal(HALF, F(4, 3), iset(Interval(0, F(1, 3), True, False)), F(1),
                    iset(Interval.point(F(1, 2))))
EMPTY_H = Signal(HALF, F(5), IntervalSet.EMPTY, F(2), iset(Interval(0, 1)))
FULL_H = Signal(HALF, F(7, 2), iset(Interval(0, F(7, 2), True, False)), F(3, 2),
                iset(Interval.point(0)))
GAPS_L = Signal(LINE, F(2), iset(Interval(0, 2, False, False)))
EMPTY_L = Signal(LINE, F(5), IntervalSet.EMPTY)
FULL_L = Signal(LINE, F(2, 3), iset(Interval(0, F(2, 3), True, False)))


@pytest.mark.parametrize("in_ticks", [False, True], ids=["public", "ticks"])
@pytest.mark.parametrize("signals, period, transient", [
    ([PERIODIC_H, EMPTY_H, FULL_H], F(4, 3), F(2)),
    ([EMPTY_H, FULL_H, EMPTY_H], 1, F(2)),
    ([FULL_L, GAPS_L, EMPTY_L], F(2), 0),
    ([EMPTY_L, FULL_L], 1, 0),
], ids=["half-mixed", "half-constant", "line-mixed", "line-constant"])
def test_a_constant_tail_adds_no_period_to_a_frame(signals, period, transient, in_ticks):
    """A pattern that is empty or the whole period repeats with any period
    from its transient, so Frame.of takes the lcm over the other signals'
    periods only, and is one unit when there are none; the transient is
    still the largest.  Every signal re-expressed at the frame denotes the
    same set."""
    unit = tick_unit(signals) if in_ticks else 1
    if in_ticks:
        signals = [to_ticks(s, unit) for s in signals]
    frame = Frame.of(signals)
    assert frame == Frame(signals[0].domain, period * unit, transient * unit, unit)
    for s in signals:
        assert s._reframe(frame).canonicalize() == s.canonicalize()


# -------------------------------------------------------------------- combine

def test_combine_not_on_grid():
    inv = combine("not", M3)
    assert inv.period == F(1, 3)
    assert inv.pattern == iset(Interval.open(0, F(1, 3)))


def test_combine_refuses_a_wrong_operand_count_and_an_unknown_operation():
    for args, message in ((("not", M3, M3), "single"), (("and", M3), "two signals"),
                          (("xor", M3, M3), "unknown")):
        with pytest.raises(ValueError, match=message):
            combine(*args)


def test_combine_and_contradiction_is_empty():
    s = combine("and", M3, combine("not", M3))
    assert s == Signal.constant(LINE, False)


def test_combine_or_merges_grids():
    s = combine("or", M2, grid_signal(LINE, F(1)))
    assert s == M2  # the unit grid is a subset of the half-unit grid


def test_combine_membership_coherence():
    rng = random.Random(7)
    for _ in range(40):
        domain = rng.choice([LINE, HALF])
        a = random_signal(rng, domain)
        b = random_signal(rng, domain)
        u = combine("or", a, b)
        i = combine("and", a, b)
        n = combine("not", a)
        for _ in range(25):
            x = F(rng.randint(0, 72), 12)
            assert u.contains(x) == (a.contains(x) or b.contains(x))
            assert i.contains(x) == (a.contains(x) and b.contains(x))
            assert n.contains(x) == (not a.contains(x))


# --------------------------------------------------------------- canonicalize

def test_canonicalize_finds_minimal_period():
    s = Signal(LINE, F(2, 3), iset(Interval.point(0), Interval.point(F(1, 3))))
    c = s.canonicalize()
    assert c.period == F(1, 3)
    assert c.pattern == iset(Interval.point(0))


def test_canonicalize_constants_get_period_one():
    s = Signal(LINE, F(5, 7), iset(Interval(0, F(5, 7), True, False)))
    assert s.canonicalize() == Signal.constant(LINE, True)
    t = Signal(HALF, F(3, 4), IntervalSet.EMPTY, transient=F(1, 2),
               prefix=IntervalSet.EMPTY)
    assert t.canonicalize() == Signal.constant(HALF, False)


def test_canonicalize_drops_prefix_matching_the_pattern():
    s = Signal(HALF, F(2, 3), iset(Interval.point(0)), transient=F(2, 3),
               prefix=iset(Interval.point(0)))
    c = s.canonicalize()
    assert c.transient == 0 and not c.prefix
    assert c == THM2.canonicalize()


def test_canonicalize_point_disagreement_snaps_to_grid():
    # True only at 0, never again: the tail extension is empty and disagrees
    # with the prefix exactly at the point 0, so the transient snaps to 1.
    s = Signal(HALF, F(3), IntervalSet.EMPTY, transient=F(3), prefix=iset(Interval.point(0)))
    c = s.canonicalize()
    assert c.period == 1 and not c.pattern
    assert c.transient == 1 and c.prefix == iset(Interval.point(0))


def test_canonicalize_open_disagreement_is_minimal():
    # True on (0,1), never again: transient 1 is attainable and minimal.
    s = Signal(HALF, F(2), IntervalSet.EMPTY, transient=F(4), prefix=iset(Interval.open(0, 1)))
    c = s.canonicalize()
    assert c.transient == 1 and c.prefix == iset(Interval.open(0, 1))


def _shift_cyclic(pattern, d, p):
    moved = pattern.shift(d % p)
    w = IntervalSet.span(0, p)
    return moved.intersection(w).union(moved.intersection(w.shift(p)).shift(-p))


def _reference_minimal_tail(p, pattern):
    """The cyclic-shift search _minimal_tail replaced: try every divisor m of
    the period up to the component count plus one, shrink, repeat."""
    if not pattern:
        return F(1), IntervalSet.EMPTY
    if pattern == IntervalSet.span(0, p):
        return F(1), IntervalSet.span(0, 1)
    while True:
        for m in range(2, len(pattern.components) + 2):
            q = p / m
            if _shift_cyclic(pattern, q, p) == pattern:
                p, pattern = q, pattern.intersection(IntervalSet.span(0, q))
                break
        else:
            return p, pattern


def _toggle_one_flag(rng, pattern, p):
    """The pattern with one closed flag of one component of positive length
    flipped, where that keeps it inside [0, p); None when there is none."""
    comps = list(pattern.components)
    spots = [(i, side) for i, c in enumerate(comps) if not c.is_point
             for side in ("lower", "upper") if side == "lower" or c.upper < p]
    if not spots:
        return None
    i, side = rng.choice(spots)
    c = comps[i]
    if side == "lower":
        comps[i] = Interval(c.lower, c.upper, not c.lower_closed, c.upper_closed)
    else:
        comps[i] = Interval(c.lower, c.upper, c.lower_closed, not c.upper_closed)
    return IntervalSet(comps)


def test_minimal_tail_matches_the_cyclic_shift_search():
    rng = random.Random(2718)
    checked = 0
    for trial in range(300):
        q = rng.choice([F(1, 3), F(1, 2), F(2, 3), F(1), F(5, 4)])
        base = random_point_set(rng, q, max_components=4, max_den=12)
        m = 2 + trial % 6
        p = m * q
        pattern = IntervalSet([c.shift(k * q) for k in range(m) for c in base])
        # rotating makes components wrap across the period boundary
        pattern = _shift_cyclic(pattern, random_fraction(rng, 0, p, max_den=24), p)
        variants = [pattern, _toggle_one_flag(rng, pattern, p)]
        for pat in variants:
            if pat is None:
                continue
            assert _minimal_tail(p, pat, 1) == _reference_minimal_tail(p, pat), (p, pat)
            checked += 1
    assert checked > 400


def _check_canonical_form(rng, s):
    """s canonicalizes idempotently, and to the same form from a coarser
    frame and at the tick scale."""
    c = s.canonicalize()
    assert c.canonicalize() == c
    m = rng.randint(1, 3)
    bigger_T = c.transient + rng.randint(0, 2) * c.period if s.domain is HALF else F(0)
    assert s._reframe(Frame(s.domain, m * s.period, bigger_T, s.unit)).canonicalize() == c
    assert from_ticks(to_ticks(s, tick_unit([s])).canonicalize()) == c
    return c


def test_canonicalize_idempotent_and_representation_free():
    rng = random.Random(11)
    for _ in range(60):
        _check_canonical_form(rng, random_signal(rng, rng.choice([LINE, HALF])))


def _frame_by_intersection(frame, t_bound, truth):
    """The two span intersections that _frame's bisection replaced: its reference."""
    pattern = truth.intersection(IntervalSet.span(t_bound, t_bound + frame.period)).shift(-t_bound)
    prefix = truth.intersection(IntervalSet.span(0, t_bound))
    return Signal(frame.domain, frame.period, pattern, t_bound, prefix, frame.unit)


def _canonicalize_by_windows(s):
    """The doubling-window search for the last disagreement that the
    lockstep walk in canonicalize replaced, framed by span intersections:
    the reference for both."""
    if not (s.pattern or s.prefix):
        return Signal.constant(s.domain, False, s.unit)
    if (s.pattern == IntervalSet.span(0, s.period)
            and s.prefix == IntervalSet.span(0, s.transient)):
        return Signal.constant(s.domain, True, s.unit)
    p0, pat0 = _minimal_tail(s.period, s.pattern, s.unit)
    if s.domain is LINE:
        return Signal(s.domain, p0, pat0, unit=s.unit)
    tc, hi, width = 0, s.transient, p0
    while hi > 0:
        lo = max(hi - width, 0)
        dis = s.slice(lo, hi).symmetric_difference(s.slice(lo + p0, hi + p0).shift(-p0))
        if dis:
            last = dis.components[-1]
            tc = (last.upper // p0 + 1) * p0 if last.upper_closed else last.upper
            break
        hi, width = lo, 2 * width
    if tc == s.transient and p0 == s.period:
        return s
    return _frame_by_intersection(Frame(s.domain, p0, tc, s.unit), tc, s.slice(0, tc + p0))


def _near_periodic(rng, where):
    """A half-line signal whose prefix is its tail extension but for one
    change below the transient T: a point flipped, a piece toggled, or one
    closed flag toggled.  The change is at the origin, in the first window
    [T - p0, T) or anywhere below T; its stored period may be a multiple of
    the pattern's own."""
    q = rng.choice(PERIODS)
    base = random_point_set(rng, q, max_components=3)
    m = rng.randint(1, 3)
    pattern = IntervalSet([c.shift(k * q) for k in range(m) for c in base])
    T = random_fraction(rng, F(1, 12), 4 * q)
    tail = Signal(LINE, m * q, pattern).shift(T)
    prefix = tail.slice(0, T).intersection(IntervalSet.span(0, T))
    lo = {"origin": F(0), "first window": max(T - q, F(0)), "anywhere": F(0)}[where]
    x = F(0) if where == "origin" else random_fraction(rng, lo, T, max_den=24)
    x = lo if x >= T else x
    kind = rng.randrange(3)
    if kind == 0:
        prefix = prefix.symmetric_difference(iset(Interval.point(x)))
    elif kind == 1:
        y = random_fraction(rng, x, T, max_den=24)
        if y > x:
            piece = Interval(x, y, rng.random() < 0.5, rng.random() < 0.5 and y < T)
            prefix = prefix.symmetric_difference(iset(piece))
    else:
        prefix = _toggle_one_flag(rng, prefix, T) or prefix
    return Signal(HALF, m * q, pattern, T, prefix)


def test_lockstep_walk_matches_the_doubling_windows():
    """canonicalize equals the doubling-window search on random signals of
    both domains, public and in ticks, and on half-line signals whose
    prefix disagrees with the tail at one spot: at the origin, in the first
    window below the transient, or anywhere."""
    rng = random.Random(1729)
    for trial in range(800):
        where = ("random", "origin", "first window", "anywhere")[trial % 4]
        domain = rng.choice([LINE, HALF]) if where == "random" else HALF
        s = random_signal(rng, domain) if where == "random" else _near_periodic(rng, where)
        for x in (s, to_ticks(s, tick_unit([s]))):
            assert x.canonicalize() == _canonicalize_by_windows(x), x


HALF_UNIT = Interval(0, F(1, 2), True, False)


@pytest.mark.parametrize("transient, prefix, tc", [
    (2, iset(HALF_UNIT, Interval(1, F(3, 2))), 2),
    (2, iset(Interval.open(0, F(1, 2)), Interval(1, F(3, 2), True, False)), 1),
    (3, iset(HALF_UNIT, Interval(1, F(5, 4), True, False), Interval(2, F(5, 2), True, False)),
     F(3, 2)),
    (F(9, 4), iset(Interval(F(1, 4), F(3, 4), True, False), Interval(F(5, 4), F(7, 4), True, False),
                   Interval.point(2)), 3),
    (3, iset(HALF_UNIT, Interval(1, F(3, 2), True, False), Interval(2, F(5, 2), True, False)), 0),
], ids=["closed point in the first window", "closed point at the origin",
        "open end a window back", "closed point snapped past the transient", "no disagreement"])
def test_last_disagreement_cases(transient, prefix, tc):
    """Pattern [0, 1/2) of period 1 from the transient, and a prefix that
    disagrees with its extension once (or never): the walk finds the
    disagreement the windows found, a closed one snapped up to the grid."""
    s = Signal(HALF, 1, iset(HALF_UNIT), transient, prefix)
    c = s.canonicalize()
    assert c == _canonicalize_by_windows(s) and c.transient == tc
    ticks = to_ticks(s, 8)
    assert ticks.canonicalize() == _canonicalize_by_windows(ticks) == to_ticks(c, 8)


def _truth_at_the_cuts(rng, domain, t_bound, period):
    """A random set around [0, t_bound + period), with pieces that straddle,
    close or open exactly at t_bound and at t_bound + period."""
    end = t_bound + period
    lo = F(0) if domain is HALF else -period
    comps = list(random_point_set(rng, end + 1 - lo, max_components=6, max_den=12).shift(lo))
    for edge in (t_bound, end):
        a = max(edge - random_fraction(rng, F(1, 12), 1), lo)
        b = edge + random_fraction(rng, F(1, 12), 1)
        closed = rng.random() < 0.5
        comps += rng.choice([
            [Interval.point(edge)],
            [Interval(a, edge, closed, True)] if a < edge else [],
            [Interval(a, edge, closed, False)] if a < edge else [],
            [Interval(edge, b, True, closed)],
            [Interval(edge, b, False, closed)],
            [Interval(a, b, closed, not closed)],
            [],
        ])
    return IntervalSet(comps)


def test_bisection_split_matches_the_span_intersections():
    """_frame's bisection equals the two span intersections, public and in
    ticks, on truth sets whose components straddle, close or open at t_bound
    and at t_bound + period."""
    rng = random.Random(4096)
    for _ in range(800):
        domain, period = rng.choice([LINE, HALF]), rng.choice(PERIODS)
        t_bound = random_fraction(rng, 0, 2) if domain is HALF else F(0)
        truth = _truth_at_the_cuts(rng, domain, t_bound, period)
        frame = Frame(domain, period, t_bound, 1)
        assert _frame(frame, t_bound, truth) == _frame_by_intersection(frame, t_bound, truth)
        q = 2 * math.lcm(period.denominator, t_bound.denominator,
                         *(x.denominator for c in truth for x in (c.lower, c.upper)))
        ticks = IntervalSet([Interval(int(c.lower * q), int(c.upper * q), c.lower_closed,
                                      c.upper_closed) for c in truth])
        frame = Frame(domain, int(period * q), int(t_bound * q), q)
        assert (_frame(frame, frame.transient, ticks)
                == _frame_by_intersection(frame, frame.transient, ticks))


def _constant_in_disguise(rng, domain, value):
    """The empty or the full set over a random period and transient, its
    pattern built as the union of a random subset and its complement."""
    p = rng.choice(PERIODS)
    T = random_fraction(rng, 0, 2) if domain is HALF else F(0)
    part = random_point_set(rng, p)
    pattern = part.union(part.complement(0, p)) if value else part.difference(part)
    prefix = IntervalSet.span(0, T) if value else IntervalSet.EMPTY
    return Signal(domain, p, pattern, T, prefix)


def test_constants_canonicalize_to_the_constant():
    """Every representation of the empty and the full set, at either scale,
    canonicalizes to Signal.constant; near-constants keep their transient
    or their period and still have representation-free canonical forms."""
    rng = random.Random(5)
    for _ in range(100):
        domain, value = rng.choice([LINE, HALF]), rng.random() < 0.5
        s = _constant_in_disguise(rng, domain, value)
        assert s.canonicalize() == Signal.constant(domain, value)
        unit = rng.choice([1, 3]) * tick_unit([s])
        assert to_ticks(s, unit).canonicalize() == Signal.constant(domain, value, unit)
        full = _constant_in_disguise(rng, domain, True)
        x, y = (iset(Interval.point(end * rng.randrange(12) / 12))
                for end in (full.period, full.transient))
        near = [full._replace(pattern=full.pattern.difference(x))]  # one point off the tail
        if full.transient:
            near += [full._replace(prefix=full.prefix.difference(y)),  # one off the prefix
                     full._replace(pattern=IntervalSet.EMPTY)]  # full prefix, empty tail
        for t in near:
            c = _check_canonical_form(rng, t)
            assert c not in (Signal.constant(domain, True), Signal.constant(domain, False))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]), st.booleans())
def test_built_records_revalidate(rng, domain, in_ticks):
    """Records the library builds past the checks of Interval.__new__ and
    Signal.__new__ are valid: every component and signal re-validates as it
    stands and keeps its number types, Fractions on a public signal and ints
    in ticks.  The signals come from every site that builds them unchecked."""
    a, b = public = random_signal(rng, domain), random_signal(rng, domain)
    pick = lambda lo, hi: random_fraction(rng, lo, hi, max_den=24)  # noqa: E731
    if in_ticks:
        unit = tick_unit([a, b])
        a, b = to_ticks(a, unit), to_ticks(b, unit)
        pick = rng.randint
    frame = Frame.of([a, b])
    end = frame.transient + 2 * frame.period
    lo, hi = pick(0, end), pick(0, end)
    lo, hi = min(lo, hi), max(lo, hi)
    x, y = a.slice(lo, hi), b.slice(0, end)
    d = pick(-end, end)
    sets = [x, y, b.slice(lo, hi), x.union(y), x.intersection(y), x.difference(y),
            y.complement(lo, hi), x.shift(d), y.shift(d)]
    sigs = [a, b, a.canonicalize(), combine("and", a, b), combine("or", a, b),
            combine("not", b), Signal.constant(domain, True, frame.unit),
            Signal.constant(domain, False, frame.unit), _frame(frame, frame.transient, x.union(y)),
            _frame(frame, frame.settled(), y), until(a, b), count_unit(a, 2), pnueli_unit([a, b])]
    if domain is LINE:
        sigs.append(a.shift(d))
    if in_ticks:
        sigs += [to_ticks(a, 3 * unit), parse_ticks(format_signal(public[1]))]
        sigs += [from_ticks(s) for s in sigs]
    sets += [part for s in sigs for part in (s.pattern, s.prefix)]
    for s in sets:
        for c in s:
            assert Interval(*c) == c and type(c.lower) is type(c.upper)
        assert IntervalSet(s.components) == s
    for s in sigs:
        assert Signal(*s) == s
        assert {type(n) for n in _numbers(s)} == {F if s.unit == 1 else int}, s


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]), st.booleans())
def test_framed_alike_exactly_when_canonically_alike(rng, domain, in_ticks):
    """Two signals cut by _frame at one frame that both repeat
    in are structurally equal exactly when their canonical forms are, so a
    frame can key sets.  The second signal is the first re-expressed, the
    first with a point added (which it may hold), or a fresh draw."""
    a = random_signal(rng, domain)
    kind = rng.randrange(3)
    if kind == 0:
        grow = rng.randint(0, 2) * a.period if domain is HALF else 0
        b = a._reframe(Frame(domain, rng.randint(1, 3) * a.period, a.transient + grow, a.unit))
    elif kind == 1:
        q = random_fraction(rng, 0, a.period, max_den=24)
        point = Signal(domain, a.period, iset(Interval.point(q if q < a.period else 0)))
        b = combine("or", a, point)
    else:
        b = random_signal(rng, domain)
    if in_ticks:
        unit = tick_unit([a, b])
        a, b = to_ticks(a, unit), to_ticks(b, unit)
    frame = Frame.of([a, b])
    frame = frame._replace(period=frame.period * rng.randint(1, 2))
    if domain is HALF:
        frame = frame._replace(transient=frame.transient + rng.randint(0, 2) * a.unit)
    framed = [_frame(frame, frame.transient, s.slice(*frame.window(0))) for s in (a, b)]
    assert (framed[0] == framed[1]) == (a.canonicalize() == b.canonicalize())
    if kind == 0:
        assert framed[0] == framed[1]


# ---------------------------------------------------------------------- ticks

def _tick_cases(rng):
    """Random signals on both domains, half-line prefixes that disagree with
    the tail at one point, and constants, plain and in disguise."""
    for _ in range(80):
        domain = rng.choice([LINE, HALF])
        s = random_signal(rng, domain)
        yield s
        if domain is HALF and s.transient:
            x = random_fraction(rng, 0, s.transient, max_den=12)
            if x < s.transient:
                flipped = s.prefix.symmetric_difference(iset(Interval.point(x)))
                yield Signal(HALF, s.period, s.pattern, s.transient, flipped)
    for domain in (LINE, HALF):
        for value in (True, False):
            yield Signal.constant(domain, value)
        yield Signal(domain, F(5, 7), iset(Interval(0, F(5, 7), True, False)))
    yield Signal(HALF, F(3), IntervalSet.EMPTY, transient=F(3), prefix=iset(Interval.point(0)))
    yield Signal(HALF, F(1), IntervalSet.span(0, 1), F(1, 2), iset(Interval.open(F(1, 4), F(1, 2))))


def test_canonical_forms_commute_with_the_tick_scale():
    """Canonicalizing in ticks and scaling back equals canonicalizing in
    Fractions, at the natural tick unit and at a multiple of it: a constant
    keeps a period of one unit, and a snap goes to the period grid."""
    rng = random.Random(23)
    for s in _tick_cases(rng):
        want = s.canonicalize()
        for unit in (tick_unit([s]), 3 * tick_unit([s])):
            t = to_ticks(s, unit)
            assert t.unit == unit and from_ticks(t) == s
            assert from_ticks(t.canonicalize()) == want, (s, unit)
            assert from_ticks(t.tail_extension()) == s.tail_extension(), (s, unit)


def test_to_ticks_scales_every_number_by_the_tick_unit():
    s = Signal(HALF, F(2, 3), iset(Interval.point(F(1, 4))), F(3, 5), iset(Interval.point(F(1, 7))))
    assert tick_unit([s]) == 2 * 3 * 4 * 5 * 7
    assert tick_unit([]) == 2
    t = to_ticks(s, 840)
    assert (t.period, t.transient) == (560, 504)
    assert t.pattern == iset(Interval(210, 210)) and t.prefix == iset(Interval(120, 120))
    with pytest.raises(ValueError):
        align_many([s, t])
    with pytest.raises(ValueError, match="whole number of ticks"):
        to_ticks(s, 210)  # not a multiple of the denominator 4


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]),
       st.integers(1, 4), st.integers(1, 6))
def test_one_scaling_rule_at_both_scales(rng, domain, m, k):
    """to_ticks and tick_unit read a signal at either scale alike: scaling
    a signal in ticks of unit Q to kQ is scaling its public form there, a
    signal in ticks at a multiple of its public form's tick unit has its own
    unit as its tick unit, and the tick unit of a list mixing the scales is
    the lcm of its parts' tick units.  At its tick unit every number of a
    signal is an even tick, also when its own ticks are not all even."""
    s = random_signal(rng, domain, max_den=rng.choice((6, 12)))
    q = m * tick_unit([s])
    ticks = to_ticks(s, q)
    assert to_ticks(ticks, k * q) == to_ticks(s, k * q)
    assert tick_unit([ticks]) == q and to_ticks(ticks, q) is ticks
    half = to_ticks(s, tick_unit([s]) // 2)
    for x in (s, ticks, half):
        even = to_ticks(x, tick_unit([x]))
        assert even == to_ticks(s, tick_unit([x])) and not any(n & 1 for n in _numbers(even))
    parts = [random_signal(rng, domain) for _ in range(rng.randint(1, 4))]
    parts = [to_ticks(p, rng.randint(1, 3) * tick_unit([p])) if rng.random() < 0.5 else p
             for p in parts] + [ticks]
    rng.shuffle(parts)
    assert tick_unit(parts) == math.lcm(*(tick_unit([p]) for p in parts))


def test_a_signal_in_ticks_meets_no_public_signal():
    """Frame.of is the one check that signals which meet share a domain and a
    scale: comparing across scales raises, as do scaling a signal in ticks
    to a unit its own does not divide and printing it as a public one.  At
    one scale the comparisons hold."""
    ticks = to_ticks(M3, 6)
    for call in (lambda: equal(M3, ticks), lambda: equal(ticks, M3, eventually=True),
                 lambda: classify_trivial(M3, ticks), lambda: classify_trivial(ticks, M3)):
        with pytest.raises(ValueError, match="cannot align signals at different time scales"):
            call()
    with pytest.raises(DomainError, match="cannot align signals over different domains"):
        equal(M3, THM2)
    with pytest.raises(ValueError, match="cannot scale a signal of unit 6 to ticks of unit 8"):
        to_ticks(ticks, 8)
    with pytest.raises(ValueError, match="cannot print a signal in ticks of unit 6"):
        format_signal(ticks)
    assert equal(ticks, to_ticks(M3, 6)) and classify_trivial(ticks, ticks) is Triviality.P


# ---------------------------------------------------------------------- equal

def test_equal_across_representations():
    fine = grid_signal(LINE, F(1, 2))
    coarse = Signal(LINE, F(1), iset(Interval.point(0), Interval.point(F(1, 2))))
    assert equal(fine, coarse)


def test_equal_eventually_ignores_the_prefix():
    noisy = Signal(HALF, F(2, 3), iset(Interval.point(0)), transient=F(4, 3),
                   prefix=iset(Interval.open(F(1, 10), F(9, 10))))
    assert not equal(noisy, THM2)
    assert equal(noisy, THM2, eventually=True)


def test_equal_rejects_domain_mismatch():
    with pytest.raises(DomainError):
        equal(M3, THM2)


# ------------------------------------------------------------------- classify

def test_classify_the_four_classes():
    p = THM2
    assert classify_trivial(Signal.constant(HALF, True), p) is Triviality.TRUE
    assert classify_trivial(Signal.constant(HALF, False), p) is Triviality.FALSE
    assert classify_trivial(Signal(HALF, F(2, 3), iset(Interval.point(0))), p) is Triviality.P
    assert classify_trivial(combine("not", p), p) is Triviality.NOT_P
    assert classify_trivial(
        Signal(HALF, F(2, 3), iset(Interval.open(F(1, 3), F(2, 3)))), p
    ) is Triviality.NONE


def test_classify_precedence_on_degenerate_atom():
    full = Signal.constant(LINE, True)
    assert classify_trivial(Signal.constant(LINE, True), full) is Triviality.TRUE
    empty = Signal.constant(LINE, False)
    assert classify_trivial(Signal.constant(LINE, True), empty) is Triviality.TRUE
    assert classify_trivial(Signal.constant(LINE, False), empty) is Triviality.FALSE


def test_classify_eventually():
    noisy = Signal(HALF, F(2, 3), iset(Interval.point(0)), transient=F(2),
                   prefix=iset(Interval.open(0, 2)))
    assert classify_trivial(noisy, THM2) is Triviality.NONE
    assert classify_trivial(noisy, THM2, eventually=True) is Triviality.P


# ---------------------------------------------------------------- file format

def test_format_parse_roundtrip_examples():
    text = format_signal(THM2)
    assert text == "domain halfline\nperiod 2/3\npattern [0,0]\ntransient 0\nprefix {}\n"
    assert parse_signal(text) == THM2
    line_text = format_signal(M3)
    assert "transient" not in line_text
    assert parse_signal(line_text) == M3


def test_parse_signal_accepts_comments_and_any_order():
    text = """
# a half line signal
pattern (1/3,2/3)   # one open component
period 2/3
domain halfline
"""
    s = parse_signal(text)
    assert s.domain is HALF and s.transient == 0
    assert s.pattern == iset(Interval.open(F(1, 3), F(2, 3)))


def test_parse_signal_errors():
    with pytest.raises(TextFormatError):
        parse_signal("domain line\nperiod 1\n")  # missing pattern
    with pytest.raises(TextFormatError):
        parse_signal("domain line\nperiod 1\npattern {}\ntransient 1\n")
    with pytest.raises(TextFormatError):
        parse_signal("domain line\nperiod 1\npattern {}\nperiod 2\n")
    with pytest.raises(TextFormatError):
        parse_signal("domain ray\nperiod 1\npattern {}\n")
    with pytest.raises(TextFormatError):
        parse_signal("domain line\nperiod 1\npattern [0,2]\n")
    with pytest.raises(TextFormatError):
        parse_signal("domain line\nperiod 1\npattern {}\ncolour blue\n")


def test_format_parse_roundtrip_random():
    rng = random.Random(23)
    for _ in range(60):
        s = random_signal(rng, rng.choice([LINE, HALF]))
        assert parse_signal(format_signal(s)) == s


# ------------------------------------------------ reading into ticks, writing from them

def _end_text(rng, q):
    """q in lowest terms, or not."""
    k = rng.choice((1, 1, 2, 3))
    return str(q) if k == 1 else f"{q.numerator * k}/{q.denominator * k}"


def _list_text(rng, part):
    """An interval list a file may hold for part: in normal form, or cut into
    touching, overlapping, repeated pieces, maybe unsorted, their cut points
    often of new denominators, with blanks, braced or not."""
    pieces = []
    for c in part:
        if c.lower < c.upper and rng.random() < 0.6:
            mid = (c.lower + c.upper) / 2
            left, right = rng.choice([(True, False), (False, True), (True, True)])
            if rng.random() < 0.3:  # overlapping past the cut
                pieces += [(c.lower, mid, c.lower_closed, True),
                           ((c.lower + mid) / 2, c.upper, True, c.upper_closed)]
            else:
                pieces += [(c.lower, mid, c.lower_closed, left), (mid, c.upper, right, c.upper_closed)]
        else:
            pieces.append(tuple(c))
        if rng.random() < 0.15:
            pieces.append(pieces[-1])
    if rng.random() < 0.4:
        rng.shuffle(pieces)
    blank = lambda: rng.choice(("", "", " ", "  "))  # noqa: E731
    text = ",".join(f"{blank()}{'[' if lc else '('}{blank()}{_end_text(rng, lo)},{blank()}"
                    f"{_end_text(rng, hi)}{blank()}{']' if uc else ')'}{blank()}"
                    for lo, hi, lc, uc in pieces)
    return f"{{{text}}}" if text and rng.random() < 0.3 else text or "{}"


def _signal_text(rng, s):
    """A file for s: its keys in any order, comments and blank lines between
    and after them, the defaults of a half line sometimes left out."""
    lines = [f"domain {s.domain.value}", f"period {_end_text(rng, s.period)}",
             f"pattern {_list_text(rng, s.pattern)}"]
    if s.domain is HALF and (s.transient or s.prefix or rng.random() < 0.5):
        lines += [f"transient {_end_text(rng, s.transient)}", f"prefix {_list_text(rng, s.prefix)}"]
    rng.shuffle(lines)
    out = []
    for line in lines:
        out += rng.choice(([], [""], ["# a comment"], ["", "  # another, with [0,1]"]))
        out.append(line + rng.choice(("", "", "  # trailing", " ")))
    return "\n".join(out) + rng.choice(("\n", "", "\n\n# the end\n"))


def _render_text_reference(sig):
    """The CLI's text layout as it was written before the shared writer, on a
    public signal: the reference for ``format_ticks(..., text=True)``."""
    if sig.domain is LINE:
        return (f"domain line\n"
                f"pattern {format_interval_list(sig.pattern)} period {sig.period}\n")
    return (f"domain halfline\n"
            f"prefix {format_interval_list(sig.prefix)} before {sig.transient}\n"
            f"tail {format_interval_list(sig.pattern)} period {sig.period} "
            f"from {sig.transient}\n")


def _file_signals(rng):
    for _ in range(500):
        domain = rng.choice([LINE, HALF])
        yield random_signal(rng, domain, max_den=rng.choice((12, 30)))
    for domain in (LINE, HALF):
        yield Signal.constant(domain, True)
        yield Signal.constant(domain, False)
        yield irregular_signal(rng, 40, domain)


def test_reading_into_ticks_equals_scaling_the_public_signal():
    """parse_ticks makes no Fraction, yet equals to_ticks of the public
    signal at its tick_unit, on files in any order, with comments, and with
    lists out of normal form: overlapping, touching, repeated, unsorted,
    cut at points whose denominators normalizing drops."""
    rng = random.Random(41)
    for s in _file_signals(rng):
        text = _signal_text(rng, s)
        public = parse_signal(text)
        assert public == s, text
        ticks, unit = parse_ticks(text), tick_unit([public])
        assert ticks == to_ticks(public, unit), text
        assert all(type(x) is int for x in (ticks.period, ticks.transient))
        assert all(type(x) is int for part in (ticks.pattern, ticks.prefix)
                   for c in part for x in (c.lower, c.upper))
        assert to_ticks(ticks, 5 * unit) == to_ticks(public, 5 * unit)


def test_writing_from_ticks_equals_printing_the_public_signal():
    """format_ticks writes byte for byte what format_signal writes for the
    public signal, and what the CLI's text layout wrote, on atoms in ticks at
    their unit and at a multiple, and on the engine's results at the unit of
    two atoms."""
    rng = random.Random(43)
    signals = list(_file_signals(rng))
    for s in signals[::2]:
        q = rng.choice(signals)
        if q.domain is not s.domain:
            continue
        unit = tick_unit([s, q])
        f = random_formula(rng, modal_budget=2, size=6)
        atoms = {"P": to_ticks(s, unit), "Q": to_ticks(q, unit)}
        for t in (atoms["P"], to_ticks(atoms["P"], 4 * unit),
                  *evaluate_ticks(Env(s.domain, atoms), f)):
            public = from_ticks(t)
            assert format_ticks(t) == format_signal(public) == _write(public, str)
            assert format_ticks(t, text=True) == _render_text_reference(public)
    for s, sig, text in [(M3, "domain line\nperiod 1/3\npattern [0,0]\n",
                          "domain line\npattern [0,0] period 1/3\n"),
                         (THM2, "domain halfline\nperiod 2/3\npattern [0,0]\ntransient 0\nprefix {}\n",
                          "domain halfline\nprefix {} before 0\ntail [0,0] period 2/3 from 0\n")]:
        assert format_ticks(to_ticks(s, 30)) == sig
        assert format_ticks(to_ticks(s, 30), text=True) == text


def test_each_writer_and_scaler_refuses_the_other_scale():
    """Each writer refuses the scale it does not write; to_ticks takes either
    scale, and refuses a unit that is not a multiple, naming both units."""
    ticks = to_ticks(M3, 6)
    with pytest.raises(ValueError, match="format_ticks prints a signal in ticks, not a public one"):
        format_ticks(M3)
    with pytest.raises(ValueError, match="cannot print a signal in ticks of unit 6"):
        format_signal(ticks)
    with pytest.raises(ValueError, match="cannot scale a signal of unit 6 to ticks of unit 9"):
        to_ticks(ticks, 9)
    # the engine takes an atom at either scale: the same bytes either way
    f = qtlab.semantics.DiamondFuture(qtlab.semantics.Atom("P"))
    assert (format_ticks(*evaluate_ticks(Env(LINE, {"P": M3}), f))
            == format_ticks(*evaluate_ticks(Env(LINE, {"P": ticks}), f)))
    assert to_ticks(ticks, 6) is ticks and to_ticks(ticks, 12) == to_ticks(M3, 12)


@pytest.mark.parametrize("text, message", [
    ("domain line\nperiod -1/2\npattern {}\n", "period must be positive, got -1/2"),
    ("domain line\nperiod -4/8\npattern {}\n", "period must be positive, got -1/2"),
    ("domain line\nperiod 0\npattern {}\n", "period must be positive, got 0"),
    ("domain halfline\nperiod 1\npattern {}\ntransient -1/3\nprefix {}\n",
     "transient must be nonnegative, got -1/3"),
    ("domain halfline\nperiod 2/3\npattern [0,1/3],[1/3,2/3]\n", "pattern escapes [0, period)"),
    ("domain halfline\nperiod 1\npattern {}\ntransient 1/2\nprefix [1/4,1/4],(0,1/2]\n",
     "prefix escapes [0, transient)"),
])
def test_the_readers_refuse_a_file_alike_in_public_numbers(text, message):
    """A signal the file cannot hold is refused with the same text by both
    readers, its numbers the public ones and not ticks."""
    for read in (parse_signal, parse_ticks):
        with pytest.raises(TextFormatError) as got:
            read(text)
        assert str(got.value) == message


def test_a_signal_in_ticks_is_refused_in_public_numbers():
    with pytest.raises(SignalError, match="^period must be positive, got -1/2$"):
        Signal(LINE, -2, IntervalSet.EMPTY, unit=4)
    with pytest.raises(SignalError, match="^transient must be nonnegative, got -1/3$"):
        Signal(HALF, 6, IntervalSet.EMPTY, -2, unit=6)


def test_unrolling_past_the_limit_raises():
    """A fine period re-framed to a coarse lcm would unroll past MAX_UNROLL
    pattern copies; a long transient compared against the tail does not."""
    fine = Signal(LINE, F(1, MAX_UNROLL), iset(Interval.point(0)))
    with pytest.raises(SignalError, match="past the limit"):
        align_many([fine, grid_signal(LINE, 1)])
    assert align_many([fine, grid_signal(LINE, F(1, 2))])[0].period == F(1, 2)
    with pytest.raises(SignalError, match="past the limit"):
        Signal(LINE, F(1, MAX_UNROLL), IntervalSet.EMPTY).slice(0, 2)
    # canonicalize looks back from the transient only as far as the last
    # disagreement, here the point at MAX_UNROLL - 1/2, so it unrolls nothing
    late = Signal(HALF, F(1), iset(Interval.point(F(1, 2))), F(MAX_UNROLL))
    assert late.canonicalize() == late
    assert Signal(HALF, F(1), iset(Interval.point(F(1, 2))), F(10)).canonicalize().transient == 10
