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
from qtlab.intervals import Interval, IntervalSet, TextFormatError, parse_interval_list
from qtlab.signals import (
    MAX_UNROLL,
    DomainError,
    Frame,
    Signal,
    SignalError,
    TimeDomain,
    Triviality,
    align_many,
    classify_trivial,
    combine,
    equal,
    format_signal,
    from_ticks,
    parse_signal,
    tick_unit,
    to_ticks,
)
from qtlab.signals import _frame, _minimal_tail, _within
from gen import PERIODS, random_fraction, random_point_set, random_signal
from test_intervals import interval_sets, rationals

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def iset(*ivs):
    return IntervalSet(ivs)


def grid_signal(domain, period):
    """P true exactly at the nonnegative multiples of period (all multiples on the line)."""
    return Signal(domain, F(period), IntervalSet.point(0))


M2 = grid_signal(LINE, F(1, 2))
M3 = grid_signal(LINE, F(1, 3))
THM2 = grid_signal(HALF, F(2, 3))


# ----------------------------------------------------------------- invariants

def test_construction_guards():
    with pytest.raises(SignalError):
        Signal(LINE, F(0), IntervalSet.EMPTY)
    with pytest.raises(SignalError):
        Signal(LINE, F(1), IntervalSet.point(0), transient=F(1, 2))
    with pytest.raises(SignalError):
        Signal(LINE, F(1), iset(Interval.closed(F(1, 2), F(3, 2))))
    with pytest.raises(SignalError):
        # pattern may not contain the period point itself
        Signal(LINE, F(1), iset(Interval.closed(F(1, 2), F(1))))
    with pytest.raises(SignalError):
        Signal(HALF, F(1), IntervalSet.EMPTY, transient=F(1), prefix=IntervalSet.point(1))
    # upper endpoint equal to the period is fine when open
    Signal(LINE, F(1), iset(Interval(F(1, 2), F(1), True, False)))


@pytest.mark.parametrize("fields, error", [
    ((LINE, F(0), IntervalSet.EMPTY, F(0), IntervalSet.EMPTY, 1), SignalError),
    ((HALF, F(1), IntervalSet.EMPTY, F(-1), IntervalSet.EMPTY, 1), SignalError),
    ((LINE, F(1), IntervalSet.point(0), F(1, 2), IntervalSet.EMPTY, 1), SignalError),
    ((LINE, F(1), IntervalSet.point(1), F(0), IntervalSet.EMPTY, 1), SignalError),
    ((HALF, F(1), IntervalSet.EMPTY, F(1), IntervalSet.point(1), 1), SignalError),
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
    s = Signal(HALF, F(2, 3), IntervalSet.point(0), F(1), iset(Interval.open(0, 1)))
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
               parse_interval_list(fields["pattern"]), F(fields.get("transient", 0)),
               parse_interval_list(fields.get("prefix", "{}")))
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
    s = Signal(HALF, F(1), IntervalSet.point(0), transient=F(2), prefix=iset(Interval.open(0, 1)))
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
    s = Signal(HALF, F(1), IntervalSet.point(0), transient=F(2), prefix=iset(Interval.open(0, 1)))
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
        for x in cuts + [F(u + v) / 2 for u, v in zip(cuts, cuts[1:])]:
            assert moved.contains(x + d) == s.contains(x), (s, d, x)


def test_shift_refuses_the_half_line():
    with pytest.raises(DomainError, match="full-line"):
        THM2.shift(1)


# ---------------------------------------------------------------------- align

def test_align_takes_lcm_period_and_max_transient():
    a = Signal(HALF, F(1, 2), IntervalSet.point(0))
    b = Signal(HALF, F(1, 3), IntervalSet.point(0), transient=F(5, 2),
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
    assert c.pattern == IntervalSet.point(0)


def test_canonicalize_constants_get_period_one():
    s = Signal(LINE, F(5, 7), iset(Interval(0, F(5, 7), True, False)))
    assert s.canonicalize() == Signal.constant(LINE, True)
    t = Signal(HALF, F(3, 4), IntervalSet.EMPTY, transient=F(1, 2),
               prefix=IntervalSet.EMPTY)
    assert t.canonicalize() == Signal.constant(HALF, False)


def test_canonicalize_drops_prefix_matching_the_pattern():
    s = Signal(HALF, F(2, 3), IntervalSet.point(0), transient=F(2, 3),
               prefix=IntervalSet.point(0))
    c = s.canonicalize()
    assert c.transient == 0 and not c.prefix
    assert c == THM2.canonicalize()


def test_canonicalize_point_disagreement_snaps_to_grid():
    # True only at 0, never again: the tail extension is empty and disagrees
    # with the prefix exactly at the point 0, so the transient snaps to 1.
    s = Signal(HALF, F(3), IntervalSet.EMPTY, transient=F(3), prefix=IntervalSet.point(0))
    c = s.canonicalize()
    assert c.period == 1 and not c.pattern
    assert c.transient == 1 and c.prefix == IntervalSet.point(0)


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
        x, y = (IntervalSet.point(end * rng.randrange(12) / 12)
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
    """Records the algebra builds past the checks of Interval.__new__ are
    valid: every component and signal re-validates as it stands."""
    a, b = random_signal(rng, domain), random_signal(rng, domain)
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
            combine("not", b)]
    if domain is LINE:
        sigs.append(a.shift(d))
    if in_ticks:
        sigs += [from_ticks(s) for s in sigs]
    sets += [part for s in sigs for part in (s.pattern, s.prefix)]
    for s in sets:
        for c in s:
            assert Interval(*c) == c and type(c.lower) is type(c.upper)
        assert IntervalSet(s.components) == s
    for s in sigs:
        assert Signal(*s) == s


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
        point = Signal(domain, a.period, IntervalSet.point(q if q < a.period else 0))
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
                flipped = s.prefix.symmetric_difference(IntervalSet.point(x))
                yield Signal(HALF, s.period, s.pattern, s.transient, flipped)
    for domain in (LINE, HALF):
        for value in (True, False):
            yield Signal.constant(domain, value)
        yield Signal(domain, F(5, 7), iset(Interval(0, F(5, 7), True, False)))
    yield Signal(HALF, F(3), IntervalSet.EMPTY, transient=F(3), prefix=IntervalSet.point(0))
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
    s = Signal(HALF, F(2, 3), IntervalSet.point(F(1, 4)), F(3, 5), IntervalSet.point(F(1, 7)))
    assert tick_unit([s]) == 2 * 3 * 4 * 5 * 7
    assert tick_unit([]) == 2
    t = to_ticks(s, 840)
    assert (t.period, t.transient) == (560, 504)
    assert t.pattern == iset(Interval(210, 210)) and t.prefix == iset(Interval(120, 120))
    with pytest.raises(ValueError):
        align_many([s, t])
    with pytest.raises(ValueError, match="whole number of ticks"):
        to_ticks(s, 210)  # not a multiple of the denominator 4


# ---------------------------------------------------------------------- equal

def test_equal_across_representations():
    fine = grid_signal(LINE, F(1, 2))
    coarse = Signal(LINE, F(1), iset(Interval.point(0), Interval.point(F(1, 2))))
    assert equal(fine, coarse)


def test_equal_eventually_ignores_the_prefix():
    noisy = Signal(HALF, F(2, 3), IntervalSet.point(0), transient=F(4, 3),
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
    assert classify_trivial(Signal(HALF, F(2, 3), IntervalSet.point(0)), p) is Triviality.P
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
    noisy = Signal(HALF, F(2, 3), IntervalSet.point(0), transient=F(2),
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


def test_unrolling_past_the_limit_raises():
    """A fine period re-framed to a coarse lcm would unroll past MAX_UNROLL
    pattern copies; a long transient compared against the tail does not."""
    fine = Signal(LINE, F(1, MAX_UNROLL), IntervalSet.point(0))
    with pytest.raises(SignalError, match="past the limit"):
        align_many([fine, grid_signal(LINE, 1)])
    assert align_many([fine, grid_signal(LINE, F(1, 2))])[0].period == F(1, 2)
    with pytest.raises(SignalError, match="past the limit"):
        Signal(LINE, F(1, MAX_UNROLL), IntervalSet.EMPTY).slice(0, 2)
    # canonicalize looks back from the transient only as far as the last
    # disagreement, here the point at MAX_UNROLL - 1/2, so it unrolls nothing
    late = Signal(HALF, F(1), IntervalSet.point(F(1, 2)), F(MAX_UNROLL))
    assert late.canonicalize() == late
    assert Signal(HALF, F(1), IntervalSet.point(F(1, 2)), F(10)).canonicalize().transient == 10
