"""Oracle checks: the session's grid cells and structural bounds, the
tables' sweeps against per-cell references, pointwise queries, engine
agreement at points and on every cell."""

import functools
import itertools
import math
import random
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlab.formulas import (
    And,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    Formula,
    Not,
    Or,
    Pnueli,
    Since,
    Until,
    metrics,
    parse_formula,
)
from qtlab.intervals import Interval, IntervalSet
from qtlab.lab import builtin_model
from qtlab.oracle import (
    AgreementReport,
    PointwiseSession,
    compare_cells,
    compare_pointwise,
    critical_points,
    sample_points,
    _reps,
    _tick,
)
from qtlab.semantics import Env, evaluate, evaluate_ticks
from qtlab.signals import (
    DomainError,
    Signal,
    SignalError,
    TimeDomain,
    format_signal,
    from_ticks,
    tick_unit,
    to_ticks,
)

from gen import irregular_signal, random_formula, random_fraction, random_signal, tree_nodes

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def grid_line(k):
    return Signal(LINE, F(1, k), IntervalSet([Interval.point(F(0))]))


def thm2_signal():
    return Signal(HALF, F(2, 3), IntervalSet([Interval.point(F(0))]))


def oracle_at(f, env, t):
    """One membership query on a fresh session."""
    return PointwiseSession(f, env).eval(f, t)


def sampled_agreement(f, env, samples=50, seed=0):
    """The engine's signal for f, compared with the oracle at its sample points."""
    sig = evaluate(f, env)
    return compare_pointwise(f, env, sig, sample_points(sig, samples, seed))


def ticks(session, t):
    """The time t in the session's ticks, which must be whole."""
    n = t * session.unit
    assert n.denominator == 1, (t, session.unit)
    return int(n)


def span(lo, hi, closed_a=False, closed_b=False):
    """The cells of a nonempty window that starts in cell lo and ends in
    cell hi: an end cell that is a point is dropped unless closed."""
    return range(lo + (lo % 2 == 0 and not closed_a), hi + (hi % 2 == 1 or closed_b))


def rep(grid, c):
    """The time ``_reps`` gives cell c."""
    return _reps(grid.points(c // 2, c // 2 + 2))[c % 2]


def window_cells(session, c, back):
    """The reference window of cell c: the cells of the open unit window
    after (before) its representative, cut at the origin on the half line."""
    grid, u = session._grid, session.unit
    t = rep(grid, c)
    if not back:
        return span(c, grid.locate(t + u))
    if grid.half and t < u:
        return span(0, c, closed_a=True)
    return span(grid.locate(t - u), c)


def cell_probes(grid, c):
    """The cell's point, or three times spread over its open gap, in ticks."""
    a, b = grid.points(c // 2, c // 2 + 2)
    if c % 2 == 0:
        return [a]
    return [a + (b - a) * F(k, 4) for k in (1, 2, 3)]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_signals_are_constant_on_their_regions(rng, domain):
    """Every atom is constant on every cell of the session's grid."""
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    sigs = list(env.bindings.values())
    hi = max(s.transient for s in sigs) + 2 * max(s.period for s in sigs)
    lo = F(0) if domain is HALF else -hi
    session = PointwiseSession(parse_formula("P & Q"), env)
    grid, lo, hi = session._grid, ticks(session, lo), ticks(session, hi)
    cells = span(grid.locate(lo), grid.locate(hi), True, True)
    assert cells[0] == grid.locate(lo) and cells[-1] == grid.locate(hi)
    for c in cells:
        probes = cell_probes(grid, c)
        for s in sigs:
            assert len({s.contains(F(p) / session.unit) for p in probes}) == 1


def test_span_lists_the_cells_of_a_window():
    """The reference span on the grid of the multiples of 1/2, and the
    session's unit windows, found by bisection, against it."""
    session = PointwiseSession(parse_formula("F1 P | O1 P"), Env(LINE, {"P": grid_line(2)}))
    grid, u = session._grid, session.unit
    assert u == 4

    def window(a, b, closed_a=False, closed_b=False):
        return list(span(grid.locate(a * u), grid.locate(b * u), closed_a, closed_b))

    # grid points k/2: point 0 is cell 0, the gap (0, 1/2) cell 1, and so on
    assert window(F(0), F(1), True, True) == [0, 1, 2, 3, 4]
    assert [rep(grid, c) for c in range(5)] == [x * u for x in (0, F(1, 4), F(1, 2), F(3, 4), 1)]
    assert window(F(0), F(1)) == [1, 2, 3]
    assert window(F(1, 8), F(3, 8), True, True) == [1]  # inside one gap
    assert window(F(-1, 2), F(0), True) == [-2, -1]
    # a table holds one grid period, cells 0 and 1: (0, 1), (1/4, 5/4), (-1, 0), (-3/4, 1/4)
    ahead, behind = (list(map(range, *session._windows(back, 2))) for back in (False, True))
    assert [list(w) for w in ahead] == [window(F(0), F(1)), window(F(1, 4), F(5, 4))]
    assert [list(w) for w in behind] == [window(F(-1), F(0)), window(F(-3, 4), F(1, 4))]
    assert behind[1] == range(-3, 2)


def test_grid_covers_only_the_formulas_atoms():
    """An unused binding of another period would multiply the grid's period
    (here 8 and 41/5 give 328) and every query's work.  So a session asked
    about an atom outside its formula, which its grid does not cut at,
    refuses."""
    p = irregular_signal(random.Random(1), 40, LINE)
    q = Signal(LINE, F(41, 5), IntervalSet([Interval.point(0)]))
    env = Env(LINE, {"P": p, "Q": q})
    for text, period in (("F1 P", 8), ("F1 P | Q", 328), ("true U false", 1)):
        session = PointwiseSession(parse_formula(text), env)
        assert session._grid.period == period * session.unit, text
    with pytest.raises(ValueError, match="atom Q is not in the session's formula"):
        session.eval(parse_formula("F1 Q"), F(0))


def test_a_session_refuses_a_formula_deeper_than_its_own():
    """The grid lemma holds for formulas no deeper than the session's.  With
    P at the multiples of 3, a session for P has no shift layer, so no grid
    point at 2, and would answer F1 P False at 5/2, where the engine and a
    session for F1 P answer True: it refuses.  A session of depth 1 answers
    formulas of depth 1 that are not its subformulas like the engine."""
    env = Env(LINE, {"P": Signal(LINE, F(3), IntervalSet([Interval.point(F(0))]))})
    f = parse_formula("F1 P")
    assert evaluate(f, env).contains(F(5, 2)) and oracle_at(f, env, F(5, 2))
    with pytest.raises(ValueError, match="modal depth 1 is past the session's grid, of depth 0"):
        PointwiseSession(parse_formula("P"), env).eval(f, F(5, 2))
    session = PointwiseSession(parse_formula("O1 P & P"), env)
    for text in ("F1 P", "P U !P", "!P S P | C2(P)", "Pn2(!P, P) -> F1 P"):
        g = parse_formula(text)
        truth = evaluate(g, env)
        for t in sample_points(truth, 12) + [F(5, 2)]:
            assert session.eval(g, t) == truth.contains(t), (text, t)


def test_grid_past_the_limit_raises():
    """Q's period 1 makes the grid unroll P's period 1/20000 twenty thousand
    times, two endpoints each, and F1 shifts each by -1, 0 and 1."""
    fine = Signal(LINE, F(1, 20000), IntervalSet([Interval.point(0)]))
    env = Env(LINE, {"P": fine, "Q": grid_line(1)})
    session = PointwiseSession(parse_formula("F1 P"), env)
    assert session._grid.period == F(1, 20000) * session.unit
    with pytest.raises(SignalError, match="grid"):
        PointwiseSession(parse_formula("F1 P | Q"), env)


def _numbered_points(grid, lo, hi):
    """(number, point) for every grid point from below lo to above hi: the
    prefix numbered first, then each tail copy in turn, every offset of every
    copy added up."""
    out = list(enumerate(grid.prefix))
    first = 0 if grid.half else math.floor((lo - grid.start) / grid.period) - 1
    for m in range(first, math.floor((hi - grid.start) / grid.period) + 2):
        base = grid.start + m * grid.period
        out += [(len(grid.prefix) + m * len(grid.tail) + j, base + off)
                for j, off in enumerate(grid.tail)]
    return out


def _around(numbered, a, b):
    """The numbered points from the last one below a to the first one above b."""
    key = [p for _, p in numbered]
    return numbered[max(bisect_left(key, a) - 1, 0):bisect_right(key, b) + 1]


def _cells_meeting(points, a, b):
    """(cell, at a, at b) for the cells that meet [a, b], read off
    consecutive numbered points."""
    out = []
    for (i, p), (_, q) in zip(points, points[1:]):
        if a <= p <= b:
            out.append((2 * i, p == a, p == b))
        if p < b and q > a:
            out.append((2 * i + 1, False, False))
    return out


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_grid_locate_and_point_match_the_unrolled_points(domain):
    rng = random.Random(17)
    for trial in range(12):
        p = irregular_signal(rng, 8, domain) if trial % 2 else random_signal(rng, domain)
        q = random_signal(rng, domain)
        grid = PointwiseSession(parse_formula("F1 (P U O1 Q)"), Env(domain, {"P": p, "Q": q}))._grid
        start, per = grid.start, F(grid.period)  # in ticks, windows cut between them
        points = grid.prefix + [start + off for off in grid.tail]
        windows = [(start - per, start + per / 3),                  # straddles the tail's start
                   (start + per / 7, start + 4 * per + per / 5),    # spans several periods
                   (start + 2 * per, start + 2 * per + per / 2)]    # inside one copy
        if grid.prefix:
            windows.append((grid.prefix[0], grid.prefix[-1]))      # inside the prefix
            windows.append((grid.prefix[len(grid.prefix) // 2], start + 2 * per))
        # ends on grid points, inside and across copies
        windows += [(rng.choice(points), rng.choice(points) + k * per) for k in (0, 1, 3)]
        if domain is LINE:
            windows += [(-per - per / 5, -per / 2), (-per / 3, per / 4)]  # negative times
        if domain is HALF:
            windows = [(max(a, F(0)), b) for a, b in windows]
        every = _numbered_points(grid, min(a for a, _ in windows), max(b for _, b in windows))
        for a, b in windows:
            numbered = _around(every, a, b)
            if numbered and b - a <= 2 * per:  # point by point on all but the longest windows
                first, pts = numbered[0][0], [pt for _, pt in numbered]
                assert grid.points(first, first + len(pts)) == pts
                assert _reps(pts)[1::2] == [(pt + nxt) / 2 for pt, nxt in zip(pts, pts[1:])]
                for i, pt in numbered:
                    assert grid.locate(pt) == 2 * i
                for (i, pt), (_, nxt) in zip(numbered, numbered[1:]):
                    assert grid.locate((pt + nxt) / 2) == 2 * i + 1
            if a >= b:
                continue
            meeting = _cells_meeting(numbered, a, b)
            for closed_a in (False, True):
                for closed_b in (False, True):
                    expected = [c for c, at_a, at_b in meeting
                                if (closed_a or not at_a) and (closed_b or not at_b)]
                    got = span(grid.locate(a), grid.locate(b), closed_a, closed_b)
                    assert list(got) == expected, (a, b)


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_grid_points_by_runs_match_point_by_point(domain):
    """``points`` gives the points that ``_numbered_points`` numbers one at
    a time, over ranges in the prefix, across the tail's start and over
    several tail copies, on the full line from copies below zero; ``_reps``
    gives each point, then the midpoint between it and the next, cell by
    cell."""
    rng = random.Random(29)
    for trial in range(12):
        p = irregular_signal(rng, 8, domain) if trial % 2 else random_signal(rng, domain)
        q = random_signal(rng, domain)
        grid = PointwiseSession(parse_formula("F1 (P U O1 Q)"), Env(domain, {"P": p, "Q": q}))._grid
        k, size = len(grid.prefix), len(grid.tail)
        point = dict(_numbered_points(grid, grid.start - 5 * grid.period,
                                      grid.start + 7 * grid.period))
        first = 0 if domain is HALF else -3 * size - 1
        ranges = [(first, k + 4 * size + 1), (k, k + size), (k + size - 1, k + 3 * size + 2),
                  (max(k - 1, 0), k + 1), (k + 5, k + 5)]
        ranges += [(lo, rng.randint(lo, k + 6 * size)) for lo in
                   (rng.randint(first, k + 3 * size) for _ in range(6))]
        for lo, hi in ranges:
            assert grid.points(lo, hi) == [point[i] for i in range(lo, hi)], (lo, hi)
        pts = grid.points(0, k + 2 * size + 1)
        assert _reps(pts) == [x for i in range(k + 2 * size)
                              for x in (point[i], (point[i] + point[i + 1]) // 2)]


def test_the_oracle_stays_in_ints(monkeypatch):
    """Sessions compute in ticks alone: after comparing random formulas on
    both domains, every grid point, tail offset, start and period, every
    node's bound, the representative of every cell of every table and every
    end of every window is an int."""
    sessions = []
    init = PointwiseSession.__init__

    def spy(self, *args):
        init(self, *args)
        sessions.append(self)

    monkeypatch.setattr(PointwiseSession, "__init__", spy)
    rng = random.Random(43)
    for domain in (LINE, HALF):
        for _ in range(15):
            f = random_formula(rng, modal_budget=2, size=5)
            env = Env(domain, {"P": random_signal(rng, domain),
                               "Q": random_signal(rng, domain)})
            sig = evaluate(f, env)
            points = sample_points(sig, count=20, seed=rng.randint(0, 10 ** 6))
            assert compare_pointwise(f, env, sig, points).passed
    assert len(sessions) == 30
    cells = windows = 0
    for s in sessions:
        g = s._grid
        numbers = g.prefix + g.tail + [g.start, g.period] + s._bound
        for table in s._memo.values():
            numbers += [rep(g, c) for c in range(len(table))]
            cells += len(table)
        for starts, stops in s._wins.values():
            numbers += starts + stops
            windows += len(starts)
        assert all(type(x) is int for x in numbers), s.formula
    assert cells > 100 and windows > 100


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_off_lattice_queries_answer_like_the_engine(rng, domain):
    """A time off the tick lattice is asked at an odd tick in its gap between
    even ticks.  Full-line times below zero, half-line times inside the first
    tick, and times a third of a tick either side of a grid point, of that
    point one unit away and of it one grid period away, all answer like the
    engine."""
    f = random_formula(rng, modal_budget=2, size=5)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    truth = evaluate(f, env)
    session = PointwiseSession(f, env)
    grid, u = session._grid, session.unit
    eps, per = F(1, 3 * u), F(grid.period, u)
    times = [F(1, 3 * u), F(1, 2 * u), F(2, 3 * u)]  # inside the first tick
    points = len(grid.prefix) + 2 * len(grid.tail)
    first = 0 if domain is HALF else -points  # points below zero on the full line
    # first is always asked, so the full line always has times below zero
    for i in [first] + rng.sample(range(first + 1, points), min(5, points - first - 1)):
        g = F(grid.points(i, i + 1)[0], u)
        times += [g + d + e for d in (0, 1, -1, per, -per) for e in (eps, -eps)]
    if domain is HALF:
        times = [t for t in times if t >= 0]
    else:
        assert any(t < -1 for t in times)
    for t in times:
        assert (t * u).denominator != 1, t  # off the lattice
        assert session.eval(f, t) == truth.contains(t), (f, t)


def test_half_line_origin_is_a_grid_point():
    """O1 of the origin's own point holds on (0, 1), so F1 of that holds up to
    1: a change point that no atom endpoint need supply."""
    env = Env(HALF, {"P": Signal(HALF, F(1), IntervalSet([Interval.point(F(1, 2))]))})
    f = parse_formula("F1 O1 (!O1 true)")
    sig = evaluate(f, env)
    assert sig.contains(F(3, 4)) and not sig.contains(F(1))
    assert oracle_at(f, env, F(3, 4)) is True
    assert oracle_at(f, env, F(1)) is False


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_formula_truth_is_constant_on_translate_refined_regions(rng, domain):
    f = random_formula(rng, modal_budget=2, size=4)
    depth, atoms = metrics(f)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    truth = evaluate(f, env)
    sigs = [env.bindings[a] for a in sorted(atoms)] or [env.bindings["P"]]
    hi = max(s.transient for s in sigs) + 2 * max(s.period for s in sigs) + depth
    # on the half line the origin's translates cut too (O1 (!O1 true) is (0, 1))
    cuts = set(range(1, depth)) if domain is HALF else set()
    for s in sigs:
        for comp in s.slice(0, hi + depth):
            for e in (comp.lower, comp.upper):
                for k in range(-depth, depth + 1):
                    if 0 < e + k < hi:
                        cuts.add(e + k)
    prev = F(0)
    for c in sorted(cuts) + [hi]:
        if prev < c:
            probes = [prev + (c - prev) * F(k, 4) for k in (1, 2, 3)]
            # a fresh session per probe: a shared one would answer every
            # probe from the same cells' entries
            answers = [PointwiseSession(f, env).eval(f, p) for p in probes]
            assert len(set(answers)) == 1
            # a query is its cell's answer, so only the grid-free engine
            # tests that the cell's answer holds at each probe
            assert answers == [truth.contains(p) for p in probes], (f, probes)
        prev = c


def test_pointwise_count_on_two_thirds_grid():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P)")
    assert oracle_at(f, env, F(1, 6)) is False
    assert oracle_at(f, env, F(7, 6)) is True
    assert oracle_at(f, env, F(0)) is False
    assert oracle_at(f, env, F(1, 2)) is True


def test_pointwise_diamond_is_true_everywhere_on_unit_grid():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    for t in sample_points(evaluate(f, env), count=20, seed=3):
        assert oracle_at(f, env, t) is True


def test_pointwise_until_reaches_grid_point():
    env = Env(LINE, {"P": grid_line(3)})
    f = parse_formula("!P U P")
    assert oracle_at(f, env, F(0)) is True
    g = parse_formula("P U true")
    assert oracle_at(g, env, F(0)) is False


def test_pointwise_since_on_half_line_origin():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("true S P")
    assert oracle_at(f, env, F(0)) is False  # no past at the origin
    assert oracle_at(f, env, F(1, 10)) is True
    # O1 P is false at the origin, whose past window is empty, and true on
    # the gap after it, whose window holds the origin
    assert oracle_at(parse_formula("O1 O1 P"), env, F(1, 17)) is True


def test_pointwise_pnueli_matches_hand_count():
    env = Env(LINE, {"P": grid_line(2)})
    assert oracle_at(parse_formula("Pn2(P, !P)"), env, F(0)) is True
    assert oracle_at(parse_formula("Pn3(P, P, P)"), env, F(0)) is False
    # two grid points fit in the open window away from the grid
    assert oracle_at(parse_formula("Pn2(P, P)"), env, F(1, 4)) is True
    # but not when the window boundary sits on the grid
    assert oracle_at(parse_formula("Pn2(P, P)"), env, F(0)) is False


def test_session_memo_is_consistent(monkeypatch):
    """Repeated queries agree, and two times in one open cell read one entry
    of the formula's table, which is filled once: a query is its cell's
    answer."""
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P) U !P")
    session = PointwiseSession(f, env)
    a = session.eval(f, F(1, 3))
    b = session.eval(f, F(1, 3))
    assert a == b == oracle_at(f, env, F(1, 3))
    filled, fill = [], PointwiseSession._fill

    def counting(self, i, n):
        filled.append(i)
        return fill(self, i, n)

    monkeypatch.setattr(PointwiseSession, "_fill", counting)
    session = PointwiseSession(f, env)
    grid, u = session._grid, session.unit
    lo, hi = (F(x, u) for x in grid.points(1, 3))
    times = [lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3]
    cells = {grid.locate(_tick(t, u)) for t in times}
    assert len(cells) == 1 and cells.pop() % 2 == 1  # one open cell
    truth = evaluate(f, env)
    for t in times:
        assert session.eval(f, t) == truth.contains(t), t
    assert sorted(filled) == list(range(len(session._kind)))  # each node once


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_a_shared_session_answers_like_fresh_ones(rng, domain):
    f = random_formula(rng, modal_budget=3, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    lo = 0 if domain is HALF else -3
    points = [random_fraction(rng, lo, 3, 24) for _ in range(8)]
    shared = PointwiseSession(f, env)
    for t in points:
        assert shared.eval(f, t) == PointwiseSession(f, env).eval(f, t), (f, t)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_one_operand_under_every_window_modality(rng, domain):
    """F1, C<n>, Pn<k> and O1 of one operand share its node and its table.
    Each distinct subformula is exactly one node, every windowed
    subformula asked of the one session answers like the engine, and the
    session answers like fresh ones."""
    g = random_formula(rng, modal_budget=1, size=3)
    n = rng.randint(1, 3)
    f = Or(And(DiamondFuture(g), Count(n, g)),
           And(Pnueli((g,) * n + (Not(g),)), DiamondPast(DiamondPast(g))))
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    shared = PointwiseSession(f, env)
    nodes = len(shared._kind)
    assert nodes == len(set(tree_nodes(f)))
    for h in tree_nodes(f):
        if isinstance(h, (DiamondFuture, DiamondPast, Count, Pnueli)):
            truth = evaluate(h, env)
            for t in sample_points(truth, count=8, seed=rng.randint(0, 10 ** 6)):
                assert shared.eval(h, t) == truth.contains(t), (h, t)
    assert len(shared._kind) == nodes  # each was compiled with f already
    lo = 0 if domain is HALF else -3
    for t in [random_fraction(rng, lo, 3, 24) for _ in range(8)]:
        assert shared.eval(f, t) == PointwiseSession(f, env).eval(f, t), (f, t)


def test_a_session_hashes_no_formula_per_query(monkeypatch):
    """The session compiles its formula into integer node ids once, so the
    number of formula hashes does not grow with the number of queries."""
    hashes = []
    for cls in Formula.__subclasses__():
        def counted(self, original=cls.__hash__):
            hashes.append(1)
            return original(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    rng = random.Random(11)
    env = Env(LINE, {"P": irregular_signal(rng, 8, LINE),
                     "Q": irregular_signal(rng, 8, LINE)})
    f = parse_formula("F1 (P U O1 Q) & C2(F1 (P U O1 Q))")
    sig = evaluate(f, env)
    nodes = len(list(tree_nodes(f)))
    for count in (100, 300):
        points = sample_points(sig, count=count, seed=1)
        hashes.clear()
        assert compare_pointwise(f, env, sig, points).passed
        assert len(hashes) <= 2 * nodes, count


def _fills_and_reads(monkeypatch, text, env, samples):
    """Check the formula against the engine at `samples` points through one
    session, recording every table fill (node id) and every read of a
    node's cells (node id, first cell, end)."""
    f = parse_formula(text)
    sig = evaluate(f, env)
    sessions, fills, reads, lookups = [], [], [], []
    fill, read, truth = PointwiseSession._fill, PointwiseSession._read, PointwiseSession._truth

    def counting_fill(self, i, n):
        sessions.append(self)
        fills.append(i)
        return fill(self, i, n)

    def counting_read(self, k, lo, hi):
        reads.append((k, lo, hi))
        return read(self, k, lo, hi)

    def counting_truth(self, i, t):
        lookups.append(i)
        return truth(self, i, t)

    monkeypatch.setattr(PointwiseSession, "_fill", counting_fill)
    monkeypatch.setattr(PointwiseSession, "_read", counting_read)
    monkeypatch.setattr(PointwiseSession, "_truth", counting_truth)
    assert compare_pointwise(f, env, sig, sample_points(sig, samples)).passed
    assert len(set(map(id, sessions))) == 1
    session = sessions[0]
    # each node's table once, each operand read once per fill; a query indexes
    # the root's table once, reading no range of cells
    assert sorted(fills) == list(range(len(session._kind)))
    assert len(reads) == sum(map(len, session._kids))
    assert session._root not in [k for k, _, _ in reads]
    assert lookups == [session._root] * samples
    return session, reads


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_until_since_scans_are_memoized(monkeypatch, domain):
    """The until under the since never holds, so a walk per query would run
    to the node's horizon, and the since's back a period or to the origin.
    Each table is instead filled once, by one sweep that reads each operand
    once, and a query reads one entry of the root's table."""
    rng = random.Random(5)
    env = Env(domain, {"P": irregular_signal(rng, 8, domain),
                       "Q": irregular_signal(rng, 8, domain)})
    _fills_and_reads(monkeypatch, "true S (true U (P & !P))", env, 60)


@pytest.mark.parametrize("text", ["O1 Pn1(Pn2(true | P, Q & false))", "C2(O1 C3(F1 P))",
                                  "C2(O1 C3(F1 (Q & false)))"])
def test_window_lookups_are_amortized(monkeypatch, text):
    """24 grid points per unit, so every unit window spans 49 cells while a
    table holds one grid period of 2.  The inner run and the innermost count
    never hold.  A window node reads each operand once, over its own cells
    widened by one window, not once per window: its fill is linear in its
    cells plus one window, where rescanning every window would multiply."""
    env = Env(LINE, {"P": grid_line(24), "Q": grid_line(24)})
    session, reads = _fills_and_reads(monkeypatch, text, env, 100)
    widest = max(b - a for starts, stops in session._wins.values() for a, b in zip(starts, stops))
    assert widest == 49 and session._cycle == 2
    assert all(hi - lo <= session._cycle + widest for _, lo, hi in reads)


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_300_queries_fill_each_table_once(monkeypatch, domain):
    """300 queries through one session fill each node's table exactly once,
    every modality among them."""
    rng = random.Random(3)
    env = Env(domain, {"P": irregular_signal(rng, 8, domain),
                       "Q": irregular_signal(rng, 8, domain)})
    text = "F1 (P U O1 Q) & C2(P S Pn2(Q, !P))"
    session, _ = _fills_and_reads(monkeypatch, text, env, 300)
    assert set(session._kind) >= {DiamondFuture, DiamondPast, Count, Pnueli, Until, Since}


def _fold_reference(table, cycle, lo, hi):
    """Cells lo to hi - 1 one at a time: a cell the table lacks folds into
    its last period."""
    n = len(table)
    return [table[c] if 0 <= c < n else table[n - cycle + (c - n) % cycle] for c in range(lo, hi)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([LINE, HALF]))
def test_folded_reads_match_the_per_cell_fold(seed, domain):
    """``_read`` gives every node's cells as the cell-by-cell fold does, over
    ranges inside its table, across its end and to several periods past
    it, and on the full line from several periods before cell 0."""
    rng = random.Random(seed)
    f = random_formula(rng, modal_budget=2, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    session = PointwiseSession(f, env)
    p = session._cycle
    for k in range(len(session._kind)):
        table = session._table(k)
        n, first = len(table), 0 if domain is HALF else -3 * p - 1
        ranges = [(first, n + 4 * p + 1), (n - p, n + 3 * p), (n - 1, n + 1), (n + 2 * p + 1, n + 5 * p)]
        ranges += [(lo, rng.randint(lo, n + 5 * p)) for lo in
                   (rng.randint(first, n + 2 * p) for _ in range(8))]
        for lo, hi in ranges:
            assert session._read(k, lo, hi) == _fold_reference(table, p, lo, hi), (f, k, lo, hi)


def _count_by_scan(holds, need, cells):
    """The count windows' linear scan: at least `need` witness points."""
    for c in cells:
        if holds(c):
            if c & 1:
                return True
            need -= 1
            if need <= 0:
                return True
    return False


def _placements(n, cells, holds):
    """Every placement of n operands at strictly increasing times of the
    cells: a nondecreasing choice of cells, no point cell chosen twice."""
    for pick in itertools.combinations_with_replacement(cells, n):
        if any(a == b and a % 2 == 0 for a, b in zip(pick, pick[1:])):
            continue
        if all(holds(j, c) for j, c in enumerate(pick)):
            yield pick


def _some_placement(n, cells, holds):
    """Whether some placement of n operands at strictly increasing times of
    the cells exists: a left to right search over every cell for each
    operand in turn, memoized on (operand, first cell left)."""
    @functools.lru_cache(maxsize=None)
    def place(j, i):
        return j == n or any(holds(j, cells[k]) and place(j + 1, k + (cells[k] % 2 == 0))
                             for k in range(i, len(cells)))

    return place(0, 0)


def _reference_cell(session, holds, i, c):
    """Node i's truth in cell c from its operands' truth, holds(node, cell),
    by the per-cell scans the sweeps replace: the guarded walk for U and S,
    up to a period past the node's fold start or back a period or to the
    origin; a linear count for F1, O1 and C<n>; a search over every
    placement for Pn<k>."""
    kind, kids = session._kind[i], session._kids[i]

    if kind is Until or kind is Since:
        left, right = kids
        if kind is Until:
            start = c + (c % 2 == 0)
            cells = range(start, max(start + session._cycle, len(session._table(i))))
        else:
            start = c - (c % 2 == 0)
            cells = range(start, -1 if session._grid.half else start - session._cycle, -1)
        for x in cells:
            if holds(right, x) or not holds(left, x):
                return holds(right, x) and (x % 2 == 0 or holds(left, x))
        return False
    cells = window_cells(session, c, kind is DiamondPast)
    if kind is Pnueli:
        return _some_placement(len(kids), cells, lambda j, x: holds(kids[j], x))
    return _count_by_scan(lambda x: holds(kids[0], x), session._arg[i], cells)


MODAL = (Until, Since, DiamondFuture, DiamondPast, Count, Pnueli)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([LINE, HALF]))
def test_sweeps_match_per_cell_references(seed, domain):
    """Every modal node's table, filled by its sweep, equals the per-cell
    reference computed from its operands' tables on every cell of it.  The
    formulas and signals are drawn from a seeded generator, not from
    hypothesis's shrinking one, whose draws lean to leaves and tiny signals."""
    rng = random.Random(seed)
    f = random_formula(rng, modal_budget=2, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    session = PointwiseSession(f, env)

    @functools.lru_cache(maxsize=None)
    def holds(k, x):
        return session._read(k, x, x + 1)[0]

    for i, kind in enumerate(session._kind):
        if kind in MODAL:
            table = session._table(i)
            # the table ends a grid period past the first grid point at or past
            # the node's bound and the tail's start, cell 0 on the full line
            grid, fold = session._grid, 0
            if grid.half:
                fold = grid.locate(max(grid.start, session._bound[i]))
                fold += fold % 2
            assert len(table) == fold + session._cycle
            for c, got in enumerate(table):
                assert got == _reference_cell(session, holds, i, c), (f, i, c)


@pytest.mark.parametrize("env", [Env(LINE, {"P": grid_line(3)}), Env(HALF, {"P": thm2_signal()})],
                         ids=["mk:3", "thm2"])
def test_a_huge_count_places_no_more_copies_than_its_window_has_cells(env):
    """More copies of an operand than its window has cells fit only in an
    open cell, where any number do, so C<n> answers alike for every n past
    that: an oracle that built n copies would not finish."""
    start = time.perf_counter()
    report = sampled_agreement(parse_formula("C1000000000(P) | C1000000000(!P)"), env)
    assert report.passed, report.render()
    assert time.perf_counter() - start < 5


def test_half_line_queries_before_the_origin_raise():
    env = Env(HALF, {"P": thm2_signal()})
    for text in ("P", "true", "F1 P", "P S true"):
        with pytest.raises(DomainError):
            PointwiseSession(parse_formula(text), env).eval(parse_formula(text), F(-1, 3))
    with pytest.raises(DomainError):
        oracle_at(parse_formula("C2(P)"), env, -1)


def test_run_placement_matches_the_exhaustive_enumeration():
    """Pn<n> over random operand tables.  On the full line every table is a
    truth that repeats with the grid period, so random ones are set on the
    atoms' nodes, and each cell of the run's table must answer like every
    placement over its window's cells.  Points at the quarters of a period of
    five units: windows of seven or nine cells, tables of forty."""
    names = "ABCD"
    sig = Signal(LINE, F(5), IntervalSet([Interval.point(F(k, 4)) for k in range(20)]))
    env = Env(LINE, {a: sig for a in names})
    rng = random.Random(5)
    for _ in range(60):
        f = Pnueli(tuple(Atom(rng.choice(names)) for _ in range(rng.randint(1, 4))))
        session = PointwiseSession(f, env)
        kids = session._kids[session._root]
        density = rng.random()
        for k in set(kids):
            session._memo[k] = [rng.random() < density for _ in range(session._cycle)]
        table = session._table(session._root)
        assert len(table) == 40
        for c, got in enumerate(table):
            cells = window_cells(session, c, False)
            assert len(cells) in (7, 9)
            holds = lambda j, x: session._read(kids[j], x, x + 1)[0]  # noqa: E731
            assert got == (next(_placements(len(kids), cells, holds), None) is not None), (f, c)


@pytest.mark.parametrize("text", ["Pn2(true | P, Q & false)", "Pn3(true | P, true, Q & false)",
                                  "Pn3(P, !P, P)", "Pn3(!P, P, true)"])
def test_run_placement_on_a_fine_grid(text):
    """24 grid points per unit: an unmemoized search of a run whose last
    operand never holds tries every placement of the others."""
    env = Env(LINE, {"P": grid_line(24), "Q": grid_line(24)})
    f = parse_formula(text)
    for t in (F(0), F(1, 7)):
        session = PointwiseSession(f, env)
        grid = session._grid
        cells = span(grid.locate(t * session.unit), grid.locate((t + 1) * session.unit))
        args = [session._compile(a) for a in f.args]
        holds = lambda j, c: session._read(args[j], c, c + 1)[0]  # noqa: E731
        expected = next(_placements(len(args), cells, holds), None) is not None
        assert session.eval(f, t) == expected
        assert expected == evaluate(f, env).contains(t)


def test_sample_points_cover_critical_points_first():
    s = evaluate(parse_formula("C2(P)"), Env(HALF, {"P": thm2_signal()}))
    pts = sample_points(s, count=50, seed=7)
    assert len(pts) == 50
    assert pts == sorted(set(pts))
    for c in critical_points(s):
        assert c in pts
    assert sample_points(s, count=50, seed=7) == pts
    assert sample_points(s, count=0, seed=7) == []
    # a tight budget keeps the critical points and drops the fill
    tight = sample_points(s, count=len(critical_points(s)), seed=7)
    assert tight == critical_points(s)


def reference_sample_points(signal, count, seed):
    """sample_points on Fractions throughout, with a seen-check on every
    point: the reference the integer-keyed version must match."""
    if count <= 0:
        return []
    crit = critical_points(signal)
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    chosen = []
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
        t = lo + F(rng.randint(0, math.floor(q * width)), q)
        if t in seen:
            misses += 1
            if misses > 8:
                denom *= 4
                misses = 0
            continue
        seen.add(t)
        chosen.append(t)
    return sorted(chosen)


@pytest.mark.parametrize("domain", [LINE, HALF], ids=["line", "halfline"])
def test_sample_points_match_the_fraction_reference(domain):
    """Same points in the same order as the Fraction version, at counts
    inside the critical points, inside their midpoints, past both (random
    draws, colliding more often the more are asked for) and at zero."""
    rng = random.Random(20)
    for _ in range(40):
        sig = random_signal(rng, domain)
        fixed = 2 * len(critical_points(sig)) - 1
        for count in (0, 1, fixed // 2, fixed - 1, fixed, fixed + 1, fixed + 40, 4 * fixed):
            seed = rng.randint(0, 10 ** 6)
            got = sample_points(sig, count, seed)
            assert got == reference_sample_points(sig, count, seed)
            assert all(type(t) is F for t in got)


def fraction_critical_points(signal):
    """critical_points sliced from the public Fraction signal: the reference
    the tick version must match."""
    span = signal.transient + 2 * signal.period
    lo = F(0) if signal.domain is HALF else -span
    pts = {lo, span}
    for comp in signal.slice(lo, span):
        for e in (comp.lower, comp.upper):
            pts.add(e)
    return sorted(pts)


def fraction_sample_points(signal, count, seed):
    """sample_points with Fraction critical points and midpoints and the
    random fill drawn from a Fraction origin and width: the reference the
    tick version must match."""
    if count <= 0:
        return []
    crit = fraction_critical_points(signal)
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    chosen = [(t.numerator, t.denominator) for t in (crit + mids)[:count]]
    seen = set(chosen)
    rng = random.Random(seed)
    lo, width = crit[0], crit[-1] - crit[0]
    ln, ld = lo.numerator, lo.denominator
    denom = 24
    misses = 0
    while len(chosen) < count:
        q = rng.randint(2, denom)
        k = rng.randint(0, q * width.numerator // width.denominator)
        num, den = ln * q + k * ld, ld * q  # lo + k/q
        g = math.gcd(num, den)
        t = (num // g, den // g)
        if t in seen:
            misses += 1
            if misses > 8:
                denom *= 4
                misses = 0
            continue
        seen.add(t)
        chosen.append(t)
    scale = math.lcm(*(den for _, den in chosen))
    chosen.sort(key=lambda t: t[0] * (scale // t[1]))
    return [F(num, den) for num, den in chosen]


def coprime_signal(domain):
    """Endpoints, period and transient over distinct primes near 1000, so
    the signal's tick unit is a product of ten of them."""
    pattern = IntervalSet([Interval(F(1, 1009), F(500, 1013), True, False),
                           Interval.point(F(1000, 1019)),
                           Interval(F(1500, 1031), F(2000, 1033), False, True)])
    if domain is LINE:
        return Signal(LINE, F(2039, 1021), pattern)
    prefix = IntervalSet([Interval.point(F(1, 1049)), Interval(F(2, 1051), F(1000, 1061))])
    return Signal(HALF, F(2039, 1021), pattern, F(1201, 1039), prefix)


@pytest.mark.parametrize("domain", [LINE, HALF], ids=["line", "halfline"])
def test_tick_points_match_the_fraction_points(domain):
    """critical_points and sample_points cut in ticks of the signal's own
    tick unit return the same Fractions in the same order as when cut from
    the public signal: constant signals, random ones with small and with
    large denominators, and one whose denominators are large coprimes."""
    rng = random.Random(29)
    sigs = [Signal.constant(domain, False), Signal.constant(domain, True),
            coprime_signal(domain)]
    sigs += [random_signal(rng, domain) for _ in range(12)]
    sigs += [random_signal(rng, domain, max_den=997) for _ in range(6)]
    for sig in sigs:
        assert critical_points(sig) == fraction_critical_points(sig), sig
        for count in (0, 1, 50, 300):
            for seed in (0, 7, rng.randint(0, 10 ** 6)):
                got = sample_points(sig, count, seed)
                assert got == fraction_sample_points(sig, count, seed), (sig, count, seed)
                assert all(type(t) is F for t in got)


def test_engine_signal_off_the_session_lattice():
    """A wrong engine signal with an endpoint the session's ticks cannot
    hold: P on mk:3 with one more point at 1/7 of each unit.  The harness
    reads it at its own tick unit, so each report line says what the
    signal says, at 1/7 and just beside it, and the check fails."""
    env = builtin_model("mk:3")
    p = env.bindings["P"]
    wrong = Signal(LINE, F(1), IntervalSet([Interval.point(F(k, 3)) for k in range(3)]
                                           + [Interval.point(F(1, 7))]))
    points = [F(1, 7) + d for d in (F(-1, 21), F(-1, 1000), F(-1, 10 ** 9), 0,
                                    F(1, 10 ** 9), F(1, 1000), F(1, 21))]
    report = compare_pointwise(parse_formula("P"), env, wrong, points)
    assert not report.passed
    assert report.agreements == len(points) - 1
    for t, line in zip(points, report.lines):
        assert line == f"t={t} engine={int(wrong.contains(t))} oracle={int(p.contains(t))}"
    assert report.lines[3] == "t=1/7 engine=1 oracle=0"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([LINE, HALF]))
def test_pointwise_report_matches_a_per_sample_reference(seed, domain):
    """``compare_pointwise``'s report equals one built a sample at a time from
    ``PointwiseSession.eval`` and ``Signal.contains`` on the public engine
    signal, which the harness must read at that signal's own tick unit.
    The engine signals are the formula's own, the same in ticks, and an
    unrelated one whose sevenths the session's ticks need not hold; the
    times are sample points, times off the tick lattice, full-line times
    below zero and times far past the fold start."""
    rng = random.Random(seed)
    f = random_formula(rng, modal_budget=2, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    truth = evaluate(f, env)
    other = Signal(domain, F(rng.randint(1, 3)),
                   IntervalSet([Interval.point(F(rng.randint(0, 6), 7)),
                                Interval(F(3, 7), F(rng.randint(4, 6), 7), True, rng.random() < .5)]))
    session = PointwiseSession(f, env)
    far = F(session._grid.start + 40 * session._grid.period, session.unit)
    lo = 0 if domain is HALF else -far
    times = sample_points(truth, 20, seed)
    times += [random_fraction(rng, lo, far, 1000) for _ in range(20)]
    times += [far + F(k, 3 * session.unit) for k in (1, 2, 4)] + [F(1, 999), F(5, 7)]
    if domain is LINE:
        times += [-far - F(1, 5), F(-1, 3 * session.unit)]
    for sig in (truth, to_ticks(truth, 2 * tick_unit([truth])), other):
        public = from_ticks(sig) if sig.unit != 1 else sig
        expected = [f"t={t} engine={int(public.contains(t))} oracle={int(session.eval(f, t))}"
                    for t in times]
        report = compare_pointwise(f, env, sig, times)
        assert list(report.lines) == expected, (f, sig)
        assert report.agreements == sum(line.endswith(("=0 oracle=0", "=1 oracle=1"))
                                        for line in expected)


def test_harness_refuses_a_time_before_the_origin_by_its_value():
    """A time before the origin raises DomainError naming the time itself,
    not its tick at either scale."""
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P)")
    with pytest.raises(DomainError, match=r"^-1/3 is outside the half line$"):
        compare_pointwise(f, env, evaluate(f, env), [F(0), F(-1, 3)])


def test_agreement_report_format():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    report = sampled_agreement(f, env, samples=3)
    assert isinstance(report, AgreementReport)
    assert report.passed and report.total == 3
    text = report.render()
    assert text.splitlines()[0] == "t=-2 engine=1 oracle=1"
    assert text.splitlines()[-1] == "agreement 3/3"


@pytest.mark.parametrize("samples", [0, -3])
def test_agreement_needs_a_sample(samples):
    """A verdict over no points is no pass: fewer than one sample draws
    no point, and the comparison refuses that."""
    env = Env(LINE, {"P": grid_line(2)})
    with pytest.raises(ValueError, match="at least one point"):
        sampled_agreement(parse_formula("F1 P"), env, samples=samples)


@pytest.mark.parametrize("points", [[], iter([])], ids=["list", "iterator"])
def test_compare_pointwise_needs_a_point(points):
    """A verdict over no points is no pass: no points raise, where they
    would render agreement 0/0 as passed."""
    env = builtin_model("mk:2")
    f = parse_formula("P")
    with pytest.raises(ValueError, match="at least one point"):
        compare_pointwise(f, env, evaluate(f, env), points)


def test_agreement_at_every_critical_point_of_long_window():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P)")
    sig = evaluate(f, env)
    cuts = sorted({F(0), F(4)} | {e for s in (env.bindings["P"], sig)
                                  for comp in s.slice(F(0), F(4))
                                  for e in (comp.lower, comp.upper) if e < 4})
    pts = cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    report = compare_pointwise(f, env, sig, pts)
    assert report.passed, report.render()


def test_time_points_must_be_exact():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    assert oracle_at(f, env, 0) is True
    assert compare_pointwise(f, env, evaluate(f, env), [0, F(1, 4)]).passed
    with pytest.raises(TypeError):
        compare_pointwise(f, env, evaluate(f, env), [0.5])
    with pytest.raises(TypeError):
        compare_pointwise(f, env, evaluate(f, env), [F(0), 0.25])
    with pytest.raises(TypeError):
        PointwiseSession(f, env).eval(f, 0.5)
    with pytest.raises(TypeError):
        PointwiseSession(f, builtin_model("thm2")).eval(f, 0.5)


def test_the_oracle_reads_atoms_in_ticks_as_their_public_form():
    """An atom in ticks is read as the time it denotes, not as its ticks:
    read as time, the ticks of mk:3 would put P at the even integers, and
    F1 P false at 1/2.  The engine reads an atom at either scale too, so
    evaluate on the atom in ticks prints the bytes it prints on the public
    atom."""
    env = builtin_model("mk:3")
    f = parse_formula("F1 P")
    p = env.signal("P")
    tick_env = Env(LINE, {"P": to_ticks(p, tick_unit([p]))})
    assert format_signal(evaluate(f, tick_env)) == format_signal(evaluate(f, env))
    (engine,) = evaluate_ticks(tick_env, f)
    assert oracle_at(f, tick_env, F(1, 2)) and engine.contains(engine.unit // 2)
    assert compare_pointwise(f, tick_env, engine, [F(1, 2)]).render() == (
        "t=1/2 engine=1 oracle=1\nagreement 1/1\n")


def _tick_forms(tmp_path):
    """(name, public env, the env in ticks): mk:3, thm2 and alt:4 with each
    atom at its own tick unit and at half of it, where some of its ticks are
    odd, and a line and a half-line file of the irregular family read by
    builtin_model as a bound file is."""
    rng = random.Random(71)
    for spec, half in itertools.product(("mk:3", "thm2", "alt:4"), (1, 2)):
        env = builtin_model(spec)
        yield f"{spec}/{half}", env, Env(env.domain, {
            a: to_ticks(s, tick_unit([s]) // half) for a, s in env.bindings.items()})
    for domain in (LINE, HALF):
        public = {a: irregular_signal(rng, 12, domain) for a in "PQ"}
        binds = []
        for a, s in public.items():
            path = tmp_path / f"{domain.value}-{a}.sig"
            path.write_text(format_signal(s), encoding="utf-8")
            binds.append(f"{a}={path}")
        yield f"file-{domain.value}", Env(domain, public), builtin_model(None, binds)


TICK_FORM_FORMULAS = ["F1 P", "!P S P", "O1 P U P", "C2(P) U P", "Pn2(P, !P)",
                      "(P | F1 P) U !O1 true", "Pn2(P, Q) | P S Q", "C2(O1 Q) & !F1 P"]


def test_the_oracle_gives_on_atoms_in_ticks_what_it_gives_on_public_ones(tmp_path):
    """On the tick form of a model or of bound files, and on engine signals
    in ticks, every oracle entry point gives exactly what it gives on the
    public form: queries, critical and sample points, and both reports, the
    engine signal at either scale.  Atoms with odd ticks are read at twice
    their unit, where every tick is even, as the grid needs."""
    for name, env, ticks in _tick_forms(tmp_path):
        assert all(s.unit == 1 for s in env.bindings.values())
        assert all(s.unit != 1 for s in ticks.bindings.values())
        for text in TICK_FORM_FORMULAS:
            f = parse_formula(text)
            if not metrics(f)[1] <= env.bindings.keys():
                continue
            public_sig, (tick_sig,) = evaluate(f, env), evaluate_ticks(ticks, f)
            assert from_ticks(tick_sig) == public_sig, (name, text)
            points = sample_points(public_sig, 60, seed=5)
            assert sample_points(tick_sig, 60, seed=5) == points, (name, text)
            assert critical_points(tick_sig) == critical_points(public_sig), (name, text)
            session, tick_session = PointwiseSession(f, env), PointwiseSession(f, ticks)
            for g in tree_nodes(f):
                assert ([tick_session.eval(g, t) for t in points]
                        == [session.eval(g, t) for t in points]), (name, text, g)
            want = compare_pointwise(f, env, public_sig, points)
            assert want.passed, (name, text)
            cells = compare_cells(f, env, public_sig)
            assert cells.passed, (name, text)
            for atoms in (env, ticks):
                for sig in (public_sig, tick_sig):
                    assert compare_pointwise(f, atoms, sig, points) == want, (name, text)
                    assert compare_cells(f, atoms, sig) == cells, (name, text)


def test_disagreement_is_reported_not_hidden():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    wrong = Signal.constant(LINE, False)
    report = compare_pointwise(f, env, wrong, [F(0), F(1, 4)])
    assert not report.passed
    assert report.agreements == 0
    assert report.render().endswith("agreement 0/2\n")


def test_engine_and_oracle_agree_on_every_cell():
    """Formulas of depth up to 3 on random signals of both domains: the
    engine's truth folds like the oracle's table and agrees with it on every
    cell up to a period past the fold start, so everywhere."""
    rng = random.Random(27)
    cells = 0
    for trial in range(200):
        domain = (LINE, HALF)[trial % 2]
        f = random_formula(rng, modal_budget=3)
        env = Env(domain, {"P": random_signal(rng, domain),
                           "Q": random_signal(rng, domain)})
        report = compare_cells(f, env, evaluate(f, env))
        assert report.passed, (trial, f, report.render())
        cells += report.total - 1
    assert cells > 10_000


@pytest.mark.parametrize("spec", ["thm2", "mk:3"])
@pytest.mark.parametrize("text", ["P S false", "!O1 P U true", "true U P", "O1 true S P",
                                  "(P | F1 P) U !O1 true"])
def test_engine_and_oracle_agree_where_a_frame_meets_a_constant_tail(spec, text):
    """The engine's frames leave a constant tail's period out
    (``Frame.of``): on formulas whose operands mix constant and periodic
    tails, its truth still agrees with the oracle's table on every cell."""
    env, f = builtin_model(spec), parse_formula(text)
    report = compare_cells(f, env, evaluate(f, env))
    assert report.passed, report.render()


def test_compare_cells_reports_each_failure():
    """F1 P with P at the integers holds off the integers, and each wrong
    engine signal fails the check it breaks: a cell, an endpoint off the
    grid, a period that does not divide the grid's (where every cell of the
    table agrees), an endpoint off the ticks."""
    env = Env(LINE, {"P": grid_line(1)})
    f = parse_formula("F1 P")
    assert compare_cells(f, env, evaluate(f, env)).render() == "agreement 3/3\n"
    false = Signal.constant(LINE, False)
    assert compare_cells(f, env, false).render() == (
        "cell 1 t=1/2 engine=0 oracle=1\nagreement 2/3\n")
    half = Signal(LINE, F(1), IntervalSet.span(0, F(1, 2)))
    assert compare_cells(f, env, half).lines == (
        "engine endpoint 1/2 is not a grid point",
        "cell 0 t=0 engine=1 oracle=0", "cell 1 t=1/2 engine=0 oracle=1")
    two = Signal(LINE, F(2), IntervalSet([Interval(0, 1, False, False)]))
    assert compare_cells(f, env, two).render() == (
        "engine period 2 does not divide the grid's, 1\nagreement 2/3\n")
    seventh = Signal(LINE, F(1), IntervalSet.span(0, F(1, 7)))
    report = compare_cells(f, env, seventh)
    assert (report.agreements, report.total) == (0, 1)
    assert report.lines == ("engine signal off the session's ticks: "
                            "1/7 is not a whole number of ticks at unit 2",)


def test_compare_cells_reads_past_a_late_engine_transient():
    """The engine's transient need not be least: Q below ends at 5/3 and
    has an empty pattern, but the engine's constant tail starts at 2, past
    the table's fold start, so the comparison runs a period past 2."""
    q = Signal(HALF, F(4, 3), IntervalSet.EMPTY, F(7, 4),
               IntervalSet([Interval(0, F(1, 4), False, False), Interval.point(F(5, 3))]))
    env = Env(HALF, {"Q": q})
    f = parse_formula("Q")
    sig = evaluate(f, env)
    assert sig.transient == 2
    session = PointwiseSession(f, env)
    fold = len(session._table(session._root)) - session._cycle
    assert session._grid.points(fold // 2, fold // 2 + 1)[0] < 2 * session.unit
    report = compare_cells(f, env, sig)
    assert report.passed and report.total - 1 > len(session._table(session._root))


def _fresh_import(module, unwanted, then=""):
    """A fresh interpreter, given this process's path to qtlab, imports the
    module, runs the code `then`, and exits 3 if that loaded the unwanted
    module too; any other failure shows the child's stderr."""
    import os
    import subprocess
    import sys

    import qtlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(qtlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys\nimport {module}\n{then}\nsys.exit(3 if {unwanted!r} in sys.modules else 0)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})
    assert child.returncode != 3, f"importing {module} imported {unwanted}"
    assert child.returncode == 0, child.stderr


def test_oracle_module_never_imports_the_engine_at_load():
    _fresh_import("qtlab.oracle", "qtlab.semantics")


def test_oracle_source_imports_nothing_from_the_engine():
    """No import statement of qtlab.oracle, at any nesting level, names the
    engine or the enumerator: a lazy import inside a function would pass the
    load-time test above and still run the engine."""
    import ast

    import qtlab.oracle

    with open(qtlab.oracle.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(part for alias in node.names for part in alias.name.split("."))
    assert not named & {"semantics", "lab"}, sorted(named & {"semantics", "lab"})


def test_comparing_a_given_signal_never_loads_the_engine():
    """Both harnesses and the sample points run on a signal built by hand,
    the truth of P, with an environment that is not the engine's Env."""
    _fresh_import("qtlab.oracle", "qtlab.semantics", then="""
from fractions import Fraction
from types import SimpleNamespace
from qtlab.formulas import Atom
from qtlab.intervals import Interval, IntervalSet
from qtlab.oracle import compare_cells, compare_pointwise, sample_points
from qtlab.signals import Signal, TimeDomain
p = Signal(TimeDomain.FULL_LINE, Fraction(1, 2), IntervalSet([Interval.point(Fraction(0))]))
env = SimpleNamespace(domain=TimeDomain.FULL_LINE, signal={"P": p}.__getitem__)
assert compare_pointwise(Atom("P"), env, p, sample_points(p, 20)).passed
assert compare_cells(Atom("P"), env, p).passed
""")


def test_the_cli_imports_no_dataclasses():
    """Every CLI process pays for its imports: formula nodes and records
    built with dataclasses would generate and compile their methods at each
    import, and load inspect as well."""
    _fresh_import("qtlab.cli", "dataclasses")


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_engine_and_oracle_agree_on_random_input(rng, domain):
    f = random_formula(rng, modal_budget=2, size=5)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    report = sampled_agreement(f, env, samples=20, seed=rng.randint(0, 10 ** 6))
    assert report.passed, report.render()


def assert_bounds_sound(session, g, env):
    """The engine's truth of g repeats with the grid period from the node's
    bound on, both read back from ticks to time units.
    Checked over one period of the truth past both the bound and the truth's
    own transient, at every point where either side of contains(t) ==
    contains(t + p) can change, and between them."""
    sig = evaluate(g, env)
    node = session._compile(g)
    p, tb = (F(x, session.unit) for x in (session._grid.period, session._bound[node]))
    hi = max(tb, sig.transient) + sig.period
    cuts = sorted({tb, hi} | {c for comp in sig.slice(tb, hi + p)
                              for e in (comp.lower, comp.upper)
                              for c in (e, e - p) if tb <= c <= hi})
    for t in cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]:
        assert sig.contains(t) == sig.contains(t + p), (g, t)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_structural_bounds_are_sound(rng, domain):
    """The tables' fold starts rest on these bounds."""
    f = random_formula(rng, modal_budget=2, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    session = PointwiseSession(f, env)
    for g in tree_nodes(f):
        assert_bounds_sound(session, g, env)


@pytest.mark.parametrize("text", ["X S Y", "O1 Y"])
def test_bounds_cover_runs_from_the_prefix(text):
    """X holds on [0, 3/2) and from 1 on [k, k + 1/2); Y holds at 0 only.  So
    X S Y holds on (0, 3/2] and O1 Y on (0, 1): their truth first repeats a
    period past the operands' transients, or one unit past it."""
    x = Signal(HALF, F(1), IntervalSet.span(0, F(1, 2)), F(1), IntervalSet.span(0, 1))
    y = Signal(HALF, F(1), IntervalSet.EMPTY, F(1, 3), IntervalSet([Interval.point(0)]))
    env = Env(HALF, {"X": x, "Y": y})
    f = parse_formula(text)
    assert_bounds_sound(PointwiseSession(f, env), f, env)
