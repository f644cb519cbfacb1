"""Oracle checks: the session's grid cells and structural bounds, run
placement, pointwise queries, engine agreement."""

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlab.formulas import (
    And,
    Count,
    DiamondFuture,
    DiamondPast,
    Formula,
    Not,
    Or,
    Pnueli,
    TrueConst,
    metrics,
    parse_formula,
    subformulas,
)
from qtlab.intervals import Interval, IntervalSet
from qtlab.oracle import (
    AgreementReport,
    PointwiseSession,
    agreement_check,
    compare_pointwise,
    critical_points,
    pointwise_eval,
    sample_points,
)
from qtlab.semantics import Env, evaluate
from qtlab.signals import MAX_UNROLL, DomainError, Signal, SignalError, TimeDomain

from gen import irregular_signal, random_formula, random_fraction, random_signal

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def grid_line(k):
    return Signal(LINE, F(1, k), IntervalSet([Interval.point(F(0))]))


def thm2_signal():
    return Signal(HALF, F(2, 3), IntervalSet([Interval.point(F(0))]))


def ticks(session, t):
    """The time t in the session's ticks, which must be whole."""
    n = t * session.unit
    assert n.denominator == 1, (t, session.unit)
    return int(n)


def cell_probes(grid, c):
    """The cell's point, or three times spread over its open gap, in ticks."""
    if c % 2 == 0:
        return [grid.point(c // 2)]
    a, b = grid.point(c // 2), grid.point(c // 2 + 1)
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
    cells = grid.cells(lo, hi, True, True)
    assert cells[0] == grid.locate(lo) and cells[-1] == grid.locate(hi)
    for c in cells:
        probes = cell_probes(grid, c)
        for s in sigs:
            assert len({s.contains(F(p) / session.unit) for p in probes}) == 1


def test_regions_of_an_empty_window_are_empty():
    session = PointwiseSession(parse_formula("P"), Env(LINE, {"P": grid_line(2)}))
    grid, u = session._grid, session.unit
    assert u == 4
    assert list(grid.cells(F(1, 3) * u, F(1, 3) * u, True, True)) == []
    assert list(grid.cells(F(1) * u, F(0) * u, True, True)) == []
    # grid points k/2: point 0 is cell 0, the gap (0, 1/2) cell 1, and so on
    assert list(grid.cells(F(0) * u, F(1) * u, True, True)) == [0, 1, 2, 3, 4]
    assert [grid.rep(c) for c in range(5)] == [x * u for x in (0, F(1, 4), F(1, 2), F(3, 4), 1)]
    assert list(grid.cells(F(0) * u, F(1) * u)) == [1, 2, 3]
    assert list(grid.cells(F(1, 8) * u, F(3, 8) * u, True, True)) == [1]  # inside one gap
    assert list(grid.cells(F(-1, 2) * u, F(0) * u, True)) == [-2, -1]


def test_grid_covers_only_the_formulas_atoms():
    """An unused binding of another period would multiply the grid's period
    (here 8 and 41/5 give 328) and every query's work.  So a session asked
    about an atom outside its formula, which its grid does not cut at,
    refuses."""
    p = irregular_signal(random.Random(1), 40, LINE)
    q = Signal(LINE, F(41, 5), IntervalSet.point(0))
    env = Env(LINE, {"P": p, "Q": q})
    for text, period in (("F1 P", 8), ("F1 P | Q", 328), ("true U false", 1)):
        session = PointwiseSession(parse_formula(text), env)
        assert session._grid.period == period * session.unit, text
    with pytest.raises(ValueError, match="atom Q is not in the session's formula"):
        session.eval(parse_formula("F1 Q"), F(0))


def test_grid_past_the_limit_raises():
    """Q's period 1 makes the grid unroll P's period 1/20000 twenty thousand
    times, two endpoints each, and F1 shifts each by -1, 0 and 1."""
    fine = Signal(LINE, F(1, 20000), IntervalSet.point(0))
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
            if b - a <= 2 * per:  # point by point on all but the longest windows
                for i, pt in numbered:
                    assert grid.point(i) == pt
                    assert grid.locate(pt) == 2 * i
                for (i, pt), (_, nxt) in zip(numbered, numbered[1:]):
                    assert grid.locate((pt + nxt) / 2) == 2 * i + 1
                    assert grid.rep(2 * i + 1) == (pt + nxt) / 2
            meeting = _cells_meeting(numbered, a, b) if a < b else []
            for closed_a in (False, True):
                for closed_b in (False, True):
                    expected = [c for c, at_a, at_b in meeting
                                if (closed_a or not at_a) and (closed_b or not at_b)]
                    assert list(grid.cells(a, b, closed_a, closed_b)) == expected, (a, b)


def test_the_oracle_stays_in_ints(monkeypatch):
    """Sessions compute in ticks alone: after comparing random formulas on
    both domains, every grid point, tail offset, start and period, every
    node's period and transient bound and every cached cell rep is an int."""
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
    assert sum(len(s._reps) for s in sessions) > 100
    for s in sessions:
        g = s._grid
        numbers = (g.prefix + g.tail + [g.start, g.period] + s._period + s._tbound
                   + list(s._reps.values()))
        assert all(type(x) is int for x in numbers), s.formula


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
        g = F(grid.point(i), u)
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
    env = Env(HALF, {"P": Signal(HALF, F(1), IntervalSet.point(F(1, 2)))})
    f = parse_formula("F1 O1 (!O1 true)")
    sig = evaluate(f, env)
    assert sig.contains(F(3, 4)) and not sig.contains(F(1))
    assert pointwise_eval(f, env, F(3, 4)) is True
    assert pointwise_eval(f, env, F(1)) is False


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_formula_truth_is_constant_on_translate_refined_regions(rng, domain):
    f = random_formula(rng, modal_budget=2, size=4)
    depth, atoms = metrics(f)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
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
            # a fresh session per probe: a shared one would answer the
            # nested operands of every probe from the same cells' entries
            assert len({PointwiseSession(f, env).eval(f, p) for p in probes}) == 1
        prev = c


def test_pointwise_count_on_two_thirds_grid():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P)")
    assert pointwise_eval(f, env, F(1, 6)) is False
    assert pointwise_eval(f, env, F(7, 6)) is True
    assert pointwise_eval(f, env, F(0)) is False
    assert pointwise_eval(f, env, F(1, 2)) is True


def test_pointwise_diamond_is_true_everywhere_on_unit_grid():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    for t in sample_points(evaluate(f, env), count=20, seed=3):
        assert pointwise_eval(f, env, t) is True


def test_pointwise_until_reaches_grid_point():
    env = Env(LINE, {"P": grid_line(3)})
    f = parse_formula("!P U P")
    assert pointwise_eval(f, env, F(0)) is True
    g = parse_formula("P U true")
    assert pointwise_eval(g, env, F(0)) is False


def test_pointwise_since_on_half_line_origin():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("true S P")
    assert pointwise_eval(f, env, F(0)) is False  # no past at the origin
    assert pointwise_eval(f, env, F(1, 10)) is True
    # O1 P is false at the origin, whose past window is empty, and true on
    # the gap after it, whose window holds the origin
    assert pointwise_eval(parse_formula("O1 O1 P"), env, F(1, 17)) is True


def test_pointwise_pnueli_matches_hand_count():
    env = Env(LINE, {"P": grid_line(2)})
    assert pointwise_eval(parse_formula("Pn2(P, !P)"), env, F(0)) is True
    assert pointwise_eval(parse_formula("Pn3(P, P, P)"), env, F(0)) is False
    # two grid points fit in the open window away from the grid
    assert pointwise_eval(parse_formula("Pn2(P, P)"), env, F(1, 4)) is True
    # but not when the window boundary sits on the grid
    assert pointwise_eval(parse_formula("Pn2(P, P)"), env, F(0)) is False


def test_session_memo_is_consistent():
    env = Env(HALF, {"P": thm2_signal()})
    f = parse_formula("C2(P) U !P")
    session = PointwiseSession(f, env)
    a = session.eval(f, F(1, 3))
    b = session.eval(f, F(1, 3))
    assert a == b == pointwise_eval(f, env, F(1, 3))


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
    """F1, C<n>, Pn<k> and O1 of one operand share its node, its memo
    entries and every cell's cached windows.  Each distinct subformula is
    exactly one node, every windowed subformula asked of the one session
    answers like the engine, and the session answers like fresh ones."""
    g = random_formula(rng, modal_budget=1, size=3)
    n = rng.randint(1, 3)
    f = Or(And(DiamondFuture(g), Count(n, g)),
           And(Pnueli((g,) * n + (Not(g),)), DiamondPast(DiamondPast(g))))
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    shared = PointwiseSession(f, env)
    nodes = len(shared._kind)
    assert nodes == len(set(subformulas(f)))
    for h in subformulas(f):
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
    nodes = len(list(subformulas(f)))
    for count in (100, 300):
        points = sample_points(sig, count=count, seed=1)
        hashes.clear()
        assert compare_pointwise(f, env, sig, points).passed
        assert len(hashes) <= 2 * nodes, count


def _lookups_and_memo(monkeypatch, text, env, samples):
    """Check the formula against the engine at `samples` points through one
    session: its operand lookups and its memo entries."""
    f = parse_formula(text)
    sig = evaluate(f, env)
    sessions, lookups = [], []
    cell = PointwiseSession._cell

    def counting(self, i, c):
        sessions.append(self)
        lookups.append(1)
        return cell(self, i, c)

    monkeypatch.setattr(PointwiseSession, "_cell", counting)
    assert compare_pointwise(f, env, sig, sample_points(sig, samples)).passed
    assert len(set(map(id, sessions))) == 1
    return len(lookups), len(sessions[0]._memo)


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_until_since_scans_are_memoized(monkeypatch, domain):
    """The until under the since never holds, so its guarded walks run to
    their horizons and the since's run back a period or to the origin.  Each
    cell a walk passes keeps a skip pointer, keyed by the walk's operand and
    guard, to where the walk stopped, and a later walk jumps along it, so
    operand lookups stay within a small multiple of the memo entries."""
    rng = random.Random(5)
    env = Env(domain, {"P": irregular_signal(rng, 8, domain),
                       "Q": irregular_signal(rng, 8, domain)})
    lookups, entries = _lookups_and_memo(monkeypatch, "true S (true U (P & !P))", env, 60)
    assert lookups <= 2 * entries


@pytest.mark.parametrize("text", ["O1 Pn1(Pn2(true | P, Q & false))", "C2(O1 C3(F1 P))",
                                  "C2(O1 C3(F1 (Q & false)))"])
def test_window_lookups_are_amortized(monkeypatch, text):
    """24 grid points per unit, so every unit window spans 49 cells.  The
    inner run and the innermost count never hold, and every outer window
    asks them at each of its cells.  Rescanning those inner windows would
    cost a factor of the window size; the skip pointers keep operand lookups
    within a small multiple of the memo entries."""
    env = Env(LINE, {"P": grid_line(24), "Q": grid_line(24)})
    lookups, entries = _lookups_and_memo(monkeypatch, text, env, 100)
    assert lookups <= 2 * entries


class _TableSession(PointwiseSession):
    """A session whose node i holds in cell c exactly when table[i, c]; it
    records every evaluation, that is every memo miss."""

    def __init__(self, table):
        super().__init__(TrueConst(), Env(LINE, {}))
        self.table, self.asked = table, []

    def _at(self, i, t, cell):
        self.asked.append((i, cell))
        return self.table[i, cell]


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


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_skip_pointers_match_a_linear_scan(rng):
    """Random truth tables over negative and positive cells, and interleaved
    queries in both directions whose windows start and end at different
    cells, plain walks and walks guarded by the other node mixed on one
    session: each lookup answers like a scan of its window."""
    lo, hi = -12, 12
    density = [rng.random(), rng.random()]
    table = {(k, c): rng.random() < density[k] for k in range(2) for c in range(lo, hi + 1)}
    session = _TableSession(table)
    for _ in range(40):
        k, c = rng.randrange(2), rng.randint(lo, hi)
        if rng.random() < 0.5:
            step, guard = rng.choice((1, -1)), rng.choice((None, 1 - k))
            end = rng.randint(c, hi + 1) if step == 1 else rng.randint(lo - 1, c)
            expected = next((x for x in range(c, end, step)
                             if table[k, x] or (guard is not None and not table[guard, x])), end)
            assert session._first(k, c, end, step, guard) == expected, (k, c, end, step, guard)
        else:
            need, cells = rng.randint(1, 4), range(c, rng.randint(c, hi + 1))
            expected = _count_by_scan(lambda x: table[k, x], need, cells)
            assert session._count(k, need, cells) == expected, (k, need, cells)
    assert len(session.asked) == len(set(session.asked))  # each (node, cell) once


def test_half_line_queries_before_the_origin_raise():
    env = Env(HALF, {"P": thm2_signal()})
    for text in ("P", "true", "F1 P", "P S true"):
        with pytest.raises(DomainError):
            PointwiseSession(parse_formula(text), env).eval(parse_formula(text), F(-1, 3))
    with pytest.raises(DomainError):
        pointwise_eval(parse_formula("C2(P)"), env, -1)


def _placements(n, cells, holds):
    """Every placement of n operands at strictly increasing times of the
    cells: a nondecreasing choice of cells, no point cell chosen twice."""
    for pick in itertools.combinations_with_replacement(cells, n):
        if any(a == b and a % 2 == 0 for a, b in zip(pick, pick[1:])):
            continue
        if all(holds(j, c) for j, c in enumerate(pick)):
            yield pick


def test_run_placement_matches_the_exhaustive_enumeration():
    """The session's witness-to-witness placement, on a random table, then
    on a sub-window of the same table, so the second walk runs along the
    pointers the first one left."""
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 4)
        first = rng.randint(-3, 3)
        cells = range(first, first + rng.randint(0, 7))
        table = {(j, c): rng.random() < 0.6 for j in range(n) for c in cells}
        session = _TableSession(table)
        lo = rng.randint(cells.start, max(cells.start, cells.stop - 1))
        for window in (cells, range(lo, rng.randint(lo, cells.stop))):
            expected = next(_placements(n, window, lambda j, c: table[j, c]), None) is not None
            assert session._placeable(tuple(range(n)), window) == expected, (n, window, table)
        assert len(session.asked) == len(set(session.asked))  # each (operand, cell) once


@pytest.mark.parametrize("text", ["Pn2(true | P, Q & false)", "Pn3(true | P, true, Q & false)",
                                  "Pn3(P, !P, P)", "Pn3(!P, P, true)"])
def test_run_placement_on_a_fine_grid(text):
    """24 grid points per unit: an unmemoized search of a run whose last
    operand never holds tries every placement of the others."""
    env = Env(LINE, {"P": grid_line(24), "Q": grid_line(24)})
    f = parse_formula(text)
    for t in (F(0), F(1, 7)):
        session = PointwiseSession(f, env)
        cells = session._grid.cells(t * session.unit, (t + 1) * session.unit)
        args = [session._compile(a) for a in f.args]
        expected = next(_placements(len(args), cells,
                                    lambda j, c: session._cell(args[j], c)), None) is not None
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


def test_agreement_report_format():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    report = agreement_check(f, env, samples=3, seed=0)
    assert isinstance(report, AgreementReport)
    assert report.passed and report.total == 3
    text = report.render()
    assert text.splitlines()[0] == "t=-2 engine=1 oracle=1"
    assert text.splitlines()[-1] == "agreement 3/3"


@pytest.mark.parametrize("samples", [0, -3])
def test_agreement_needs_a_sample(samples):
    """A verdict over no points is no pass."""
    env = Env(LINE, {"P": grid_line(2)})
    with pytest.raises(ValueError, match="at least one sample"):
        agreement_check(parse_formula("F1 P"), env, samples=samples, seed=0)


def test_agreement_refuses_more_samples_than_the_unroll_limit(monkeypatch):
    """MAX_UNROLL + 1 samples are refused before the engine runs."""
    import qtlab.semantics

    def ran(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(qtlab.semantics, "evaluate", ran)
    env = Env(LINE, {"P": grid_line(2)})
    with pytest.raises(ValueError, match=f"at most {MAX_UNROLL} samples"):
        agreement_check(parse_formula("F1 P"), env, samples=MAX_UNROLL + 1, seed=0)


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
    assert pointwise_eval(f, env, 0) is True
    assert compare_pointwise(f, env, evaluate(f, env), [0, F(1, 4)]).passed
    with pytest.raises(TypeError):
        pointwise_eval(f, env, 0.5)
    with pytest.raises(TypeError):
        compare_pointwise(f, env, evaluate(f, env), [F(0), 0.25])


def test_disagreement_is_reported_not_hidden():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    wrong = Signal.constant(LINE, False)
    report = compare_pointwise(f, env, wrong, [F(0), F(1, 4)])
    assert not report.passed
    assert report.agreements == 0
    assert report.render().endswith("agreement 0/2\n")


def test_oracle_module_never_imports_the_engine_at_load():
    import subprocess
    import sys

    code = ("import sys; import qtlab.oracle; "
            "sys.exit(1 if 'qtlab.semantics' in sys.modules else 0)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_engine_and_oracle_agree_on_random_input(rng, domain):
    f = random_formula(rng, modal_budget=2, size=5)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    report = agreement_check(f, env, samples=20, seed=rng.randint(0, 10 ** 6))
    assert report.passed, report.render()


def assert_bounds_sound(session, g, env):
    """The engine's truth of g repeats with the oracle's period from the
    oracle's transient bound on, both read back from ticks to time units.
    Checked over one period of the truth past both the bound and the truth's
    own transient, at every point where either side of contains(t) ==
    contains(t + p) can change, and between them."""
    sig = evaluate(g, env)
    node = session._compile(g)
    p, tb = (F(x, session.unit) for x in (session._period[node], session._tbound[node]))
    hi = max(tb, sig.transient) + sig.period
    cuts = sorted({tb, hi} | {c for comp in sig.slice(tb, hi + p)
                              for e in (comp.lower, comp.upper)
                              for c in (e, e - p) if tb <= c <= hi})
    for t in cuts + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]:
        assert sig.contains(t) == sig.contains(t + p), (g, t)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_structural_bounds_are_sound(rng, domain):
    """The horizons of the oracle's scans rest on these bounds."""
    f = random_formula(rng, modal_budget=2, size=6)
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    session = PointwiseSession(f, env)
    for g in subformulas(f):
        assert_bounds_sound(session, g, env)


@pytest.mark.parametrize("text", ["X S Y", "O1 Y"])
def test_bounds_cover_runs_from_the_prefix(text):
    """X holds on [0, 3/2) and from 1 on [k, k + 1/2); Y holds at 0 only.  So
    X S Y holds on (0, 3/2] and O1 Y on (0, 1): their truth first repeats a
    period past the operands' transients, or one unit past it."""
    x = Signal(HALF, F(1), IntervalSet.span(0, F(1, 2)), F(1), IntervalSet.span(0, 1))
    y = Signal(HALF, F(1), IntervalSet.EMPTY, F(1, 3), IntervalSet.point(0))
    env = Env(HALF, {"X": x, "Y": y})
    f = parse_formula(text)
    assert_bounds_sound(PointwiseSession(f, env), f, env)
