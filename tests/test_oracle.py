"""Oracle checks: the session's regions and structural bounds, pointwise
queries, engine agreement."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlab.formulas import metrics, parse_formula, subformulas
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
from qtlab.signals import Signal, TimeDomain

from gen import irregular_signal, random_formula, random_signal

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def grid_line(k):
    return Signal(LINE, F(1, k), IntervalSet([Interval.point(F(0))]))


def thm2_signal():
    return Signal(HALF, F(2, 3), IntervalSet([Interval.point(F(0))]))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([LINE, HALF]))
def test_signals_are_constant_on_their_regions(rng, domain):
    env = Env(domain, {"P": random_signal(rng, domain),
                       "Q": random_signal(rng, domain)})
    sigs = list(env.bindings.values())
    hi = max(s.transient for s in sigs) + 2 * max(s.period for s in sigs)
    lo = F(0) if domain is HALF else -hi
    session = PointwiseSession(parse_formula("P & Q"), env)
    for reg in session._regions(lo, hi, True, True):
        if reg[0] == "point":
            probes = [reg[1]]
        else:
            a, b = reg[1], reg[2]
            probes = [a + (b - a) * F(k, 4) for k in (1, 2, 3)]
        for s in sigs:
            assert len({s.contains(p) for p in probes}) == 1


def test_regions_of_an_empty_window_are_empty():
    session = PointwiseSession(parse_formula("P"), Env(LINE, {"P": grid_line(2)}))
    assert session._regions(F(1, 3), F(1, 3), True, True) == []
    assert session._regions(F(1), F(0), True, True) == []
    assert session._regions(F(0), F(1), True, True) == [
        ("point", F(0)), ("open", F(0), F(1, 2)), ("point", F(1, 2)),
        ("open", F(1, 2), F(1)), ("point", F(1))]


def test_grid_covers_only_the_formulas_atoms():
    """An unused binding of another period would multiply the grid's period
    (here 8 and 41/5 give 328) and every query's work."""
    p = irregular_signal(random.Random(1), 40, LINE)
    q = Signal(LINE, F(41, 5), IntervalSet.point(0))
    env = Env(LINE, {"P": p, "Q": q})
    assert PointwiseSession(parse_formula("F1 P"), env)._grid.period == 8
    assert PointwiseSession(parse_formula("F1 P | Q"), env)._grid.period == 328
    assert PointwiseSession(parse_formula("true U false"), env)._grid.period == 1


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
    session = PointwiseSession(f, env)
    prev = F(0)
    for c in sorted(cuts) + [hi]:
        if prev < c:
            probes = [prev + (c - prev) * F(k, 4) for k in (1, 2, 3)]
            assert len({session.eval(f, p) for p in probes}) == 1
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


def test_agreement_report_format():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("F1 P")
    report = agreement_check(f, env, samples=3, seed=0)
    assert isinstance(report, AgreementReport)
    assert report.passed and report.total == 3
    text = report.render()
    assert text.splitlines()[0] == "t=-2 engine=1 oracle=1"
    assert text.splitlines()[-1] == "agreement 3/3"


def test_agreement_zero_samples_is_vacuous():
    env = Env(LINE, {"P": grid_line(2)})
    report = agreement_check(parse_formula("F1 P"), env, samples=0, seed=0)
    assert report.passed and report.total == 0
    assert report.render() == "agreement 0/0\n"


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
    oracle's transient bound on.  Checked over one period of the truth past
    both the bound and the truth's own transient, at every point where either
    side of contains(t) == contains(t + p) can change, and between them."""
    sig = evaluate(g, env)
    p, tb = session._period(g), session._transient_bound(g)
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
