"""Engine checks: frozen operator examples, then algebraic laws on random input."""

import random
from bisect import bisect_right
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtlab.semantics
from qtlab.cli import main
from qtlab.formulas import (
    ArityError,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    Formula,
    Pnueli,
    Since,
    Until,
    _MODAL,
    children,
    metrics,
    parse_formula,
)
from qtlab.lab import builtin_model, enumerate_formulas, parse_logic
from qtlab.intervals import Interval, IntervalSet
from qtlab.oracle import compare_pointwise, critical_points
from qtlab.semantics import (
    MODALITIES,
    Env,
    EvalError,
    Frame,
    UnboundAtomError,
    count_kernel,
    count_unit,
    diamond_unit_future,
    diamond_unit_past,
    evaluate,
    evaluate_ticks,
    order_kernel,
    pnueli_kernel,
    pnueli_unit,
    since,
    until,
)
from qtlab.signals import (
    DomainError,
    Signal,
    TimeDomain,
    _apply,
    _frame,
    align_many,
    combine,
    equal,
    format_signal,
    parse_ticks,
    tick_unit,
    to_ticks,
)

from gen import (irregular_signal, random_formula, random_signal, read_interval_list, sparse_signal,
                 spy_signal_builds)

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE


def grid_line(k: int) -> Signal:
    """True exactly at the integer multiples of 1/k, over the whole line."""
    return Signal(LINE, F(1, k), IntervalSet([Interval.point(F(0))]))


def grid_half(step: F) -> Signal:
    """True exactly at the nonnegative multiples of the step."""
    return Signal(HALF, step, IntervalSet([Interval.point(F(0))]))


def origin_only() -> Signal:
    """True at time zero and nowhere else."""
    return Signal(HALF, F(1), IntervalSet.EMPTY, F(1),
                  IntervalSet([Interval.point(F(0))]))


def const(domain, value: bool) -> Signal:
    return Signal.constant(domain, value)


def test_diamond_future_of_origin_point_is_false():
    out = diamond_unit_future(origin_only())
    assert equal(out, const(HALF, False))


def test_diamond_past_of_origin_point_is_unit_interval():
    out = diamond_unit_past(origin_only())
    want = Signal(HALF, F(1), IntervalSet.EMPTY, F(1),
                  IntervalSet([Interval(F(0), F(1), False, False)]))
    assert equal(out, want.canonicalize())
    assert not out.contains(F(0))
    assert out.contains(F(1, 2))
    assert not out.contains(F(1))


def test_until_reaches_isolated_point_through_its_complement():
    p = grid_line(3)
    not_p = Signal(LINE, F(1, 3), IntervalSet([Interval(F(0), F(1, 3), False, False)]))
    assert equal(until(not_p, p), const(LINE, True))


def test_until_needs_an_open_run_of_the_left_operand():
    p = grid_line(3)
    assert equal(until(p, const(LINE, True)), const(LINE, False))


def test_until_true_false_has_no_witness():
    assert equal(until(const(LINE, True), const(LINE, False)), const(LINE, False))


def test_since_true_p_holds_strictly_after_origin():
    p = grid_half(F(2, 3))
    out = since(const(HALF, True), p)
    want = Signal(HALF, F(1),
                  IntervalSet([Interval(F(0), F(1), True, False)]),
                  F(1),
                  IntervalSet([Interval(F(0), F(1), False, False)]))
    assert equal(out, want)
    assert not out.contains(F(0))
    assert out.contains(F(1, 10))


def test_since_reads_a_run_that_starts_in_the_prefix():
    # x holds on [0, 3/2): its prefix run reaches into the tail, so the
    # output cannot repeat from the transient 1; y is only the point 1/2
    x = Signal(HALF, F(1), IntervalSet([Interval(F(0), F(1, 2), True, False)]), F(1),
               IntervalSet([Interval(F(0), F(1), True, False)]))
    y = Signal(HALF, F(1), IntervalSet.EMPTY, F(1), IntervalSet([Interval.point(F(1, 2))]))
    want = Signal(HALF, F(1), IntervalSet.EMPTY, F(2),
                  IntervalSet([Interval(F(1, 2), F(3, 2), False, True)]))
    assert equal(since(x, y), want)


def test_since_false_true_is_false():
    assert equal(since(const(HALF, False), const(HALF, True)), const(HALF, False))


def test_since_true_true_on_the_line_is_true():
    assert equal(since(const(LINE, True), const(LINE, True)), const(LINE, True))


def test_pnueli_alternation_fits_in_the_window():
    p = grid_line(2)
    not_p = Signal(LINE, F(1, 2), IntervalSet([Interval(F(0), F(1, 2), False, False)]))
    assert equal(pnueli_unit([p, not_p]), const(LINE, True))


def test_pnueli_three_grid_points_never_fit():
    p = grid_line(2)
    assert equal(pnueli_unit([p, p, p]), const(LINE, False))


def test_unary_run_opens_after_a_point_at_the_origin():
    """Pn1 of {0} u [1, 11/8) with transient 9/5 and an empty tail holds on
    (0, 11/8): at t = 0 the window (0, 1) misses both parts.  In ticks the
    constant piece G = 1 on [0, 1) is true past G - one unit, not G - 1 tick,
    and open there."""
    x = Signal(HALF, F(1), IntervalSet.EMPTY, F(9, 5), read_interval_list("[0,0],[1,11/8)"))
    want = Signal(HALF, F(1), IntervalSet.EMPTY, F(11, 8), read_interval_list("(0,11/8)"))
    assert evaluate(Pnueli((Atom("X"),)), Env(HALF, {"X": x})) == want
    assert pnueli_unit([x]) == want


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_count_on_matching_grid_is_not_p(k):
    p = grid_line(k)
    out = count_unit(p, k)
    not_p = Signal(LINE, F(1, k),
                   IntervalSet([Interval(F(0), F(1, k), False, False)]))
    assert equal(out, not_p.canonicalize())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_count_on_denser_grid_is_true(k):
    p = grid_line(k + 1)
    assert equal(count_unit(p, k), const(LINE, True))


def test_count_two_on_two_thirds_grid():
    p = grid_half(F(2, 3))
    out = count_unit(p, 2)
    want = Signal(HALF, F(2, 3),
                  IntervalSet([Interval(F(1, 3), F(2, 3), False, False)]))
    assert equal(out, want)
    assert out.transient == 0
    assert out.pattern == read_interval_list("(1/3,2/3)")


def test_count_rejects_zero():
    with pytest.raises(EvalError):
        count_unit(grid_line(2), 0)
    with pytest.raises(EvalError):
        pnueli_unit([])


def test_count_index_must_be_an_int():
    """A bool or float index is refused at both entry points, not printed as
    CTrue(P) nor left to fail inside the kernel."""
    for n in (True, 1.5, 2.0):
        with pytest.raises(ArityError, match="counting index must be an int"):
            Count(n, Atom("P"))
        with pytest.raises(EvalError, match="counting index must be an int"):
            count_unit(grid_line(2), n)


def test_env_requires_matching_domains_and_bound_atoms():
    from qtlab.signals import DomainError
    with pytest.raises(DomainError):
        Env(LINE, {"P": const(HALF, True)})
    env = Env(LINE, {"P": grid_line(2)})
    with pytest.raises(UnboundAtomError):
        evaluate(parse_formula("Q"), env)
    with pytest.raises(TypeError, match="not a formula"):
        evaluate(Formula(), env)


def test_evaluate_composes_operators():
    env = Env(LINE, {"P": grid_line(2)})
    f = parse_formula("C2(P) | Pn2(P, !P)")
    assert equal(evaluate(f, env), const(LINE, True))
    g = parse_formula("P -> F1 P")
    assert equal(evaluate(g, env), const(LINE, True))


def test_each_formula_is_walked_for_its_atoms_once(monkeypatch):
    """evaluate selects its atoms in one walk of its formula, and
    evaluate_ticks in one walk per formula."""
    walked = []

    def logged(f):
        walked.append(f)
        return metrics(f)

    monkeypatch.setattr(qtlab.semantics, "metrics", logged)
    env = Env(LINE, {"P": grid_line(2), "Q": grid_line(3)})
    fs = [parse_formula(text) for text in ("C2(P) | Pn2(P, !Q)", "P U Q", "F1 true")]
    evaluate(fs[0], env)
    assert walked == fs[:1]
    walked.clear()
    evaluate_ticks(env, *fs)
    assert walked == fs


# ---------------------------------------------------------------- random laws

DOMAINS = st.sampled_from([LINE, HALF])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS)
def test_count_one_equals_diamond_equals_unary_pnueli(rng, domain):
    x = random_signal(rng, domain)
    a = count_unit(x, 1)
    b = diamond_unit_future(x)
    c = pnueli_unit([x])
    assert equal(a, b)
    assert equal(b, c)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS, st.integers(min_value=1, max_value=4))
def test_count_chain_is_antitone(rng, domain, n):
    from qtlab.signals import combine
    x = random_signal(rng, domain)
    hi = count_unit(x, n + 1)
    lo = count_unit(x, n)
    # containment: n+1 witnesses imply n, so hi & lo == hi
    assert equal(combine("and", hi, lo), hi)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS, st.integers(min_value=1, max_value=4))
def test_count_equals_pnueli_on_equal_operands(rng, domain, n):
    x = random_signal(rng, domain)
    assert equal(count_unit(x, n), pnueli_unit([x] * n))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS)
def test_diamond_future_distributes_over_or(rng, domain):
    from qtlab.signals import combine
    x = random_signal(rng, domain)
    y = random_signal(rng, domain)
    left = diamond_unit_future(combine("or", x, y))
    right = combine("or", diamond_unit_future(x), diamond_unit_future(y))
    assert equal(left, right)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS)
def test_existential_positions_distribute_over_or(rng, domain):
    """Every position the modality table marks distributive, which the
    enumerator runs on atoms, distributes over `|`: checked through each
    row's operator on a node of every row, C<n> at n = 2 and 3 and Pn at
    widths 2 and 3."""
    a = Atom("X")
    nodes = [Until(a, a), Since(a, a), DiamondFuture(a), DiamondPast(a), Count(2, a),
             Count(3, a), Pnueli((a, a)), Pnueli((a, a, a))]
    assert {type(node) for node in nodes} == set(MODALITIES)
    y, z, *others = (random_signal(rng, domain, 3) for _ in range(5))
    for node in nodes:
        row, width = MODALITIES[type(node)], len(children(node))
        for k in range(width):
            if k not in row.whole:
                def f(s):
                    return row.operator(node, *others[:k], s, *others[k:width - 1])
                assert equal(f(combine("or", y, z)), combine("or", f(y), f(z))), (node, k)


def test_the_modality_table_names_the_formula_layers_modal_classes():
    """`metrics`, and through it the oracle's grid depth and the closure's
    depth, count the classes of `formulas._MODAL` as modal; the engine and
    the enumerator run the rows of `MODALITIES`. A modality added to one
    and not the other would count at the wrong modal depth."""
    assert set(MODALITIES) == set(_MODAL) and len(_MODAL) == len(MODALITIES)


def test_count_two_does_not_distribute_over_or():
    """P at the integers, Q at the half-integers: C2(P | Q) is (0,1/2) with
    period 1/2, while C2(P) | C2(Q) is empty.  So the modality table marks
    the operand of C<n> as not distributive, and the enumerator runs it on
    whole classes."""
    assert MODALITIES[Count].whole == (0,)
    p = grid_line(1)
    q = Signal(LINE, F(1), IntervalSet([Interval.point(F(1, 2))]))
    assert equal(count_unit(combine("or", p, q), 2),
                 Signal(LINE, F(1, 2), IntervalSet([Interval.open(F(0), F(1, 2))])))
    assert equal(combine("or", count_unit(p, 2), count_unit(q, 2)), const(LINE, False))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_operators_commute_with_shift_on_the_line(rng):
    x = random_signal(rng, LINE)
    y = random_signal(rng, LINE)
    d = F(rng.randint(-12, 12), rng.randint(1, 12))
    pairs = [
        (diamond_unit_future(x.shift(d)), diamond_unit_future(x).shift(d)),
        (diamond_unit_past(x.shift(d)), diamond_unit_past(x).shift(d)),
        (count_unit(x.shift(d), 2), count_unit(x, 2).shift(d)),
        (until(x.shift(d), y.shift(d)), until(x, y).shift(d)),
        (since(x.shift(d), y.shift(d)), since(x, y).shift(d)),
    ]
    for got, want in pairs:
        assert equal(got, want)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), DOMAINS)
def test_outputs_are_canonical(rng, domain):
    x = random_signal(rng, domain)
    y = random_signal(rng, domain)
    for out in (diamond_unit_future(x), diamond_unit_past(x),
                count_unit(x, 3), until(x, y), since(x, y),
                pnueli_unit([x, y])):
        assert out == out.canonicalize()
        assert out.domain is domain


# ----------------------------------------------------- operands as they come

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), DOMAINS, st.booleans())
def test_operators_read_unaligned_operands_as_aligned(seed, domain, in_ticks):
    """until, since and pnueli_unit slice their operands in the common frame
    without reframing them first: the result equals the same operator on the
    align_many output, in Fractions and in int ticks."""
    rng = random.Random(seed)  # a seed, so that the redraws below end
    x = random_signal(rng, domain)
    y, z = random_signal(rng, domain), random_signal(rng, domain)
    while y.period == x.period or (domain is HALF and y.transient == x.transient):
        y = random_signal(rng, domain)
    if in_ticks:
        unit = tick_unit([x, y, z])
        x, y, z = (to_ticks(s, unit) for s in (x, y, z))
    ax, ay = align_many([x, y])
    assert (ax, ay) != (x, y)
    assert until(x, y) == until(ax, ay)
    assert since(y, x) == since(*align_many([y, x]))
    assert since(x, y) == since(ax, ay)
    assert pnueli_unit([x, y, z]) == pnueli_unit(align_many([x, y, z]))
    assert pnueli_unit([z, x]) == pnueli_unit(align_many([z, x]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), DOMAINS, st.booleans())
def test_kernels_read_a_larger_frame_over_its_reach(seed, domain, in_ticks):
    """Every kernel, run on cuts over the reach of a frame wider than its
    operands' own (a third signal's period and transient join it), gives
    the public operator's set, with a t_bound at or below the frame's
    settled transient: a modal layer runs them so."""
    rng = random.Random(seed)
    x, y, z = (random_signal(rng, domain) for _ in range(3))
    if in_ticks:
        unit = tick_unit([x, y, z])
        x, y, z = (to_ticks(s, unit) for s in (x, y, z))
    frame = Frame.of([x, y, z])
    cx, cy = (s.slice(*frame.reach()) for s in (x, y))

    def signal(truth):
        assert truth[1] <= frame.settled()
        return _frame(frame, truth[1], truth[0]).canonicalize()

    assert signal(order_kernel(frame, [cx, cy], True)) == until(x, y)
    assert signal(order_kernel(frame, [cx, cy], False)) == since(x, y)
    assert signal(count_kernel(frame, [cx], 1, True)) == diamond_unit_future(x)
    assert signal(count_kernel(frame, [cx], 1, False)) == diamond_unit_past(x)
    assert signal(count_kernel(frame, [cx], 2, True)) == count_unit(x, 2)
    assert signal(pnueli_kernel(frame, [cx, cy])) == pnueli_unit([x, y])


def _pnueli_by_bisection(frame: Frame, cuts) -> tuple:
    """The reference for pnueli_kernel's sweep: the truth decided at every
    critical point (operand endpoints and their shifts by one) and at one
    midpoint per gap between them, each decision placing the witnesses
    greedily by bisection over the components."""
    one, hi = frame.unit, frame.transient + frame.period
    comps = [cut.components for cut in cuts]
    uppers = [[c.upper for c in cs] for cs in comps]

    def decide(t) -> bool:
        b = t
        for cs, ups in zip(comps, uppers):
            i = bisect_right(ups, b)  # first component with points above b
            if i == len(cs):
                return False
            b = max(cs[i].lower, b)
            if b >= t + one:
                return False
        return True

    ends = {e for cs in comps for c in cs for e in (c.lower, c.upper)}
    crit = sorted({e for e in ends | {e - one for e in ends} if 0 <= e <= hi} | {0, hi})
    pieces = []
    for c, nxt in zip(crit, crit[1:] + [None]):
        if decide(c):
            pieces.append(Interval(c, c))
        if nxt is None:
            continue
        # in ticks every critical point is even (see signals.tick_unit), so
        # the midpoint is an int there
        s = c + nxt
        if decide(s // 2 if s % 2 == 0 else s / 2):
            pieces.append(Interval(c, nxt, False, False))
    return IntervalSet(pieces), frame.transient


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), DOMAINS, st.booleans())
def test_run_sweep_matches_the_bisection_reference(seed, domain, in_ticks):
    """1-6 operands with denominators up to 30, framed and canonical."""
    rng = random.Random(seed)
    xs = [random_signal(rng, domain, max_den=rng.randint(1, 30))
          for _ in range(rng.randint(1, 6))]
    if in_ticks:
        unit = tick_unit(xs)
        xs = [to_ticks(x, unit) for x in xs]
    assert _apply(pnueli_kernel, xs) == _apply(_pnueli_by_bisection, xs)


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_run_sweep_matches_the_reference_on_sparse_signals(domain):
    """The irregular family makes Pn2 true everywhere, so it cannot show a
    misplaced run end.  Sparse operands put 0-3 components in a unit window,
    so runs of 1-3 operands start and end about once per component."""
    rng = random.Random(35 + (domain is HALF))
    sizes = []
    for _ in range(12):
        n = rng.randint(40, 200)
        xs = [sparse_signal(rng, n, domain) for _ in range(rng.randint(1, 3))]
        unit = tick_unit(xs)
        xs = [to_ticks(x, unit) for x in xs]
        got = _apply(pnueli_kernel, xs)
        assert got == _apply(_pnueli_by_bisection, xs)
        sizes.append(len(got.prefix) + len(got.pattern))
    assert max(sizes) >= 100


@pytest.mark.parametrize("op", [until, since, lambda x, y: pnueli_unit([x, y])],
                         ids=["until", "since", "pnueli_unit"])
def test_operators_reject_mismatched_operands(op):
    line, half = grid_line(2), grid_half(F(1, 2))
    with pytest.raises(DomainError):
        op(line, half)
    with pytest.raises(DomainError):
        op(half, line)
    with pytest.raises(ValueError, match="different time scales"):
        op(half, to_ticks(half, 4))


# ------------------------------------------------------- long irregular inputs

# On this family F1, O1 and C3 of a bare atom hold everywhere; their
# variants over the sparser P & Q, and C5 over the points-only R, keep
# irregular outputs.
IRREGULAR_FORMULAS = ("F1 P", "F1 (P & Q)", "O1 Q", "O1 (P & Q)", "C3(P)", "C5(P)",
                      "C5(R)", "Pn2(P, Q)", "Pn2(P, P & Q)", "P U Q", "!P U Q",
                      "P S Q", "!P S Q")


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_operators_on_long_irregular_signals_agree_with_the_oracle(domain):
    """About 40 components a period and, on the half line, a 20-component
    prefix: long runs of the unrolled window and of the transient, which
    small random signals never reach."""
    rng = random.Random(211 + (domain is HALF))
    env = Env(domain, {"P": irregular_signal(rng, 40, domain),
                       "Q": irregular_signal(rng, 40, domain),
                       "R": irregular_signal(rng, 40, domain, point_share=1.0)})
    for text in IRREGULAR_FORMULAS:
        f = parse_formula(text)
        sig = evaluate(f, env)
        crit = critical_points(sig)
        if len(crit) == 2:
            # a constant output has no critical points of its own: check it
            # where the operands change, shifted by the unit window
            crit = sorted(set(crit) | {e + k for g in children(f)
                                       for e in critical_points(evaluate(g, env))
                                       for k in (-1, 0, 1) if crit[0] <= e + k <= crit[-1]})
        points = crit + [(a + b) / 2 for a, b in zip(crit, crit[1:])]
        report = compare_pointwise(f, env, sig, points)
        assert report.passed, f"{text}:\n{report.render()}"


# ------------------------------------------------------------- the tick scale

def _numbers(s: Signal) -> list:
    return [s.period, s.transient] + [e for part in (s.pattern, s.prefix)
                                      for c in part for e in (c.lower, c.upper)]


def _random_env(rng, domain):
    return Env(domain, {"P": random_signal(rng, domain), "Q": random_signal(rng, domain)})


def test_public_results_are_fractions():
    """evaluate computes in int ticks; what it returns, constants included,
    holds Fractions only, as do public constants and operators applied to
    public signals directly."""
    rng = random.Random(41)
    results = []
    for domain in (LINE, HALF):
        env = _random_env(rng, domain)
        for text in ("true", "false", "!true", "P & !P", "F1 true", "P"):
            results.append(evaluate(parse_formula(text), env))
        results += [evaluate(random_formula(rng), env) for _ in range(20)]
        p, q = env.signal("P"), env.signal("Q")
        results += [const(domain, True), const(domain, False), count_unit(p, 2),
                    diamond_unit_past(p), until(p, q), pnueli_unit([p, q])]
    for sig in results:
        assert sig.unit == 1
        assert all(type(x) is F for x in _numbers(sig)), sig


def test_unused_bindings_change_nothing(monkeypatch):
    """evaluate scales only the formula's atoms to ticks: an extra binding on
    sevenths, a denominator no used atom has, is never scaled and leaves the
    output byte for byte the same, whether the used atoms are public or in
    ticks; an unbound atom is named in formula order."""
    import qtlab.semantics
    scaled = []
    to_ticks_of = qtlab.semantics.to_ticks
    monkeypatch.setattr(qtlab.semantics, "to_ticks",
                        lambda s, unit: scaled.append(s) or to_ticks_of(s, unit))
    rng = random.Random(53)
    for domain in (LINE, HALF):
        used = {name: random_signal(rng, domain, max_den=6) for name in "PQ"}
        ticks = {name: to_ticks_of(s, tick_unit([s])) for name, s in used.items()}
        r = Signal(domain, F(3, 7), IntervalSet([Interval(F(1, 7), F(2, 7), False, True)]),
                   *((F(5, 7), IntervalSet([Interval.open(0, F(4, 7))])) if domain is HALF else ()))
        texts = ["true", "P", "F1 P", "P U Q", "!Q S P", "C2(Q)", "Pn2(P, Q)"]
        for f in [parse_formula(t) for t in texts] + [random_formula(rng) for _ in range(25)]:
            alone = format_signal(evaluate(f, Env(domain, used)))
            for atoms in (used, ticks):
                assert format_signal(evaluate(f, Env(domain, {**atoms, "R": r}))) == alone, f
        assert scaled and all(s is not r for s in scaled)
        for bound in ({}, {"R": r}, {"P": used["P"]}):
            with pytest.raises(UnboundAtomError) as err:
                evaluate(parse_formula("Q & P"), Env(domain, bound))
            assert err.value.name == "Q"


@pytest.mark.parametrize("domain", [LINE, HALF])
def test_atoms_public_and_in_ticks_mix(domain):
    """An Env that binds a public P, whose tick unit is 6, beside a Q read
    from a file into ticks of unit 20 evaluates as the all-public Env, byte
    for byte, through evaluate and through evaluate_ticks, whose results
    share the lcm of the two units."""
    rng = random.Random(59)
    p = grid_line(3) if domain is LINE else grid_half(F(2, 3))
    q = Signal(domain, F(2, 5), IntervalSet([Interval(F(1, 5), F(3, 10), True, False)]))
    public = Env(domain, {"P": p, "Q": q})
    mixed = Env(domain, {"P": p, "Q": parse_ticks(format_signal(q))})
    assert (tick_unit([p]), mixed.signal("Q").unit) == (6, 20)
    texts = ["P", "Q", "P U Q", "!Q S P", "C2(P | Q)", "Pn2(P, Q)", "F1 Q & O1 P"]
    fs = [parse_formula(t) for t in texts] + [random_formula(rng) for _ in range(30)]
    for f in fs:
        assert format_signal(evaluate(f, mixed)) == format_signal(evaluate(f, public)), f
    got = evaluate_ticks(mixed, *fs)
    assert got == evaluate_ticks(public, *fs) and {s.unit for s in got} == {60}


def _sites(names):
    """Each (module, top-level statement) of qtlab that imports or calls one
    of names."""
    import ast

    found = set()
    for path in sorted(Path(qtlab.semantics.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    used = [alias.name for alias in node.names]
                elif isinstance(node, ast.Call):
                    used = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
                else:
                    continue
                if set(names) & set(used):
                    found.add((path.stem, getattr(top, "name", type(top).__name__)))
    return found


def test_only_evaluate_ticks_picks_a_tick_unit():
    """Within qtlab, tick_unit and to_ticks are called only in the signal
    layer, in the oracle and, in the engine, in evaluate_ticks; no other
    module imports them, so no other caller scales an atom on its own."""
    found = _sites({"tick_unit", "to_ticks"})
    assert {f for f in found if f[0] not in ("signals", "oracle")} == {
        ("semantics", "ImportFrom"), ("semantics", "evaluate_ticks")}


def test_one_scaler_and_the_cli_reaches_the_engine_through_evaluate_ticks(
        tmp_path, monkeypatch, capsys):
    """to_ticks is the one scaler: no module of qtlab defines or imports a
    scale_ticks.  qtlab.cli reaches the engine only through evaluate_ticks,
    and imports neither evaluate nor from_ticks nor Env.  So oracle-check on
    bound files hands the oracle the atoms in ticks as builtin_model read
    them, with no from_ticks call, and prints the bytes that the same atoms
    from --model print."""
    import ast
    import qtlab

    assert _sites({"scale_ticks"}) == set()
    cli = Path(qtlab.semantics.__file__).parent / "cli.py"
    for path in Path(qtlab.semantics.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert "scale_ticks" not in {getattr(n, "name", None) for n in ast.walk(tree)}, path
        if path == cli:
            imported = {(n.module, a.name) for n in ast.walk(tree)
                        if isinstance(n, ast.ImportFrom) for a in n.names}
    assert {name for module, name in imported if module == "semantics"} == {
        "EvalError", "evaluate_ticks"}
    assert not {name for _, name in imported} & {"evaluate", "from_ticks", "Env"}

    scaled_back = []
    for module in list(vars(qtlab).values()) + [qtlab.signals]:
        if hasattr(module, "from_ticks"):
            real = module.from_ticks
            monkeypatch.setattr(module, "from_ticks",
                                lambda s, real=real: scaled_back.append(s) or real(s))
    for spec in ("mk:3", "thm2", "alt:4"):
        binds = []
        for name, s in builtin_model(spec).bindings.items():
            path = tmp_path / f"{spec}-{name}.sig".replace(":", "")
            path.write_text(format_signal(s), encoding="utf-8")
            binds += ["--bind", f"{name}={path}"]
        for how in (["--samples", "80"], ["--cells"]):
            argv = ["oracle-check", "--formula", "!P S P | F1 P", *how]
            assert main([*argv, "--model", spec]) == 0
            want = capsys.readouterr().out
            scaled_back.clear()
            assert main([*argv, *binds]) == 0
            assert capsys.readouterr().out == want and not scaled_back, (spec, how)


def test_only_builtin_model_reads_a_bound_file():
    """Within qtlab, parse_ticks is called only in builtin_model, the one
    reader of models, and only the lab imports it."""
    assert _sites({"parse_ticks"}) == {("lab", "ImportFrom"), ("lab", "builtin_model")}


def test_ticks_stay_pure(monkeypatch):
    """Every Signal built in ticks while evaluating or enumerating holds only
    ints: no Fraction default or lcm leaks into the engine's arithmetic, nor
    into the tick atoms an enumeration returns."""
    built = spy_signal_builds(monkeypatch)
    rng = random.Random(43)
    for domain in (LINE, HALF):
        env = _random_env(rng, domain)
        for _ in range(15):
            evaluate(random_formula(rng), env)
    atoms = []
    for spec in ("mk:3", "thm2"):
        atoms += enumerate_formulas(parse_logic("qtl"), 1, builtin_model(spec)).atoms
    assert atoms and all(a.unit != 1 for a in atoms)
    ticks = [s for s in built if s.unit != 1]
    assert len(ticks) > 100
    for s in ticks:
        assert all(type(x) is int for x in _numbers(s)), s


@pytest.mark.parametrize("sig, formula, want", [
    ("domain halfline\nperiod 1\npattern [0,1)\ntransient 1/2\nprefix (1/4,1/2)\n", "P",
     "transient 1\nprefix (1/4,1)\n"),
    ("domain halfline\nperiod 1\npattern [0,1)\ntransient 1/2\nprefix (1/4,1/2)\n", "O1 P",
     "transient 1\nprefix (1/4,1)\n"),
    ("domain line\nperiod 4/3\npattern [1/30,1/30],[2/15,2/15],[8/15,8/15]\n",
     "!F1 (F1 true & P)", "period 1\npattern {}\n"),
], ids=["P", "O1 P", "!F1 (F1 true & P)"])
def test_snaps_and_constants_keep_whole_units(tmp_path, capsys, sig, formula, want):
    """A point disagreement snaps up to the period grid and a constant keeps
    a period of one unit, not of one tick."""
    path = tmp_path / "p.sig"
    path.write_text(sig, encoding="utf-8")
    assert main(["eval", "--formula", formula, "--bind", f"P={path}", "--output", "sig"]) == 0
    assert capsys.readouterr().out.endswith(want)
