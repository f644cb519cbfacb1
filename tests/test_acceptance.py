"""Headline acceptance checks, one test and one printed verdict line each.

Every check here is exact: rational arithmetic end to end, zero tolerance.
The verdict lines (PASS/FAIL criterion N) land in captured stdout, so a
plain `pytest -v` shows one line per criterion either way.
"""

import functools
import random
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

from qtlab.formulas import Atom, Count, format_formula, parse_formula
from qtlab.intervals import Interval, IntervalSet
from qtlab.lab import (
    Triviality,
    builtin_model,
    enumerate_formulas,
    paper_check,
    parse_logic,
    trivialization_report,
)
from qtlab.oracle import compare_cells, compare_pointwise, critical_points, sample_points
from qtlab.semantics import (
    Env,
    count_unit,
    diamond_unit_future,
    diamond_unit_past,
    evaluate,
    pnueli_unit,
    until,
)
from qtlab.signals import (
    Signal,
    TimeDomain,
    combine,
    equal,
    format_signal,
    parse_signal,
)

from gen import random_formula, random_fraction, random_signal

LINE = TimeDomain.FULL_LINE
HALF = TimeDomain.HALF_LINE
DOMAINS = (LINE, HALF)


def _verdict(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {n}: {label}")
                raise
            print(f"PASS criterion {n}: {label}")
        return run
    return deco


@_verdict(1, "counting classification on the unit-fraction grids")
def test_criterion_1_counting_classification():
    for k in range(2, 7):
        assert paper_check(f"counting:{k}").passed
        p_k = builtin_model(f"mk:{k}")
        p_k1 = builtin_model(f"mk:{k + 1}")
        f = Count(k, Atom("P"))
        on_k = evaluate(f, p_k)
        on_k1 = evaluate(f, p_k1)
        assert equal(on_k, combine("not", p_k.signal("P")))
        assert equal(on_k1, Signal.constant(LINE, True))


@_verdict(2, "two-thirds-grid witness: parity, exact tail, depth-2 triviality")
def test_criterion_2_pnueli_conjecture_witness():
    env = builtin_model("thm2")
    f = parse_formula("C2(P)")
    sig = evaluate(f, env)
    # false on (n, n+1/3) for even n, true for odd n, n in 0..5
    for n in range(6):
        want = n % 2 == 1
        for offset in (F(1, 12), F(1, 6), F(1, 4)):
            assert sig.contains(n + offset) is want
    # exact eventually-periodic tail: (1/3, 2/3) mod 2/3, no transient
    assert sig.transient == 0 and not sig.prefix
    assert sig.period == F(2, 3)
    assert sig.pattern == IntervalSet([Interval(F(1, 3), F(2, 3), False, False)])
    # oracle confirms the same set pointwise
    pts = sample_points(sig, count=max(50, len(critical_points(sig))), seed=2)
    assert compare_pointwise(f, env, sig, pts).passed
    # every depth<=2 formula of the diamond logic is eventually trivial here
    enum = enumerate_formulas(parse_logic("qtl"), 2, env)
    report = trivialization_report(enum, eventually=True)
    assert report.entries
    assert all(e.classification is not Triviality.NONE for e in report.entries)


@_verdict(3, "counting hierarchy witness: strict alternation, orientation recorded")
def test_criterion_3_hierarchy_witness():
    for n in (2, 3, 4):
        env = builtin_model(f"thm3:{n}")
        sig = evaluate(Count(n, Atom("P")), env)
        width = F(1, 2 * n - 1)
        vals = []
        for k in range(6):
            probes = {sig.contains(k + width * F(j, 4)) for j in (1, 2, 3)}
            assert len(probes) == 1
            vals.append(probes.pop())
        assert all(vals[k] != vals[k + 1] for k in range(5))
        report = paper_check(f"hierarchy:{n}")
        assert report.passed
        recorded = [ln for ln in report.render().splitlines()
                    if ln.startswith("orientation")]
        assert recorded == [
            f"orientation even={'true' if vals[0] else 'false'} "
            f"odd={'true' if vals[1] else 'false'}"
        ]


@_verdict(4, "exact four-way triviality of depth-2 enumeration on mk:2 and mk:3")
def test_criterion_4_triviality_on_unit_grids():
    for spec in ("mk:2", "mk:3"):
        env = builtin_model(spec)
        enum = enumerate_formulas(parse_logic("qtl"), 2, env)
        report = trivialization_report(enum, eventually=False)
        assert report.entries
        assert all(e.classification is not Triviality.NONE
                   for e in report.entries), report.render()


@_verdict(5, "engine vs pointwise oracle: 1000 randomized trials, full agreement, every cell")
def test_criterion_5_oracle_equivalence():
    rng = random.Random(718_281)
    agreements = 0
    total = 0
    for trial in range(1000):
        domain = DOMAINS[trial % 2]
        f = random_formula(rng, modal_budget=3, atoms=("P", "Q"))
        env = Env(domain, {"P": random_signal(rng, domain),
                           "Q": random_signal(rng, domain)})
        sig = evaluate(f, env)
        crit = critical_points(sig)
        pts = sample_points(sig, count=max(50, len(crit)), seed=trial)
        assert len(pts) >= 50 and set(crit) <= set(pts)
        report = compare_pointwise(f, env, sig, pts)
        assert report.passed, f"trial {trial}:\n{report.render()}"
        cells = compare_cells(f, env, sig)
        assert cells.passed, f"trial {trial}:\n{cells.render()}"
        agreements += report.agreements
        total += report.total
    assert total >= 50_000 and agreements == total


@_verdict(6, "algebraic identities on 200 random signals, exact")
def test_criterion_6_algebraic_identities():
    rng = random.Random(577_215)
    for i in range(200):
        domain = DOMAINS[i % 2]
        x = random_signal(rng, domain)
        y = random_signal(rng, domain)
        counts = [count_unit(x, n) for n in range(1, 6)]
        for n in range(1, 5):
            assert equal(pnueli_unit([x] * n), counts[n - 1])
        assert equal(counts[0], diamond_unit_future(x))
        for n in range(4):
            tighter, looser = counts[n + 1], counts[n]
            assert equal(combine("and", tighter, looser), tighter)
        both = combine("or", x, y)
        assert equal(diamond_unit_future(both),
                     combine("or", diamond_unit_future(x), diamond_unit_future(y)))
        if domain is LINE:
            d = random_fraction(rng, -8, 8)
            xs, ys = x.shift(d), y.shift(d)
            assert equal(diamond_unit_future(xs), diamond_unit_future(x).shift(d))
            assert equal(diamond_unit_past(xs), diamond_unit_past(x).shift(d))
            assert equal(count_unit(xs, 2), count_unit(x, 2).shift(d))
            assert equal(pnueli_unit([xs, ys]), pnueli_unit([x, y]).shift(d))
            assert equal(until(xs, ys), until(x, y).shift(d))


@_verdict(7, "round-trips: 1000 formulas, 200 signal files, byte-stable CLI")
def test_criterion_7_round_trips():
    rng = random.Random(141_421)
    for _ in range(1000):
        f = random_formula(rng, modal_budget=3)
        assert parse_formula(format_formula(f)) == f
    for i in range(200):
        s = random_signal(rng, DOMAINS[i % 2])
        assert parse_signal(format_signal(s)) == s
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.tsv"
        commands = [
            ["eval", "--formula", "C2(P)", "--model", "thm2", "--output", "sig"],
            ["trivial", "--formula", "C2(P)", "--model", "mk:2"],
            ["paper", "--check", "counting:3"],
            ["oracle-check", "--formula", "F1 P", "--model", "mk:2",
             "--samples", "60", "--seed", "0"],
            ["enumerate", "--logic", "qtl", "--depth", "1", "--model", "mk:3",
             "--report", str(report)],
        ]
        for cmd in commands:
            outs = []
            for _ in range(2):
                run = subprocess.run([sys.executable, "-m", "qtlab.cli", *cmd],
                                     capture_output=True)
                outs.append((run.returncode, run.stdout, run.stderr,
                             report.read_bytes() if report.exists() else b""))
            assert outs[0] == outs[1], cmd
