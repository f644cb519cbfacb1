"""Tests of the benchmark itself: python -m pytest bench"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import generators  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qtlab.formulas import format_formula, parse_formula  # noqa: E402
from qtlab.signals import format_signal  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # main [0,10] > paper_check [1,4]; main > evaluate [5,9] > U [6,8]
    t = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    t.trace_id = 7
    t.enter("cli.main")
    t.enter("lab.paper_check")
    assert t.exit() == 3
    t.enter("semantics.evaluate")
    t.enter("semantics.U")
    assert t.exit() == 2
    assert t.exit() == 4
    assert t.exit() == 10
    assert t.self_s == {"cli.main": 3,  # 10 long, 3 + 4 covered by its children
                        "lab.paper_check": 3,
                        "semantics.evaluate": 2,  # 4 long, 2 covered by U
                        "semantics.U": 2}
    assert t.spans == [("cli.main", 0, 10, None, 7),
                       ("lab.paper_check", 1, 4, 0, 7),
                       ("semantics.evaluate", 5, 9, 0, 7)]
    assert t.calls["semantics.U"] == 1 and not t.stack


def test_generators_are_deterministic_per_seed():
    def irregular(seed):
        rng = random.Random(seed)
        return [format_signal(generators.irregular_signal(rng, 20, d)) for d in generators.DOMAINS]

    assert irregular(3) == irregular(3)
    assert irregular(3) != irregular(4)
    battery = [(format_formula(t.formula), [format_signal(s) for _, s in t.bindings])
               for t in generators.trial_battery(5, 20)]
    assert battery == [(format_formula(t.formula), [format_signal(s) for _, s in t.bindings])
                       for t in generators.trial_battery(5, 20)]


def test_workload_inputs_follow_the_seed(tmp_path):
    def wide_files(seed):
        workloads.Wide(seed, tmp_path / str(seed))
        return {p.name: p.read_text() for p in sorted((tmp_path / str(seed)).iterdir())}

    assert wide_files(1) == wide_files(1) != wide_files(2)

    def differential(seed):
        return [(label, s) for label, _, _, s in workloads.Differential(seed, tmp_path).trials]

    assert differential(1) == differential(1) != differential(2)
    assert workloads.Lab(1, tmp_path).checks == workloads.Lab(1, tmp_path).checks


PNUELI_REPORT = ("check pnueli\n"
                 "enumerated 64 qtl formulas to depth 2, nontrivial 0, truncated 0\n"
                 "PASS\n")


def test_failed_ratio_counts_a_wrong_expected_answer(tmp_path, monkeypatch):
    state = workloads.Lab(0, tmp_path)
    good = {"pnueli": PNUELI_REPORT, "counting:2": "check counting:2\nPASS\n"}
    assert run.count_failures(state, [good, good]) == 0
    # a different byte in a later pass fails that execution only
    assert run.count_failures(state, [good, {**good, "counting:2": "check counting:2\nPASS \n"}]) == 1
    # an operation that raised has output None
    assert run.count_failures(state, [good, {**good, "pnueli": None}]) == 1
    # an output the check cannot parse fails too
    assert run.count_failures(state, [{**good, "counting:2": ""}]) == 1
    # a wrong expected class count fails every execution of that operation
    monkeypatch.setattr(workloads, "PNUELI_CLASSES", 65)
    assert run.count_failures(state, [good, good]) == 2


def test_op_stats_tail_keeps_ten_samples_beyond():
    times = [{f"op{i}": float(i) for i in range(40)}]
    stats = run.op_stats(times)
    assert stats["tail"] == 29.0 and stats["tail_percentile"] == 75.0
    assert stats["p50"] == 19.5 and stats["samples"] == 40
    assert run.op_stats([{"a": 1.0, "b": 3.0}])["tail"] == 3.0


def test_tracing_wraps_import_sites_and_changes_no_result():
    import qtlab.lab
    import qtlab.semantics
    from qtlab.lab import builtin_model

    formula = parse_formula("P U F1 P")
    env = builtin_model("thm2")
    plain = format_signal(qtlab.semantics.evaluate(formula, env))
    original = qtlab.lab.until
    t = tracing.Tracer()
    installed = tracing.Installed(t)
    try:
        assert qtlab.lab.until is qtlab.semantics.until is not original
        traced = format_signal(qtlab.semantics.evaluate(formula, env))
    finally:
        installed.remove()
    assert qtlab.lab.until is original
    assert traced == plain
    assert t.calls["semantics.U"] == 1 and t.calls["semantics.F1"] == 1
    assert t.calls["intervals.normalize"] > 0


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    traced = set(tracing.Tracer().metrics()) | set(run.TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == traced
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == tracing.unit_of(name) for name in traced)


def test_refclock_scales_wall_time_by_kernel_speed(monkeypatch):
    import refclock

    wall = [100.0]
    monkeypatch.setattr(refclock.time, "perf_counter", lambda: wall[0])

    def kernel_at(seconds):
        def kernel():
            wall[0] += seconds
        return kernel

    monkeypatch.setattr(refclock, "REF_KERNEL_S", 0.25)
    clock = refclock.RefClock()
    monkeypatch.setattr(refclock, "kernel", kernel_at(0.5))  # host at half speed
    clock._tick()
    base = clock.now()
    wall[0] += 1.0
    assert clock.now() - base == 0.5
    # back at reference speed; the rate follows the median of the last
    # WINDOW kernel timings, and the kernel's own time is left out
    monkeypatch.setattr(refclock, "kernel", kernel_at(0.25))
    for _ in range(refclock.WINDOW):
        clock._tick()
    ticked = clock.now()
    wall[0] += 1.0
    assert clock.now() - ticked == 1.0
    assert clock.kernel_s == [0.5] + [0.25] * refclock.WINDOW
