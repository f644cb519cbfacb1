"""Lab checks: builtin models, enumeration invariants, reports, turnkey checks."""

import hashlib
import itertools
import time
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

import qtlab.lab
import qtlab.semantics
from qtlab.cli import main
from qtlab.formulas import (
    And,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    Not,
    Or,
    Pnueli,
    Since,
    Until,
    format_formula,
    metrics,
    parse_formula,
)
from qtlab.intervals import Interval, IntervalSet
from qtlab.oracle import compare_cells
from qtlab.lab import (
    EnumerationResult,
    LabError,
    Logic,
    Triviality,
    builtin_model,
    classify_trivial,
    enumerate_formulas,
    paper_check,
    parse_logic,
    trivialization_report,
)
from qtlab.semantics import (
    MODALITIES,
    Env,
    count_unit,
    diamond_unit_future,
    diamond_unit_past,
    evaluate,
    evaluate_ticks,
    pnueli_unit,
    since,
    until,
)
from qtlab.signals import (
    DomainError,
    Frame,
    Signal,
    TimeDomain,
    combine,
    equal,
    format_signal,
    from_ticks,
    parse_ticks,
)
from qtlab.signals import _lcm

from gen import spy_signal_builds, tree_nodes


def class_signal(enum, mask):
    """The public truth signal of a class: the union of its atoms."""
    atoms = [a for k, a in enumerate(enum.atoms) if mask >> k & 1]
    first = enum.atoms[0]
    empty = Signal.constant(first.domain, False, first.unit)
    return from_ticks(reduce(lambda x, y: combine("or", x, y), atoms, empty))


def class_of(enum, f, env):
    """The index of the enumerated class whose truth signal is f's."""
    sig = evaluate(f, env)
    return next(i for i, mask in enumerate(enum.masks) if class_signal(enum, mask) == sig)


def test_builtin_models_membership():
    mk3 = builtin_model("mk:3")
    p = mk3.signal("P")
    assert mk3.domain is TimeDomain.FULL_LINE
    assert p.period == F(1, 3)
    assert p.contains(F(2, 3)) and p.contains(F(-1, 3))
    assert not p.contains(F(1, 6))

    thm2 = builtin_model("thm2")
    q = thm2.signal("P")
    assert thm2.domain is TimeDomain.HALF_LINE
    assert q.contains(F(4, 3))
    assert not q.contains(F(1))

    # 2/(2*2-1) = 2/3: same denoted set as thm2
    assert equal(builtin_model("thm3:2").signal("P"), q)

    alt4 = builtin_model("alt:4")
    assert alt4.domain is TimeDomain.FULL_LINE and list(alt4.bindings) == ["P", "Q"]
    for name, at in (("P", F(0)), ("Q", F(1, 4))):
        want = Signal(TimeDomain.FULL_LINE, F(1, 2), IntervalSet([Interval.point(at)]))
        assert alt4.signal(name) == want


def test_an_enumerator_atom_in_ticks_refuses_a_public_time():
    """The enumerator's atoms are in ticks, unit 6 on mk:3: the P atom reads
    int ticks, and refuses a public time where it once read 1/3 as a tick."""
    atom = enumerate_formulas(parse_logic("qtl"), 1, builtin_model("mk:3")).atoms[0]
    assert atom.unit == 6 and atom.contains(2) and not atom.contains(1)
    assert builtin_model("mk:3").signal("P").contains(F(1, 3))
    for call in (lambda: atom.contains(F(1, 3)), lambda: atom.contains(F(2)),
                 lambda: atom.slice(0, F(1, 3))):
        with pytest.raises(TypeError, match="a signal in ticks of unit 6 reads int ticks"):
            call()


@pytest.mark.parametrize("spec", ["mk:2", "mk:3", "mk:4", "thm2", "thm3:3"])
def test_the_enumerator_takes_a_model_read_from_a_file(spec):
    """A model whose P is read from a file into ticks enumerates as the
    public model: the same formulas, masks and atoms, alone and beside a
    public model."""
    env = builtin_model(spec)
    read = Env(env.domain, {"P": parse_ticks(format_signal(env.signal("P")))})
    other = builtin_model("mk:5" if env.domain is TimeDomain.FULL_LINE else "thm3:4")
    for depth, models, files in ((2, env, read), (1, [env, other], [read, other])):
        want = enumerate_formulas(parse_logic("qtl+c2"), depth, models)
        got = enumerate_formulas(parse_logic("qtl+c2"), depth, files)
        assert (got.formulas, got.masks, got.atoms) == (want.formulas, want.masks, want.atoms)


@pytest.mark.parametrize("bad", ["mk:0", "thm3:1", "thm3:0", "bogus", "mk:x", "thm3", "MK:2",
                                 "alt:0", "alt3"])
def test_builtin_model_rejects_bad_specs(bad):
    with pytest.raises(LabError):
        builtin_model(bad)


def test_parse_logic():
    assert parse_logic("tl") == Logic(False, 0)
    assert parse_logic("qtl") == Logic(True, 0)
    assert parse_logic("qtl+p3") == Logic(True, 3)
    assert parse_logic("qtl+c3") == Logic(True, 0, 3)
    assert parse_logic("qtl+c2+p4") == Logic(True, 4, 2)
    for bad in ("qtl+p0", "QTL", "tl+p2", "qtl+p", "qtl+c0", "qtl+c", "tl+c2", "qtl+p2+c2",
                "qtl+c2+p0"):
        with pytest.raises(LabError):
            parse_logic(bad)


def test_enumerate_depth0_exactly_four():
    env = builtin_model("mk:3")
    result = enumerate_formulas(parse_logic("tl"), 0, env)
    assert isinstance(result, EnumerationResult)
    assert not result.truncated
    assert len(result.formulas) == 4
    sets = [evaluate(f, env) for f in result.formulas]
    texts = sorted(format_formula(f) for f in result.formulas)
    assert texts == ["!P", "P", "false", "true"]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not equal(sets[i], sets[j])


def test_enumerate_depth1_qtl_golden_count():
    # frozen after a verified first run, hand-checked: the unit-window
    # diamonds and all until/since combinations over four representatives
    # land back on the same four truth sets on this dense grid
    env = builtin_model("mk:3")
    result = enumerate_formulas(parse_logic("qtl"), 1, env)
    assert not result.truncated
    assert len(result.formulas) == 4


def test_enumerate_depth2_qtl_thm2_golden_count():
    env = builtin_model("thm2")
    result = enumerate_formulas(parse_logic("qtl"), 2, env)
    assert not result.truncated
    assert len(result.formulas) == 64


def test_enumerate_is_deterministic():
    env = builtin_model("thm2")
    a = enumerate_formulas(parse_logic("qtl"), 2, env)
    b = enumerate_formulas(parse_logic("qtl"), 2, env)
    assert [format_formula(f) for f in a.formulas] == \
           [format_formula(f) for f in b.formulas]
    assert a.truncated == b.truncated
    ra = trivialization_report(a, True).render()
    rb = trivialization_report(b, True).render()
    assert ra == rb


def test_enumeration_soundness_invariants():
    env = builtin_model("mk:2")
    logic = parse_logic("qtl+p2")
    result = enumerate_formulas(logic, 2, env)
    assert result.formulas
    for f in result.formulas:
        text = format_formula(f)
        assert parse_formula(text) == f
        depth, atoms = metrics(f)
        assert depth <= 2
        assert atoms <= {"P"}
        for sub in tree_nodes(f):
            assert not isinstance(sub, Count)
            if isinstance(sub, Pnueli):
                assert sub.n <= 2


def test_tl_logic_emits_no_metric_operators():
    env = builtin_model("mk:2")
    result = enumerate_formulas(parse_logic("tl"), 2, env)
    for f in result.formulas:
        for sub in tree_nodes(f):
            assert not isinstance(sub, (DiamondFuture, DiamondPast, Count, Pnueli))


def test_depth1_representatives_distinct_and_closed():
    """On thm2 the depth-1 qtl classes are closed under the connectives, and
    hold every modality of the logic applied to the depth-0 classes."""
    env = builtin_model("thm2")
    logic = parse_logic("qtl")
    result = enumerate_formulas(logic, 1, env)
    sigs = [evaluate(f, env) for f in result.formulas]
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            assert not equal(sigs[i], sigs[j])

    def covered(f):
        s = evaluate(f, env)
        return any(equal(s, r) for r in sigs)

    reps = result.formulas
    assert all(covered(Not(a)) for a in reps)
    assert all(covered(And(a, b)) and covered(Or(a, b)) for a in reps for b in reps)
    base = enumerate_formulas(logic, 0, env).formulas
    assert all(covered(DiamondFuture(a)) and covered(DiamondPast(a)) for a in base)
    assert all(covered(Until(a, b)) and covered(Since(a, b)) for a in base for b in base)


def test_enumeration_size_guards(monkeypatch):
    with pytest.raises(LabError):
        enumerate_formulas(parse_logic("tl"), -1, builtin_model("mk:3"))

    def no_modal_work(*args):
        raise AssertionError("a modality ran before the candidate guard")

    with monkeypatch.context() as m:
        # the enumerator calls the table's kernels, never the public operators
        _patch_kernels(m, lambda cls, kernel: no_modal_work)
        # widths 2..8 over four depth-0 classes: 87416 candidates
        with pytest.raises(LabError, match="candidates"):
            enumerate_formulas(Logic(True, 8), 1, builtin_model("thm3:9"))
    # thm2 needs 6 atoms at depth 2
    monkeypatch.setattr(qtlab.lab, "MAX_ATOMS", 5)
    with pytest.raises(LabError, match="atoms"):
        enumerate_formulas(parse_logic("qtl"), 2, builtin_model("thm2"))


@pytest.mark.parametrize("logic, spec", [
    ("qtl", "mk:3"), ("qtl", "thm2"), ("qtl+p2", "thm3:3"), ("tl", "thm2"),
])
def test_enumerated_signals_are_the_formulas_truth(logic, spec):
    """The classes that reports classify, as unions of atoms, are the
    engine's truth signals of the representatives, and P's mask is P's."""
    env = builtin_model(spec)
    result = enumerate_formulas(parse_logic(logic), 2, env)
    assert len(result.masks) == len(result.formulas)
    for f, mask in zip(result.formulas, result.masks):
        assert class_signal(result, mask) == evaluate(f, env), format_formula(f)
    assert class_signal(result, result.p_mask) == env.signal("P")


def test_trivialization_report_empty():
    report = trivialization_report(EnumerationResult((), (), (), 0), eventually=False)
    assert report.entries == ()
    assert report.render() == "total 0 trivial 0 nontrivial 0 truncated 0\n"


def test_trivialization_report_nontrivial_entry():
    """Pn2(P,P) is C2(P), which is not eventually trivial on thm2."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl+p2"), 1, env)
    i = class_of(enum, parse_formula("C2(P)"), env)
    one = EnumerationResult(enum.formulas[i:i + 1], enum.masks[i:i + 1], enum.atoms,
                            enum.p_mask)
    report = trivialization_report(one, eventually=True)
    entry = report.entries[0]
    assert entry.classification is Triviality.NONE
    assert report.render() == (
        "Pn2(P,P)\tNone\t1\n"
        "total 1 trivial 0 nontrivial 1 truncated 0\n"
    )


def test_exact_versus_eventual_classification():
    """O1 P is true on (0, oo) on thm2: not P's constant, but eventually true."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl"), 1, env)
    i = class_of(enum, parse_formula("O1 P"), env)
    exact = trivialization_report(enum, eventually=False).entries[i]
    event = trivialization_report(enum, eventually=True).entries[i]
    assert exact.classification is Triviality.NONE
    assert event.classification is Triviality.TRUE


@pytest.mark.parametrize("eventually", [False, True])
def test_a_report_builds_no_signal(monkeypatch, eventually):
    """A report reads masks alone: it builds no Signal, and gives each class
    the form a per-class classify_trivial gives its truth signal."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl"), 2, env)
    built = spy_signal_builds(monkeypatch)
    report = trivialization_report(enum, eventually)
    monkeypatch.undo()
    assert len(enum.masks) == 64 and built == []
    assert [e.classification for e in report.entries] == [
        classify_trivial(class_signal(enum, mask), env.signal("P"), eventually)
        for mask in enum.masks]


@pytest.mark.parametrize("eventually", [False, True])
@pytest.mark.parametrize("logic, spec", [
    ("qtl", "mk:2"), ("qtl", "mk:3"), ("qtl", "thm2"), ("tl", "thm2"), ("qtl+p2", "thm3:3"),
])
def test_report_matches_classifying_each_representative(logic, spec, eventually):
    """Every mask-read entry is what classify_trivial says of the engine's
    truth signal of its representative."""
    env = builtin_model(spec)
    enum = enumerate_formulas(parse_logic(logic), 2, env)
    report = trivialization_report(enum, eventually)
    assert [e.formula for e in report.entries] == list(enum.formulas)
    for e in report.entries:
        want = classify_trivial(evaluate(e.formula, env), env.signal("P"), eventually)
        assert e.classification is want, format_formula(e.formula)


@pytest.mark.parametrize("spec", [f"mk:{k}" for k in range(2, 13)]
                         + [f"thm3:{n}" for n in range(2, 7)])
def test_the_tick_route_classifies_as_the_public_route(spec):
    """classify_trivial on a formula and P evaluated together in ticks, as
    the paper checks and the CLI's trivial run it, gives what it gives on the
    public truth signal and the public P."""
    env = builtin_model(spec)
    texts = [f"C{n}(P)" for n in range(1, 8)] + ["F1 P", "O1 P", "P", "!P", "true", "false"]
    for f, eventually in itertools.product(map(parse_formula, texts), (False, True)):
        ticks = classify_trivial(*evaluate_ticks(env, f, Atom("P")), eventually=eventually)
        public = classify_trivial(evaluate(f, env), env.signal("P"), eventually=eventually)
        assert ticks is public, (format_formula(f), eventually)


def test_classification_rejects_a_signal_of_another_domain():
    with pytest.raises(DomainError):
        classify_trivial(Signal.constant(TimeDomain.FULL_LINE, True),
                         builtin_model("thm2").signal("P"))


@pytest.mark.parametrize("name", ["pnueli", "counting:2", "hierarchy:2", "triviality:2"])
def test_paper_checks_pass(name):
    report = paper_check(name)
    assert report.passed, report.render()
    assert report.render().rstrip().endswith("PASS")
    assert report.render() == paper_check(name).render()


def test_paper_checks_canonicalize_only_signals_in_ticks(monkeypatch):
    """The lab benchmark's checks and hierarchy:2..4 run no signal algebra
    on Fractions: every canonicalize is on a signal in ticks."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from workloads import LAB_CHECKS
    units = []
    canonicalize = Signal.canonicalize

    def logged(s):
        units.append(s.unit)
        return canonicalize(s)

    monkeypatch.setattr(Signal, "canonicalize", logged)
    for name in LAB_CHECKS + tuple(f"hierarchy:{n}" for n in range(2, 5)):
        units.clear()
        assert paper_check(name).passed, name
        assert units and 1 not in units, name


@pytest.mark.parametrize("name", ["pnueli", "hierarchy:3"])
def test_a_paper_check_takes_p_to_ticks_once(monkeypatch, name):
    """pnueli and hierarchy:<n> hand their enumeration the P that their own
    evaluate_ticks call made in ticks, so P is copied to ticks once per
    check: the enumeration's evaluate_ticks calls to_ticks on that P, which
    returns it as it is, and then returns that very signal, since its
    canonicalize returns its input unchanged."""
    scaled, results = [], []
    evaluate, to_ticks = qtlab.lab.evaluate_ticks, qtlab.semantics.to_ticks

    def spy(s, unit):
        scaled.append((s, out := to_ticks(s, unit)))
        return out

    monkeypatch.setattr(qtlab.semantics, "to_ticks", spy)
    monkeypatch.setattr(qtlab.lab, "evaluate_ticks",
                        lambda *args: results.append(evaluate(*args)) or results[-1])
    assert paper_check(name).passed
    (sig, p_atom), (enumerated,) = results
    (public, copy), (given, same) = scaled
    assert public.unit == 1 and copy is not public and given is same is enumerated
    assert enumerated is p_atom and p_atom.unit == sig.unit != 1


def test_classification_puts_each_input_in_normal_form_once(monkeypatch):
    """classify_trivial canonicalizes its signal and P once each, and builds
    not-P from P's normal form, whichever form matches: three calls.  So a
    counting check, an evaluation of C<k>(P) and P on each of two models,
    makes ten."""
    calls = []
    canonicalize = Signal.canonicalize
    monkeypatch.setattr(Signal, "canonicalize", lambda s: calls.append(s) or canonicalize(s))
    cases = [("mk:3", text, want) for text, want in (
        ("true", Triviality.TRUE), ("false", Triviality.FALSE), ("P", Triviality.P),
        ("!P", Triviality.NOT_P), ("C2(P)", Triviality.TRUE), ("C3(P)", Triviality.NOT_P))]
    for spec, text, want in cases + [("thm2", "C2(P)", Triviality.NONE)]:
        sig, p_atom = evaluate_ticks(builtin_model(spec), parse_formula(text), Atom("P"))
        calls.clear()
        assert classify_trivial(sig, p_atom) is want, (spec, text)
        assert len(calls) == 3, (spec, text)
    for k in range(2, 7):
        calls.clear()
        assert paper_check(f"counting:{k}").passed
        assert len(calls) == 10, k


def test_pnueli_check_names_its_witnesses_and_fails_when_the_logic_counts(monkeypatch, capsys):
    """With C2 in the logic the check enumerates, depth-2 formulas on thm2
    are not all eventually trivial: the report names each nontrivial one as
    a witness, answers no and fails, and so does the CLI, with exit 1."""
    parse = qtlab.lab.parse_logic
    monkeypatch.setattr(qtlab.lab, "parse_logic",
                        lambda text: parse("qtl+c2" if text == "qtl" else text))
    lines = paper_check("pnueli").render().splitlines()
    assert lines[3] == "enumerated 1024 qtl formulas to depth 2, nontrivial 768, truncated 0"
    assert lines[4] == "nontrivial witness: C2(P)"
    assert lines[-2:] == ["all enumerated formulas eventually trivial: no", "FAIL"]
    witnesses = lines[4:-2]
    assert len(witnesses) == 768
    env = builtin_model("thm2")
    for line in witnesses:
        assert line.startswith("nontrivial witness: "), line
        text = line.removeprefix("nontrivial witness: ")
        sig = evaluate(parse_formula(text), env)
        assert classify_trivial(sig, env.signal("P"), eventually=True) is Triviality.NONE, text
    capsys.readouterr()
    assert main(["paper", "--check", "pnueli"]) == 1
    assert capsys.readouterr().out.splitlines() == lines


def test_hierarchy_check_fails_on_a_count_not_constant_on_its_intervals(monkeypatch):
    """A C<n> truth, in ticks of unit 10, that holds only on (0, 1/10) of
    each unit is constant on none of the six intervals (k, k + 1/5) that
    hierarchy:3 reads: each is named, no orientation is read off, and the
    check fails."""
    short = Signal(TimeDomain.HALF_LINE, 10, IntervalSet([Interval(0, 1, False, False)]), unit=10)
    monkeypatch.setattr(qtlab.lab, "evaluate_ticks", lambda atoms, *fs: [short] * len(fs))
    lines = paper_check("hierarchy:3").render().splitlines()
    assert lines[:8] == ["check hierarchy:3"] + [
        f"C3(P) not constant on ({k},{k}+1/5)" for k in range(6)] + [
        "alternation over six intervals: no"]
    assert not any(line.startswith("orientation") for line in lines)
    assert lines[-1] == "FAIL"


def _patch_kernels(monkeypatch, wrap):
    """Replace each modality's kernel in the table by wrap(its class, its kernel)."""
    for cls, row in list(MODALITIES.items()):
        monkeypatch.setitem(MODALITIES, cls, row._replace(kernel=wrap(cls, row.kernel)))


def _log_kernel_calls(monkeypatch):
    """A list that gains a modality's class per call of its kernel in the table."""
    calls = []

    def logged(cls, kernel):
        def call(*args):
            calls.append(cls)
            return kernel(*args)
        return call

    _patch_kernels(monkeypatch, logged)
    return calls


def _log_calls(monkeypatch, names):
    """A list that gains each name in names, functions of qtlab.lab, per call."""
    calls = []
    for name in names:
        def call(*args, name=name, fn=getattr(qtlab.lab, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(qtlab.lab, name, call)
    return calls


@pytest.mark.parametrize("route", [
    lambda: paper_check("hierarchy:7"),
    lambda: enumerate_formulas(Logic(True, 6), 2, builtin_model("thm3:7")),
], ids=["paper", "enumerate"])
def test_size_guard_trips_before_the_layer_that_overflows(monkeypatch, route):
    """hierarchy:7 fits its first modal layer but not its second, and the
    guard trips as soon as layer 1's classes push layer 2 past the limit,
    through the paper check and through the enumeration it runs alike."""
    calls = _log_kernel_calls(monkeypatch)
    with pytest.raises(LabError, match="a modal layer would try at least 14089 candidates"):
        route()
    assert len(calls) == 4


def test_a_huge_run_modality_cap_trips_the_guard_at_once():
    """The guard draws the families one at a time and stops once the count
    passes the limit, so a cap of a billion run widths or counting indices
    neither builds them all nor sums them: the first class already puts
    10001 tuples in reach."""
    for logic in (Logic(True, 10 ** 9), Logic(True, 0, 10 ** 9)):
        with pytest.raises(LabError, match="a modal layer would try at least 10001 candidates"):
            enumerate_formulas(logic, 1, builtin_model("mk:2"))


def test_a_logic_lists_its_families_and_guards_a_layer_alone():
    """A logic gives its modal families in admission order and counts a
    layer's argument tuples from two class counts, with no enumeration: for
    qtl+c3+p3, 2(b^2 - u^2) + 4(b - u) + (b^2 - u^2) + (b^3 - u^3) over b
    classes, those from u on new.  That is 9280 for 20 new classes and 10668,
    past the limit, for 21; a cap of a billion trips at the first class."""
    p = parse_formula("P")
    logic = parse_logic("qtl+c3+p3")
    assert [(w, [format_formula(make(*[p] * w)) for make in makers])
            for w, makers in logic.families()] == [
        (2, ["P U P", "P S P"]), (1, ["F1 P", "O1 P"]), (1, ["C2(P)"]), (1, ["C3(P)"]),
        (2, ["Pn2(P,P)"]), (3, ["Pn3(P,P,P)"])]
    logic.guard(20, 0)
    logic.guard(21, 20)
    with pytest.raises(LabError, match=r"^a modal layer would try at least 10668 candidates, "
                                       r"past the limit of 10000$"):
        logic.guard(21, 0)
    for huge in (Logic(True, 10 ** 9), Logic(True, 0, 10 ** 9)):
        with pytest.raises(LabError, match="a modal layer would try at least 10001 candidates"):
            huge.guard(1, 0)


@pytest.mark.parametrize("logic, spec", [("qtl+p3", "mk:3"), ("qtl+p2", "thm3:3")])
def test_size_guard_counts_exactly_the_tuples_a_layer_admits(monkeypatch, logic, spec):
    """The guard's count equals the argument tuples the largest layer tries,
    as the enumeration's per-layer count ``tried`` reads them (the one layer
    that tries tuples on mk:3, where the fixpoint comes after it; the second
    of two on thm3:3), so a limit at that count passes and one below it
    raises.  The layer runs distributive positions on atoms, so it makes
    fewer operator calls than it tries tuples."""
    states, calls = [], []
    init, modal_layer = qtlab.lab._Enumeration.__init__, qtlab.lab._Enumeration.modal_layer

    def spy_init(self, *args):
        states.append(self)
        init(self, *args)

    def new_layer(self, upto):
        calls.append(0)
        return modal_layer(self, upto)

    monkeypatch.setattr(qtlab.lab._Enumeration, "__init__", spy_init)
    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", new_layer)

    def counted(cls, kernel):
        def call(*args):
            calls[-1] += 1
            return kernel(*args)
        return call

    _patch_kernels(monkeypatch, counted)
    logic, env = parse_logic(logic), builtin_model(spec)
    expected = enumerate_formulas(logic, 2, env)
    (state,) = states
    tuples = state.tried
    assert len(tuples) == len(calls) == {"mk:3": 1, "thm3:3": 2}[spec]
    largest = tuples.index(max(tuples))
    assert calls[largest] < tuples[largest], (calls, tuples)
    monkeypatch.setattr(qtlab.lab, "MAX_CANDIDATES", max(tuples))
    assert enumerate_formulas(logic, 2, env) == expected
    monkeypatch.setattr(qtlab.lab, "MAX_CANDIDATES", max(tuples) - 1)
    with pytest.raises(LabError, match="candidates"):
        enumerate_formulas(logic, 2, env)


# the reference layer's operators, on a node and its argument signals
PUBLIC_OPERATORS = {
    Until: lambda f, x, y: until(x, y), Since: lambda f, x, y: since(x, y),
    DiamondFuture: lambda f, x: diamond_unit_future(x),
    DiamondPast: lambda f, x: diamond_unit_past(x),
    Count: lambda f, x: count_unit(x, f.n), Pnueli: lambda f, *sigs: pnueli_unit(sigs)}


def undistributed_modal_layer(self, upto):
    """The reference layer: every public operator runs on whole class
    signals, on each model a fold of combine over the class's atoms there,
    one call per argument tuple and model, and each result is admitted by
    its signals."""
    models = range(len(self.frames))
    self.recut([[a for a, o in zip(self.atoms, self.owner) if o == m] for m in models])
    empty = [Signal.constant(b[0].domain, False, b[0].unit) for b in self.bound]
    args = [[reduce(lambda x, y: combine("or", x, y),
                    (a for k, a in enumerate(self.atoms) if mask >> k & 1 and self.owner[k] == m),
                    empty[m]) for m in models]
            for mask in self.masks]
    reps, base = self.reps, len(self.reps)
    for width, makers in self.logic.families():
        for idxs in itertools.product(range(base), repeat=width):
            if max(idxs) >= upto:
                for make in makers:
                    formula = make(*(reps[i] for i in idxs))
                    self.admit_signal(formula, [PUBLIC_OPERATORS[type(formula)](
                        formula, *(args[i][m] for i in idxs)) for m in models])


# a bound model: P at 0 and 1/3, period 2, over the whole line
BOUND = Env(TimeDomain.FULL_LINE, {"P": Signal(TimeDomain.FULL_LINE, F(2), IntervalSet(
    [Interval.point(F(0)), Interval.point(F(1, 3))]))})


def models(spec):
    """The models of a spec: builtin ones, "bound" and "alt<k>" for alt:<k>,
    joined by +."""
    return [BOUND if one == "bound" else builtin_model(one.replace("alt", "alt:"))
            for one in spec.split("+")]


def tuples(enum):
    """Every class of an enumeration as its tuple of public truth signals,
    one per model."""
    def on(mask, m):
        first = next(a for a, o in zip(enum.atoms, enum.owners) if o == m)
        empty = Signal.constant(first.domain, False, first.unit)
        return from_ticks(reduce(lambda x, y: combine("or", x, y),
                                 (a for k, a in enumerate(enum.atoms)
                                  if mask >> k & 1 and enum.owners[k] == m), empty))

    return [tuple(on(mask, m) for m in range(max(enum.owners) + 1)) for mask in enum.masks]


@pytest.mark.parametrize("spec", ["mk:2", "mk:3", "thm2", "thm3:3", "bound", "mk:2+mk:3",
                                  "alt3+alt4"])
@pytest.mark.parametrize("logic", ["tl", "qtl", "qtl+p2", "qtl+p3", "qtl+c2", "qtl+c3",
                                   "qtl+c2+p2"])
def test_the_distributed_layer_matches_the_undistributed_reference(monkeypatch, logic, spec):
    """Running distributive positions on atoms gives the reference layer's
    representatives, classes (masks read as sets of atoms with their models)
    and reports, in both modes, or the same LabError (qtl+p3 on thm3:3 needs
    more than 12 atoms).  On the bound model some class is a union no single
    atom covers, so a whole-class position that were run on atoms would
    show; a pair of models runs each kernel per model."""
    envs = models(spec)

    def outcome():
        try:
            enum = enumerate_formulas(parse_logic(logic), 2, envs)
        except LabError as err:
            return str(err)
        classes = [frozenset((enum.owners[k], a) for k, a in enumerate(enum.atoms)
                             if mask >> k & 1)
                   for mask in enum.masks + (enum.p_mask,)]
        reports = [trivialization_report(enum, ev).render() for ev in (False, True)]
        return enum.formulas, classes, reports

    got = outcome()
    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", undistributed_modal_layer)
    assert got == outcome()


# (models, logic, target, tuples): the target is !P on the first model and
# true on the second; the C<k> rows are the paper's separations on the line
PAIR_CLOSURES = [(f"mk:{k}+mk:{k + 1}", logic, f"C{k}(P)", 4)
                 for k in range(2, 8) for logic in (f"qtl+c{k - 1}", f"qtl+c{k - 1}+p{k - 1}")]
PAIR_CLOSURES.append(("alt3+alt4", "qtl", "Pn2(P, Q)", 16))


@pytest.mark.parametrize("spec, logic, target, count", PAIR_CLOSURES)
def test_a_pair_closes_at_its_fixpoint_without_the_target(monkeypatch, spec, logic, target,
                                                          count):
    """Closed to its fixpoint over a pair of models, the logic realizes
    count tuples of truth signals, and the target's tuple (!P, true) is not
    one of them, although each model alone has both classes: no formula of
    the logic defines the target on the pair.  Each representative
    evaluates to its tuple on each model, and the oracle agrees with that
    signal on every grid cell, so the verdict rests on the oracle as well.
    Each model's projection is that model's own closure, and the
    undistributed reference layer closes at the same tuples."""
    envs, logic = models(spec), parse_logic(logic)
    enum = enumerate_formulas(logic, None, envs)
    got = tuples(enum)
    assert len(got) == len(set(got)) == count
    for f, tup in zip(enum.formulas, got):
        for env, sig in zip(envs, tup):
            assert evaluate(f, env) == sig, format_formula(f)
            report = compare_cells(f, env, sig)
            assert report.passed, (format_formula(f), report.lines)
    want = tuple(evaluate(parse_formula(f), env) for f, env in zip(("!P", "true"), envs))
    assert tuple(evaluate(parse_formula(target), env) for env in envs) == want
    assert want not in got
    for m, env in enumerate(envs):
        alone = {one for one, in tuples(enumerate_formulas(logic, None, env))}
        assert {t[m] for t in got} == alone and want[m] in alone
    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", undistributed_modal_layer)
    assert set(tuples(enumerate_formulas(logic, None, envs))) == set(got)


@pytest.mark.parametrize("spec, logic, depth",
                         [(spec, logic, None) for spec, logic, _, _ in PAIR_CLOSURES]
                         + [(spec, "qtl", 2) for spec in ("mk:3", "thm2", "thm3:3")])
def test_a_frame_over_every_period_closes_alike(monkeypatch, spec, logic, depth):
    """A layer's frame leaves out the period of an atom with a constant
    tail (``Frame.of``).  A frame over every atom's period, patched in, cuts
    over a longer reach but gives the same representatives, masks and
    atoms; on thm2 the second layer's frame has period 12 in ticks that
    way, and 4 by the rule."""
    envs, logic = models(spec), parse_logic(logic)
    periods = []
    recut = qtlab.lab._Enumeration.recut

    def logged(self, signals):
        recut(self, signals)
        periods[-1].append([frame.period for frame in self.frames])

    monkeypatch.setattr(qtlab.lab._Enumeration, "recut", logged)
    of = Frame.of.__func__
    runs = []
    for rule in (of, lambda cls, signals: of(cls, signals)._replace(
            period=reduce(_lcm, (s.period for s in signals)))):
        monkeypatch.setattr(Frame, "of", classmethod(rule))
        periods.append([])
        enum = enumerate_formulas(logic, depth, envs)
        runs.append((enum.formulas, enum.masks, enum.atoms))
    assert runs[0] == runs[1]
    if spec == "thm2":
        assert (periods[0][-1], periods[1][-1]) == ([4], [12])


@pytest.mark.parametrize("j", range(2, 12))
def test_every_grid_pair_closes_at_the_four_diagonal_tuples(j):
    """For every k from j + 1 to 12, (mk:j, mk:k) closes in qtl, and for
    j >= 3 in qtl+c<j-1>, at exactly the tuples of true, false, P and !P,
    each read by evaluating the representatives.  The tuple of C<j>(P),
    (!P, true), is not one of them: no formula of these logics defines C<j>
    on the pair."""
    for k in range(j + 1, 13):
        envs = [builtin_model(f"mk:{j}"), builtin_model(f"mk:{k}")]

        def on_both(f):
            return tuple(evaluate(f, env) for env in envs)

        diagonal = {on_both(parse_formula(text)) for text in ("true", "false", "P", "!P")}
        assert on_both(parse_formula(f"C{j}(P)")) not in diagonal
        for logic in ["qtl"] + [f"qtl+c{j - 1}"] * (j >= 3):
            got = [on_both(f) for f in enumerate_formulas(parse_logic(logic), None, envs).formulas]
            assert len(got) == 4 and set(got) == diagonal, (k, logic)


def test_a_closure_over_two_layers_stops_at_its_fixpoint():
    """With P at the multiples of 3/2, qtl admits classes in two modal
    layers and none in the third: run to its fixpoint, the enumeration
    stops there at 64 classes, and every depth from 2 on gives it again."""
    env = Env(TimeDomain.FULL_LINE, {"P": Signal(TimeDomain.FULL_LINE, F(3, 2), IntervalSet(
        [Interval.point(F(0))]))})
    closed = enumerate_formulas(parse_logic("qtl"), None, env)
    assert (len(closed.masks), closed.layers) == (64, 2)
    shallow = enumerate_formulas(parse_logic("qtl"), 1, env)
    assert shallow.layers == 1 and len(shallow.masks) < 64
    for depth in (2, 3, 9):
        assert enumerate_formulas(parse_logic("qtl"), depth, env) == closed


def test_a_pair_past_the_guard_is_refused_at_once():
    """Over (alt 2, alt 3) qtl's classes would put a modal layer past the
    size guard: the closure refuses it within a second, before that layer
    runs, rather than run for minutes."""
    start = time.perf_counter()
    with pytest.raises(LabError, match="a modal layer would try at least 10240 candidates"):
        enumerate_formulas(parse_logic("qtl"), None, models("alt2+alt3"))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("envs, message", [
    ([], "no model binds an atom"),
    ([builtin_model("mk:2"), builtin_model("alt:3")],
     "model 1 binds atoms ['P', 'Q'], model 0 binds ['P']: every model must bind the same atoms"),
    ([builtin_model("alt:3"), Env(TimeDomain.FULL_LINE, {})],
     "model 1 binds atoms [], model 0 binds ['P', 'Q']: every model must bind the same atoms"),
    ([Env(TimeDomain.HALF_LINE, {})], "no model binds an atom"),
])
def test_the_models_must_bind_the_same_atoms(envs, message):
    with pytest.raises(LabError) as err:
        enumerate_formulas(parse_logic("qtl"), None, envs)
    assert str(err.value) == message


@pytest.mark.parametrize("spec", ["mk:2", "mk:3", "thm2", "thm3:3"])
@pytest.mark.parametrize("logic", ["tl", "qtl", "qtl+p2", "qtl+p3"])
def test_atoms_stay_a_canonical_partition(logic, spec):
    """After every enumeration to depths 0-2, the atoms are canonical,
    nonempty, pairwise disjoint and cover the domain, as reading a class by
    its mask needs; qtl+p3 on thm3:3 refuses depth 2 (more than 12 atoms)."""
    env = builtin_model(spec)
    for depth in range(3):
        if (logic, spec, depth) == ("qtl+p3", "thm3:3", 2):
            with pytest.raises(LabError, match="atoms"):
                enumerate_formulas(parse_logic(logic), depth, env)
            continue
        atoms = enumerate_formulas(parse_logic(logic), depth, env).atoms
        empty, full = (Signal.constant(atoms[0].domain, v, atoms[0].unit) for v in (False, True))
        assert all(a == a.canonicalize() != empty for a in atoms)
        assert all(combine("and", a, b) == empty for a, b in itertools.combinations(atoms, 2))
        assert reduce(lambda x, y: combine("or", x, y), atoms) == full


@pytest.mark.parametrize("logic, spec", [
    ("qtl", "thm2"), ("qtl+p2", "thm3:3"), ("tl", "mk:3"), ("qtl", "mk:2"),
])
def test_the_closure_admits_only_new_classes_and_fills(monkeypatch, logic, spec):
    """Inside boolean_closure every admit call admits a new class, no mask
    is looked up once the classes are full, and each closure ends with every
    union of its n atoms: 2^n classes."""
    closure = qtlab.lab._Enumeration.boolean_closure
    admit = qtlab.lab._Enumeration.admit
    inside, stale, ends, full_lookups = [], [], [], []

    def spy_closure(self, old):
        state = self

        class Watched(dict):
            def __contains__(self, key):
                if inside:
                    full_lookups.append(len(state.masks) == 1 << len(state.atoms))
                return dict.__contains__(self, key)

        self.seen = Watched(self.seen)
        inside.append(old)
        try:
            closure(self, old)
        finally:
            inside.pop()
        ends.append((len(self.masks), len(self.atoms)))

    def spy_admit(self, formula, key):
        if inside:
            stale.append(key in self.seen)
        admit(self, formula, key)

    monkeypatch.setattr(qtlab.lab._Enumeration, "boolean_closure", spy_closure)
    monkeypatch.setattr(qtlab.lab._Enumeration, "admit", spy_admit)
    enumerate_formulas(parse_logic(logic), 2, builtin_model(spec))
    assert stale and not any(stale)
    assert full_lookups and not any(full_lookups)
    assert ends and all(classes == 1 << n for classes, n in ends), ends


def test_depth_past_the_fixpoint_runs_no_more_layers(monkeypatch):
    """On mk:2 the qtl classes stop growing after one modal layer, so depth
    50 runs at most two layers and gives the depth-1 result."""
    layers = []
    modal_layer = qtlab.lab._Enumeration.modal_layer

    def counted(self, upto):
        layers.append(upto)
        return modal_layer(self, upto)

    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", counted)
    env = builtin_model("mk:2")
    deep = enumerate_formulas(parse_logic("qtl"), 50, env)
    assert len(layers) <= 2
    assert deep == enumerate_formulas(parse_logic("qtl"), 1, env)


def test_depth3_qtl_thm2_report_golden():
    """Depth-3 qtl on thm2 fills all 12 atoms; both reports of its one
    enumeration are pinned byte for byte to the ones the pairwise closure and
    the fold of combine gave, so representatives and classes stay the same."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl"), 3, env)
    assert len(enum.formulas) == 4096
    for eventually, last, digest in (
        (True, "total 4096 trivial 4096 nontrivial 0 truncated 0\n",
         "11ab3c56d68bf65051fa2ff98aee8eb85b24d05498a4e3b9474c48970824b8ef"),
        (False, "total 4096 trivial 4 nontrivial 4092 truncated 0\n",
         "ac76fed6f3c3b50caffb61b3a60e04bf2e5314ad2ab3c895811c22dc097ed4f0"),
    ):
        text = trivialization_report(enum, eventually).render()
        assert text.endswith(last)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_each_new_set_is_refined_once(monkeypatch):
    """A new set that kernels with different t_bounds reach frames twice but
    has one cut over the layer window, and is refined once: depth-3 qtl on
    thm2 refines 15 distinct cuts (the seed P, 14 new modal results).  A set
    is cut once per distinct nonempty kernel output of a layer
    (``_framed_cut``), an empty one being the empty cut as it is, and each
    atom split canonicalizes its two parts (``_canonical_cut``), never to
    match a class: the layer names a set by its cut, and a kernel call by its
    output.  No kernel runs on an empty operand, which every modality maps to
    the empty set.  Depth 3 makes 832 kernel calls, 47 cuts and 22 canonical
    parts; ``paper --check pnueli``, whose closure is depth-2 qtl on thm2,
    64, 17 and 10.  The distinct outputs, and so the cuts, follow the layers'
    frames, which leave out the period of a constant tail (``Frame.of``)."""
    atoms = {depth: len(enumerate_formulas(parse_logic("qtl"), depth,
                                           builtin_model("thm2")).atoms) for depth in (2, 3)}
    cuts, calls, outputs, layers = [], [], set(), []
    refine, layer = qtlab.lab._Enumeration.refine, qtlab.lab._Enumeration.modal_layer

    def counted(self, m, cut):
        cuts.append((m, self.windows[m], cut))
        return refine(self, m, cut)

    def logged(cls, kernel):
        def call(node, frame, args):
            assert all(args), f"{cls.__name__} ran on an empty operand"
            truth, t_bound = got = kernel(node, frame, args)
            calls.append(cls)
            outputs.add((len(layers), frame, t_bound, truth))
            return got
        return call

    monkeypatch.setattr(qtlab.lab._Enumeration, "refine", counted)
    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer",
                        lambda self, upto: layers.append(upto) or layer(self, upto))
    _patch_kernels(monkeypatch, logged)
    framed = _log_calls(monkeypatch, ["_framed_cut"])
    parts = _log_calls(monkeypatch, ["_canonical_cut"])
    for run, depth, refined, kernel_calls, framings in [
        (lambda: enumerate_formulas(parse_logic("qtl"), 3, builtin_model("thm2")), 3, 15, 832, 47),
        (lambda: paper_check("pnueli"), 2, 5, 64, 17),
    ]:
        for log in (cuts, outputs, layers, calls, framed, parts):
            log.clear()
        run()
        assert len(cuts) == len(set(cuts)) == refined
        assert (len(calls), len(framed)) == (kernel_calls, framings)
        assert len(framed) == len({out for out in outputs if out[-1]})
        assert len(parts) == 2 * (atoms[depth] - 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_hierarchy_closes_untruncated(n):
    text = paper_check(f"hierarchy:{n}").render()
    assert (f"enumerated 128 qtl+p{n - 1} formulas to depth 2, nontrivial 0, "
            "truncated 0\n") in text
    assert text.endswith("PASS\n")


def test_paper_check_records_orientation():
    report = paper_check("hierarchy:2")
    text = report.render()
    assert "orientation even=" in text
    assert "alternation over six intervals: yes" in text


@pytest.mark.parametrize("bad", ["hierarchy:1", "counting:1", "triviality:0", "nope", "counting"])
def test_paper_check_rejects_bad_names(bad):
    with pytest.raises(LabError):
        paper_check(bad)


@pytest.mark.parametrize("read, spec, message", [
    (builtin_model, "mk:0", "mk index must be at least 1, got 0"),
    (builtin_model, "thm3:1", "thm3 index must be at least 2, got 1"),
    (parse_logic, "qtl+p0", "run-modality cap must be at least 1, got 0"),
    (parse_logic, "qtl+c0", "counting cap must be at least 1, got 0"),
    (paper_check, "hierarchy:1", "hierarchy index must be at least 2, got 1"),
    (paper_check, "counting:01", "counting index must be at least 2, got 1"),
    (paper_check, "triviality:0", "triviality index must be at least 2, got 0"),
])
def test_an_index_below_its_least_is_named(read, spec, message):
    with pytest.raises(LabError) as err:
        read(spec)
    assert str(err.value) == message


# SHA-256 of each paper_check render, and of the LabError text of the checks
# the size guard refuses (hierarchy:6..8)
PAPER_CHECK_DIGESTS = {
    "pnueli": "ca125cb25b9bd16a6d67c33d98a23e52ef43059124a10332741e157fcafd610f",
    "counting:2": "e0e7471eb133fcd73bfa2a3ee6859001328f096e7d715a86b5d9f54846b5d7cb",
    "counting:3": "fef63b48aea204e0c21d07725a07e3a942f90f68895470288158052dc5bfd814",
    "counting:4": "e288733f50f667394f380014b6fcc73184855640c978d993af102b8e98810bf3",
    "counting:5": "0064ca3ff9a47500556d4a487b0500230270aba07eab2cff9ba25daefcf481f3",
    "counting:6": "4bd9557956d666875c7ab574e168fc2535ac29936d4faa26561536c50fd75c4c",
    "triviality:2": "cde449fdc0d53389cc4530fd7324aeb879cee04b8ee633e9484b57c311e5b88b",
    "triviality:3": "22fb8385f33615172c89da6b4aafeb26a1bcafe1ad3c4b700cc1714153d9d845",
    "triviality:4": "58bc4c821daa99944bbe5c131bd60cc2e69ca53d30ae84d833abf3c660dc20ee",
    "hierarchy:2": "d830d1792a190157720b10cca0f90de47f6362d3a7fae3277feb29a954d2dcfd",
    "hierarchy:3": "b28f561d513e6b2355796e80ec8184407f3cb5ed3b0c6b7ddf5446732d35b361",
    "hierarchy:4": "aed48cda486dc1d3994e8ca6e0bd76d02f382d8b104b1fdddea9b5daae0a764d",
    "hierarchy:5": "58a4c0c84bebf5cd8a5e45cea1cd0782ca3799639bbef4b8902db06722f0a1b5",
    "hierarchy:6": "09beb13b7b9a4a5e5ba64cdf792308df29b12e496b47688dca161ac60a0d422d",
    "hierarchy:7": "f3cfb6b1a9e4524a91982763be8c7261377ad30abcae7b5e5e3ad8abf77f1ce1",
    "hierarchy:8": "30f45391651e7c77852563b2eaa8000a4a47a9e833f8bd320c1f05ea3141741a",
}

# SHA-256 per logic of both reports (exact, then eventually) of every model
# and depth 0-2 in this order, a LabError text in place of a refused
# enumeration's reports
MATRIX_MODELS = ("mk:2", "mk:3", "mk:4", "thm2", "thm3:3", "thm3:4")
MATRIX_DIGESTS = {
    "tl": "9f5c7aeb199bb3da0ed00aa5ee33464881f5933a911036e79761f1ffc637b28b",
    "qtl": "9376a8ba6d8dadcd7f1d9b9c13a978e771a5d222e043051d134e8d8c2dca1734",
    "qtl+p2": "beb29ef2177a04577045f4419ccea7d09bf528c11918a6de09c28b866698fd53",
    "qtl+p3": "171506d9f2657bce49a2f0f2ed13690ebf06b0746e7030905bea47d3c9da441b",
    "qtl+p4": "75c7481c2268753cc1472e48a18301b554bd3929fae7a0961db6c61780772040",
}


def test_paper_checks_and_report_matrix_golden():
    """Every check's output and every report of the matrix, pinned byte for
    byte, refusals included: representatives, classes and verdicts stay the
    same through any change to the engine or the enumerator."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    def refused_or(run):
        try:
            return run()
        except LabError as exc:
            return str(exc)

    got = {name: digest(refused_or(lambda: paper_check(name).render()))
           for name in PAPER_CHECK_DIGESTS}
    assert got == PAPER_CHECK_DIGESTS

    def reports(logic, spec, depth):
        env = builtin_model(spec)
        enum = enumerate_formulas(parse_logic(logic), depth, env)
        return "".join(trivialization_report(enum, ev).render() for ev in (False, True))

    got = {logic: digest("".join(refused_or(lambda: reports(logic, spec, depth))
                                 for spec in MATRIX_MODELS for depth in range(3)))
           for logic in MATRIX_DIGESTS}
    assert got == MATRIX_DIGESTS
