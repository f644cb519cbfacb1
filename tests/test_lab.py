"""Lab checks: builtin models, enumeration invariants, reports, turnkey checks."""

import hashlib
import itertools
from fractions import Fraction as F
from functools import reduce

import pytest

import qtlab.lab
from qtlab.formulas import (
    And,
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
    subformulas,
)
from qtlab.lab import (
    EnumerationResult,
    LabError,
    Logic,
    builtin_model,
    enumerate_formulas,
    paper_check,
    parse_logic,
    trivialization_report,
)
from qtlab.semantics import evaluate
from qtlab.signals import (
    DomainError,
    Signal,
    TimeDomain,
    Triviality,
    classify_trivial,
    combine,
    equal,
    from_ticks,
)


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


@pytest.mark.parametrize("bad", ["mk:0", "thm3:1", "thm3:0", "bogus", "mk:x", "thm3", "MK:2"])
def test_builtin_model_rejects_bad_specs(bad):
    with pytest.raises(LabError):
        builtin_model(bad)


def test_parse_logic():
    assert parse_logic("tl") == Logic(False, 0)
    assert parse_logic("qtl") == Logic(True, 0)
    assert parse_logic("qtl+p3") == Logic(True, 3)
    for bad in ("qtl+p0", "QTL", "tl+p2", "qtl+p"):
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
    ra = trivialization_report(env, a, True).render()
    rb = trivialization_report(env, b, True).render()
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
        for sub in subformulas(f):
            assert not isinstance(sub, Count)
            if isinstance(sub, Pnueli):
                assert sub.n <= 2


def test_tl_logic_emits_no_metric_operators():
    env = builtin_model("mk:2")
    result = enumerate_formulas(parse_logic("tl"), 2, env)
    for f in result.formulas:
        for sub in subformulas(f):
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
        for name in ("until", "since", "diamond_unit_future", "diamond_unit_past",
                     "pnueli_unit"):
            m.setattr(qtlab.lab, name, no_modal_work)
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
    env = builtin_model("mk:2")
    report = trivialization_report(env, EnumerationResult((), (), (), 0), eventually=False)
    assert report.entries == ()
    assert report.render() == "total 0 trivial 0 nontrivial 0 truncated 0\n"


def test_trivialization_report_nontrivial_entry():
    """Pn2(P,P) is C2(P), which is not eventually trivial on thm2."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl+p2"), 1, env)
    i = class_of(enum, parse_formula("C2(P)"), env)
    one = EnumerationResult(enum.formulas[i:i + 1], enum.masks[i:i + 1], enum.atoms,
                            enum.p_mask)
    report = trivialization_report(env, one, eventually=True)
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
    exact = trivialization_report(env, enum, eventually=False).entries[i]
    event = trivialization_report(env, enum, eventually=True).entries[i]
    assert exact.classification is Triviality.NONE
    assert event.classification is Triviality.TRUE


@pytest.mark.parametrize("eventually", [False, True])
def test_a_report_builds_no_signal(monkeypatch, eventually):
    """A report reads masks alone: it builds no Signal, and gives each class
    the form a per-class classify_trivial gives its truth signal."""
    env = builtin_model("thm2")
    enum = enumerate_formulas(parse_logic("qtl"), 2, env)
    built = []
    new = Signal.__new__

    def spy(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Signal, "__new__", staticmethod(spy))
    report = trivialization_report(env, enum, eventually)
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
    report = trivialization_report(env, enum, eventually)
    assert [e.formula for e in report.entries] == list(enum.formulas)
    for e in report.entries:
        want = classify_trivial(evaluate(e.formula, env), env.signal("P"), eventually)
        assert e.classification is want, format_formula(e.formula)


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


def test_size_guard_trips_before_the_layer_that_overflows(monkeypatch):
    """hierarchy:7 fits its first modal layer but not its second, and the
    guard trips as soon as layer 1's classes push layer 2 past the limit."""
    calls = []
    for name in ("until", "since", "diamond_unit_future", "diamond_unit_past",
                 "pnueli_unit"):
        def counted(*args, fn=getattr(qtlab.lab, name)):
            calls.append(fn)
            return fn(*args)
        monkeypatch.setattr(qtlab.lab, name, counted)
    with pytest.raises(LabError, match="candidates"):
        paper_check("hierarchy:7")
    assert 0 < len(calls) < 100


@pytest.mark.parametrize("logic, spec", [("qtl+p3", "mk:3"), ("qtl+p2", "thm3:3")])
def test_size_guard_counts_exactly_the_tuples_a_layer_admits(monkeypatch, logic, spec):
    """The guard's count equals the argument tuples the largest layer hands
    to admit (the first on mk:3, where layer 2 adds nothing; the second on
    thm3:3), so a limit at that count passes and one below it raises.  The
    layer runs distributive positions on atoms, so it makes fewer operator
    calls than it admits tuples."""
    tuples, calls, inside = [], [], []
    modal_layer = qtlab.lab._Enumeration.modal_layer
    admit = qtlab.lab._Enumeration.admit

    def new_layer(self, upto):
        tuples.append(0)
        calls.append(0)
        inside.append(True)
        try:
            return modal_layer(self, upto)
        finally:
            inside.pop()

    def spy_admit(self, formula, key):
        if inside:
            tuples[-1] += 1
        return admit(self, formula, key)

    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", new_layer)
    monkeypatch.setattr(qtlab.lab._Enumeration, "admit", spy_admit)
    for name in ("until", "since", "diamond_unit_future", "diamond_unit_past",
                 "pnueli_unit"):
        def counted(*args, fn=getattr(qtlab.lab, name)):
            calls[-1] += 1
            return fn(*args)
        monkeypatch.setattr(qtlab.lab, name, counted)
    logic, env = parse_logic(logic), builtin_model(spec)
    expected = enumerate_formulas(logic, 2, env)
    assert len(tuples) == len(calls) == 2
    largest = tuples.index(max(tuples))
    assert calls[largest] < tuples[largest], (calls, tuples)
    monkeypatch.setattr(qtlab.lab, "MAX_CANDIDATES", max(tuples))
    assert enumerate_formulas(logic, 2, env) == expected
    monkeypatch.setattr(qtlab.lab, "MAX_CANDIDATES", max(tuples) - 1)
    with pytest.raises(LabError, match="candidates"):
        enumerate_formulas(logic, 2, env)


def undistributed_modal_layer(self, upto):
    """The reference layer: every operator runs on whole class signals, one
    call per argument tuple, and each result is admitted by its signal."""
    reps, args = self.reps, self.class_signals()
    base = len(reps)
    for width, ops, _ in self.families():
        for idxs in itertools.product(range(base), repeat=width):
            if max(idxs) >= upto:
                for make, op in ops:
                    self.admit_signal(make(*(reps[i] for i in idxs)),
                                      op(*(args[i] for i in idxs)))


@pytest.mark.parametrize("spec", ["mk:2", "mk:3", "thm2", "thm3:3"])
@pytest.mark.parametrize("logic", ["tl", "qtl", "qtl+p2", "qtl+p3"])
def test_the_distributed_layer_matches_the_undistributed_reference(monkeypatch, logic, spec):
    """Running distributive positions on atoms gives the reference layer's
    representatives, classes (masks read as sets of atom signals) and
    reports, in both modes, or the same LabError (qtl+p3 on thm3:3 needs
    more than 12 atoms)."""
    env = builtin_model(spec)

    def outcome():
        try:
            enum = enumerate_formulas(parse_logic(logic), 2, env)
        except LabError as err:
            return str(err)
        classes = [frozenset(a for k, a in enumerate(enum.atoms) if mask >> k & 1)
                   for mask in enum.masks + (enum.p_mask,)]
        reports = [trivialization_report(env, enum, ev).render() for ev in (False, True)]
        return enum.formulas, classes, reports

    got = outcome()
    monkeypatch.setattr(qtlab.lab._Enumeration, "modal_layer", undistributed_modal_layer)
    assert got == outcome()


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
        text = trivialization_report(env, enum, eventually).render()
        assert text.endswith(last)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    (paper_check, "hierarchy:1", "hierarchy index must be at least 2, got 1"),
    (paper_check, "counting:01", "counting index must be at least 2, got 1"),
    (paper_check, "triviality:0", "triviality index must be at least 2, got 0"),
])
def test_an_index_below_its_least_is_named(read, spec, message):
    with pytest.raises(LabError) as err:
        read(spec)
    assert str(err.value) == message
