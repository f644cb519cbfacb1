"""Mutation gate for the verdict path: every mutant must be killed.

A mutant is one exact text replacement in one file of ``src/qtlab``, applied
to a copy of ``src/`` in a temporary directory, and the test node ids that
are expected to kill it.  Only those tests run, in one pytest subprocess per
mutant, with the copy first on the import path.  A mutant is killed when
its tests fail (pytest exit code 1) or hang past ``TIMEOUT`` seconds.
Before any mutant runs, every target text must occur exactly once, so that
a refactor cannot turn a mutant into a no-op, and the killing tests must
pass on an unmutated copy, so that a kill means the mutation.  A survivor,
a missing target, a collection error or an unknown node id fails the run.

    python tests/mutants.py

pytest does not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qtlab
    old: str
    new: str
    killers: Tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant("C<n> off by one in count_kernel", "semantics.py",
           "zip(points, points[n - 1:])", "zip(points, points[n:])",
           ("tests/test_lab.py::test_paper_checks_pass[counting:2]",)),
    Mutant("S computed as U in order_kernel", "semantics.py",
           "        if future:  # sup(y at or below b) must exceed t",
           "        if True:  # sup(y at or below b) must exceed t",
           ("tests/test_semantics.py::test_since_true_p_holds_strictly_after_origin",)),
    Mutant("refine drops the outside part of a split atom", "lab.py",
           "for part in (inside, outside))", "for part in (inside, inside))",
           ("tests/test_lab.py::test_atoms_stay_a_canonical_partition[tl-mk:2]",)),
    # one memo of kernel calls per maker, shared by the models
    Mutant("the slot memo keyed without its model", "lab.py",
           "[{} for m in models]", "[memo for memo in [{}] for m in models]",
           ("tests/test_lab.py::test_a_pair_closes_at_its_fixpoint_without_the_target"
            "[mk:3+mk:4-qtl+c2-C3(P)-4]",)),
    # P on mk:3 and on mk:4 is one int signal in ticks: keyed without its
    # model, a kernel output on one model takes the other model's slot
    Mutant("the slot's kernel-output key without its model", "lab.py",
           "raw = m, t_bound, truth", "raw = t_bound, truth",
           ("tests/test_lab.py::test_a_pair_closes_at_its_fixpoint_without_the_target"
            "[mk:3+mk:4-qtl+c2+p2-C3(P)-4]",)),
    Mutant("a class's cut taking its first atom's cut only", "lab.py",
           "for k in b for c in atoms[k]", "for k in b[:1] for c in atoms[k]",
           ("tests/test_lab.py::test_the_distributed_layer_matches_the_undistributed_reference"
            "[qtl-thm2]",)),
    # layer 1 runs (upto is 0), then the loop stops as if it had admitted nothing
    Mutant("the fixpoint loop stopping one layer early", "lab.py",
           "if upto == base:", "if upto:",
           ("tests/test_lab.py::test_a_closure_over_two_layers_stops_at_its_fixpoint",)),
    Mutant("refine splitting an atom of another model", "lab.py",
           "for k in tuple(self.owned[m]):",
           "for k in range(len(self.cuts)):",
           ("tests/test_lab.py::test_a_pair_closes_at_its_fixpoint_without_the_target"
            "[mk:2+mk:3-qtl+c1-C2(P)-4]",)),
    Mutant("the counting check classifying C<k>(P) against itself, not against P", "lab.py",
           'evaluate_ticks(atoms, Count(k, Atom("P")), Atom("P"))',
           'evaluate_ticks(atoms, Count(k, Atom("P")), Count(k, Atom("P")))',
           ("tests/test_lab.py::test_paper_checks_pass[counting:2]",)),
    Mutant("classify_trivial with the P and not-P forms swapped", "lab.py",
           'p, combine("not", p))', 'combine("not", p), p)',
           ("tests/test_lab.py::test_paper_checks_pass[counting:2]",)),
    Mutant("the Count row with whole=()", "semantics.py",
           "lambda f, *a: count_kernel(*a, f.n, True), (0,)),",
           "lambda f, *a: count_kernel(*a, f.n, True), ()),",
           ("tests/test_lab.py::test_the_distributed_layer_matches_the_undistributed_reference"
            "[qtl+c2-bound]",)),
    Mutant("the oracle grid one shift layer short", "oracle.py",
           "        pad = depth * unit\n", "        pad = max(depth - 1, 0) * unit\n",
           ("tests/test_oracle.py::test_pointwise_count_on_two_thirds_grid",
            "tests/test_oracle.py::test_engine_and_oracle_agree_on_every_cell")),
    Mutant("C<n>'s point-count threshold off by one in the oracle", "oracle.py",
           ">= need for a, b in zip(starts, stops)]", ">= need + 1 for a, b in zip(starts, stops)]",
           ("tests/test_oracle.py::test_pointwise_count_on_two_thirds_grid",)),
    Mutant("the oracle's half-line fold start one cell early", "oracle.py",
           "                fold += fold & 1\n", "                fold += (fold & 1) - 1\n",
           ("tests/test_oracle.py::test_engine_and_oracle_agree_on_every_cell",)),
    Mutant("a gap stop cell of U answered without the left operand", "oracle.py",
           "answer = [r and (not c & 1 or x) for", "answer = [r for",
           ("tests/test_oracle.py::test_pointwise_until_reaches_grid_point",
            "tests/test_oracle.py::test_sweeps_match_per_cell_references")),
    Mutant("no refusal of a formula deeper than the session's", "oracle.py",
           "if f is not self.formula and (d := metrics(f)[0]) > self.depth:", "if False:",
           ("tests/test_oracle.py::test_a_session_refuses_a_formula_deeper_than_its_own",)),
    Mutant("the oracle's run fold taking its run one cell before the last period", "oracle.py",
           "runs = table[start:] *", "runs = table[start - 1:-1] *",
           ("tests/test_oracle.py::test_folded_reads_match_the_per_cell_fold",)),
    Mutant("compare_pointwise reading the engine at the session's unit", "oracle.py",
           "    unit = tick_unit([engine_signal])\n    s = to_ticks(engine_signal, unit)\n",
           "    unit = session.unit\n    s = to_ticks(engine_signal, unit)\n",
           ("tests/test_oracle.py::test_pointwise_report_matches_a_per_sample_reference",)),
    Mutant("Pn<k> true past G - 1 tick, not G - one unit, on a constant piece", "semantics.py",
           "(c := c - one)", "(c := c - 1)",
           ("tests/test_semantics.py::test_unary_run_opens_after_a_point_at_the_origin",
            "tests/test_semantics.py::test_run_sweep_matches_the_reference_on_sparse_signals")),
    Mutant("Pn<k>'s run on a constant piece closed at G - one", "semantics.py",
           "a, closed = c, False", "a, closed = c, True",
           ("tests/test_semantics.py::test_unary_run_opens_after_a_point_at_the_origin",
            "tests/test_semantics.py::test_run_sweep_matches_the_reference_on_sparse_signals")),
    Mutant("evaluate hands atoms over uncanonicalized", "semantics.py",
           "to_ticks(s, unit).canonicalize()", "to_ticks(s, unit)",
           ("tests/test_semantics.py::test_snaps_and_constants_keep_whole_units[P]",)),
    # to_ticks then refuses the other atom, whose unit does not divide it
    Mutant("evaluate taking the common unit from one atom only", "semantics.py",
           "tick_unit(picked.values())", "tick_unit(list(picked.values())[:1])",
           ("tests/test_semantics.py::test_atoms_public_and_in_ticks_mix[TimeDomain.FULL_LINE]",)),
    # the common unit is then the public P's alone, which Q's does not divide
    Mutant("tick_unit ignoring a signal in ticks", "signals.py",
           "units.add(2 * s.unit if odd else s.unit)", "pass",
           ("tests/test_semantics.py::test_atoms_public_and_in_ticks_mix[TimeDomain.FULL_LINE]",)),
    # an odd tick then shares its cell with the odd ticks queries map to
    Mutant("tick_unit taking a signal in ticks at its unit when a tick is odd", "signals.py",
           "2 * s.unit if odd else s.unit", "s.unit",
           ("tests/test_oracle.py::test_the_oracle_gives_on_atoms_in_ticks"
            "_what_it_gives_on_public_ones",)),
    Mutant("to_ticks returning a signal in ticks unscaled", "signals.py",
           "return s if k == 1 else", "return s if True else",
           ("tests/test_semantics.py::test_atoms_public_and_in_ticks_mix[TimeDomain.HALF_LINE]",)),
    Mutant("the trusted Signal constructor keeping a public signal's ints", "signals.py",
           "    if unit == 1:\n        period, transient = rat(period), rat(transient)\n"
           "        pattern, prefix = _rationals(pattern), _rationals(prefix)\n"
           "    return tuple.__new__(Signal", "    return tuple.__new__(Signal",
           ("tests/test_semantics.py::test_public_results_are_fractions",)),
    Mutant("canonicalize's lockstep walk comparing components without their closed flags",
           "signals.py",
           "\n                or x.lower_closed != y.lower_closed or x.upper_closed != y.upper_closed):",
           "):",
           ("tests/test_signals.py::test_lockstep_walk_matches_the_doubling_windows",)),
    Mutant("_frame's split keeping a closed upper end at t_bound + period", "signals.py",
           "(c := run[-1]).upper == b and c.upper_closed:", "False:",
           ("tests/test_signals.py::test_bisection_split_matches_the_span_intersections",)),
    Mutant("the tick writer printing x/U without reducing it by their gcd", "signals.py",
           "g = math.gcd(x, unit)", "g = 1",
           ("tests/test_signals.py::test_writing_from_ticks_equals_printing_the_public_signal",)),
    # the list builder is shared: the Fraction reader wraps unchecked too
    Mutant("the tick reader wrapping a list without checking its normal form", "intervals.py",
           "return IntervalSet._wrap(tuple(items)) if normal else IntervalSet(items)",
           "return IntervalSet._wrap(tuple(items))",
           ("tests/test_signals.py::test_reading_into_ticks_equals_scaling_the_public_signal",)),
    Mutant("the tick reader keeping the unit of the denominators as written", "signals.py",
           "    if k == 1:\n        return s\n", "    return s\n",
           ("tests/test_signals.py::test_reading_into_ticks_equals_scaling_the_public_signal",)),
    # an atom only the second formula uses is then unbound
    Mutant("equiv evaluating its second formula over the first one's atoms only",
           "semantics.py",
           "set().union(*(metrics(f)[1] for f in formulas))", "metrics(formulas[0])[1]",
           ("tests/test_cli.py::test_equiv_in_ticks_answers_what_evaluate_answers",)),
    Mutant("alt:<k> putting Q at 1/(k+1)", "lab.py",
           '"Q": Fraction(1, k)}', '"Q": Fraction(1, k + 1)}',
           ("tests/test_lab.py::test_builtin_models_membership",)),
    # the file's P then silently replaces the model's
    Mutant("the \"bound twice\" check dropped", "lab.py",
           "        if name in bindings:\n            raise LabError(f\"atom {name!r} bound twice\")\n",
           "",
           ("tests/test_cli.py::test_bad_models_exit_two_on_every_command[eval]",)),
    Mutant("Frame.of dropping the period of a periodic one-component pattern", "signals.py",
           "len(c) > 1 or c[0].lower != 0 or not c[0].lower_closed or c[0].upper != s.period)",
           "len(c) > 1)",
           ("tests/test_signals.py::test_a_constant_tail_adds_no_period_to_a_frame"
            "[half-mixed-public]",)),
    # a tuple whose calls all hit the memo admits the node of the last tuple
    # that missed
    Mutant("the walk admitting an earlier tuple's node when every call hits the memo",
           "lab.py",
           "                                    g = memo[hs] = slot(m, probe, row, hs)\n"
           "                                got.append(g)\n"
           "                        for g in got:\n"
           "                            key |= pending[g]\n"
           "                        if key not in self.seen:\n"
           "                            self.admit(make(*(reps[i] for i in idxs)), key)\n",
           "                                    node = make(*(reps[i] for i in idxs))\n"
           "                                    g = memo[hs] = slot(m, probe, row, hs)\n"
           "                                got.append(g)\n"
           "                        for g in got:\n"
           "                            key |= pending[g]\n"
           "                        if key not in self.seen:\n"
           "                            self.admit(node, key)\n",
           ("tests/test_lab.py::test_enumerated_signals_are_the_formulas_truth[qtl-thm2]",)),
    # touching pieces of two runs then stay apart: a set not in normal form
    Mutant("order_kernel wrapping its pieces without merging touching ones", "semantics.py",
           "IntervalSet._wrap(_coalesce(out))", "IntervalSet._wrap(tuple(out))",
           ("tests/test_semantics.py::test_touching_until_and_since_pieces_merge",)),
    # the first and last copies then hold components outside the window
    Mutant("the one-pass cut taking the whole pattern for the edge copies", "signals.py",
           "_moved(pattern if k0 < k < k1 else _meeting(pattern, a - off, b - off), off)",
           "_moved(pattern, off)",
           ("tests/test_signals.py::test_the_one_pass_cut_is_the_framed_signal_sliced",)),
    # a copy then stays apart from the open piece before it that it touches
    # at a closed start: a set not in normal form
    Mutant("the copy join missing a seam closed only at the copy's start", "signals.py",
           "(c.upper_closed or d.lower_closed)", "(c.upper_closed)",
           ("tests/test_signals.py::test_slice_covers_prefix_and_tail",)),
    # the first components are then never compared: their agreement reads
    # as a disagreement
    Mutant("the lockstep stopping one component early", "signals.py",
           "    while i and j:\n", "    while i > 1 and j > 1:\n",
           ("tests/test_signals.py::test_canonicalize_is_as_it_was",
            "tests/test_signals.py::test_a_cut_canonicalizes_as_its_framed_signal")),
    # the kernel then runs on the empty cut, and returns the empty set
    Mutant("the walk calling a kernel on an empty whole-class operand", "lab.py",
           "[(i,) if cut else () for i, cut in enumerate(a)]", "[(i,) for i, cut in enumerate(a)]",
           ("tests/test_lab.py::test_each_new_set_is_refined_once",)),
    # the sweep then never leaves a component ending where G is: it hangs
    Mutant("Pn<k>'s merge not stepping past a component ending at G", "semantics.py",
           "comps[i].upper <= x", "comps[i].upper < x",
           ("tests/test_semantics.py::test_unary_run_opens_after_a_point_at_the_origin",)),
)

# Every mutant's killers end in a few seconds, pass or fail; a run past this
# many seconds is a hang, which the killers would never pass: a kill.
TIMEOUT = 20


def _copy_src(into: Path, mutant: Optional[Mutant] = None) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "qtlab" / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
    return src


def _pytest(src: Path, node_ids: Iterable[str], cwd: Path) -> Optional[int]:
    """pytest's exit code on the node ids, importing qtlab from src only, or
    None past TIMEOUT seconds."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            *(str(ROOT / n) for n in node_ids)]
    try:
        return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / "src" / "qtlab" / m.file).read_text().count(m.old)
        if found != 1:
            print(f"target text of {m.name!r} occurs {found} times in src/qtlab/{m.file}")
            return 1
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp, "clean")
        code = _pytest(_copy_src(clean), sorted({n for m in MUTANTS for n in m.killers}), clean)
        if code != 0:
            print(f"the killing tests do not pass on the unmutated source (pytest exit {code})")
            return 1
        bad = []
        for k, m in enumerate(MUTANTS):
            began = time.perf_counter()
            here = Path(tmp, f"mutant{k}")
            code = _pytest(_copy_src(here, m), m.killers, here)
            verdict = {0: "SURVIVED", 1: "killed", None: "killed (hung)"}.get(
                code, f"ERROR (pytest exit {code})")
            print(f"{verdict:>24}  {m.name}  ({time.perf_counter() - began:.1f} s)", flush=True)
            if code not in (1, None):
                bad.append(m.name)
    print(f"{len(MUTANTS) - len(bad)}/{len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
