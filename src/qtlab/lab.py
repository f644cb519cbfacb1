"""Builtin grid models, semantic formula enumeration, and turnkey checks.

The models bind one atom P to a pure point grid: multiples of 1/k on the whole
line, or multiples of 2/3 (respectively 2/(2n-1)) on the half line.

Enumeration works by semantic closure: seed with the constants and the atom,
close under the boolean connectives, then per nesting level apply the chosen
logic's modalities to the current representatives and close again.  Two
formulas with the same truth signal on the dedup environment collapse to the
first one found, so the emitted list carries exactly one representative per
distinct truth set.  Each class is a bitmask over atoms, the minimal sets cut
by P and the modal results, so the boolean closure is integer arithmetic: it
builds a formula only for a mask not seen yet, and stops once all 2^n unions
of its n atoms are classes.  A layer over no new class ends the enumeration,
since every later layer would try nothing.  Requests past ``MAX_CANDIDATES``
modal candidates in a layer or ``MAX_ATOMS`` atoms raise LabError instead.
The enumeration scales P to integer ticks once (see ``qtlab.signals``) and
runs every modality on ints.  Reports read masks alone: the atoms
are nonempty, disjoint and cover the domain, so a class is TRUE, FALSE, P or
NOT_P when its mask is, in that precedence order, ``full``, 0, P's mask or
``full & ~P``.  Disjoint atoms have disjoint tails, each nonempty exactly
when its pattern is, so eventually the same holds after ANDing every mask
with ``tails``, the bits of the atoms with a nonempty pattern.  Everything
is deterministic: no randomness, fixed iteration orders, append-only
representative list.

A modal layer distributes over atoms, each node through its row of
``qtlab.semantics.MODALITIES``.  The right operand of U and S, the operand
of F1 and O1 and every argument of Pn<k> ask for one witness point, so each
distributes over ``|``: ``x U (y | z) = x U y | x U z``.  The layer runs
these positions on the layer-start atoms, calls each kernel once per
(operator, argument handles), refines once per distinct new set, and keys a
tuple by the union of its calls' masks, 0 when a class there has mask 0
(``x U false``, ``F1 false``, ``Pn(.., false, ..)``).  The row's other
positions take whole classes: the left operand of U and S, and the operand
of ``C<n>``, n >= 2, which must never be distributed: with P at the
integers and Q at the half-integers, ``C2(P | Q)`` is (0,1/2) with period
1/2 while ``C2(P) | C2(Q)`` is empty.  Every argument tuple is
still admitted, in the same order, with the same formula and class, so the
first-found representatives, the reports and the ``MAX_CANDIDATES`` refusals
(it counts tuples, not calls) are unchanged.  The calls cut the same atoms
as sets: each layer-start atom is a class, so each call is a tuple this
layer or an earlier one admitted, and each whole-class result is a union of
calls.

One frame per layer.  A layer cuts each start atom once over the reach of
their frame (``qtlab.signals.Frame``), and a class's cut is the union of
its atoms' cuts.  Two sets that repeat in the frame are equal exactly when
their cuts over its reach are, so a layer names a set by its cut: each call
runs a kernel on the cuts and frames its truth set at the kernel's t_bound,
each framed set is sliced once, and a cut no class or earlier result has is
refined once: ``refine`` intersects cuts and canonicalizes only split parts.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import partial, reduce
from operator import or_
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .formulas import (
    And,
    Atom,
    Count,
    FalseConst,
    Formula,
    Not,
    Or,
    Pnueli,
    Since,
    TrueConst,
    Until,
    DiamondFuture,
    DiamondPast,
    format_formula,
)
from .intervals import Interval, IntervalSet, format_interval_list
from .semantics import MODALITIES, Env, Modality, evaluate
# the public operators, importable from this module too
from .semantics import diamond_unit_future, diamond_unit_past, pnueli_unit, since, until  # noqa
from .signals import (
    Frame,
    Signal,
    TimeDomain,
    Triviality,
    _frame,
    classify_trivial,
    tick_unit,
    to_ticks,
)

# Size guards: a request past either raises LabError (exit 2) before the
# enumeration runs for minutes.  Depth-3 qtl on thm2 fits: its last layer
# tries 8176 candidates and the closure reaches 12 atoms.
MAX_CANDIDATES = 10_000  # modal argument tuples one layer would try
MAX_ATOMS = 12  # atoms of the closure, so at most 4096 classes


class LabError(ValueError):
    pass


# ------------------------------------------------------------------- models

def _indexed(spec: str, prefix: str, what: str, least: int) -> Optional[int]:
    """n when spec is prefix followed by the digits of n, else None; an n
    below least, or too long for int() to read, raises LabError."""
    m = re.fullmatch(re.escape(prefix) + r"(\d+)", spec)
    if not m:
        return None
    try:
        n = int(m.group(1))
    except ValueError:  # int() refuses more digits than Python's limit
        raise LabError(f"{what} of {len(m.group(1))} digits is too long to read") from None
    if n < least:
        raise LabError(f"{what} must be at least {least}, got {n}")
    return n


def builtin_model(spec: str) -> Env:
    """Environment for a named model: `mk:<k>`, `thm2`, or `thm3:<n>`.

    Binds the single atom P.  mk:k puts P at every multiple of 1/k over the
    whole line; thm2 at every nonnegative multiple of 2/3; thm3:n at every
    nonnegative multiple of 2/(2n-1), so thm2 is thm3:2.
    """
    if spec == "thm2":
        spec = "thm3:2"
    point_zero = IntervalSet([Interval.point(Fraction(0))])
    if (k := _indexed(spec, "mk:", "mk index", 1)) is not None:
        sig = Signal(TimeDomain.FULL_LINE, Fraction(1, k), point_zero)
        return Env(TimeDomain.FULL_LINE, {"P": sig})
    if (n := _indexed(spec, "thm3:", "thm3 index", 2)) is not None:
        sig = Signal(TimeDomain.HALF_LINE, Fraction(2, 2 * n - 1), point_zero)
        return Env(TimeDomain.HALF_LINE, {"P": sig})
    raise LabError(f"unknown model spec {spec!r} (expected mk:<k>, thm2, thm3:<n>)")


# -------------------------------------------------------------- enumeration

class Logic(NamedTuple):
    """Modality set: until/since always; unit diamonds when `diamonds`;
    counting modalities C2..C<counting_max> and run modalities
    Pn2..Pn<pnueli_max> when their cap is at least 2."""

    diamonds: bool = False
    pnueli_max: int = 0
    counting_max: int = 0

    def families(self) -> Iterator[Tuple[int, Tuple[Callable[..., Formula], ...]]]:
        """The modal families in admission order, drawn one at a time, each
        a width and the makers of its nodes from an argument tuple;
        ``MODALITIES`` says how each node runs."""
        yield 2, (Until, Since)
        if self.diamonds:
            yield 1, (DiamondFuture, DiamondPast)
        for n in range(2, self.counting_max + 1):
            yield 1, (partial(Count, n),)
        for width in range(2, self.pnueli_max + 1):
            yield width, (lambda *fs: Pnueli(fs),)

    def guard(self, base: int, upto: int) -> None:
        """Raise when a modal layer over base classes, those from upto on
        new, would try more than MAX_CANDIDATES argument tuples; the count
        only grows with base.  The families are summed only until the count
        passes the limit, so a wide run family neither costs a huge sum nor
        prints one."""
        count = 0
        for w, makers in self.families():
            count += len(makers) * (base ** w - upto ** w)
            if count > MAX_CANDIDATES:
                raise LabError(f"a modal layer would try at least {count} candidates, "
                               f"past the limit of {MAX_CANDIDATES}")


def parse_logic(text: str) -> Logic:
    if text == "tl":
        return Logic(False, 0)
    if not (m := re.fullmatch(r"qtl(\+c\d+)?(\+p\d+)?", text)):
        raise LabError(f"unknown logic {text!r} "
                       "(expected tl, qtl, qtl+c<m>, qtl+p<m>, qtl+c<m>+p<w>)")
    counting = _indexed(m[1] or "", "+c", "counting cap", 1) or 0
    runs = _indexed(m[2] or "", "+p", "run-modality cap", 1) or 0
    return Logic(True, runs, counting)


class EnumerationResult(NamedTuple):
    """Representatives and their classes, bit k set when a class holds atoms[k]."""

    formulas: Tuple[Formula, ...]
    masks: Tuple[int, ...]
    atoms: Tuple[Signal, ...]  # disjoint, nonempty, canonical, in ticks; cover the domain
    p_mask: int  # the class of P
    truncated: bool = False  # an enumeration closes or raises LabError


class _Enumeration:
    """Classes as bitmasks over atoms: the minimal nonempty sets cut so far
    by P and the modal results, kept as disjoint canonical signals in ticks
    covering the domain, and as their cuts over the window of one frame.
    Only a modal result that is a new set splits the atoms it cuts, and every
    mask holding a split atom gains the new atom's bit."""

    def __init__(self, env: Env, logic: Logic):
        self.logic = logic
        p = env.signal("P")
        self.unit = tick_unit([p])
        self.p = to_ticks(p, self.unit).canonicalize()
        self.reps: List[Formula] = []
        self.masks: List[int] = []
        self.seen: Dict[int, int] = {}  # mask -> class index
        self.atoms: List[Signal] = [Signal.constant(env.domain, True, self.unit)]
        self.pending: List[int] = []  # the modal layer's masks, one per slot
        # the next modal layer's lower index, None when no layer follows
        self.next_upto: Optional[int] = None
        self.recut([self.p])

    def recut(self, signals: List[Signal]) -> None:
        """Cut every atom over the reach of the frame of signals."""
        self.frame = Frame.of(signals)
        self.window = self.frame.reach()
        self.cuts = [a.slice(*self.window) for a in self.atoms]

    def admit(self, formula: Formula, key: int) -> None:
        if key not in self.seen:
            self.seen[key] = len(self.reps)
            self.reps.append(formula)
            self.masks.append(key)
            if self.next_upto is not None:
                self.logic.guard(len(self.reps), self.next_upto)

    def admit_signal(self, formula: Formula, sig: Signal) -> int:
        key = self.refine(sig.slice(*self.window))
        self.admit(formula, key)
        return self.seen[key]

    def refine(self, cut: IntervalSet) -> int:
        """The mask of the set cut shows over the window, after splitting every
        atom it cuts; the set and the atoms repeat from frame.settled()."""
        key, frame, settled = 0, self.frame, self.frame.settled()
        for k in range(len(self.cuts)):
            atom = self.cuts[k]
            inside = atom.intersection(cut)
            if not inside:
                continue
            key |= 1 << k
            if inside == atom:
                continue
            if len(self.atoms) == MAX_ATOMS:
                raise LabError(f"the closure would need more than {MAX_ATOMS} atoms")
            self.cuts[k], outside = inside, atom.difference(inside)
            self.cuts.append(outside)
            self.atoms[k], new_atom = (_frame(frame, settled, part).canonicalize()
                                       for part in (inside, outside))
            self.atoms.append(new_atom)
            bit, new = 1 << k, 1 << (len(self.atoms) - 1)
            for masks in (self.masks, self.pending):
                masks[:] = [m | new if m & bit else m for m in masks]
            self.seen = {m: i for i, m in enumerate(self.masks)}
        return key

    def boolean_closure(self, old: int) -> None:
        """Close under the connectives; classes from index old on are new.
        Only a mask not seen yet gets its formula built and admitted, in the
        pairing order that picks the first-found representatives, and the
        closure stops once every union of atoms is a class: no atom splits
        here, so then nothing new can come."""
        reps, masks, seen = self.reps, self.masks, self.seen
        filled = 1 << len(self.atoms)
        while old < len(reps) < filled:
            n = len(reps)
            for i in range(old, n):
                key = masks[i] ^ (filled - 1)
                if key not in seen:
                    self.admit(Not(reps[i]), key)
                    if len(masks) == filled:
                        return
            for i in range(n):
                mask = masks[i]
                for j in range(max(i, old), n):
                    key = mask & masks[j]
                    if key not in seen:
                        self.admit(And(reps[i], reps[j]), key)
                        if len(masks) == filled:
                            return
                    key = mask | masks[j]
                    if key not in seen:
                        self.admit(Or(reps[i], reps[j]), key)
                        if len(masks) == filled:
                            return
            old = n

    def modal_layer(self, upto: int) -> None:
        """Apply every modality to the argument tuples over the current
        classes whose largest index is at or above upto, distributive
        positions on atoms, at one frame (module docstring)."""
        self.recut(self.atoms)
        reps, frame, atoms = self.reps, self.frame, tuple(self.cuts)
        base = len(reps)
        bits = [[k for k in range(len(atoms)) if m >> k & 1] for m in self.masks]
        args = [IntervalSet(c for k in ks for c in atoms[k]) for ks in bits]
        # slot i < base is class i; a set is named by its cut over the window
        self.pending, slots, memo = list(self.masks), {}, {}
        keyed = {cut: i for i, cut in enumerate(args)}

        def slot(node: Formula, row: Modality, make: Callable, hs: Tuple[int, ...]) -> int:
            """The pending index of node's kernel on the classes and atoms
            hs name; every node make builds runs the same kernel."""
            if (make, hs) not in memo:
                truth, t_bound = row.kernel(node, frame, [args[h] if k in row.whole else atoms[h]
                                                          for k, h in enumerate(hs)])
                sig = _frame(frame, t_bound, truth)
                if sig not in slots:
                    cut = sig.slice(*self.window)
                    if cut not in keyed:
                        keyed[cut] = len(self.pending)
                        self.pending.append(self.refine(cut))
                    slots[sig] = keyed[cut]
                memo[make, hs] = slots[sig]
            return memo[make, hs]

        for width, makers in self.logic.families():
            for idxs in itertools.product(range(base), repeat=width):
                if max(idxs) >= upto:
                    for make in makers:
                        node = make(*(reps[i] for i in idxs))
                        row = MODALITIES[type(node)]
                        choices = [(i,) if k in row.whole else bits[i] for k, i in enumerate(idxs)]
                        # every call before the union: a later call's refine
                        # may split atoms the union already holds
                        got = [slot(node, row, make, hs) for hs in itertools.product(*choices)]
                        self.admit(node, reduce(or_, (self.pending[g] for g in got), 0))


def enumerate_formulas(logic: Logic, depth: int, dedup_env: Env) -> EnumerationResult:
    """Semantic representatives of all formulas over atom P up to the given
    modal nesting depth, deduplicated by truth signal on dedup_env, with
    their classes there as masks over atoms."""
    if depth < 0:
        raise LabError("depth must be nonnegative")
    state = _Enumeration(dedup_env, logic)
    # a layer tries only the tuples that reach past the previous layer's
    # base; the size guard watches the next layer while classes arrive
    state.next_upto = 0 if depth else None
    for formula, value in ((TrueConst(), True), (FalseConst(), False)):
        state.admit_signal(formula, Signal.constant(dedup_env.domain, value, state.unit))
    p_class = state.admit_signal(Atom("P"), state.p)
    state.boolean_closure(0)
    for layer in range(1, depth + 1):
        upto, base = state.next_upto, len(state.reps)
        state.next_upto = base if layer < depth else None
        state.modal_layer(upto)
        state.boolean_closure(base)
        if upto == base:
            # the layer before admitted no class, so this one tried no
            # tuple: a fixpoint, and every later layer would try none
            break
    return EnumerationResult(tuple(state.reps), tuple(state.masks), tuple(state.atoms),
                             state.masks[p_class])


# ------------------------------------------------------------------ reports

class ReportEntry(NamedTuple):
    formula: Formula
    classification: Triviality


class TrivializationReport(NamedTuple):
    entries: Tuple[ReportEntry, ...]
    eventually: bool
    truncated: bool = False

    def render(self) -> str:
        lines = [f"{format_formula(e.formula)}\t{e.classification}\t{int(self.eventually)}"
                 for e in self.entries]
        total = len(self.entries)
        nontrivial = sum(e.classification is Triviality.NONE for e in self.entries)
        lines.append(f"total {total} trivial {total - nontrivial} "
                     f"nontrivial {nontrivial} truncated {int(self.truncated)}")
        return "".join(line + "\n" for line in lines)


def trivialization_report(enum: EnumerationResult, eventually: bool) -> TrivializationReport:
    """Classify each class of an enumeration by its mask (module docstring)."""
    full = (1 << len(enum.atoms)) - 1
    keep = sum(1 << k for k, a in enumerate(enum.atoms) if a.pattern) if eventually else full
    forms: Dict[int, Triviality] = {}
    for tag, mask in ((Triviality.TRUE, full), (Triviality.FALSE, 0),
                      (Triviality.P, enum.p_mask), (Triviality.NOT_P, full & ~enum.p_mask)):
        forms.setdefault(mask & keep, tag)
    entries = tuple(ReportEntry(f, forms.get(mask & keep, Triviality.NONE))
                    for f, mask in zip(enum.formulas, enum.masks))
    return TrivializationReport(entries, eventually, enum.truncated)


# ------------------------------------------------------------ turnkey checks

class PaperCheckReport(NamedTuple):
    name: str
    lines: Tuple[str, ...]
    passed: bool

    def render(self) -> str:
        body = [f"check {self.name}"] + list(self.lines)
        body.append("PASS" if self.passed else "FAIL")
        return "".join(line + "\n" for line in body)


def _enumeration_evidence(env: Env, logic: str, eventually: bool) -> Tuple[List[str], bool]:
    enum = enumerate_formulas(parse_logic(logic), 2, env)
    report = trivialization_report(enum, eventually)
    bad = [e for e in report.entries if e.classification is Triviality.NONE]
    mode = "eventually" if eventually else "exactly"
    lines = [f"enumerated {len(report.entries)} {logic} formulas to depth 2, "
             f"nontrivial {len(bad)}, truncated {int(enum.truncated)}"]
    for e in bad:
        lines.append(f"nontrivial witness: {format_formula(e.formula)}")
    ok = not bad
    lines.append(f"all enumerated formulas {mode} trivial: {'yes' if ok else 'no'}")
    return lines, ok


def paper_check(name: str) -> PaperCheckReport:
    """Named end-to-end separation checks; see the acceptance suite."""
    if name == "pnueli":
        env = builtin_model("thm2")
        sig = evaluate(Count(2, Atom("P")), env)
        cls = classify_trivial(sig, env.signal("P"), eventually=True)
        lines = [f"C2(P) on thm2 eventually classifies: {cls}"]
        lines.append(f"C2(P) tail pattern: {format_interval_list(sig.pattern)} "
                     f"period {sig.period} transient {sig.transient}")
        ok1 = cls is Triviality.NONE
        more, ok2 = _enumeration_evidence(env, "qtl", True)
        return PaperCheckReport(name, tuple(lines + more), ok1 and ok2)

    if (n := _indexed(name, "hierarchy:", "hierarchy index", 2)) is not None:
        env = builtin_model(f"thm3:{n}")
        sig = evaluate(Count(n, Atom("P")), env)
        width = Fraction(1, 2 * n - 1)
        lines, vals = [], []
        for k in range(6):
            # the exact truth set on the open interval: all of it, none of it
            # or neither
            whole = IntervalSet([Interval.open(k, k + width)])
            inside = sig.slice(k, k + width).intersection(whole)
            val = {whole: True, IntervalSet.EMPTY: False}.get(inside)
            vals.append(val)
            if val is None:
                lines.append(f"C{n}(P) not constant on ({k},{k}+{width})")
            else:
                lines.append(f"C{n}(P) on ({k},{k}+{width}): {'true' if val else 'false'}")
        alternates = None not in vals and all(vals[k] != vals[k + 1] for k in range(5))
        if None not in vals:
            lines.append(f"orientation even={'true' if vals[0] else 'false'} "
                         f"odd={'true' if vals[1] else 'false'}")
        lines.append(f"alternation over six intervals: {'yes' if alternates else 'no'}")
        more, ok2 = _enumeration_evidence(env, f"qtl+p{n - 1}", True)
        return PaperCheckReport(name, tuple(lines + more), alternates and ok2)

    if (k := _indexed(name, "counting:", "counting index", 2)) is not None:
        lines, oks = [], []
        for idx, want in ((k, Triviality.NOT_P), (k + 1, Triviality.TRUE)):
            env = builtin_model(f"mk:{idx}")
            cls = classify_trivial(evaluate(Count(k, Atom("P")), env),
                                   env.signal("P"), eventually=False)
            lines.append(f"C{k}(P) on mk:{idx}: {cls}")
            oks.append(cls is want)
        return PaperCheckReport(name, tuple(lines), all(oks))

    if (k := _indexed(name, "triviality:", "triviality index", 2)) is not None:
        env = builtin_model(f"mk:{k}")
        lines, ok = _enumeration_evidence(env, "qtl", False)
        return PaperCheckReport(name, tuple(lines), ok)

    raise LabError(f"unknown check {name!r} "
                   "(expected pnueli, hierarchy:<n>, counting:<k>, triviality:<k>)")
