"""Builtin grid models, semantic formula enumeration, and turnkey checks.

The builtin models bind atoms to pure point grids: P at the multiples of 1/k
on the whole line, or of 2/3 (respectively 2/(2n-1)) on the half line, or P
and Q alternating 1/k apart on the whole line.  ``builtin_model`` is the one
reader of models: a spec and atoms bound to signal files, read into ticks.

Enumeration works by semantic closure over one model or a tuple of models
binding the same atoms: seed with the constants and the atoms in name order,
close under the boolean connectives, then per nesting level apply the chosen
logic's modalities to the current representatives and close again.  A
formula's tuple is its truth signal on each model; formulas with the same
tuple collapse to the first one found, so the emitted list carries exactly
one representative per tuple.  Each atom belongs to one model: there, the
minimal sets cut by the bound atoms and the modal results.  A class is a
bitmask over every model's atoms, which already is the tuple, and the
connectives act on each model's bits alone, so the boolean closure is
integer arithmetic: it builds a formula only for a mask not seen yet, and
stops once a pass adds no class, or all 2^n unions of its n atoms are
classes.  Requests past ``MAX_CANDIDATES`` modal candidates in a layer or
``MAX_ATOMS`` atoms raise LabError instead.  Each model's atoms, public or
in ticks, go once through ``qtlab.semantics.evaluate_ticks`` to ticks of one
unit per model, so every modality runs on ints.  A verdict is a
``Triviality``: the first of TRUE, FALSE, P and NOT_P, in member order, that
a truth signal equals, or NONE.
``classify_trivial`` compares signals; reports read masks alone: on one
model the atoms are nonempty, disjoint and cover the domain, so the four
have the masks ``full``, 0, P's mask and ``full & ~P``, in that order.
Disjoint atoms have disjoint tails, each nonempty exactly when its pattern
is, so eventually the same holds after ANDing every mask with ``tails``, the
bits of the atoms with a nonempty pattern.  All is deterministic: fixed
iteration orders, an append-only representative list.

The fixpoint (depth None) is exact at every depth.  Proof: a compound
formula's tuple depends only on its arguments' tuples, so the set S_d of the
tuples of formulas up to depth d gives S_{d+1} = G(S_d), where G adds each
modality's tuples on arguments from S_d and closes under the connectives.
Layer d + 1 computes G(S_d), since a representative stands for every
formula with its tuple and tuples over older classes only were tried by an
earlier layer.  A layer that admits no class shows S_{d+1} = S_d; then
S_{d+2} = G(S_{d+1}) = S_{d+1}, and by induction S_e = S_d for all e >= d.
Every formula has a finite depth, so a tuple outside S_d is defined by no
formula of the logic on these models.  The loop tests this before a layer,
so it never runs one that tries no tuple; ``EnumerationResult.layers`` is d.

A modal layer distributes over atoms, each node through its row of
``qtlab.semantics.MODALITIES``.  The right operand of U and S, the operand
of F1 and O1 and every argument of Pn<k> ask for one witness point, so each
distributes over ``|``: ``x U (y | z) = x U y | x U z``.  The layer runs
these positions on each model's layer-start atoms, calls each kernel once
per (model, operator, argument handles), refines once per distinct new set,
and keys a tuple by the union of its calls' masks.  No call runs on any
empty operand, as every modality is empty when one of its operands is
(``x U false``, ``false S x``, ``F1 false``, ``Pn(.., false, ..)``): a
class with no atom on a model makes no call there.  The row's other
positions take whole classes: the left operand of U and S, and the operand
of ``C<n>``, n >= 2, which must never be distributed: with P at the
integers and Q at the half-integers, ``C2(P | Q)`` is (0,1/2) with period
1/2 while ``C2(P) | C2(Q)`` is empty.  Every argument tuple is still tried, in the
same order, and its formula is built only when its class is new, so the
first-found representatives, the reports and the ``MAX_CANDIDATES`` refusals
(it counts tuples, not calls; ``tried`` holds each layer's) are unchanged; a
kernel reads of its node only C<n>'s n.  On one model the calls cut the same
atoms as sets: each layer-start atom is a class, so each call is a tuple
this layer or an earlier one admitted, and each whole-class result is a
union of calls.  On several, one model's atom is no tuple, so a call may
split atoms no tuple needs: that costs atoms, never exactness.

One frame per model and layer.  A layer cuts each start atom once over the
reach of its model's frame (``qtlab.signals.Frame``), and a class's cut on a
model is the union of its atoms' cuts there: one atom's cut as it is, or
the plain sort of their components, merged where they touch.  Disjoint
components share a lower end only when one is a point and the other is
open there, and the point sorts first both as a tuple and in normal form,
so that sort is the normal order.  Two sets that repeat in the frame are
equal exactly when their cuts over its reach are, so a layer names a set by
its model and cut.  Each call runs a kernel on the cuts; each distinct
nonempty output on a model, its t_bound and truth set, is cut over the
reach once, in one pass (``qtlab.signals._framed_cut``), and a cut no class
or earlier result has is refined once: ``refine`` intersects cuts and
canonicalizes only split parts, from their cuts
(``qtlab.signals._canonical_cut``).
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from fractions import Fraction
from functools import partial, reduce
from operator import getitem, or_
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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
from .intervals import Interval, IntervalSet, TextFormatError, _coalesce, format_interval_list
from .semantics import MODALITIES, Env, Modality, evaluate_ticks
# the public operators, importable from this module too
from .semantics import diamond_unit_future, diamond_unit_past, pnueli_unit, since, until  # noqa
from .signals import (
    Frame,
    Signal,
    TimeDomain,
    _canonical_cut,
    _framed_cut,
    _normal_form,
    combine,
    from_ticks,
    parse_ticks,
)

# Size guards: a request past either raises LabError (exit 2) before the
# enumeration runs for minutes.  Depth-3 qtl on thm2 fits: its last layer
# tries 8176 candidates and the closure reaches 12 atoms.
MAX_CANDIDATES = 10_000  # modal argument tuples one layer would try
MAX_ATOMS = 12  # atoms of the closure, so at most 4096 classes


class LabError(ValueError):
    pass


# ------------------------------------------------------------------- models

MODEL_SPECS = "mk:<k>, thm2, thm3:<n>, alt:<k>"  # every spec form builtin_model reads


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


def builtin_model(spec: Optional[str] = None, binds: Sequence[str] = ()) -> Env:
    """The model of a spec, with more atoms bound to signal files.

    The spec's atoms are public.  mk:k puts P at every multiple of 1/k over
    the whole line; thm2 at every nonnegative multiple of 2/3; thm3:n at
    every nonnegative multiple of 2/(2n-1), so thm2 is thm3:2; alt:k puts P
    at 0 and Q at 1/k, both with period 2/k, over the whole line.  Each
    NAME=PATH of binds binds NAME to the file at PATH, read into ticks.  The
    domain is the first binding's; ``Env`` refuses a clash.
    """
    bindings: Dict[str, Signal] = {}
    if spec == "thm2":
        spec = "thm3:2"
    if spec is not None:
        if (k := _indexed(spec, "mk:", "mk index", 1)) is not None:
            domain, period, points = TimeDomain.FULL_LINE, Fraction(1, k), {"P": 0}
        elif (k := _indexed(spec, "alt:", "alt index", 1)) is not None:
            domain, period = TimeDomain.FULL_LINE, Fraction(2, k)
            points = {"P": 0, "Q": Fraction(1, k)}
        elif (n := _indexed(spec, "thm3:", "thm3 index", 2)) is not None:
            domain, period, points = TimeDomain.HALF_LINE, Fraction(2, 2 * n - 1), {"P": 0}
        else:
            raise LabError(f"unknown model spec {spec!r} (expected {MODEL_SPECS})")
        for name, at in points.items():
            bindings[name] = Signal(domain, period, IntervalSet([Interval.point(Fraction(at))]))
    for item in binds:
        name, sep, path = item.partition("=")
        if not sep or not name:
            raise LabError(f"--bind expects NAME=PATH, got {item!r}")
        if name in bindings:
            raise LabError(f"atom {name!r} bound twice")
        try:
            bindings[name] = parse_ticks(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, TextFormatError) as exc:
            raise TextFormatError(f"{path}: {exc}") from None
    if not bindings:
        raise LabError("no atoms bound: give --model and/or --bind")
    return Env(next(iter(bindings.values())).domain, bindings)


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
    atoms: Tuple[Signal, ...]  # per model: disjoint, nonempty, canonical, in ticks, cover it
    p_mask: int  # the class of P, 0 when no model binds P
    truncated: bool = False  # an enumeration closes or raises LabError
    owners: Tuple[int, ...] = ()  # the model of each atom
    layers: int = 0  # modal layers run before one admitted no class, at most the depth


class _Enumeration:
    """Classes as bitmasks over atoms: per model, the minimal nonempty sets cut
    so far by the bound atoms and the modal results, kept as disjoint canonical
    signals in its ticks covering its domain, and as their cuts over the window
    of its frame.  Only a modal result that is a new set splits the atoms it
    cuts, and every mask holding a split atom gains the new atom's bit."""

    def __init__(self, envs: Sequence[Env], logic: Logic):
        self.names = sorted(envs[0].bindings) if envs else []
        for m, env in enumerate(envs):
            if (names := sorted(env.bindings)) != self.names:
                raise LabError(f"model {m} binds atoms {names}, model 0 binds {self.names}: "
                               "every model must bind the same atoms")
        if not self.names:
            raise LabError("no model binds an atom")
        self.logic = logic
        self.bound = [evaluate_ticks(env, *map(Atom, self.names)) for env in envs]
        self.reps: List[Formula] = []
        self.masks: List[int] = []
        self.seen: Dict[int, int] = {}  # mask -> class index
        self.atoms = [Signal.constant(b[0].domain, True, b[0].unit) for b in self.bound]
        self.owner = list(range(len(envs)))  # the model of each atom
        self.owned = [[m] for m in range(len(envs))]  # each model's atoms
        self.pending: List[int] = []  # the modal layer's masks, one per slot
        self.tried: List[int] = []  # the argument tuples each modal layer tried
        # the next modal layer's lower index, None when no layer follows
        self.next_upto: Optional[int] = None
        self.recut(self.bound)

    def recut(self, signals: Sequence[Sequence[Signal]]) -> None:
        """Cut every atom over the reach of its model m's frame of signals[m]."""
        self.frames = [Frame.of(s) for s in signals]
        self.windows = [frame.reach() for frame in self.frames]
        self.cuts = [a.slice(*self.windows[m]) for a, m in zip(self.atoms, self.owner)]

    def admit(self, formula: Formula, key: int) -> None:
        if key not in self.seen:
            self.seen[key] = len(self.reps)
            self.reps.append(formula)
            self.masks.append(key)
            if self.next_upto is not None:
                self.logic.guard(len(self.reps), self.next_upto)

    def admit_signal(self, formula: Formula, sigs: Sequence[Signal]) -> int:
        key = reduce(or_, (self.refine(m, s.slice(*self.windows[m])) for m, s in enumerate(sigs)))
        self.admit(formula, key)
        return self.seen[key]

    def refine(self, m: int, cut: IntervalSet) -> int:
        """The mask of the set cut shows over model m's window, after splitting
        every atom of m it cuts; both repeat from m's frame.settled()."""
        key, frame, settled = 0, self.frames[m], self.frames[m].settled()
        for k in tuple(self.owned[m]):
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
            self.atoms[k], new_atom = (_canonical_cut(frame, settled, part)
                                       for part in (inside, outside))
            self.atoms.append(new_atom)
            self.owner.append(m)
            self.owned[m].append(len(self.atoms) - 1)
            bit, new = 1 << k, 1 << (len(self.atoms) - 1)
            for masks in (self.masks, self.pending):
                masks[:] = [x | new if x & bit else x for x in masks]
            self.seen = {x: i for i, x in enumerate(self.masks)}
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
        positions on atoms, at one frame per model (module docstring)."""
        models, owned = range(len(self.frames)), self.owned
        self.recut([[self.atoms[k] for k in ks] for ks in owned])
        reps, atoms, base = self.reps, tuple(self.cuts), len(self.reps)
        # per model: each class's atoms there, and its cut, the union of theirs
        bits = [[[k for k in ks if mask >> k & 1] for mask in self.masks] for ks in owned]
        args = [[atoms[b[0]] if len(b) == 1 else
                 IntervalSet._wrap(_coalesce(sorted([c for k in b for c in atoms[k]])))
                 for b in bm] for bm in bits]
        # slot m * base + i is class i on model m; a set is named by model and cut
        own = [sum(1 << k for k in ks) for ks in owned]
        self.pending = [mask & o for o in own for mask in self.masks]
        keyed = {(m, cut): m * base + i for m in models for i, cut in enumerate(args[m])}
        slots, pending = {}, self.pending  # by kernel output

        def slot(m: int, probe: Formula, row: Modality, hs: Tuple[int, ...]) -> int:
            """The pending index of probe's kernel on model m's classes and atoms hs name."""
            frame = self.frames[m]
            truth, t_bound = row.kernel(probe, frame, [args[m][h] if k in row.whole else atoms[h]
                                                       for k, h in enumerate(hs)])
            raw = m, t_bound, truth
            if (got := slots.get(raw)) is None:
                cut = _framed_cut(frame, t_bound, truth, *self.windows[m]) if truth else truth
                if (got := keyed.get((m, cut))) is None:
                    got = keyed[m, cut] = len(pending)
                    pending.append(self.refine(m, cut))
                slots[raw] = got
            return got

        # per model, each class's handle at a whole position, none for an empty cut
        tried, whole = 0, [[(i,) if cut else () for i, cut in enumerate(a)] for a in args]
        for width, makers in self.logic.families():
            # per maker: its row, a node for its kernel and per model its calls by
            # handles; per model each position's handles, whole alike for the makers
            rows = [(make, row, probe, [{} for m in models])
                    for make in makers for probe in [make(*reps[:1] * width)]
                    for row in [MODALITIES[type(probe)]]]
            choices = [[whole[m] if k in rows[0][1].whole else bits[m] for k in range(width)]
                       for m in models]
            share = list if len(rows) > 1 else iter  # one maker reads the products once
            for idxs in itertools.product(range(base), repeat=width):
                if max(idxs) >= upto:
                    tried += len(rows)
                    calls = [share(itertools.product(*map(getitem, c, idxs))) for c in choices]
                    for make, row, probe, memos in rows:
                        # every call before the union: a later call's refine
                        # may split atoms the union already holds
                        got, key = [], 0
                        for m, memo, hss in zip(models, memos, calls):
                            for hs in hss:
                                if (g := memo.get(hs)) is None:
                                    g = memo[hs] = slot(m, probe, row, hs)
                                got.append(g)
                        for g in got:
                            key |= pending[g]
                        if key not in self.seen:
                            self.admit(make(*(reps[i] for i in idxs)), key)
        self.tried.append(tried)


def enumerate_formulas(logic: Logic, depth: Optional[int],
                       dedup_env: Union[Env, Sequence[Env]]) -> EnumerationResult:
    """Semantic representatives of all formulas over the bound atoms up to the
    given modal nesting depth, or to the fixpoint when it is None, one per tuple
    of truth signals on dedup_env, an Env or a sequence; classes as masks."""
    if depth is not None and depth < 0:
        raise LabError("depth must be nonnegative")
    envs = [dedup_env] if isinstance(dedup_env, Env) else list(dedup_env)
    state = _Enumeration(envs, logic)
    # a layer tries only the tuples that reach past the previous layer's
    # base; the size guard watches the next layer while classes arrive
    state.next_upto = None if depth == 0 else 0
    state.admit(TrueConst(), (1 << len(envs)) - 1)  # each model's one atom
    state.admit(FalseConst(), 0)
    seeds = {n: state.admit_signal(Atom(n), s) for n, s in zip(state.names, zip(*state.bound))}
    state.boolean_closure(0)
    grown = 0  # layers that admitted a class
    for layer in itertools.count(1) if depth is None else range(1, depth + 1):
        upto, base = state.next_upto, len(state.reps)
        if upto == base:
            # the layer before admitted no class: the fixpoint (module docstring)
            break
        state.next_upto = base if layer != depth else None
        state.modal_layer(upto)
        state.boolean_closure(base)
        grown += len(state.reps) > base
    return EnumerationResult(tuple(state.reps), tuple(state.masks), tuple(state.atoms),
                             state.masks[seeds["P"]] if "P" in seeds else 0, False,
                             tuple(state.owner), grown)


# ------------------------------------------------------------------ reports

class Triviality(Enum):
    """The first trivial predicate a truth signal equals, in member order, or NONE."""

    TRUE = "True"
    FALSE = "False"
    P = "P"
    NOT_P = "NotP"
    NONE = "None"

    def __str__(self) -> str:
        return self.value


def classify_trivial(s: Signal, p_atom: Signal, eventually: bool = False) -> Triviality:
    """Compare s against each trivial predicate, in Triviality's order."""
    Frame.of([s, p_atom])
    got, p = _normal_form(s, eventually), _normal_form(p_atom, eventually)
    forms = (Signal.constant(p.domain, True, p.unit), Signal.constant(p.domain, False, p.unit),
             p, combine("not", p))
    return next((tag for tag, form in zip(Triviality, forms) if form == got), Triviality.NONE)


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
    for tag, mask in zip(Triviality, (full, 0, enum.p_mask, full & ~enum.p_mask)):
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
        sig, p_atom = evaluate_ticks(env, Count(2, Atom("P")), Atom("P"))
        cls = classify_trivial(sig, p_atom, eventually=True)
        lines = [f"C2(P) on thm2 eventually classifies: {cls}"]
        tail = from_ticks(sig)
        lines.append(f"C2(P) tail pattern: {format_interval_list(tail.pattern)} "
                     f"period {tail.period} transient {tail.transient}")
        ok1 = cls is Triviality.NONE
        more, ok2 = _enumeration_evidence(Env(env.domain, {"P": p_atom}), "qtl", True)
        return PaperCheckReport(name, tuple(lines + more), ok1 and ok2)

    if (n := _indexed(name, "hierarchy:", "hierarchy index", 2)) is not None:
        env = builtin_model(f"thm3:{n}")
        sig, p_atom = evaluate_ticks(env, Count(n, Atom("P")), Atom("P"))
        lines, vals = [], []
        for k in range(6):
            # the exact truth set on the open interval, a whole number of
            # ticks since P's unit is 2(2n-1): all of it, none of it or neither
            lo, hi = k * sig.unit, k * sig.unit + sig.unit // (2 * n - 1)
            whole = IntervalSet([Interval(lo, hi, False, False)])
            inside = sig.slice(lo, hi).intersection(whole)
            val = {whole: True, IntervalSet.EMPTY: False}.get(inside)
            vals.append(val)
            if val is None:
                lines.append(f"C{n}(P) not constant on ({k},{k}+1/{2 * n - 1})")
            else:
                lines.append(f"C{n}(P) on ({k},{k}+1/{2 * n - 1}): {'true' if val else 'false'}")
        alternates = None not in vals and all(vals[k] != vals[k + 1] for k in range(5))
        if None not in vals:
            lines.append(f"orientation even={'true' if vals[0] else 'false'} "
                         f"odd={'true' if vals[1] else 'false'}")
        lines.append(f"alternation over six intervals: {'yes' if alternates else 'no'}")
        more, ok2 = _enumeration_evidence(Env(env.domain, {"P": p_atom}), f"qtl+p{n - 1}", True)
        return PaperCheckReport(name, tuple(lines + more), alternates and ok2)

    if (k := _indexed(name, "counting:", "counting index", 2)) is not None:
        lines, oks = [], []
        for idx, want in ((k, Triviality.NOT_P), (k + 1, Triviality.TRUE)):
            atoms = builtin_model(f"mk:{idx}")
            cls = classify_trivial(*evaluate_ticks(atoms, Count(k, Atom("P")), Atom("P")),
                                   eventually=False)
            lines.append(f"C{k}(P) on mk:{idx}: {cls}")
            oks.append(cls is want)
        return PaperCheckReport(name, tuple(lines), all(oks))

    if (k := _indexed(name, "triviality:", "triviality index", 2)) is not None:
        env = builtin_model(f"mk:{k}")
        lines, ok = _enumeration_evidence(env, "qtl", False)
        return PaperCheckReport(name, tuple(lines), ok)

    raise LabError(f"unknown check {name!r} "
                   "(expected pnueli, hierarchy:<n>, counting:<k>, triviality:<k>)")
