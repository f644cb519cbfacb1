"""The evaluation engine: exact truth signals for every operator.

Each temporal operator is a kernel: from a ``signals.Frame`` its operands
repeat in and their cuts, their sorted components over a window of it, it
builds the truth set directly, in time near linear in the component count,
with the t_bound it repeats from.  A public operator is ``signals._apply``
of its kernel: each operand cut once over the kernel's window of their frame
(lcm period, max transient), then that set framed and canonicalized.
Kernels read a larger frame or window alike, so a modal layer
(``qtlab.lab``) runs them on one frame:

* ``C<n>`` (``F1`` is ``C1``) and ``O1`` follow the offline construction of
  Maler and Nickovic, "Monitoring Temporal Properties of Continuous Signals"
  (FORMATS 2004).  A component <l, u> of positive length meets the future
  window (t, t+1) for t in (l-1, u) and the past window (t-1, t) for t in
  (l, u+1); a run of n consecutive points s_i < ... < s_{i+n-1} fits in
  (t, t+1) for t in (s_{i+n-1}-1, s_i).
* ``U`` and ``S`` make one pass over the maximal runs of the left operand: a
  run <a, b> of positive length makes ``x U y`` hold on [a, min(b, sup)),
  sup = sup(y at or below b), and ``x S y`` on (max(a, inf), b], inf =
  inf(y at or above a).
* ``Pn<k>`` places its witnesses greedily, each at the infimum of its operand
  strictly above the one before.  An unattained infimum still leaves the
  open interval above it for the next witness, so by density the greedy
  placement succeeds exactly when some placement does: at t exactly when
  G(t) < t+1, for the completion G = N_k o ... o N_1 with N_j(b) = max(b, l_i),
  <l_i, u_i> the first component of operand j with u_i > b (none: G is past
  every witness).  On each [u_{i-1}, u_i) N_j is the constant l_i below l_i
  and the identity from l_i on.  N_j maps a constant to a constant and the
  identity on [a, b) to N_j's own pieces there, so G is a list of constant
  and identity pieces; each N_j is monotone, so G's values never decrease
  along it and composing with N_j is one forward merge.  G(t) < t+1 holds
  on every identity piece, and on a constant piece c exactly for t > c-1.

``MODALITIES`` names every modality once, keyed by its formula class: its
public operator, its kernel with parameters read off the node, and the
argument positions that do not distribute over ``|``.  ``evaluate`` and the
modal layers of ``qtlab.lab`` both run a modality through it.

The differential oracle checks every construction pointwise rather than
this module assuming it silently; it keeps its own dispatch.

The operators run on signals at either scale of ``qtlab.signals``, reading
the length of one time unit off their operands.  ``evaluate_ticks`` is the
one place where atoms go to ticks: it takes them public or in ticks, as the
CLI reads files, and every formula of a command, so that their truth signals
share one unit and each atom is canonicalized once.  ``evaluate`` scales its
one result back to public numbers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .formulas import (
    And,
    Atom,
    Count,
    DiamondFuture,
    DiamondPast,
    FalseConst,
    Formula,
    Implies,
    Not,
    Or,
    Pnueli,
    Since,
    TrueConst,
    Until,
    _read_only,
    children,
    metrics,
)
from .intervals import Interval, IntervalSet, _unchecked
from .signals import (
    DomainError,
    Frame,
    Signal,
    TimeDomain,
    _apply,
    combine,
    from_ticks,
    tick_unit,
    to_ticks,
)


class EvalError(ValueError):
    pass


class UnboundAtomError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"atom {name!r} is not bound in the environment")
        self.name = name


class Env:
    """Binding of atom names to signals over one shared time domain, read-only."""

    __slots__ = ("domain", "bindings")

    def __init__(self, domain: TimeDomain, bindings: Mapping[str, Signal]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "bindings", dict(bindings))
        for name, sig in self.bindings.items():
            if sig.domain is not self.domain:
                raise DomainError(f"binding {name!r} lives on {sig.domain.value}, "
                                  f"environment on {self.domain.value}")

    __setattr__ = __delattr__ = _read_only

    def signal(self, name: str) -> Signal:
        try:
            return self.bindings[name]
        except KeyError:
            raise UnboundAtomError(name) from None


# -------------------------------------------------------------- metric family

def count_kernel(frame: Frame, cuts: Sequence[IntervalSet], n: int, future: bool) -> tuple:
    """At least n points of the one cut in (t, t+1), or in (t-1, t) clipped
    to the domain when not future; the cut holds frame.window(unit)."""
    one, full = frame.unit, frame.domain is TimeDomain.FULL_LINE
    t_bound = 0 if full else frame.transient + (0 if future else one)
    comps = cuts[0].components
    d = one if future else 0
    hits = [_unchecked(c.lower - d, c.upper + one - d, False, False)
            for c in comps if not c.is_point]
    points = [c.lower for c in comps if c.is_point]
    hits += [_unchecked(last - d, first + one - d, False, False)
             for first, last in zip(points, points[n - 1:]) if last - first < one]
    return IntervalSet(hits), t_bound


def diamond_unit_future(x: Signal) -> Signal:
    """Truth signal of: the operand holds somewhere in (t, t+1); C1 by another name."""
    return _apply(count_kernel, [x], 1, True)


def count_unit(x: Signal, n: int) -> Signal:
    """Truth signal of: at least n witness points of the operand in (t, t+1)."""
    if type(n) is not int:
        raise EvalError(f"counting index must be an int, not {type(n).__name__}")
    if n < 1:
        raise EvalError("counting index must be at least 1")
    return _apply(count_kernel, [x], n, True)


def diamond_unit_past(x: Signal) -> Signal:
    """Truth signal of: the operand holds somewhere in (t-1, t), clipped to the domain."""
    return _apply(count_kernel, [x], 1, False)


def pnueli_kernel(frame: Frame, cuts: Sequence[IntervalSet]) -> tuple:
    """Strictly increasing witnesses in (t, t+1), one per cut; each cut
    holds frame.window(unit).  The greedy completion G is composed over
    [0, transient + period) as pieces (a, b, c), G = c on [a, b) or the
    identity where c is None, and read off piece by piece (module docstring)."""
    one = frame.unit
    pieces = [(0, frame.transient + frame.period, None)]
    for cut in cuts:  # G := N o G, one forward merge over the cut's components
        comps, out, i = cut.components, [], 0
        n = len(comps)
        for a, b, c in pieces:
            while a < b:
                x = a if c is None else c
                while i < n and comps[i].upper <= x:
                    i += 1
                if i == n:  # no witness above G from here on
                    break
                lo, up, _, _ = comps[i]
                if c is not None:
                    e, v = b, lo if lo > c else c
                elif a < lo:
                    e, v = lo if lo < b else b, lo
                else:
                    e, v = up if up < b else b, None
                if out and out[-1][2] == v:
                    a = out.pop()[0]
                out.append((a, e, v))
                a = e
            if i == n:  # G only grows, so neither on any later piece
                break
        pieces = out
    runs: list[Interval] = []
    for a, b, c in pieces:  # true where G(t) < t + one
        if c is None or (c := c - one) < a:
            closed = True
        elif c < b:
            a, closed = c, False
        else:
            continue
        if closed and runs and runs[-1].upper == a:
            a, closed = runs[-1].lower, runs.pop().lower_closed
        runs.append(_unchecked(a, b, closed, False))
    return IntervalSet._wrap(tuple(runs)), frame.transient


def pnueli_unit(operands: Sequence[Signal]) -> Signal:
    """Truth signal of: strictly increasing witnesses in (t, t+1), one per operand."""
    if not operands:
        raise EvalError("a run modality needs at least one operand")
    return _apply(pnueli_kernel, operands)


# ------------------------------------------------------------- order family

def order_kernel(frame: Frame, cuts: Sequence[IntervalSet], future: bool) -> tuple:
    """x U y when future, else x S y, from the cuts of x and y over
    frame.window(period) or more: one pass over the maximal runs of x.

    The window reaches a full period of y past every run that matters, so
    sup and inf read off it are exact where they decide the outcome.
    """
    p, T = frame.period, frame.transient
    t_bound = 0 if frame.domain is TimeDomain.FULL_LINE else T if future else T + p
    xs, ys = cuts[0], cuts[1].components
    lowers = [c.lower for c in ys]
    uppers = [c.upper for c in ys]
    out: list[Interval] = []
    for run in xs:
        a, b = run.lower, run.upper
        if a == b:
            continue
        if future:  # sup(y at or below b) must exceed t
            i = bisect_left(lowers, b)
            if i < len(ys) and lowers[i] == b and ys[i].lower_closed:
                i += 1
            if i and (sup := min(uppers[i - 1], b)) > a:
                out.append(_unchecked(a, sup, True, False))
        else:  # inf(y at or above a) must lie below t
            j = bisect_right(uppers, a)
            if j and uppers[j - 1] == a and ys[j - 1].upper_closed:
                j -= 1
            if j < len(ys) and (inf := max(lowers[j], a)) < b:
                out.append(_unchecked(inf, b, False, True))
    return IntervalSet(out), t_bound


def until(x: Signal, y: Signal) -> Signal:
    """Strict non-matching until: a future witness of y with x holding on the
    whole open interior.

    Such a t sits at or inside a run <a, b> of x of positive length, and the
    witness can reach no further than b."""
    return _apply(order_kernel, [x, y], True, margin=attrgetter("period"))


def since(x: Signal, y: Signal) -> Signal:
    """Mirror image of until into the past; on the half line witnesses range
    over [0, t), so the origin can carry one."""
    return _apply(order_kernel, [x, y], False, margin=attrgetter("period"))


# ------------------------------------------------------------ modality table

class Modality(NamedTuple):
    """A row of ``MODALITIES`` (module docstring)."""

    operator: Callable[..., Signal]
    kernel: Callable[..., tuple]
    whole: Tuple[int, ...] = ()  # a modal layer runs these on classes, the rest on atoms


# Each row looks its functions up per call, so a wrapper patched into this
# module sees it.  C<n>, n >= 2, must never distribute (see qtlab.lab).
MODALITIES: Dict[type, Modality] = {
    Until: Modality(lambda f, x, y: until(x, y), lambda f, *a: order_kernel(*a, True), (0,)),
    Since: Modality(lambda f, x, y: since(x, y), lambda f, *a: order_kernel(*a, False), (0,)),
    DiamondFuture: Modality(lambda f, x: diamond_unit_future(x),
                            lambda f, *a: count_kernel(*a, 1, True)),
    DiamondPast: Modality(lambda f, x: diamond_unit_past(x),
                          lambda f, *a: count_kernel(*a, 1, False)),
    Count: Modality(lambda f, x: count_unit(x, f.n),
                    lambda f, *a: count_kernel(*a, f.n, True), (0,)),
    Pnueli: Modality(lambda f, *xs: pnueli_unit(xs), lambda f, *a: pnueli_kernel(*a)),
}


# ------------------------------------------------------------------- evaluate

def evaluate(f: Formula, env: Env) -> Signal:
    """The canonical truth signal of a formula, as ``evaluate_ticks`` makes
    it, scaled back to public numbers."""
    return from_ticks(evaluate_ticks(env, f)[0])


def evaluate_ticks(atoms: Env, *formulas: Formula) -> List[Signal]:
    """The canonical truth signal of each formula, in ticks.  The atoms the
    formulas use, public or in ticks, share one unit, their ``tick_unit``,
    the unit of every signal returned; each goes to it with ``to_ticks`` and
    is canonicalized once.  An atom no formula uses is never scaled."""
    used = set().union(*(metrics(f)[1] for f in formulas))
    picked = {name: s for name, s in atoms.bindings.items() if name in used}
    unit = tick_unit(picked.values())
    env = Env(atoms.domain, {name: to_ticks(s, unit).canonicalize()
                             for name, s in picked.items()})
    return [_evaluate(f, env, unit) for f in formulas]


def _evaluate(f: Formula, env: Env, unit: int) -> Signal:
    if isinstance(f, TrueConst):
        return Signal.constant(env.domain, True, unit)
    if isinstance(f, FalseConst):
        return Signal.constant(env.domain, False, unit)
    if isinstance(f, Atom):
        return env.signal(f.name)
    if isinstance(f, Not):
        return combine("not", _evaluate(f.operand, env, unit))
    if isinstance(f, And):
        return combine("and", _evaluate(f.left, env, unit), _evaluate(f.right, env, unit))
    if isinstance(f, Or):
        return combine("or", _evaluate(f.left, env, unit), _evaluate(f.right, env, unit))
    if isinstance(f, Implies):
        return combine("or", combine("not", _evaluate(f.left, env, unit)),
                       _evaluate(f.right, env, unit))
    if type(f) in MODALITIES:
        return MODALITIES[type(f)].operator(f, *(_evaluate(c, env, unit) for c in children(f)))
    raise TypeError(f"not a formula: {f!r}")
