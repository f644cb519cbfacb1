"""Seeded random generators, a formula-tree walk and a spy on Signal builds,
shared by the property and acceptance suites."""

import math
import random
from fractions import Fraction

import qtlab.signals
from qtlab.intervals import Interval, IntervalSet, _read_list, _read_rational, _set_of
from qtlab.signals import Signal, TimeDomain

PERIODS = [
    Fraction(1, 3),
    Fraction(5, 12),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 4),
    Fraction(1),
    Fraction(4, 3),
    Fraction(3, 2),
    Fraction(2),
]


def read_interval_list(text: str) -> IntervalSet:
    """An interval list's text read into a set of Fractions, by the reader
    that ``parse_signal`` runs on its pattern and prefix."""
    return _set_of(*_read_list(text), Fraction)


def read_rational(text: str) -> Fraction:
    """A number's text read into a Fraction, as ``parse_signal`` reads its
    period and transient."""
    return Fraction(*_read_rational(text))


def random_fraction(rng: random.Random, lo, hi, max_den: int = 12) -> Fraction:
    """A rational in [lo, hi] with denominator at most max_den."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, max_den)
    a = math.ceil(lo * den)
    b = math.floor(hi * den)
    if a > b:
        return lo
    return Fraction(rng.randint(a, b), den)


def random_point_set(rng: random.Random, span: Fraction, max_components: int = 4,
                     max_den: int = 12) -> IntervalSet:
    """A random subset of [0, span) with at most max_components components."""
    if span <= 0:
        return IntervalSet.EMPTY
    n = rng.randint(0, max_components)
    cuts = set()
    for _ in range(2 * n):
        q = random_fraction(rng, 0, span, max_den)
        if q < span:
            cuts.add(q)
    cuts = sorted(cuts)
    ivs = []
    i = 0
    while i < len(cuts) and len(ivs) < n:
        if i + 1 < len(cuts) and rng.random() < 0.6:
            ivs.append(Interval(cuts[i], cuts[i + 1], rng.random() < 0.5, rng.random() < 0.5))
            i += 2
        else:
            ivs.append(Interval.point(cuts[i]))
            i += 1
    return IntervalSet(ivs)


def random_signal(rng: random.Random, domain: TimeDomain, max_components: int = 4,
                  max_den: int = 12) -> Signal:
    period = rng.choice(PERIODS)
    pattern = random_point_set(rng, period, max_components, max_den)
    if domain is TimeDomain.FULL_LINE or rng.random() < 0.3:
        transient, prefix = Fraction(0), IntervalSet.EMPTY
        if domain is TimeDomain.FULL_LINE:
            return Signal(domain, period, pattern)
    else:
        transient = random_fraction(rng, Fraction(1, 3), 2, max_den)
        prefix = random_point_set(rng, transient, max_components, max_den)
    return Signal(domain, period, pattern, transient, prefix)


def irregular_signal(rng: random.Random, n: int, domain: TimeDomain,
                     point_share: float = 0.5) -> Signal:
    """The irregular n-component family: component i starts at i/5 + r/211
    (r < 20) and is a point (with probability point_share) or an interval of
    width at most 10/211, period n/5, so no sub-period exists.  On the half
    line an n/2-component prefix of the same shape fills [0, (n//2)/5)."""

    def components(k: int) -> IntervalSet:
        comps = []
        for i in range(k):
            lo = Fraction(i, 5) + Fraction(rng.randrange(20), 211)
            if rng.random() < point_share:
                comps.append(Interval.point(lo))
            else:
                hi = lo + Fraction(1 + rng.randrange(10), 211)
                comps.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
        return IntervalSet(comps)

    if domain is TimeDomain.FULL_LINE:
        return Signal(domain, Fraction(n, 5), components(n))
    return Signal(domain, Fraction(n, 5), components(n), Fraction(n // 2, 5), components(n // 2))


def spy_signal_builds(monkeypatch) -> list:
    """A list that gains every Signal built from here on, by the checked
    constructor ``Signal.__new__`` or by the library's trusted one,
    ``qtlab.signals._signal``."""
    built = []

    def spying(build):
        def call(*args, **kwargs):
            sig = build(*args, **kwargs)
            built.append(sig)
            return sig
        return call

    monkeypatch.setattr(Signal, "__new__", staticmethod(spying(Signal.__new__)))
    monkeypatch.setattr(qtlab.signals, "_signal", spying(qtlab.signals._signal))
    return built


def sparse_signal(rng: random.Random, n: int, domain: TimeDomain) -> Signal:
    """Points and intervals of width 1/30 starting 1/3 to 3/2 apart, period
    n, so a unit window holds 0-3 of their lower ends; on the half line a
    prefix of the same shape fills [0, n // 2)."""

    def components(span: int) -> IntervalSet:
        comps, at = [], random_fraction(rng, 0, 1, 30)
        while at + Fraction(1, 30) < span:
            if rng.random() < 0.7:
                comps.append(Interval.point(at))
            else:
                comps.append(Interval(at, at + Fraction(1, 30), rng.random() < 0.5,
                                      rng.random() < 0.5))
            at += random_fraction(rng, Fraction(1, 3), Fraction(3, 2), 30)
        return IntervalSet(comps)

    if domain is TimeDomain.FULL_LINE:
        return Signal(domain, Fraction(n), components(n))
    return Signal(domain, Fraction(n), components(n), Fraction(n // 2), components(n // 2))


# ------------------------------------------------------------------- formulas

from qtlab.formulas import (  # noqa: E402
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
    children,
)


def random_formula(rng: random.Random, modal_budget: int = 3, atoms=("P", "Q"),
                   size: int = 8, max_run: int = 3) -> Formula:
    """A random AST with modal depth at most modal_budget."""

    def leaf() -> Formula:
        r = rng.random()
        if r < 0.7:
            return Atom(rng.choice(atoms))
        return TrueConst() if r < 0.85 else FalseConst()

    def go(mb: int, sz: int) -> Formula:
        if sz <= 1 or rng.random() < 0.2:
            return leaf()
        ops = ["not", "and", "or", "implies"]
        if mb > 0:
            ops += ["until", "since", "f1", "o1", "count", "pnueli"] * 2
        op = rng.choice(ops)
        if op == "not":
            return Not(go(mb, sz - 1))
        if op == "f1":
            return DiamondFuture(go(mb - 1, sz - 1))
        if op == "o1":
            return DiamondPast(go(mb - 1, sz - 1))
        if op == "count":
            return Count(rng.randint(1, max_run), go(mb - 1, sz - 1))
        if op == "pnueli":
            n = rng.randint(1, max_run)
            share = max(1, (sz - 1) // n)
            return Pnueli(tuple(go(mb - 1, share) for _ in range(n)))
        lsz = rng.randint(1, max(1, sz - 2))
        left_mb = mb - 1 if op in ("until", "since") else mb
        left = go(left_mb, lsz)
        right = go(left_mb, sz - 1 - lsz)
        if op == "until":
            return Until(left, right)
        if op == "since":
            return Since(left, right)
        if op == "and":
            return And(left, right)
        if op == "or":
            return Or(left, right)
        return Implies(left, right)

    return go(modal_budget, size)


def tree_nodes(f: Formula):
    """Every node of the formula tree, parents before children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))
