"""Seeded input generators for the benchmark.

These are the benchmark's own copies, kept apart from the test suite's
generators so that editing a test cannot move a benchmark number.  Every
function takes its randomness from an explicit ``random.Random``; the same
seed always yields the same inputs.

Two families:

* the irregular n-component family of the ``wide`` workload: component i
  starts at ``i/5 + r/211`` for a random integer r, inside one period of
  length ``n/5``, so no sub-period exists and operator outputs keep order-n
  components;
* random small signals and random formulas of bounded modal depth, drawn with
  the same distributions as the acceptance suite's criterion-5 stream, for
  the ``differential`` workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from qtlab.formulas import (
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
)
from qtlab.intervals import Interval, IntervalSet
from qtlab.signals import Signal, TimeDomain

DOMAINS = (TimeDomain.FULL_LINE, TimeDomain.HALF_LINE)

# ------------------------------------------------------- irregular n-family


def irregular_components(rng: random.Random, n: int) -> IntervalSet:
    """n components, the i-th starting at i/5 + r/211 with r < 20.

    Each is a point or a short interval of width at most 10/211 with random
    closedness, so consecutive components never touch (1/5 > 30/211).
    """
    comps = []
    for i in range(n):
        lo = Fraction(i, 5) + Fraction(rng.randrange(20), 211)
        if rng.random() < 0.5:
            comps.append(Interval.point(lo))
        else:
            hi = lo + Fraction(1 + rng.randrange(10), 211)
            comps.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet(comps)


def irregular_signal(rng: random.Random, n: int, domain: TimeDomain) -> Signal:
    """Period n/5 with n pattern components; on the half line an
    n/2-component prefix of length (n//2)/5 comes first."""
    pattern = irregular_components(rng, n)
    if domain is TimeDomain.FULL_LINE:
        return Signal(domain, Fraction(n, 5), pattern)
    m = n // 2
    return Signal(domain, Fraction(n, 5), pattern, Fraction(m, 5), irregular_components(rng, m))


# --------------------------------------------------- random small signals

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
MAX_COMPONENTS = 4
MAX_DEN = 12
MODAL_DEPTH = 3
FORMULA_SIZE = 8
MAX_RUN = 3
ATOMS = ("P", "Q")


def random_fraction(rng: random.Random, lo, hi) -> Fraction:
    """A rational in [lo, hi] with denominator at most MAX_DEN."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, MAX_DEN)
    a = math.ceil(lo * den)
    b = math.floor(hi * den)
    if a > b:
        return lo
    return Fraction(rng.randint(a, b), den)


def point_set(rng: random.Random, span: Fraction, n: int) -> IntervalSet:
    """A random subset of [0, span) built from 2n random cuts, at most n components."""
    if span <= 0:
        return IntervalSet.EMPTY
    cuts = set()
    for _ in range(2 * n):
        q = random_fraction(rng, 0, span)
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


def random_signal(rng: random.Random, domain: TimeDomain) -> Signal:
    """A small signal: random period, up to four pattern components; on the
    half line, seven times in ten, a transient in [1/3, 2] with its own prefix."""
    period = rng.choice(PERIODS)
    pattern = point_set(rng, period, rng.randint(0, MAX_COMPONENTS))
    if domain is TimeDomain.FULL_LINE or rng.random() < 0.3:
        return Signal(domain, period, pattern)
    transient = random_fraction(rng, Fraction(1, 3), 2)
    prefix = point_set(rng, transient, rng.randint(0, MAX_COMPONENTS))
    return Signal(domain, period, pattern, transient, prefix)


def random_formula(rng: random.Random) -> Formula:
    """A random AST over ATOMS with modal depth at most MODAL_DEPTH."""

    def leaf() -> Formula:
        r = rng.random()
        if r < 0.7:
            return Atom(rng.choice(ATOMS))
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
            return Count(rng.randint(1, MAX_RUN), go(mb - 1, sz - 1))
        if op == "pnueli":
            n = rng.randint(1, MAX_RUN)
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

    return go(MODAL_DEPTH, FORMULA_SIZE)


@dataclass(frozen=True)
class Trial:
    formula: Formula
    bindings: Tuple[Tuple[str, Signal], ...]
    domain: TimeDomain


def trial_battery(pool_seed: int, count: int) -> List[Trial]:
    """A fixed battery of random trials, alternating domains."""
    rng = random.Random(pool_seed)
    out = []
    for i in range(count):
        domain = DOMAINS[i % 2]
        formula = random_formula(rng)
        bindings = tuple((name, random_signal(rng, domain)) for name in ATOMS)
        out.append(Trial(formula, bindings, domain))
    return out
