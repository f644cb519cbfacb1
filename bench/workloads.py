"""The three benchmark workloads.

A workload's ``setup`` builds every input from the seed; ``ops`` lists the
operations of one pass as ``(label, size tag, thunk)``, where the thunk runs
one operation and returns its output text; ``check`` decides, outside the
timed phase, whether one output is correct.  Why each workload and its sizes
were chosen is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import qtlab.cli as cli
import qtlab.formulas as formulas
import qtlab.lab as lab
import qtlab.oracle as oracle
import qtlab.semantics as semantics
import qtlab.signals as signals

import generators
from qtlab.signals import format_signal  # untraced: only labels an output

Op = Tuple[str, object, Callable[[], str]]

# --------------------------------------------------------------------- lab

LAB_CHECKS = ("pnueli",) + tuple(f"counting:{k}" for k in range(2, 7)) \
    + tuple(f"triviality:{k}" for k in range(2, 5))
PNUELI_CLASSES = 64
_ENUMERATED = re.compile(r"enumerated (\d+) .* truncated (\d+)")


class Lab:
    """The paper's headline verdicts; the seed only orders them."""

    name = "lab"

    def __init__(self, seed: int, workdir: Path):
        self.checks = list(LAB_CHECKS)
        random.Random(seed).shuffle(self.checks)

    def ops(self) -> List[Op]:
        return [(name, None, lambda name=name: lab.paper_check(name).render())
                for name in self.checks]

    def check(self, label: str, output: str) -> bool:
        lines = output.splitlines()
        if lines[-1] != "PASS":
            return False
        counts = [m.groups() for m in map(_ENUMERATED.match, lines) if m]
        if any(truncated != "0" for _, truncated in counts):
            return False
        return label != "pnueli" or counts == [(str(PNUELI_CLASSES), "0")]


# -------------------------------------------------------------------- wide

WIDE_N = 64
WIDE_POOL_SEED = 314_159
# Every operator at least once; "P U Q" and "!P S P" keep order-n output
# components on the irregular family, where "F1 P" and "C2(P)" collapse.
WIDE_FORMULAS = ("F1 P", "O1 Q", "C3(P)", "Pn2(P,Q)", "P U Q", "!P S P", "P & !Q")
WIDE_SAMPLES = 12


class Wide:
    """CLI eval of a fixed battery on bound files of irregular signals, at n
    and n/2 components, on the full line and the half line.

    The signals are drawn once from a fixed pool seed; the run seed shifts
    every full-line signal in time within its period, orders the operations
    and draws the points the outputs are checked at.
    """

    name = "wide"

    def __init__(self, seed: int, workdir: Path):
        pool, rng = random.Random(WIDE_POOL_SEED), random.Random(seed)
        self.seed = seed
        self.envs: Dict[Tuple[str, str], semantics.Env] = {}
        self.files: Dict[Tuple[str, str], Dict[str, Path]] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for tag, n in (("n", WIDE_N), ("half", WIDE_N // 2)):
            for domain in generators.DOMAINS:
                key = (tag, domain.value)
                bindings, paths = {}, {}
                for atom in ("P", "Q"):
                    sig = generators.irregular_signal(pool, n, domain)
                    if domain is signals.TimeDomain.FULL_LINE:
                        # by j/1055, so endpoints keep the family's denominators
                        sig = sig.shift(Fraction(rng.randrange(211 * n), 5 * 211))
                    path = workdir / f"{domain.value}-{tag}-{atom}.sig"
                    path.write_text(signals.format_signal(sig), encoding="utf-8")
                    bindings[atom] = signals.parse_signal(path.read_text(encoding="utf-8"))
                    paths[atom] = path
                self.envs[key] = semantics.Env(domain, bindings)
                self.files[key] = paths

    def ops(self) -> List[Op]:
        out = []
        for (tag, domain), paths in self.files.items():
            for text in WIDE_FORMULAS:
                argv = ["eval", "--formula", text, "--bind", f"P={paths['P']}",
                        "--bind", f"Q={paths['Q']}", "--output", "sig"]
                out.append((f"{domain}/{tag}/{text}", tag, lambda argv=argv: _cli(argv)))
        random.Random(self.seed).shuffle(out)
        return out

    def check(self, label: str, output: str) -> bool:
        domain, tag, text = label.split("/", 2)
        sig = signals.parse_signal(output)
        if signals.format_signal(sig) != output:
            return False
        env = self.envs[(tag, domain)]
        points = _spread_points(sig, WIDE_SAMPLES, random.Random(f"{self.seed}/{label}"))
        return oracle.compare_pointwise(formulas.parse_formula(text), env, sig, points).passed


def _cli(argv: List[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qtlab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _spread_points(sig, count: int, rng: random.Random) -> List[Fraction]:
    """Half critical points, half midpoints between them, drawn across the
    whole two-period window rather than from its left end."""
    crit = oracle.critical_points(sig)
    mids = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
    half = count // 2
    return sorted(rng.sample(crit, min(half, len(crit)))
                  + rng.sample(mids, min(count - half, len(mids))))


# ------------------------------------------------------------ differential

DIFF_POOL_SEED = 718_281
DIFF_TRIALS = 150


class Differential:
    """Engine-vs-oracle trials in the style of acceptance criterion 5.

    The formulas and signals come from a fixed battery; the seed shifts every
    full-line trial in time, draws the sample points and orders the trials.
    """

    name = "differential"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.trials = []
        for i, trial in enumerate(generators.trial_battery(DIFF_POOL_SEED, DIFF_TRIALS)):
            bindings = dict(trial.bindings)
            if trial.domain is signals.TimeDomain.FULL_LINE:
                d = generators.random_fraction(rng, -8, 8)
                bindings = {name: sig.shift(d) for name, sig in bindings.items()}
            env = semantics.Env(trial.domain, bindings)
            self.trials.append((f"trial{i}", trial.formula, env, rng.getrandbits(32)))
        rng.shuffle(self.trials)

    def ops(self) -> List[Op]:
        return [(label, None, lambda f=f, env=env, s=s: _differential_trial(f, env, s))
                for label, f, env, s in self.trials]

    def check(self, label: str, output: str) -> bool:
        return output.endswith(" agreed\n")


def _differential_trial(f, env, sample_seed: int) -> str:
    sig = semantics.evaluate(f, env)
    crit = oracle.critical_points(sig)
    points = oracle.sample_points(sig, count=max(50, len(crit)), seed=sample_seed)
    report = oracle.compare_pointwise(f, env, sig, points)
    verdict = "agreed" if report.passed and set(crit) <= set(points) else "DISAGREED"
    return format_signal(sig) + report.render() + f"{len(points)} points {verdict}\n"


WORKLOADS = {w.name: w for w in (Lab, Wide, Differential)}
