"""CLI checks: every subcommand, exit codes, round-trips, determinism."""

import random
import time
from fractions import Fraction as F

import pytest

import qtlab.cli
from qtlab.cli import main
from qtlab.formulas import MAX_NESTING
from qtlab.intervals import Interval, IntervalSet
from qtlab.signals import MAX_UNROLL, Signal, TimeDomain, equal, format_signal, parse_signal


def invoke(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_eval_sig_output_round_trips(capsys):
    code = invoke(["eval", "--formula", "C2(P)", "--model", "thm2", "--output", "sig"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("domain halfline\n"
                   "period 2/3\n"
                   "pattern (1/3,2/3)\n"
                   "transient 0\n"
                   "prefix {}\n")
    sig = parse_signal(out)
    assert format_signal(sig) == out


def test_eval_text_output(capsys):
    code = invoke(["eval", "--formula", "C2(P)", "--model", "thm2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == ("domain halfline\n"
                   "prefix {} before 0\n"
                   "tail (1/3,2/3) period 2/3 from 0\n")
    code = invoke(["eval", "--formula", "!P", "--model", "mk:2", "--output", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "domain line\npattern (0,1/2) period 1/2\n"


def test_eval_with_bound_signal_file(tmp_path, capsys):
    q = Signal(TimeDomain.FULL_LINE, F(1),
               IntervalSet([Interval(F(0), F(1, 2), True, False)]))
    path = tmp_path / "q.sig"
    path.write_text(format_signal(q), encoding="utf-8")
    code = invoke(["eval", "--formula", "P U Q", "--model", "mk:2",
                   "--bind", f"Q={path}", "--output", "sig"])
    out = capsys.readouterr().out
    assert code == 0
    got = parse_signal(out)
    # P isolated: the until needs an open run of P, so it never holds
    assert equal(got, Signal.constant(TimeDomain.FULL_LINE, False))


def test_equiv_exit_codes(capsys):
    assert invoke(["equiv", "--formula", "F1 P", "--formula", "C1(P)",
                   "--model", "mk:3"]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert invoke(["equiv", "--formula", "P", "--formula", "!P",
                   "--model", "mk:3"]) == 1
    assert capsys.readouterr().out == "inequivalent\n"


def test_equiv_eventually_flag(capsys):
    argv = ["equiv", "--formula", "O1 P", "--formula", "true", "--model", "thm2"]
    assert invoke(argv) == 1
    capsys.readouterr()
    assert invoke(argv + ["--eventually"]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equiv_needs_two_formulas(capsys):
    assert invoke(["equiv", "--formula", "P", "--model", "mk:2"]) == 2
    capsys.readouterr()


def test_trivial_prints_classification(capsys):
    assert invoke(["trivial", "--formula", "F1 false", "--model", "mk:3"]) == 0
    assert capsys.readouterr().out == "False\n"
    assert invoke(["trivial", "--formula", "C2(P)", "--model", "thm2",
                   "--eventually"]) == 0
    assert capsys.readouterr().out == "None\n"


def test_enumerate_writes_report(tmp_path, capsys):
    path = tmp_path / "report.txt"
    argv = ["enumerate", "--logic", "tl", "--depth", "0", "--model", "mk:3",
            "--report", str(path)]
    assert invoke(argv) == 0
    out = capsys.readouterr().out
    text = path.read_text(encoding="utf-8")
    assert out == "total 4 trivial 4 nontrivial 0 truncated 0\n"
    assert text.endswith(out)
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0].count("\t") == 2
    # byte-identical on repetition
    assert invoke(argv) == 0
    capsys.readouterr()
    assert path.read_text(encoding="utf-8") == text


def test_paper_subcommand(capsys):
    assert invoke(["paper", "--check", "counting:2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check counting:2\n")
    assert out.rstrip().endswith("PASS")


def test_oracle_check_subcommand(capsys):
    argv = ["oracle-check", "--formula", "C2(P) U P", "--model", "thm2",
            "--samples", "60", "--seed", "3"]
    assert invoke(argv) == 0
    out = capsys.readouterr().out
    footer = out.rstrip().splitlines()[-1]
    k, n = footer.split()[1].split("/")
    assert footer.startswith("agreement ")
    assert k == n and int(n) >= 60
    assert invoke(argv) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [
    ["eval", "--formula", "P U", "--model", "mk:2"],          # formula syntax
    ["eval", "--formula", "P", "--model", "mk:0"],            # bad model index
    ["eval", "--formula", "Q", "--model", "mk:2"],            # unbound atom
    ["eval", "--formula", "P"],                               # nothing bound
    ["trivial", "--formula", "P", "--model", "nope"],         # unknown model
    ["enumerate", "--logic", "ql", "--depth", "1",
     "--model", "mk:2", "--report", "/tmp/x"],                # unknown logic
    ["paper", "--check", "counting:1"],                       # parameter bounds
    ["oracle-check", "--formula", "P", "--model", "mk:2",
     "--samples", "0"],                                       # nothing to compare
    ["oracle-check", "--formula", "P", "--model", "mk:2",
     "--samples", "-3"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert invoke(argv) == 2
    capsys.readouterr()


def test_sample_counts_past_the_limit_exit_two(monkeypatch, capsys):
    """--samples above MAX_UNROLL is a usage error that names the limit,
    raised before any check runs."""
    def ran(*args, **kwargs):
        raise AssertionError("the check ran")

    monkeypatch.setattr(qtlab.cli, "agreement_check", ran)
    assert invoke(["oracle-check", "--formula", "P", "--model", "mk:2",
                   "--samples", str(MAX_UNROLL + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"at most {MAX_UNROLL}" in captured.err


def test_bind_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.sig"
    bad.write_text("domain line\nperiod 0\npattern {}\n", encoding="utf-8")
    assert invoke(["eval", "--formula", "Q", "--bind", f"Q={bad}"]) == 2
    capsys.readouterr()
    assert invoke(["eval", "--formula", "P", "--model", "mk:2",
                   "--bind", "nopath"]) == 2
    capsys.readouterr()
    assert invoke(["eval", "--formula", "P", "--model", "mk:2",
                   "--bind", f"Q={tmp_path/'missing.sig'}"]) == 2
    capsys.readouterr()
    # domain clash between model and bound file
    half = Signal(TimeDomain.HALF_LINE, F(1), IntervalSet.EMPTY)
    p = tmp_path / "half.sig"
    p.write_text(format_signal(half), encoding="utf-8")
    assert invoke(["eval", "--formula", "P & Q", "--model", "mk:2",
                   "--bind", f"Q={p}"]) == 2
    capsys.readouterr()
    # rebinding the model's P
    assert invoke(["eval", "--formula", "P", "--model", "mk:2",
                   "--bind", f"P={p}"]) == 2
    capsys.readouterr()


def test_non_utf8_signal_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bytes.sig"
    bad.write_bytes(b"\xff\xfe\x00")
    assert invoke(["eval", "--formula", "P", "--bind", f"P={bad}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and str(bad) in captured.err


def test_signal_file_errors_name_the_file_line_and_key(tmp_path, capsys):
    bad = tmp_path / "bad.sig"
    bad.write_text("domain line\nperiod 3\npattern [0,1];[2,3]\n", encoding="utf-8")
    assert invoke(["eval", "--formula", "P", "--bind", f"P={bad}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 3: pattern: at position 5: expected ','\n"


def test_numbers_past_the_digit_limit_exit_two(tmp_path, capsys):
    """int() refuses more than 4300 digits with a plain ValueError; a number
    that long is a format error, not a crash."""
    big = tmp_path / "big.sig"
    big.write_text(f"domain line\nperiod 3\npattern [0,1{'1' * 4999}]\n", encoding="utf-8")
    assert invoke(["eval", "--formula", "P", "--bind", f"P={big}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {big}: line 3: pattern: at position 0: ")


NINES = "9" * 5000


@pytest.mark.parametrize("argv, what", [
    (["paper", "--check", f"counting:{NINES}"], "counting index"),
    (["eval", "--formula", "P", "--model", f"mk:{NINES}"], "mk index"),
    (["enumerate", "--logic", f"qtl+p{NINES}", "--depth", "1", "--model", "mk:2",
      "--report", "{report}"], "run-modality cap"),
    (["eval", "--formula", f"C{NINES}(P)", "--model", "mk:2"], "C<n> index"),
    (["enumerate", "--logic", f"qtl+c{NINES}+p2", "--depth", "1", "--model", "mk:2",
      "--report", "{report}"], "counting cap"),
])
def test_indices_past_the_digit_limit_exit_two(argv, what, tmp_path, capsys):
    """An index in a model, logic, check or formula name is read with int()
    too, so one past its digit limit is a usage error that names it."""
    report = tmp_path / "out.tsv"
    assert invoke([a.format(report=report) for a in argv]) == 2
    assert not report.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"{what} of 5000 digits is too long to read" in captured.err


def test_nesting_past_the_limit_exits_two(capsys):
    deep = "!" * 3000 + "P"
    assert invoke(["equiv", "--formula", deep, "--formula", "P", "--model", "mk:2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nesting deeper than" in captured.err


def test_nesting_at_the_limit_evaluates(capsys):
    at_limit = "!" * MAX_NESTING + "P"  # an even count of negations
    assert MAX_NESTING % 2 == 0
    assert invoke(["equiv", "--formula", at_limit, "--formula", "P", "--model", "mk:2"]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    chain = " | ".join(["F1 P"] * MAX_NESTING)
    assert invoke(["equiv", "--formula", chain, "--formula", "true", "--model", "mk:2"]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_internal_errors_exit_three_with_a_traceback(monkeypatch, capsys):
    def broken(formula, env):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(qtlab.cli, "evaluate", broken)
    assert invoke(["equiv", "--formula", "P", "--formula", "P", "--model", "mk:2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: engine fault" in captured.err


@pytest.mark.parametrize("formula,p_text,q_text", [
    ("P U Q",
     "domain halfline\nperiod 2/1000000\npattern [0,0]\ntransient 1\nprefix (0,1/2]\n",
     "domain halfline\nperiod 1\npattern (1/4,1/2)\ntransient 0\nprefix {}\n"),
    ("C2(P) & !Q",
     "domain halfline\nperiod 2/3\npattern [0,0]\ntransient 1\nprefix (0,1/2]\n",
     "domain halfline\nperiod 1\npattern (1/4,1/2)\ntransient 100000\nprefix {}\n"),
])
def test_runaway_sizes_exit_two(tmp_path, capsys, formula, p_text, q_text):
    """A period or a transient that would unroll hundreds of thousands of
    components ends in a clean error, not a minute-long run."""
    (tmp_path / "p.sig").write_text(p_text, encoding="utf-8")
    (tmp_path / "q.sig").write_text(q_text, encoding="utf-8")
    start = time.perf_counter()
    code = invoke(["eval", "--formula", formula, "--bind", f"P={tmp_path / 'p.sig'}",
                   "--bind", f"Q={tmp_path / 'q.sig'}"])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "past the limit" in err


def test_oversized_enumeration_exits_two(tmp_path, capsys):
    start = time.perf_counter()
    code = invoke(["enumerate", "--logic", "qtl+p8", "--depth", "1", "--model", "thm3:9",
                   "--report", str(tmp_path / "out.tsv")])
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "past the limit" in err
    assert not (tmp_path / "out.tsv").exists()


def test_wide_run_family_guard_prints_a_short_count(tmp_path, capsys):
    # 1999 run widths, then a billion: the guard draws the widths one at a
    # time and stops summing them once past the limit
    for cap in (2000, 10 ** 9):
        start = time.perf_counter()
        code = invoke(["enumerate", "--logic", f"qtl+p{cap}", "--depth", "1", "--model", "mk:2",
                       "--report", str(tmp_path / "out.tsv")])
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "Traceback" not in captured.err
        assert "past the limit" in captured.err
        assert all(len(line) < 200 for line in captured.err.splitlines())
        assert not (tmp_path / "out.tsv").exists()
    assert "a modal layer would try at least 10001 candidates" in captured.err


FUZZ_SIGNALS = (
    "domain line\nperiod 1\npattern [0,1/2),(2/3,3/4]\n",
    "domain line\nperiod 3/2\npattern [0,0],(1/3,1)\n",
    "domain halfline\nperiod 2/3\npattern [0,0]\ntransient 1\nprefix (0,1/2]\n",
    "domain halfline\nperiod 1\npattern (1/4,1/2)\ntransient 0\nprefix {}\n",
)
FUZZ_FORMULAS = ("P U Q", "C2(P) & !Q", "Pn2(P,Q)", "O1 (P S Q)", "F1 P -> Q", "!(P | F1 Q)")
FUZZ_ALPHABET = "[](),{}/-0123456789 PQ!&|UFSOCn>\n\t#éline half period transient prefix pattern"


def _mutate(rng, text):
    """One to three character edits: delete, insert, replace, or repeat a slice."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(4)
        if kind == 0:
            text = text[:i] + text[i + 1:]
        elif kind == 1:
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(FUZZ_ALPHABET) + text[i + 1:]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:i] + text[min(i, j):max(i, j)] + text[i:]
    return text


def test_fuzzed_inputs_exit_cleanly(tmp_path, capsys):
    """Mangled signal files and formulas end in an answer or a clean error
    (exit 0, 1 or 2), never an internal error (exit 3) or a traceback."""
    rng = random.Random(2024)
    paths = {name: tmp_path / f"{name}.sig" for name in "PQ"}
    codes = set()
    for _ in range(1200):
        files = [rng.choice(FUZZ_SIGNALS) for _ in paths]
        files = [_mutate(rng, t) if rng.random() < 0.3 else t for t in files]
        for path, text in zip(paths.values(), files):
            path.write_text(text, encoding="utf-8")
        texts = [rng.choice(FUZZ_FORMULAS) for _ in range(2)]
        texts = [_mutate(rng, t) if rng.random() < 0.3 else t for t in texts]
        binds = [arg for name, path in paths.items() for arg in ("--bind", f"{name}={path}")]
        if rng.random() < 0.5:
            argv = ["eval", "--formula", texts[0]] + binds
        else:
            argv = ["equiv", "--formula", texts[0], "--formula", texts[1]] + binds
        code = invoke(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, files, err)
        codes.add(code)
    assert codes == {0, 1, 2}


# ------------------------------------------------------- one parser per process

def _bound_files(tmp_path):
    sigs = {"P": Signal(TimeDomain.FULL_LINE, F(1), IntervalSet([Interval(F(0), F(1, 3))])),
            "Q": Signal(TimeDomain.FULL_LINE, F(1, 2),
                        IntervalSet([Interval(F(1, 4), F(1, 2), False, False)]))}
    paths = {}
    for name, sig in sigs.items():
        paths[name] = tmp_path / f"{name}.sig"
        paths[name].write_text(format_signal(sig), encoding="utf-8")
    return sigs, paths


def test_repeated_binds_do_not_leak_between_calls(tmp_path, capsys):
    """--bind appends to a list per call: a second call in the process sees
    only its own bindings, not the first call's."""
    sigs, paths = _bound_files(tmp_path)
    both = ["--bind", f"P={paths['P']}", "--bind", f"Q={paths['Q']}"]
    assert invoke(["eval", "--formula", "P & Q", "--output", "sig"] + both) == 0
    capsys.readouterr()
    # a leaked P=... would bind Q twice here, and bind P below
    assert invoke(["eval", "--formula", "Q", "--output", "sig",
                   "--bind", f"Q={paths['Q']}"]) == 0
    assert capsys.readouterr().out == format_signal(sigs["Q"].canonicalize())
    assert invoke(["eval", "--formula", "P", "--bind", f"Q={paths['Q']}"]) == 2
    assert capsys.readouterr().err == "error: atom 'P' is not bound in the environment\n"
    assert qtlab.cli._build_parser() is qtlab.cli._build_parser()


def test_a_parser_error_leaves_the_next_call_unchanged(tmp_path, capsys):
    _, paths = _bound_files(tmp_path)
    good = ["eval", "--formula", "P U Q", "--bind", f"P={paths['P']}",
            "--bind", f"Q={paths['Q']}", "--output", "sig"]
    assert invoke(good) == 0
    first = capsys.readouterr().out
    for bad in (["eval", "--formula", "P", "--bind", "nopath"],    # parser.error
                ["eval", "--formula", "P"],                        # no atoms bound
                ["eval", "--bind", f"P={paths['P']}"],             # --formula missing
                ["eval", "--formula", "P", "--bind", f"P={paths['P']}", "--output", "csv"]):
        assert invoke(bad) == 2
        assert capsys.readouterr().out == ""
        assert invoke(good) == 0
        assert capsys.readouterr().out == first


def test_output_formats_alternate_without_cross_talk(tmp_path, capsys):
    _, paths = _bound_files(tmp_path)
    base = ["eval", "--formula", "!P S Q", "--bind", f"P={paths['P']}",
            "--bind", f"Q={paths['Q']}"]
    outs = {}
    for fmt in ("sig", "text", "sig", "text", None, "sig"):
        assert invoke(base + (["--output", fmt] if fmt else [])) == 0
        out = capsys.readouterr().out
        assert outs.setdefault(fmt or "text", out) == out
    assert outs["text"].startswith("domain line\npattern ")
    assert format_signal(parse_signal(outs["sig"])) == outs["sig"]
