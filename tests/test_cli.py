"""CLI checks: every subcommand, exit codes, round-trips, determinism."""

import hashlib
import random
import time
from fractions import Fraction as F

import pytest

import qtlab.cli
from qtlab.cli import main
from qtlab.formulas import MAX_NESTING, format_formula, parse_formula
from qtlab.intervals import Interval, IntervalSet
from qtlab.lab import builtin_model
from qtlab.semantics import Env, evaluate
from qtlab.signals import (
    MAX_UNROLL,
    Signal,
    TimeDomain,
    combine,
    equal,
    format_signal,
    parse_signal,
    parse_ticks,
    tick_unit,
    to_ticks,
)
from gen import random_formula, random_signal
from test_signals import _render_text_reference


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



# the two formulas of the fine-grid oracle CI step, then one whose truth is
# not constant on its model; sha256 of the full oracle-check output at 300
# samples and seed 0
ORACLE_CHECK_DIGESTS = {
    ("O1 Pn1(Pn2(true | P, P & false)) | C2(O1 C3(F1 P))", "mk:3"):
        "6fb27d561424c83e3250888d856140a38da54f2700c2fb9469069642ea2a3e36",
    ("O1 Pn1(Pn2(true | P, P & false)) | C2(O1 C3(F1 P))", "thm2"):
        "e8e276cf9504580403a1dd5348167fe60d8194ae5a2edd00b55408db4402a4b8",
    ("O1 Pn1(Pn2(true | P, P & false)) | C2(O1 C3(F1 P))", "thm3:5"):
        "e8e276cf9504580403a1dd5348167fe60d8194ae5a2edd00b55408db4402a4b8",
    ("O1 Pn1(Pn2(true | P, P & false)) | C2(O1 C3(F1 P))", "mk:7"):
        "6fb27d561424c83e3250888d856140a38da54f2700c2fb9469069642ea2a3e36",
    ("(!P U O1 P) S (P S !P) | O1 (true S (true U (P & !P)))", "mk:3"):
        "29970edb528fc9e83137198e6628b06d628115645862c8c9b26909e13a71e55c",
    ("(!P U O1 P) S (P S !P) | O1 (true S (true U (P & !P)))", "thm2"):
        "93a70043f668173c9f32339b549fe8c4c7c60065c8ebb1e0b46ece04f3018c9d",
    ("(!P U O1 P) S (P S !P) | O1 (true S (true U (P & !P)))", "thm3:5"):
        "93a70043f668173c9f32339b549fe8c4c7c60065c8ebb1e0b46ece04f3018c9d",
    ("(!P U O1 P) S (P S !P) | O1 (true S (true U (P & !P)))", "mk:7"):
        "29970edb528fc9e83137198e6628b06d628115645862c8c9b26909e13a71e55c",
    ("C2(P) U P", "thm2"):
        "127b92c72689ca04fd616096a33e3b4c1f69f1e0fefbbabbec00387d58e2f98d",
}


@pytest.mark.parametrize("formula, model, cells", [
    ("C2(P) U P", "thm2", 16),
    ("C2(P) U P", "thm3:5", 40),
    ("O1 Pn2(P, !P) | C2(O1 C3(F1 P))", "thm3:5", 76),
    ("O1 Pn2(P, !P) | C2(O1 C3(F1 P))", "mk:3", 2),
])
def test_oracle_check_on_every_cell(formula, model, cells, capsys):
    """--cells prints the cell count and agrees on every cell and on the
    fold item, the same output each run."""
    argv = ["oracle-check", "--cells", "--formula", formula, "--model", model]
    assert invoke(argv) == 0
    out = capsys.readouterr().out
    assert out == f"cells {cells}\nagreement {cells + 1}/{cells + 1}\n"
    assert invoke(argv) == 0
    assert capsys.readouterr().out == out


def test_oracle_check_on_every_cell_exits_one_on_a_disagreement(monkeypatch, capsys):
    """An engine signal that is wrong on every cell gets one line per cell
    and exit 1; its endpoints still fold like the grid."""
    evaluate_ticks = qtlab.cli.evaluate_ticks
    monkeypatch.setattr(qtlab.cli, "evaluate_ticks", lambda env, *fs: [
        combine("not", sig) for sig in evaluate_ticks(env, *fs)])
    assert invoke(["oracle-check", "--cells", "--formula", "C2(P) U P", "--model", "thm2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cells 16" and lines[-1] == "agreement 1/17"
    assert len(lines) == 18 and all(line.startswith("cell ") for line in lines[1:-1])


def test_oracle_check_on_samples_exits_one_on_a_disagreement(monkeypatch, capsys):
    """The sampled comparison reads the same engine call as the one on every
    cell: a wrong engine disagrees at every sample point, and exits 1."""
    evaluate_ticks = qtlab.cli.evaluate_ticks
    monkeypatch.setattr(qtlab.cli, "evaluate_ticks", lambda env, *fs: [
        combine("not", sig) for sig in evaluate_ticks(env, *fs)])
    assert invoke(["oracle-check", "--samples", "20", "--formula", "C2(P) U P",
                   "--model", "thm2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "agreement 0/20" and len(lines) == 21


@pytest.mark.parametrize("formula, model", list(ORACLE_CHECK_DIGESTS))
def test_oracle_check_output_golden(formula, model, capsys):
    """The agreement report stays byte-stable: its sample points, their
    order and their formatting, and both answers at each."""
    argv = ["oracle-check", "--formula", formula, "--model", model, "--samples", "300"]
    assert invoke(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("agreement 300/300\n")
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_CHECK_DIGESTS[formula, model]

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
    ["oracle-check", "--formula", "P", "--model", "mk:2",
     "--samples", "5", "--cells"],                            # sample or every cell
])
def test_usage_errors_exit_two(argv, capsys):
    assert invoke(argv) == 2
    capsys.readouterr()


def test_sample_counts_past_the_limit_exit_two(monkeypatch, capsys):
    """--samples above MAX_UNROLL is a usage error that names the limit,
    raised before any check runs."""
    def ran(*args, **kwargs):
        raise AssertionError("the check ran")

    monkeypatch.setattr(qtlab.cli, "evaluate_ticks", ran)
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


# each command that takes a model, with the rest of a command line that
# succeeds on mk:2; enumerate also takes --report
MODEL_COMMANDS = {
    "eval": ["--formula", "P"],
    "equiv": ["--formula", "P", "--formula", "!!P"],
    "trivial": ["--formula", "P"],
    "enumerate": ["--logic", "tl", "--depth", "0"],
    "oracle-check": ["--formula", "P"],
}


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_each_model_taking_command_names_every_spec_form(command, capsys):
    assert invoke([command, "--help"]) == 0
    out = capsys.readouterr().out
    for form in ("mk:<k>", "thm2", "thm3:<n>", "alt:<k>", "--bind NAME=PATH"):
        assert form in out, (command, form)


@pytest.mark.parametrize("command", MODEL_COMMANDS)
def test_bad_models_exit_two_on_every_command(command, tmp_path, capsys):
    """A bind that is not NAME=PATH, a file rebinding the model's P, no
    atoms at all and alt:0 are refused with exit 2, an error line and
    nothing on stdout."""
    p = tmp_path / "p.sig"
    p.write_text(format_signal(builtin_model("mk:2").signal("P")), encoding="utf-8")
    argv = [command, *MODEL_COMMANDS[command]]
    if command == "enumerate":
        argv += ["--report", str(tmp_path / "report.txt")]
    assert invoke(argv + ["--model", "mk:2"]) == 0
    capsys.readouterr()
    for bad in (["--model", "mk:2", "--bind", "nopath"], ["--model", "mk:2", "--bind", f"P={p}"],
                [], ["--model", "alt:0"]):
        assert invoke(argv + bad) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), bad


@pytest.mark.parametrize("spec", ["mk:3", "thm2"])
def test_a_model_read_from_a_file_prints_what_its_spec_prints(spec, tmp_path, capsys):
    """enumerate, trivial and oracle-check --cells on a file holding the
    model's P print the same bytes, the report included, and exit with the
    same code as on the model's spec."""
    path = tmp_path / "p.sig"
    path.write_text(format_signal(builtin_model(spec).signal("P")), encoding="utf-8")
    report = tmp_path / "report.txt"
    runs = (["enumerate", "--logic", "qtl", "--depth", "2", "--report", str(report)],
            ["trivial", "--formula", "C2(P)", "--eventually"],
            ["oracle-check", "--cells", "--formula", "C2(P) U P"])
    outputs = []
    for model in (["--model", spec], ["--bind", f"P={path}"]):
        got = []
        for argv in runs:
            got.append((invoke(argv + model), capsys.readouterr().out))
        outputs.append((got, report.read_text(encoding="utf-8")))
    assert all(code == 0 and out for code, out in outputs[0][0])
    assert outputs[0] == outputs[1]


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
    def broken(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(qtlab.cli, "evaluate_ticks", broken)
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
    for bad in (["eval", "--formula", "P", "--bind", "nopath"],    # LabError: not NAME=PATH
                ["eval", "--formula", "P"],                        # LabError: no atoms
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


# ------------------------------------------------ eval reads and writes in ticks

Q_7_11 = "domain line\nperiod 5/7\npattern (1/11,1/7],[2/7,4/11),[6/11,6/11]\n"


@pytest.mark.parametrize("formula", ["P U Q", "Pn2(P, Q)", "F1 P & !Q", "Q S P", "C2(P | Q)"])
def test_eval_in_ticks_prints_what_evaluate_prints_where_the_units_differ(formula, tmp_path,
                                                                          capsys):
    """mk:3's P has the tick unit 6 and Q's file 154: eval brings both to
    462, as evaluate does, and prints the same bytes in either layout."""
    path = tmp_path / "q.sig"
    path.write_text(Q_7_11, encoding="utf-8")
    env = Env(TimeDomain.FULL_LINE, {"P": builtin_model("mk:3").signal("P"),
                                     "Q": parse_signal(Q_7_11)})
    assert parse_ticks(Q_7_11).unit == 154 and tick_unit(env.bindings.values()) == 462
    want = evaluate(parse_formula(formula), env)
    argv = ["eval", "--formula", formula, "--model", "mk:3", "--bind", f"Q={path}"]
    assert invoke(argv + ["--output", "sig"]) == 0
    assert capsys.readouterr().out == format_signal(want)
    assert invoke(argv) == 0
    assert capsys.readouterr().out == _render_text_reference(want)


@pytest.mark.parametrize("text, message", [
    ("domain line\nperiod -1/2\npattern {}\n", "period must be positive, got -1/2"),
    ("domain halfline\nperiod 1\npattern {}\ntransient -1/3\nprefix {}\n",
     "transient must be nonnegative, got -1/3"),
    ("domain line\nperiod 3\npattern [0,1];[2,3]\n",
     "line 3: pattern: at position 5: expected ','"),
    ("domain line\nperiod 1\npattern [0,1/2],[1/2,1]\n", "pattern escapes [0, period)"),
])
def test_a_bad_bound_file_exits_two_used_or_not(text, message, tmp_path, capsys):
    """Every bound file is read and checked, by eval and by equiv, the one the
    formulas leave out too, and refused with its public numbers."""
    good, bad = tmp_path / "good.sig", tmp_path / "bad.sig"
    good.write_text("domain line\nperiod 1\npattern [0,0]\n", encoding="utf-8")
    bad.write_text(text, encoding="utf-8")
    binds = ["--bind", f"P={good}", "--bind", f"Q={bad}"]
    for formula in ("P", "Q", "P & Q"):
        for argv in (["eval", "--formula", formula], ["equiv", "--formula", formula,
                                                      "--formula", "P"]):
            assert invoke(argv + binds) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {bad}: {message}\n"


# ------------------------------------------------ equiv reads and compares in ticks

def _equiv_runs(tmp_path):
    """Seeded equiv runs on bound files, each with the formulas' pair, its
    environment in public signals as parse_signal reads the files, and its
    argv.  P, Q and R are drawn with ends over different denominators, so
    their tick units differ; every third file set takes P from a model
    instead (mk:3 on the line, thm2 on the half line).  The second formula
    is the first doubly negated, the first with R added and taken away, the
    first with the origin added (equal tails on the half line), or a fresh
    one."""
    rng = random.Random(4242)
    for k in range(44):
        domain = (TimeDomain.FULL_LINE, TimeDomain.HALF_LINE)[k % 2]
        model = ("mk:3", "thm2")[k % 2] if k % 3 == 0 else None
        bindings, argv = {}, ["equiv"]
        if model:
            bindings["P"] = builtin_model(model).signal("P")
            argv += ["--model", model]
        for name in "PQR":
            if name in bindings:
                continue
            text = format_signal(random_signal(rng, domain, 3, rng.choice((3, 5, 7, 12))))
            path = tmp_path / f"{k}-{name}.sig"
            path.write_text(text, encoding="utf-8")
            bindings[name] = parse_signal(text)
            argv += ["--bind", f"{name}={path}"]
        env = Env(domain, bindings)
        fa = format_formula(random_formula(rng, 2, ("P", "Q", "R"), 6))
        for fb in (f"!!({fa})", f"{fa} | (R & !R)", f"{fa} | !(true S true)",
                   format_formula(random_formula(rng, 2, ("P", "Q", "R"), 6))):
            yield parse_formula(fa), parse_formula(fb), env, argv + ["--formula", fa,
                                                                     "--formula", fb]


def test_equiv_in_ticks_answers_what_evaluate_answers(tmp_path, capsys):
    """equiv on bound files, with and without --eventually, gives the answer
    and the exit code of equal over evaluate on the files read with
    parse_signal, in 352 runs on both domains."""
    answers, units_differ, runs = set(), 0, 0
    for fa, fb, env, argv in _equiv_runs(tmp_path):
        a, b = evaluate(fa, env), evaluate(fb, env)
        units = {tick_unit([env.bindings[name]]) for name in env.bindings}
        units_differ += len(units) > 1
        for eventually in (False, True):
            want = equal(a, b, eventually=eventually)
            assert invoke(argv + ["--eventually"] * eventually) == 1 - want, argv
            assert capsys.readouterr().out == ("equivalent\n" if want else "inequivalent\n")
            answers.add((eventually, want, equal(a, b) == want))
            runs += 1
    assert runs == 352 and units_differ == runs // 2  # in every pair, some units differ
    # each answer comes up, and --eventually changes some of them
    assert {(e, w) for e, w, _ in answers} == {(e, w) for e in (False, True) for w in (0, 1)}
    assert (True, True, False) in answers


# Each written out of canonical form: on the line at twice its minimal period,
# on the half line with a longer transient than it needs.
ONCE_FILES = {
    ("line", "P"): "domain line\nperiod 4/3\npattern [0,1/3],[2/3,1]\n",
    ("line", "Q"): "domain line\nperiod 4/5\npattern (1/5,2/5),(3/5,4/5)\n",
    ("halfline", "P"): "domain halfline\nperiod 2/3\npattern [0,1/3]\ntransient 2/3\n"
                       "prefix [0,1/3]\n",
    ("halfline", "Q"): "domain halfline\nperiod 2/5\npattern (0,1/5]\ntransient 4/5\n"
                       "prefix [0,1/5],(2/5,3/5]\n",
}


def test_each_atom_is_canonicalized_once_per_command(tmp_path, monkeypatch, capsys):
    """eval, equiv and trivial canonicalize each atom, as parse_ticks reads
    it or as the model gives it, exactly once, however many of their
    formulas use it.  An atom is followed by identity through its scaling
    to the command's unit by to_ticks, at either scale.  The files are out of
    canonical form and the models are on the line, so no canonical form is
    the atom object itself."""
    paths = {}
    for (domain, name), text in ONCE_FILES.items():
        assert parse_ticks(text).canonicalize() != parse_ticks(text), (domain, name)
        paths[domain, name] = tmp_path / f"{domain}-{name}.sig"
        paths[domain, name].write_text(text, encoding="utf-8")
    runs = []  # argv, exit code, atoms read
    for domain in ("line", "halfline"):
        p, q = (["--bind", f"{name}={paths[domain, name]}"] for name in "PQ")
        runs += [(["eval", "--formula", "P U Q", *p, *q], 0, 2),
                 (["equiv", "--formula", "P U Q", "--formula", "!(!(P U Q))", *p, *q], 0, 2),
                 (["equiv", "--formula", "P", "--formula", "!P", *p], 1, 1)]
    q = ["--bind", f"Q={paths['line', 'Q']}"]
    runs += [(["eval", "--formula", "Pn2(P, Q)", "--model", "mk:3", *q], 0, 2),
             (["equiv", "--formula", "P & Q", "--formula", "Q & !!P", "--model", "mk:3", *q], 0, 2),
             (["equiv", "--formula", "F1 P", "--formula", "C1(P)", "--model", "mk:3"], 0, 1),
             (["trivial", "--formula", "C2(P)", "--model", "mk:3"], 0, 1),
             (["trivial", "--formula", "P", "--model", "mk:4"], 0, 1)]

    given, seen, scaled = [], [], {}

    def read(text):
        given.append(out := parse_ticks(text))
        return out

    def scale(s, unit):
        if s.unit == 1:  # a model's atom; a file's came through read
            given.append(s)
        scaled.setdefault(id(s), []).append(out := to_ticks(s, unit))
        return out

    monkeypatch.setattr(qtlab.lab, "parse_ticks", read)
    monkeypatch.setattr(qtlab.semantics, "to_ticks", scale)
    canonicalize = Signal.canonicalize
    monkeypatch.setattr(Signal, "canonicalize", lambda s: seen.append(s) or canonicalize(s))
    for argv, code, atoms in runs:
        for record in (given, seen, scaled):
            record.clear()
        assert invoke(argv) == code, argv
        capsys.readouterr()
        assert len(given) == atoms, argv
        for atom in given:
            copies = scaled.get(id(atom), [])
            assert sum(x is c for c in copies for x in seen) == 1, (argv, atom)
