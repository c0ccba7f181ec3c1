"""Command-line surface: subcommands, formats, exit codes, CSV output."""

import hashlib
import io
import json
import math
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import jetvar
from jetvar import is_null, render, builtin, sigma, schippers, l2, pre_schwarzian
from jetvar.cli import run_cli

from conftest import child_env


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simplify(capsys):
    code, out, err = run(capsys, "simplify", "q'''/q' - 3/2*(q''/q')^2")
    assert code == 0
    assert out.strip() == "(2*q'*q''' - 3*q''^2)/(2*q'^2)"
    assert err == ""


def test_simplify_reads_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, "simplify", stdin="q'' * 2 / 2",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "q''"


def test_format_latex(capsys):
    code, out, _ = run(capsys, "simplify", "sigma(3)", "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "\\frac{2 \\dot{q} \\dddot{q} - 3 \\ddot{q}^{2}}{2 \\dot{q}^{2}}")


def test_format_json(capsys):
    code, out, _ = run(capsys, "simplify", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "num": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}],
        "den": [{"coeff": {"n": "1", "d": "1"}, "atoms": []}],
    }


def test_dt_order_flag(capsys):
    code, out, _ = run(capsys, "dt", "-k", "2", "q")
    assert code == 0
    assert out.strip() == "q''"
    code, _, err = run(capsys, "dt", "-k", "0", "q")
    assert code == 2
    assert "positive" in err


def test_el_energy_and_order(capsys):
    code, out, _ = run(capsys, "el", "L2()")
    assert code == 0
    assert out.strip() == "(q'^2*q^(4) - 4*q'*q''*q''' + 3*q''^3)/q'^4"
    code, out, _ = run(capsys, "jacobi", "L2()")
    assert code == 0
    assert out.strip() == render(-sigma(3))
    code, out, _ = run(capsys, "order", "sigma(6)")
    assert out.strip() == "6"
    code, out, _ = run(capsys, "order", "t + 1")
    assert out.strip() == "none"


def test_null_check_verdicts(capsys):
    code, out, _ = run(capsys, "null-check", "sigma(4)")
    assert (code, out.strip()) == (0, "null")
    code, out, _ = run(capsys, "null-check", "sigma(5)")
    assert (code, out.strip()) == (1, "not-null")


def test_null_check_agrees_with_library(capsys):
    corpus = ["presch()", "L2()"]
    corpus += [f"sigma({n})" for n in range(3, 7)]
    corpus += [f"schippers({n})" for n in range(3, 7)]
    for src in corpus:
        code, _, _ = run(capsys, "null-check", src)
        from jetvar import parse_expr

        assert code == (0 if is_null(parse_expr(src)) else 1)


def test_gauge(capsys):
    code, out, _ = run(capsys, "gauge", "sigma(4)")
    assert code == 0
    assert out.strip() == render(sigma(3))
    code, _, err = run(capsys, "gauge", "sigma(3)")
    assert code == 3
    assert "vanish" in err
    code, _, err = run(capsys, "gauge", "log(q)*q'")
    assert code == 3
    assert err.strip() == "error: integrand contains log depending on log(q)"
    code, out, err = run(capsys, "gauge", "q'/(q^2 + 1)")
    assert (code, out) == (3, "")
    assert err == "error: denominator has degree > 1 in the integration variable\n"


def test_sl2_report(capsys):
    code, out, _ = run(capsys, "sl2", "sigma(3)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["translation: 0", "scaling: 0", "special: 0", "invariant"]
    code, out, _ = run(capsys, "sl2", "presch()")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[2] == "special: 2*q'"
    assert lines[3] == "not-invariant"


def test_builtin_command(capsys):
    code, out, _ = run(capsys, "builtin", "schippers", "4")
    assert code == 0
    assert out.strip() == render(schippers(4))
    code, out, _ = run(capsys, "builtin", "presch")
    assert out.strip() == render(pre_schwarzian())
    code, _, err = run(capsys, "builtin", "sigma")
    assert code == 3
    assert "order" in err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "sigma(3)", "--at", "q1=1,q2=-1,q3=2")
    assert code == 0
    assert float(out) == pytest.approx(0.5)
    code, out, _ = run(capsys, "eval", "t^2 + a1", "--at", "t=3,a1=0.5")
    assert float(out) == pytest.approx(9.5)
    code, _, err = run(capsys, "eval", "q'", "--at", "q1")
    assert code == 2
    assert "lacks" in err


def test_eval_reads_only_ascii_digits_as_jet_orders(capsys):
    # the parser reads q\u0663 (an Arabic-Indic three) as a parameter, and so
    # must --at
    code, out, _ = run(capsys, "eval", "q\u0663 + q", "--at", "q\u0663=2,q=1")
    assert (code, out.strip()) == (0, "3.0")
    code, out, _ = run(capsys, "eval", "q\u00b2*q'", "--at", "q\u00b2=2,q1=3")
    assert (code, out.strip()) == (0, "6.0")


def test_eval_missing_atom(capsys):
    code, _, err = run(capsys, "eval", "q''", "--at", "q1=1")
    assert code == 3


def test_ode_run_csv(capsys):
    code, out, _ = run(
        capsys, "ode-run", "--lagrangian", "L2()", "--init", "0,1,1,0",
        "--t0", "0", "--t1", "0.01", "--h", "0.002",
        "--monitor", "sigma(3)")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,q0,q1,q2,q3,monitored"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert [float(v) for v in first[:5]] == [0.0, 0.0, 1.0, 1.0, 0.0]
    assert float(first[5]) == pytest.approx(-1.5)
    # every row parses as floats
    for line in lines[1:]:
        [float(v) for v in line.split(",")]


def test_ode_run_without_monitor(capsys):
    code, out, _ = run(
        capsys, "ode-run", "--lagrangian", "q'^2/2 - q^(0)^2/2",
        "--init", "0,1", "--t0", "0", "--t1", "0.5", "--h", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,q0,q1"
    t_end, q_end, _ = lines[-1].split(",")
    assert float(q_end) == pytest.approx(math.sin(float(t_end)), abs=1e-6)


def test_ode_run_singularity_prints_partial_rows(capsys):
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "L2()", "--init", "0,0,1,0",
        "--t0", "0", "--t1", "1", "--h", "0.001")
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == "t,q0,q1,q2,q3"
    assert len(lines) == 2
    assert "singular" in err or "denominator" in err
    # a monitor adds its column to the partial rows too
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "L2()", "--init", "0,0,1,0",
        "--t0", "0", "--t1", "1", "--h", "0.001", "--monitor", "q'")
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == "t,q0,q1,q2,q3,monitored"
    assert [float(v) for v in lines[1].split(",")] == [0.0] * 3 + [1.0] + [0.0] * 2
    assert len(lines) == 2
    assert err.startswith("error: ")
    # the top coefficient of q*q'^2/2 is -q, zero at the initial state
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "q*q'^2/2", "--init", "0,1",
        "--t0", "0", "--t1", "1", "--h", "0.1")
    assert code == 3
    assert out.strip().splitlines() == ["t,q0,q1", "0.0,0.0,1.0"]
    assert err == ("error: top-derivative coefficient within the singular guard"
                   " at step 0 (t = 0.0, value 0.0)\n")


def test_ode_run_bad_init(capsys):
    code, _, err = run(
        capsys, "ode-run", "--lagrangian", "L2()", "--init", "0,1",
        "--t0", "0", "--t1", "1", "--h", "0.1")
    assert code == 2
    assert "order 4" in err
    code, _, err = run(
        capsys, "ode-run", "--lagrangian", "L2()", "--init", "0,1,x,0",
        "--t0", "0", "--t1", "1", "--h", "0.1")
    assert code == 2


@pytest.mark.parametrize("times", [
    ("0", "1", "0"),
    ("0", "1", "-0.1"),
    ("0", "1", "nan"),
    ("1", "0", "0.1"),
    ("0", "inf", "0.1"),
    ("0", "1e300", "1e-300"),
], ids=["zero-step", "negative-step", "nan-step", "empty-interval",
        "infinite-end", "infinite-step-count"])
def test_ode_run_bad_times(capsys, times):
    t0, t1, h = times
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "q'^2/2 - q^(0)^2/2",
        "--init", "0,1", "--t0", t0, "--t1", t1, "--h", h)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_ode_run_null_lagrangian(capsys):
    code, _, err = run(
        capsys, "ode-run", "--lagrangian", "sigma(4)", "--init", "0,1",
        "--t0", "0", "--t1", "1", "--h", "0.1")
    assert code == 3


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "simplify", "q +* 2")
    assert code == 2
    assert "column" in err


def test_computation_error_exit(capsys):
    code, _, err = run(capsys, "simplify", "1/(q - q)")
    assert code == 3


@pytest.mark.parametrize("src, want", [
    ("1/0 )", 3),
    ("1/(q-q) q", 3),
    ("q^(1/0) +", 3),
    ("sigma(9) +", 3),
    ("(q+1)^2 )", 2),
    ("log(0", 2),
    ("1 ? 1/0", 2),
    (") 1/0", 2),
])
def test_errors_come_in_reading_order(capsys, src, want):
    # the text is lexed first, so a bad character wins; after that the
    # first error in reading order decides the exit code, whether it is a
    # computation error (3) or a syntax error (2)
    code, out, err = run(capsys, "simplify", src)
    assert (code, out) == (want, "")
    assert err.startswith("error: ") and "Traceback" not in err


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def test_golden_outputs(capsys, monkeypatch):
    # exit code, stdout and stderr of every subcommand in each format it
    # takes, and of the exit-1, exit-2 and exit-3 paths, recorded from an
    # earlier version of the CLI, except the values that start with "-",
    # which that version rejected as unknown options, and those that start
    # with "-h", which it read as -h with a value.  A stdout past 1000 characters is kept as
    # its SHA-256.  argparse's own exits (stderr starting "usage:") are
    # compared by their last line, less any list of choices, since argparse
    # wraps and words its usage text and choice lists differently across
    # Python versions.
    monkeypatch.setenv("COLUMNS", "80")
    wrong = []
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        code, out, err = run(capsys, *case["argv"], stdin=case.get("stdin"),
                             monkeypatch=monkeypatch)
        if "stdout_sha256" in case:
            out = hashlib.sha256(out.encode()).hexdigest()
            want_out = case["stdout_sha256"]
        else:
            want_out = case["stdout"]
        want_err = case["stderr"]
        if want_err.startswith("usage:"):
            err, want_err = (e.splitlines()[-1].split(" (choose from")[0]
                             for e in (err, want_err))
        elif want_out.startswith("usage:"):  # --help
            out = out.replace("optional arguments:", "options:")
        if (code, out, err) != (case["code"], want_out, want_err):
            wrong.append(case["argv"])
    assert wrong == []


FORMATTED = {"simplify", "dt", "el", "jacobi", "gauge", "sl2", "builtin"}


@pytest.mark.parametrize("argv", [
    ["null-check", "sigma(4)"],
    ["order", "sigma(6)"],
    ["eval", "sigma(3)", "--at", "q1=1,q2=-1,q3=2"],
    ["ode-run", "--lagrangian", "q'^2/2 - q^2/2", "--init", "0,1",
     "--t0", "0", "--t1", "0.2", "--h", "0.1"],
], ids=["null-check", "order", "eval", "ode-run"])
@pytest.mark.parametrize("fmt", ["canonical", "latex", "json"])
def test_format_only_where_an_expression_is_printed(capsys, argv, fmt):
    # these four print no expression, so they take no --format
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"jetvar: error: unrecognized arguments: --format {fmt}")


def test_format_is_in_the_help_of_the_expression_commands(capsys):
    from jetvar.cli import _COMMANDS

    for name in _COMMANDS:
        code, out, _ = run(capsys, name, "--help")
        assert code == 0
        assert ("--format" in out) == (name in FORMATTED), name


@pytest.mark.parametrize("listed", [False, True])
def test_unknown_options_are_values_in_either_argparse_shape(monkeypatch, listed):
    # argparse's option lookup returns a tuple up to Python 3.12.6 and a list
    # of tuples from 3.12.7 on; an unknown option is a value in both shapes
    import argparse

    from jetvar.cli import _SubcommandParser

    lookup = argparse.ArgumentParser._parse_optional
    def lookup_listed(self, arg):
        found = lookup(self, arg)
        return None if found is None else [(*found, None)]

    if listed:
        monkeypatch.setattr(argparse.ArgumentParser, "_parse_optional",
                            lookup_listed)
    p = _SubcommandParser()
    p.add_argument("-k")
    assert p._parse_optional("-t") is None
    assert p._parse_optional("-1,0") is None
    for arg in ("-k", "-k2", "--help", "-h"):
        found = p._parse_optional(arg)
        first = found[0] if listed else found
        assert first[0] is not None, arg


def not_an_atom(name):
    return 2, "", f"error: --at name {name!r} is not a jet, t or a parameter\n"


@pytest.mark.parametrize("src, at, want", [
    # a name in parser spelling is the atom the parser reads
    ("q''", "q=1,q^(2)=3", (0, "3.0\n", "")),
    ("q'", "q'=2,q=1", (0, "2.0\n", "")),
    ("q^(3)*t + a1", "q^(3)=2,t=5,a1=1", (0, "11.0\n", "")),
    # a name that is not one atom, or is a log, is a usage error
    ("q", "q=1,x y=1", not_an_atom("x y")),
    ("q", "q=1,log=1", not_an_atom("log")),
    ("q", "q=1,log(q)=2", not_an_atom("log(q)")),
    ("q", "q=1,1/0=2", not_an_atom("1/0")),
    # and so is an atom assigned twice, in either spelling
    ("q", "q=1,q0=2", (2, "", "error: --at assigns q twice\n")),
    ("q'", "q'=1,q1=2", (2, "", "error: --at assigns q' twice\n")),
    ("q\u0663 + q", "q\u0663=2,q=1,q\u0663=3",
     (2, "", "error: --at assigns q\u0663 twice\n")),
], ids=["q^(2)", "q'", "q^(3)-and-t", "two-words", "log", "log(q)", "1/0",
        "q-twice", "q'-twice", "parameter-twice"])
def test_eval_at_names(capsys, src, at, want):
    assert run(capsys, "eval", src, "--at", at) == want


def test_usage_exits(capsys):
    assert run_cli([]) == 2
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("src", [
    "q" + "+q" * 3000,
    "q" + "*q" * 3000,
    "(" * 1500 + "q" + ")" * 1500,
    "log(" * 400 + "q" + ")" * 400,
], ids=["long-sum", "long-product", "deep-parentheses", "deep-logs"])
def test_long_and_deep_input(capsys, src):
    # a long flat chain is computed; nesting past the parser's depth limit
    # is a parse error, not a RecursionError
    code, _, err = run(capsys, "el", src)
    assert code in (0, 2)
    assert "Traceback" not in err


BIG = "1" + "0" * 4999


@pytest.mark.parametrize("cmd, src, want", [
    ("order", "log(2^20000*q+1)", "0"),
    ("simplify", "2^20000*q", str(Decimal(2 ** 20000)) + "*q"),
    ("simplify", BIG + "*q'", BIG + "*q'"),
], ids=["log-of-a-6021-digit-coefficient", "6021-digit-coefficient",
        "5000-digit-literal"])
def test_integers_past_the_str_digit_limit(capsys, cmd, src, want):
    # str() refuses ints of more than 4300 digits by default
    code, out, err = run(capsys, cmd, src)
    assert (code, out.strip(), err) == (0, want, "")


def test_float_overflow_exit(capsys):
    code, out, err = run(capsys, "eval", "2^2000*q", "--at", "q=1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "float" in err
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "2^2000*q'^2", "--init", "0,1",
        "--t0", "0", "--t1", "1", "--h", "0.1")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "float" in err


def test_non_finite_floats_exit(capsys):
    code, out, err = run(capsys, "eval", "10^300*q^2", "--at", "q=1e10")
    assert (code, out) == (3, "")
    assert err == "error: the value at the evaluation point is inf, not a finite float\n"
    # the rows before the first non-finite state are printed
    code, out, err = run(
        capsys, "ode-run", "--lagrangian", "q'^2/2 - 10^300*q^2/2",
        "--init", "1,0", "--t0", "0", "--t1", "0.3", "--h", "0.1")
    assert code == 3
    assert out.strip().splitlines() == ["t,q0,q1", "0.0,1.0,0.0"]
    assert err == "error: the state is not finite after step 0 (t = 0.1)\n"
    for init in ("nan,0", "0,inf"):
        code, out, err = run(
            capsys, "ode-run", "--lagrangian", "q'^2/2 - q^2/2",
            "--init", init, "--t0", "0", "--t1", "0.3", "--h", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: initial state must be finite\n"


def test_python_dash_m():
    proc = subprocess.run([sys.executable, "-m", "jetvar", "el", "sigma(3)"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == render(
        jetvar.euler_lagrange(jetvar.sigma(3)))
    assert proc.stderr == ""
