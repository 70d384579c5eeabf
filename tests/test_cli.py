import ast
import csv
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from virtualspin import (SpinSystem, dynamics, exact_spectrum, parse_schedule,
                         perturbative_spectrum, simulate_schedule, transition_table)
from virtualspin.cli import main
from test_gates import ALL_NOT_FAMILY


SRC = str(Path(__file__).resolve().parents[1] / "src")
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_theta_zero_has_seven_allowed_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--theta", "0")
    assert code == 0
    assert out.count("  allowed") == 7
    assert out.count("weak/forbidden") == 21


def test_spectrum_csv_shape_and_determinism(capsys):
    code, out1, _ = run(capsys, "spectrum", "--format", "csv")
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[0] == "upper,lower,omega_over_omega0,ix_element,flag"
    assert len(lines) == 29
    _, out2, _ = run(capsys, "spectrum", "--format", "csv")
    assert out1 == out2


def test_spectrum_omega_67_is_088(capsys):
    for method in ("pert", "exact"):
        code, out, _ = run(capsys, "spectrum", "--theta", "0", "--method", method,
                           "--format", "csv")
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("6,7,")][0]
        omega = float(row.split(",")[2])
        assert abs(omega - 0.88) < 1e-12


def test_spectrum_methods_agree_to_second_order(capsys):
    values = {}
    for method in ("pert", "exact"):
        _, out, _ = run(capsys, "spectrum", "--method", method, "--format", "csv")
        values[method] = np.array([float(l.split(",")[2])
                                   for l in out.strip().splitlines()[1:]])
    # default omegaQ/omega0 = 0.01: agreement to O(ratio^2); the constant is
    # a sum of second-order shifts over the 28 level differences
    assert np.abs(values["pert"] - values["exact"]).max() < 200 * 0.01 ** 2
    assert np.abs(values["pert"] - values["exact"]).max() > 1e-6


def test_spectrum_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "spectrum", "--omega0", "-1")
    assert code == 2
    assert "omega0" in err


def test_compile_examples(capsys, tmp_path):
    cases = {
        "CCNOT:QR->S": [(6, 7)],
        "NOT:S": [(0, 1), (2, 3), (4, 5), (6, 7)],
        "CNOT:S->Q": [(1, 5), (3, 7)],
    }
    for gate, pairs in cases.items():
        path = tmp_path / "sched.st"
        code, _, _ = run(capsys, "compile", gate, "--out", str(path))
        assert code == 0
        from virtualspin import parse_schedule
        sched = parse_schedule(path.read_text())
        assert [(t.upper, t.lower) for t in sched.groups[0]] == pairs
        assert sched.parameters["gammaHrf"] == pytest.approx(1e-3)


def test_compile_is_deterministic(capsys):
    _, out1, _ = run(capsys, "compile", "CCNOT:QR->S")
    _, out2, _ = run(capsys, "compile", "CCNOT:QR->S")
    assert out1 == out2


@pytest.mark.parametrize("gate", ["TOFFOLI:QR->S", "FOO:S", "CCNOT:QR->S(1,2)", "CCUT:QR->S",
                                  "CNOT:QR->S", "CNOT:S->S", "CNOT:RR->S", "UT:S(a,1)"])
def test_compile_rejects_bad_gate(capsys, gate):
    code, out, err = run(capsys, "compile", gate)
    assert_input_error(code, out, err)
    assert "expected KIND:CONTROLS->TARGET" in err  # grammar hint present


def test_verify_all_gates_exit_zero(capsys):
    for gate in ALL_NOT_FAMILY:
        code, out, _ = run(capsys, "verify", gate)
        assert code == 0
        assert "equal-up-to-i" in out
    code, out, _ = run(capsys, "verify", "CCUT:QR->S(1.2,0.4)")
    assert code == 0
    assert "exact" in out


def test_verify_round_trip_and_corruption(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    code, _, _ = run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--schedule", str(path))
    assert code == 0

    # corrupt the rotation angle: still a valid file, wrong physics
    corrupted = tmp_path / "corrupt.st"
    corrupted.write_text(path.read_text().replace(
        "angle_rad: 3.141592653589793", "angle_rad: 1.5707963267948966"))
    code, out, _ = run(capsys, "verify", "--schedule", str(corrupted))
    assert code == 1
    assert "mismatch" in out

    # unparseable file is an input error, not a mismatch
    garbage = tmp_path / "garbage.st"
    garbage.write_text("gate: [unclosed\n")
    code, _, err = run(capsys, "verify", "--schedule", str(garbage))
    assert code == 2


def test_verify_needs_gate_or_schedule(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "gate" in err.lower()


def test_verify_machine_formats(capsys):
    assert run(capsys, "verify", "CCNOT:QR->S", "--format", "csv") == (
        0, "gate,verdict,max_deviation\nCCNOT:QR->S,equal-up-to-i,1.1102230246251565e-16\n", "")
    assert run(capsys, "verify", "CCNOT:QR->S", "--format", "st") == (
        0, 'gate: "CCNOT:QR->S"\nverdict: "equal-up-to-i"\n'
           "max_deviation: 1.1102230246251565e-16\n", "")


@pytest.mark.parametrize("gate, factors, expected", [
    ("CCNOT:QR->S", "1, i", 0),
    ("NOT:S;NOT:S", "-1", 1),
    ("CCNOT:QR->S;CCNOT:QR->S", "-1, 1", 1),
    ("UT:S(1.2,0.4)", None, 0),   # an exact match prints no factors
])
def test_verify_table_lists_phase_factors_unless_exact(capsys, gate, factors, expected):
    code, out, err = run(capsys, "verify", gate)
    assert (code, err) == (expected, "")
    printed = [line for line in out.splitlines() if line.startswith("phase factors")]
    assert printed == ([] if factors is None else [f"phase factors on target support: {factors}"])
    # the machine listings carry no such line
    for fmt in ("csv", "st"):
        code, out, _ = run(capsys, "verify", gate, "--format", fmt)
        assert code == expected and "phase factors" not in out


def test_sweep_forbidden_pair(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--pair", "5,7", "--points", "8",
                       "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    slope = float(text.split("slope=")[1])
    assert 0.85 <= slope <= 1.15
    lines = text.strip().splitlines()
    assert lines[0] == "omegaQ_over_omega0,pair,element,slope_window"
    assert len(lines) == 10 and lines[-1].startswith("# fitted_slope: pair=5-7 ")
    assert all(line.split(",")[1] == "5-7" for line in lines[1:-1])


def test_sweep_out_file_holds_what_stdout_gets(capsys, tmp_path):
    # the fitted-slope line goes with the rows, not to stdout alone
    path = tmp_path / "sweep.csv"
    code, printed, err = run(capsys, "sweep", "--pair", "4,6", "--points", "5")
    assert (code, err) == (0, "")
    assert run(capsys, "sweep", "--pair", "4,6", "--points", "5", "--out", str(path)) == (
        0, "", "")
    assert path.read_text() == printed
    assert printed.splitlines()[-1].startswith("# fitted_slope: pair=4-6 slope=")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_reads_neither_omega0_nor_omegaQ(capsys, tmp_path):
    # the sweep sets omegaQ/omega0 itself, so an omega0 that would overflow omegaQ/omega0 is unread
    plain, tiny = tmp_path / "plain.yml", tmp_path / "tiny.yml"
    plain.write_text("theta: 0.5\n")
    tiny.write_text("theta: 0.5\nomega0: 1.0e-320\n")
    argv = ("sweep", "--pair", "5,7", "--points", "3", "--config")
    code, out, err = run(capsys, *argv, str(tiny))
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv, str(plain))
    # the config file's keys are still checked
    tiny.write_text("omega0: 1.0e-320\nomegaq: 0.02\n")
    assert_input_error(*run(capsys, *argv, str(tiny)))


def test_sweep_allowed_pair_flat(capsys):
    code, out, _ = run(capsys, "sweep", "--pair", "6-7", "--points", "6")
    assert code == 0
    slope = float(out.split("slope=")[1])
    assert abs(slope) < 0.05


def test_sweep_theta_zero_degenerate(capsys):
    code, _, err = run(capsys, "sweep", "--pair", "5,7", "--theta", "0")
    assert code == 2
    assert "degenerate" in err


def test_sweep_bad_pair(capsys):
    code, _, err = run(capsys, "sweep", "--pair", "57")
    assert code == 2
    code, out, err = run(capsys, "sweep", "--pair", "a,b")
    assert_input_error(code, out, err)
    assert "cannot parse level pair 'a,b'" in err


@pytest.mark.parametrize("flags, named", [
    (("--max", "inf"), "--max"),
    (("--min", "0"), "--min"),
    (("--min", "0.02"), "--max"),
    (("--points", "1000000000"), "--points"),
    (("--points", "100001"), "--points"),
    (("--points", "1"), "--points"),
], ids=["max-inf", "min-zero", "min-over-max", "points-1e9", "points-over-bound", "points-1"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_rejects_its_own_flags_before_any_work(capsys, monkeypatch, flags, named):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")
    monkeypatch.setattr(np, "logspace", no_sweep)
    code, out, err = run(capsys, "sweep", "--pair", "5,7", *flags)
    assert_input_error(code, out, err)
    assert named in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_rejects_a_range_too_narrow_to_fit(capsys, monkeypatch):
    # bounds 1e-13 apart: the elements differ only by rounding (a slope of 6.59 was printed)
    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was computed")
    monkeypatch.setattr(dynamics, "exact_spectrum", no_spectrum)
    code, out, err = run(capsys, "sweep", "--pair", "5,7", "--points", "3",
                         "--min", "1e-4", "--max", "1.0000000000001e-4")
    assert_input_error(code, out, err)
    assert "ln(max/min)" in err


def test_simulate_round_trip(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--omegaQ", "0.05", "--theta", "0.5",
        "--out", str(path))
    code, out, err = run(capsys, "simulate", str(path), "--gammaHrf", "5e-3")
    assert code == 0
    assert "|6> -> |7>" in out
    probability = float(out.split("|6> -> |7>   P = ")[1].split()[0])
    assert probability > 0.95
    assert "warning" not in err


def test_simulate_edited_not_family_schedule_reports_transfer(capsys, tmp_path):
    # a parseable CCNOT schedule whose tone no longer flips: verify grades it a
    # mismatch, and simulate still reports each input's most likely ideal output
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    path.write_text(path.read_text().replace("angle_rad: 3.141592653589793", "angle_rad: 1.0"))
    assert run(capsys, "verify", "--schedule", str(path))[0] == 1
    code, out, _ = run(capsys, "simulate", str(path), "--omegaQ", "0.05", "--theta", "0.5",
                       "--gammaHrf", "5e-3")
    assert code == 0
    assert "|6> -> |6>" in out and "|7> -> |7>" in out


def test_simulate_rejects_unknown_schedule_parameters(capsys, tmp_path):
    # a misspelled omegaQ used to run at the default omegaQ and exit 0
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--omegaQ", "0.05", "--theta", "0.5",
        "--out", str(path))
    path.write_text(path.read_text().replace("  omegaQ: ", "  omegaq: "))
    code, out, err = run(capsys, "simulate", str(path), "--gammaHrf", "5e-3")
    assert_input_error(code, out, err)
    assert "omegaq" in err
    # verify replays the tones and does not read the parameters
    assert run(capsys, "verify", "--schedule", str(path))[0] == 0


def test_simulate_strong_drive_warns_but_succeeds(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--omegaQ", "0.05", "--theta", "0.5",
        "--out", str(path))
    code, _, err = run(capsys, "simulate", str(path), "--gammaHrf", "0.1")
    assert code == 0
    assert "strong drive" in err


def test_simulate_under_resolved_exits_3(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    code, _, err = run(capsys, "simulate", str(path), "--steps", "10")
    assert code == 3
    assert "under-resolve" in err


def test_simulate_over_slice_budget_exits_3_at_once(capsys, tmp_path):
    # NOT:Q at the defaults plays four tones for about 1.9e9 slices
    path = tmp_path / "not_q.st"
    run(capsys, "compile", "NOT:Q", "--out", str(path))
    start = time.perf_counter()
    code, _, err = run(capsys, "simulate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert re.search(r"1\.9\de\+09 time slices", err)


def test_single_tone_over_slice_budget_names_only_the_steps(capsys, tmp_path):
    # one period of the single-tone CCNOT:QR->S at 1e8 steps needs about 1e9
    # slices; a shorter pulse or a stronger drive slices the same one period
    path = tmp_path / "toffoli.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    code, _, err = run(capsys, "simulate", str(path), "--steps", "100000000")
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith("error: ") and "time slices" in line
    assert "steps_per_shortest_period" in line
    assert "pulse" not in line and "gammaHrf" not in line


def test_simulate_csv_format(capsys, tmp_path):
    path = tmp_path / "cut.st"
    run(capsys, "compile", "CCUT:QR->S(0.5,0.1)", "--omegaQ", "0.05",
        "--theta", "0.5", "--out", str(path))
    code, out, _ = run(capsys, "simulate", str(path), "--gammaHrf", "5e-3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[3] == "input,ideal_output,probability"
    assert len(lines) == 12


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "config.yml"
    config.write_text("theta: 0.0\nomegaQ: 0.02\n")
    _, out, _ = run(capsys, "spectrum", "--config", str(config), "--format", "csv")
    row = [l for l in out.splitlines() if l.startswith("6,7,")][0]
    assert abs(float(row.split(",")[2]) - 0.76) < 1e-12  # 1 - 12*0.02
    # flags win over the config file
    _, out, _ = run(capsys, "spectrum", "--config", str(config),
                    "--omegaQ", "0.01", "--format", "csv")
    row = [l for l in out.splitlines() if l.startswith("6,7,")][0]
    assert abs(float(row.split(",")[2]) - 0.88) < 1e-12


def test_simulate_takes_flags_over_schedule_over_config_over_defaults(capsys, tmp_path):
    def simulate(schedule, *argv):
        code, out, err = run(capsys, "simulate", str(schedule), "--gammaHrf", "5e-3", *argv)
        assert code == 0, err
        return out

    compiled = {}
    for omega_q in ("0.05", "0.02"):
        compiled[omega_q] = tmp_path / f"ccnot_{omega_q}.st"
        run(capsys, "compile", "CCNOT:QR->S", "--omegaQ", omega_q, "--theta", "0.5",
            "--out", str(compiled[omega_q]))
    config = tmp_path / "config.yml"
    config.write_text("omegaQ: 0.02\ntheta: 0.3\nformat: csv\nq2_form: sin-squared\n")
    at_schedule = simulate(compiled["0.05"], "--format", "csv")
    # the config file gives the format, which the schedule does not hold, and
    # loses omegaQ, theta and the (default, so unwritten) q2_form to the schedule
    assert simulate(compiled["0.05"], "--config", str(config)) == at_schedule
    # a flag beats the schedule: tones are re-resolved at --omegaQ 0.02
    flagged = simulate(compiled["0.05"], "--config", str(config), "--omegaQ", "0.02")
    assert flagged == simulate(compiled["0.02"], "--format", "csv") != at_schedule
    # with no flag and no config file, the default table format
    assert simulate(compiled["0.05"]).startswith("schedule:       CCNOT:QR->S\n")


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "config.yml"
    config.write_text("omegaq: 0.02\n")
    code, _, err = run(capsys, "spectrum", "--config", str(config))
    assert code == 2
    assert "unknown config keys" in err


def test_argparse_usage_error_exits_2(capsys):
    code, out, err = run(capsys, "spectrum", "--format", "json")
    assert_input_error(code, out, err)
    assert "virtualspin spectrum: argument --format: invalid choice: 'json'" in err
    code, out, err = run(capsys, "compile")
    assert_input_error(code, out, err)
    assert "virtualspin compile: the following arguments are required: gate" in err


@pytest.mark.parametrize("argv, named", [
    (("verify", "NOT:S", "--form", "csv"), "--form"),
    (("sweep", "--pair", "5,7", "--the", "0.5", "--po", "3"), "--the --po"),
    (("compile", "NOT:S", "--gamma", "2e-3"), "--gamma"),
    (("spectrum", "--meth", "pert"), "--meth"),
])
def test_flags_take_only_their_full_names(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert err.endswith(f"unrecognized arguments: {named}\n")
    assert run(capsys, "verify", "NOT:S", "--format=csv")[0] == 0


def test_unread_flag_before_the_positional_is_named_alone(capsys):
    # `pert` is taken as the gate and NOT:S left over; the message names only --method
    code, out, err = run(capsys, "compile", "--method", "pert", "NOT:S")
    assert_input_error(code, out, err)
    assert err == "error: virtualspin compile: unrecognized arguments: --method\n"
    # with no flag left over, the leftover positional is named
    code, out, err = run(capsys, "compile", "NOT:S", "NOT:R")
    assert_input_error(code, out, err)
    assert err == "error: virtualspin compile: unrecognized arguments: NOT:R\n"


def assert_input_error(code, out, err):
    # exit 2 with one "error:" line, never a traceback
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("pattern, replacement", [
    (r"upper: 6", 'upper: "x"'),
    (r"omega: .*", "omega: [1]"),
    (r"duration: .*", 'duration: "long"'),
    (r"omegaQ: .*", 'omegaQ: "abc"'),
    (r"upper: 6", "upper: .inf"),
    (r"upper: 6", "upper: 6.9"),
    (r"upper: 6", "upper: 6.0"),
    (r"upper: 6", 'upper: "6"'),
    pytest.param(r"omegaQ: .*", "omegaQ: 1" + "0" * 400, id="omegaQ-huge-int"),
    (r"spectrum_method: .*", "spectrum_method: [1"),
    pytest.param(r"  phi: .*", '  phi: 0.0\n  q2_form: "bogus"', id="q2_form-bogus"),
    (r"omega: .*", "omega: .inf"),
    (r"duration: .*", "duration: .nan"),
])
def test_malformed_schedule_values_exit_2(capsys, tmp_path, pattern, replacement):
    path = tmp_path / "sched.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    path.write_text(re.sub(pattern, replacement, path.read_text(), count=1))
    assert_input_error(*run(capsys, "verify", "--schedule", str(path)))
    assert_input_error(*run(capsys, "simulate", str(path)))


@pytest.mark.parametrize("line", ["omegaQ: abc", "theta: [1]", "gammaHrf: .inf",
                                  pytest.param("omegaQ: 1" + "0" * 400, id="omegaQ-huge-int"),
                                  "omegaQ: [1", "q2_form: foo"])
def test_malformed_config_values_exit_2(capsys, tmp_path, line):
    config = tmp_path / "config.yml"
    config.write_text(line + "\n")
    assert_input_error(*run(capsys, "compile", "NOT:S", "--config", str(config)))
    assert_input_error(*run(capsys, "verify", "NOT:S", "--config", str(config)))


@pytest.mark.parametrize("argv", [
    ("spectrum", "--omegaQ", "nan"),
    ("spectrum", "--omega0", "inf"),
    ("compile", "NOT:S", "--phi", "inf"),
    ("compile", "NOT:S", "--gammaHrf", "inf"),
    ("sweep", "--pair", "5,7", "--theta", "nan"),
])
def test_non_finite_flags_exit_2(capsys, argv):
    assert_input_error(*run(capsys, *argv))


OVERFLOWING = [
    ("spectrum", "--omegaQ", "1e200"),
    ("spectrum", "--omegaQ", "1e200", "--method", "pert"),
    ("compile", "NOT:S", "--omegaQ", "1e300"),
    ("compile", "NOT:S", "--omega0", "1e-320", "--omegaQ", "1e-30"),
    ("compile", "NOT:S", "--omegaQ", "1.7e308", "--theta", "0"),
    ("compile", "UT:R(1e308,0)"),           # a pulse length beyond floating point
]


@pytest.mark.parametrize("argv", OVERFLOWING)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_inputs_exit_2(capsys, argv):
    assert_input_error(*run(capsys, *argv))


def test_overflowing_inputs_print_only_the_error_line():
    # pytest captures warnings in-process, so a child prints every RuntimeWarning instead
    script = ("import contextlib, io\n"
              "from virtualspin.cli import main\n"
              f"for argv in {OVERFLOWING!r}:\n"
              "    err = io.StringIO()\n"
              "    with contextlib.redirect_stderr(err):\n"
              "        code = main(list(argv))\n"
              "    print(repr((code, err.getvalue())))\n")
    child = subprocess.run([sys.executable, "-W", "always::RuntimeWarning", "-c", script],
                           capture_output=True, text=True, env=SRC_ENV, check=True)
    results = [ast.literal_eval(line) for line in child.stdout.splitlines()]
    assert len(results) == len(OVERFLOWING) and child.stderr == ""
    for argv, (code, err) in zip(OVERFLOWING, results):
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def test_cli_imports_neither_yaml_nor_scipy():
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, virtualspin.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=SRC_ENV, check=True).stdout.split()
    assert "virtualspin.cli" in loaded
    assert not {"yaml", "scipy"} & set(loaded)


@pytest.mark.parametrize("argv, text, line", [
    (("spectrum", "--config", "{path}"), "omegaQ: 0.02\ntheta: 0.0\nomegaQ: 0.05\n", 3),
    (("verify", "--schedule", "{path}"), None, 17),
    (("simulate", "{path}"), None, 17),
])
def test_repeated_keys_exit_2_naming_the_line(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.st"
    if text is None:   # a compiled schedule that plays its duration twice
        run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
        text = re.sub(r"(    duration: .*\n)", r"\1\1", path.read_text())
    path.write_text(text)
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert_input_error(code, out, err)
    assert f"line {line}: repeated key" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--schedule", "{path}"),
    ("simulate", "{path}"),
    ("compile", "NOT:S", "--config", "{path}"),
])
def test_non_utf8_files_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "input.st"
    path.write_bytes(b"\xff\xfeupper: 6\n")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert_input_error(code, out, err)
    assert str(path) in err and "UTF-8" in err


BOM = "\ufeff"


@pytest.mark.parametrize("argv, text", [
    (("verify", "--schedule", "{path}"), None),
    (("verify", "--schedule", "{path}", "--format", "st"), None),
    (("simulate", "{path}", "--format", "csv"), None),
    (("spectrum", "--config", "{path}"), "theta: 0.0\nomegaQ: 0.02\n"),
    (("compile", "NOT:S", "--config", "{path}"), "gammaHrf: 0.002  # a comment\n"),
])
def test_a_leading_byte_order_mark_is_read_past(capsys, tmp_path, argv, text):
    plain, marked = tmp_path / "plain.st", tmp_path / "marked.st"
    if text is None:
        run(capsys, "compile", "CCNOT:QR->S", "--out", str(plain))
        text = plain.read_text()
    plain.write_text(text, encoding="utf-8")
    marked.write_text(BOM + text, encoding="utf-8")
    results = [run(capsys, *(arg.format(path=path) for arg in argv)) for path in (plain, marked)]
    assert results[0][0] == 0 and results[1] == results[0]


@pytest.mark.parametrize("argv", [
    ("verify", "--schedule", "{path}"),
    ("spectrum", "--config", "{path}"),
])
@pytest.mark.parametrize("text, line", [
    (BOM + BOM + "theta: 0.0\n", 1),
    ("theta: 0.0\n" + BOM + "omegaQ: 0.02\n", 2),
    ("theta: 0.0\nomegaQ: 0.02" + BOM + "\n", 2),
])
def test_a_byte_order_mark_past_the_first_is_rejected(capsys, tmp_path, argv, text, line):
    path = tmp_path / "input.st"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert_input_error(code, out, err)
    assert f"line {line}: tab or other unprintable character" in err


# --- the structured-text and csv listings ---------------------------------------

def test_spectrum_st_listing_is_the_transition_table(capsys):
    yaml = pytest.importorskip("yaml")
    for method, spectrum in (("exact", exact_spectrum), ("pert", perturbative_spectrum)):
        code, out, _ = run(capsys, "spectrum", "--format", "st", "--method", method)
        assert code == 0
        doc = yaml.safe_load(out)
        rows = transition_table(spectrum(SpinSystem(omegaQ=0.01, theta=np.pi / 5)))
        assert doc["method"] == method and len(doc["transitions"]) == len(rows) == 28
        for listed, row in zip(doc["transitions"], rows):
            assert (listed["upper"], listed["lower"], listed["flag"]) == (row.upper, row.lower,
                                                                        row.flag)
            assert float(listed["omega_over_omega0"]) == row.omega
            assert float(listed["ix_element"]) == row.ix_element


def test_simulate_machine_formats_are_simulate_schedule(capsys, tmp_path):
    yaml = pytest.importorskip("yaml")
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--omegaQ", "0.05", "--theta", "0.5",
        "--out", str(path))
    result = simulate_schedule(SpinSystem(omegaQ=0.05, theta=0.5),
                               parse_schedule(path.read_text()), 5e-3)
    _, st_out, _ = run(capsys, "simulate", str(path), "--gammaHrf", "5e-3", "--format", "st")
    doc = yaml.safe_load(st_out)
    assert (doc["gate"], doc["deviation"]) == ("CCNOT:QR->S", result.deviation)
    assert {r["input"]: (r["ideal_output"], r["probability"])
            for r in doc["transfer"]} == result.transfer
    _, csv_out, _ = run(capsys, "simulate", str(path), "--gammaHrf", "5e-3", "--format", "csv")
    lines = csv_out.splitlines()
    assert lines[:2] == ["# gate: CCNOT:QR->S", f"# deviation: {result.deviation!r}"]
    assert lines[3] == "input,ideal_output,probability"
    assert {int(i): (int(o), float(p)) for i, o, p in
            (line.split(",") for line in lines[4:])} == result.transfer


# --- inputs no other test reaches -------------------------------------------------

def test_unreadable_config_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "spectrum", "--config", str(tmp_path / "missing.yml"))
    assert_input_error(code, out, err)
    assert "cannot read config file" in err


def test_sin_squared_schedule_replays_its_q2_form(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--q2-form", "sin-squared", "--omegaQ", "0.05",
        "--theta", "0.5", "--out", str(path))
    assert '  q2_form: "sin-squared"\n' in path.read_text()
    plain = run(capsys, "simulate", str(path), "--format", "csv")
    assert plain[0] == 0
    assert plain == run(capsys, "simulate", str(path), "--format", "csv",
                        "--q2-form", "sin-squared")
    # a default-form schedule keeps its bytes: no q2_form key
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    assert "q2_form" not in path.read_text()


def test_huge_phi_names_phi(capsys):
    code, out, err = run(capsys, "spectrum", "--phi", "1e308")
    assert_input_error(code, out, err)
    assert "phi" in err and "omegaQ" not in err
    assert run(capsys, "spectrum", "--phi", "8e307")[0] == 0


def test_pulse_too_long_to_place_in_floating_point_exits_3(capsys, tmp_path):
    # a 3.9e19-long pulse: neighbouring doubles are 8192 apart, about 1000 drive periods
    path = tmp_path / "long.st"
    assert run(capsys, "compile", "CCUT:QR->S(1e17,0)", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "simulate", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "floating-point" in err


# --- each command takes only the parameter flags it reads --------------------------

COMMAND_FLAGS = {
    "spectrum": ("--omega0", "--omegaQ", "--theta", "--phi", "--q2-form", "--method", "--format"),
    "compile": ("--omega0", "--omegaQ", "--theta", "--phi", "--q2-form", "--gammaHrf"),
    "verify": ("--format",),
    "sweep": ("--theta", "--phi", "--q2-form"),
    "simulate": ("--omega0", "--omegaQ", "--theta", "--phi", "--q2-form", "--gammaHrf",
                 "--format"),
}
FLAG_VALUES = {"--omega0": "2.0", "--omegaQ": "0.02", "--theta": "0.5", "--phi": "0.3",
               "--q2-form": "sin-squared", "--method": "pert", "--gammaHrf": "2e-3",
               "--format": "csv"}
OWN_FLAGS = {"verify": ("--schedule",), "sweep": ("--pair", "--points", "--min", "--max"),
             "simulate": ("--steps",)}


@pytest.fixture(scope="module")
def command_args(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "ccnot.st"
    assert main(["compile", "CCNOT:QR->S", "--out", str(path)]) == 0
    return {"spectrum": [], "compile": ["NOT:S"], "verify": ["NOT:S"],
            "sweep": ["--pair", "5,7", "--points", "3"], "simulate": [str(path)]}


@pytest.mark.parametrize("command, flag", [(command, flag) for command in COMMAND_FLAGS
                                           for flag in FLAG_VALUES])
def test_each_command_takes_only_the_flags_it_reads(capsys, command_args, command, flag):
    code, out, err = run(capsys, command, *command_args[command], flag, FLAG_VALUES[flag])
    if flag in COMMAND_FLAGS[command]:
        assert code == 0 and "error" not in err, err
    else:
        assert_input_error(code, out, err)
        assert f"virtualspin {command}: unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_help_lists_exactly_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[A-Za-z0-9-]+", capsys.readouterr().out))
    assert listed == {*COMMAND_FLAGS[command], *OWN_FLAGS.get(command, ()),
                      "--help", "--out", "--config"}


def test_csv_cells_with_commas_read_back_whole(capsys):
    code, out, _ = run(capsys, "verify", "CCUT:QR->S(2.5,-0.7)", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith('"CCUT:QR->S(2.5,-0.7)",exact,')
    header, row = csv.reader(io.StringIO(out))
    assert header == ["gate", "verdict", "max_deviation"]
    assert row[:2] == ["CCUT:QR->S(2.5,-0.7)", "exact"] and len(row) == 3


def test_exponent_only_floats_read_back_as_yaml_floats(capsys):
    yaml = pytest.importorskip("yaml")
    code, out, _ = run(capsys, "compile", "CCUT:QR->S(1e-05,0)")
    assert code == 0 and "    angle_rad: 1.0e-05\n" in out
    tone = yaml.safe_load(out)["groups"][0][0]
    assert type(tone["angle_rad"]) is float and tone["angle_rad"] == 1e-05
    assert parse_schedule(out).groups[0][0].angle == 1e-05


def test_unreadable_schedule_file_exits_2_naming_it(capsys, tmp_path):
    missing = str(tmp_path / "missing.st")
    for argv in (("verify", "--schedule", missing), ("simulate", missing)):
        code, out, err = run(capsys, *argv)
        assert_input_error(code, out, err)
        assert err.startswith(f"error: cannot read schedule file {missing}: ")


@pytest.mark.parametrize("line, message", [
    ("omegaQ: inf", "omegaQ must be a number, got 'inf'"),      # a string to YAML 1.1
    ("theta: nan", "theta must be a number, got 'nan'"),
    pytest.param("omegaQ: 1" + "0" * 400, "omegaQ: int too large to convert to float",
                 id="omegaQ-huge-int"),
])
def test_config_numbers_follow_the_schedule_number_rule(capsys, tmp_path, line, message):
    config = tmp_path / "config.yml"
    config.write_text(line + "\n")
    code, out, err = run(capsys, "spectrum", "--config", str(config))
    assert_input_error(code, out, err)
    assert err == f"error: {message}\n"
    # an exponent word is a number, in a config file as in a schedule
    config.write_text("omegaQ: 2e-2\n")
    assert run(capsys, "spectrum", "--config", str(config)) == run(capsys, "spectrum",
                                                                   "--omegaQ", "0.02")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, named", [
    (("spectrum", "--omega0", "1e-320", "--omegaQ", "1"), "omegaQ/omega0 = 1.0/1e-320"),
    (("compile", "NOT:S", "--omega0", "1e-320", "--omegaQ", "0", "--gammaHrf", "1"),
     "gammaHrf/omega0 = 1.0/1e-320"),
])
def test_overflowing_normalization_names_omega0(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert err == f"error: {named} overflows floating point\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, named", [
    (("compile", "NOT:S", "--omega0", "1e10", "--gammaHrf", "1e-320"),
     "gammaHrf/omega0 = 1e-320/10000000000.0"),
    (("spectrum", "--omega0", "1e10", "--omegaQ", "1e-320"), "omegaQ/omega0 = 1e-320/10000000000.0"),
])
def test_underflowing_normalization_names_both_values(capsys, argv, named):
    # the quotient rounds to 0.0, a value the user never gave
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert err == f"error: {named} underflows to 0\n"


def test_simulate_overflowing_normalization_exits_2_before_any_warning(capsys, tmp_path):
    path = tmp_path / "ccnot.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    code, out, err = run(capsys, "simulate", str(path), "--omega0", "1e-320")
    assert_input_error(code, out, err)
    assert "/omega0 = " in err
    # verify divides by nothing, so the same omega0 in a config file does not stop it
    config = tmp_path / "config.yml"
    config.write_text("omega0: 1.0e-320\n")
    assert run(capsys, "verify", "NOT:S", "--config", str(config))[0] == 0


@pytest.mark.parametrize("gate, y_tones", [("CCNOT:QR->S", -1), ("CNOT:R->S", 1)])
def test_simulate_plays_y_coil_tones(capsys, tmp_path, gate, y_tones):
    # every tone (count -1) or one tone of the compiled schedule moved to the Y coil
    theta = np.pi / 6
    path = tmp_path / "y.st"
    run(capsys, "compile", gate, "--omegaQ", "0.05", "--theta", repr(theta), "--out", str(path))
    text = path.read_text().replace('axis: "X"', 'axis: "Y"', y_tones)
    path.write_text(text)
    sched = parse_schedule(text)
    axes = [tone.axis for group in sched.groups for tone in group]
    assert "Y" in axes and (y_tones == -1 or "X" in axes)
    code, out, _ = run(capsys, "simulate", str(path), "--format", "csv")
    assert code == 0
    result = simulate_schedule(SpinSystem(omegaQ=0.05, theta=theta), sched, 1e-3)
    lines = out.splitlines()
    assert lines[1] == f"# deviation: {result.deviation!r}"
    assert {int(i): (int(o), float(p)) for i, o, p in
            (line.split(",") for line in lines[4:])} == result.transfer
