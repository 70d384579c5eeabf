import re
import time

import numpy as np
import pytest

from virtualspin.cli import main
from test_gates import ALL_NOT_FAMILY


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
        assert [t.pair for t in sched.groups[0]] == pairs
        assert sched.parameters["gammaHrf"] == pytest.approx(1e-3)


def test_compile_is_deterministic(capsys):
    _, out1, _ = run(capsys, "compile", "CCNOT:QR->S")
    _, out2, _ = run(capsys, "compile", "CCNOT:QR->S")
    assert out1 == out2


def test_compile_rejects_bad_gate(capsys):
    code, _, err = run(capsys, "compile", "TOFFOLI:QR->S")
    assert code == 2
    assert "KIND" in err  # grammar hint present


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
    code, out, _ = run(capsys, "verify", "CCNOT:QR->S", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "gate,verdict,max_deviation"
    code, out, _ = run(capsys, "verify", "CCNOT:QR->S", "--format", "st")
    assert code == 0
    assert 'verdict: "equal-up-to-i"' in out


def test_sweep_forbidden_pair(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--pair", "5,7", "--points", "8",
                       "--out", str(path))
    assert code == 0
    slope = float(out.split("slope=")[1])
    assert 0.85 <= slope <= 1.15
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omegaQ_over_omega0,pair,element,slope_window"
    assert len(lines) == 9
    assert all(line.split(",")[1] == "5-7" for line in lines[1:])


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


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "config.yml"
    config.write_text("omegaq: 0.02\n")
    code, _, err = run(capsys, "spectrum", "--config", str(config))
    assert code == 2
    assert "unknown config keys" in err


def test_argparse_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--format", "json"])
    assert exc.value.code == 2


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
])
def test_malformed_schedule_values_exit_2(capsys, tmp_path, pattern, replacement):
    path = tmp_path / "sched.st"
    run(capsys, "compile", "CCNOT:QR->S", "--out", str(path))
    path.write_text(re.sub(pattern, replacement, path.read_text(), count=1))
    assert_input_error(*run(capsys, "verify", "--schedule", str(path)))
    assert_input_error(*run(capsys, "simulate", str(path)))


@pytest.mark.parametrize("line", ["omegaQ: abc", "theta: [1]", "gammaHrf: .inf"])
def test_malformed_config_values_exit_2(capsys, tmp_path, line):
    config = tmp_path / "config.yml"
    config.write_text(line + "\n")
    assert_input_error(*run(capsys, "compile", "NOT:S", "--config", str(config)))


@pytest.mark.parametrize("argv", [
    ("spectrum", "--omegaQ", "nan"),
    ("spectrum", "--omega0", "inf"),
    ("compile", "NOT:S", "--phi", "inf"),
    ("compile", "NOT:S", "--gammaHrf", "inf"),
    ("verify", "NOT:S", "--theta", "nan"),
])
def test_non_finite_flags_exit_2(capsys, argv):
    assert_input_error(*run(capsys, *argv))


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
