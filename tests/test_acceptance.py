"""Acceptance suite: the exit criteria of the build, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion (failures raise, so a completed run means every criterion holds).
"""

import itertools
import time

import numpy as np
import pytest

from virtualspin import (DIM, PulseParams, SpinSystem, Tone, compile_gate,
                         evolve, exact_spectrum, interaction_propagator,
                         forbidden_scaling, parse_gate,
                         perturbative_spectrum, projector, pulse_duration,
                         multi_tone_propagator,
                         rwa_deviation, schedule_propagator, transition_table,
                         truth_table, verify)
from virtualspin.cli import main
from virtualspin.dynamics import DriveSpec, DriveTone

NOT_FAMILY_GATES = (
    ["NOT:Q", "NOT:R", "NOT:S"]
    + [f"CNOT:{c}->{t}" for c, t in itertools.permutations("QRS", 2)]
    + ["CCNOT:QR->S", "CCNOT:QS->R", "CCNOT:RS->Q"])

UT_FAMILY_GATES = (
    ["UT:Q(1.2,0.4)", "UT:R(1.2,0.4)", "UT:S(1.2,0.4)"]
    + [f"CUT:{c}->{t}(1.2,0.4)" for c, t in itertools.permutations("QRS", 2)]
    + ["CCUT:QR->S(1.2,0.4)", "CCUT:QS->R(1.2,0.4)", "CCUT:RS->Q(1.2,0.4)"])

BITS = {"Q": 4, "R": 2, "S": 1}


def test_criterion_1_gate_identity_suite():
    """All compiled gate identities match their targets entrywise < 1e-12."""
    start = time.perf_counter()
    identities = ([(text, "equal-up-to-i") for text in NOT_FAMILY_GATES]
                  + [("UT:S(1.2,0.4)", "exact"),
                     ("CUT:R->S(1.2,0.4)", "exact"),
                     ("CCUT:QR->S(1.2,0.4)", "exact")])
    assert len(identities) == 15
    worst = 0.0
    for text, expected_verdict in identities:
        report = verify(text, schedule_propagator(compile_gate(text)))
        assert report.verdict == expected_verdict, text
        assert report.max_deviation < 1e-12, text
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 15 gate identities verified "
          f"(worst deviation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_truth_tables():
    """Compiled NOT-family gates permute all 8 labels exactly as prescribed."""
    for text in NOT_FAMILY_GATES:
        spec = parse_gate(text)
        control_mask = sum(BITS[c] for c in spec.controls)
        target_bit = BITS[spec.target]
        table = truth_table(spec)
        for label in range(DIM):
            flips = (label & control_mask) == control_mask
            expected = label ^ target_bit if flips else label
            out, amplitude = table[label]
            assert out == expected, (text, label)
            assert abs(abs(amplitude) - 1) < 1e-10
    print("ACCEPTANCE 2 PASS: truth tables of 3 NOT + 6 CNOT + 3 CCNOT "
          "match the bit-flip semantics on all 8 inputs")


def test_criterion_3_spectrum_cross_check():
    """First-order spectrum: error slope 2 +- 0.15; Omega(6,7) = 0.88 at theta=0."""
    ratios = np.logspace(-4, -2, 9)
    errors = []
    for ratio in ratios:
        sys = SpinSystem(omega0=1.0, omegaQ=float(ratio), theta=np.pi / 5)
        errors.append(np.abs(perturbative_spectrum(sys).energies
                             - exact_spectrum(sys).energies).max())
    slope = float(np.polyfit(np.log(ratios), np.log(errors), 1)[0])
    assert abs(slope - 2) < 0.15

    sys0 = SpinSystem(omega0=1.0, omegaQ=0.01, theta=0.0)
    for spectrum in (perturbative_spectrum(sys0), exact_spectrum(sys0)):
        rows = {(r.upper, r.lower): r.omega for r in transition_table(spectrum)}
        assert abs(rows[(6, 7)] - 0.88) < 1e-12
    print(f"ACCEPTANCE 3 PASS: perturbative-vs-exact error slope {slope:.3f} "
          f"(target 2 +- 0.15); Omega(6,7) = 0.88*omega0 to 1e-12")


def test_criterion_4_forbidden_transition_scaling():
    """Pair (5,7) scales first order; pair (3,7) measured (higher order)."""
    sys = SpinSystem(omega0=1.0, omegaQ=0.01, theta=np.pi / 5)
    start = time.perf_counter()
    fit_57 = forbidden_scaling(sys, (5, 7), np.logspace(-4, -2, 20))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert 0.85 <= fit_57.slope <= 1.15
    fit_37 = forbidden_scaling(sys, (3, 7), np.logspace(-4, -2, 20))
    assert fit_37.slope >= 1.0
    print(f"ACCEPTANCE 4 PASS: slope(5,7) = {fit_57.slope:.3f} in [0.85, 1.15] "
          f"({elapsed:.2f}s for 20 points); slope(3,7) = {fit_37.slope:.3f} "
          f"measured (>= 1; opens at higher order than first)")


def test_criterion_5_exact_dynamics_validation():
    """Weak-drive pi pulse transfers > 0.99; RWA deviation falls with drive."""
    start = time.perf_counter()
    sys = SpinSystem(omega0=1.0, omegaQ=0.05, theta=np.pi / 6)
    spectrum = exact_spectrum(sys)
    gamma = 1e-3
    ops = SpinSystem.ops
    element = complex(spectrum.states[:, 6].conj() @ ops.Ix @ spectrum.states[:, 7])
    duration = pulse_duration(np.pi, PulseParams(gammaHrf=gamma), abs(element))
    drive = DriveTone(frequency=float(spectrum.energies[6] - spectrum.energies[7]),
                      amplitude=2 * gamma, phase=float(np.angle(element)))
    u_lab = evolve(sys, DriveSpec(tones=(drive,), duration=duration))
    transfer = abs(spectrum.states[:, 7].conj() @ u_lab @ spectrum.states[:, 6]) ** 2
    assert transfer > 0.99

    u_int = interaction_propagator(spectrum, u_lab, duration)
    tone = Tone(upper=6, lower=7, angle=np.pi)
    deviations = [float(np.abs(u_int - multi_tone_propagator((tone,))).max())]
    for weaker in (10 ** -3.5, 1e-4):
        deviations.append(rwa_deviation(sys, tone, PulseParams(gammaHrf=weaker)))
    assert deviations[0] > deviations[1] > deviations[2] > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 PASS: pi-pulse transfer {transfer:.5f} > 0.99; "
          f"rwa deviation {deviations[0]:.2e} > {deviations[1]:.2e} > "
          f"{deviations[2]:.2e} over one decade of gammaHrf ({elapsed:.1f}s)")


def test_criterion_6_algebra_suites():
    """Projector algebra exact; unitarity, order independence, additivity."""
    mats = [[projector(a, b) for b in range(DIM)] for a in range(DIM)]
    for k, l, m, n in itertools.product(range(DIM), repeat=4):
        expected = mats[k][n] if l == m else 0.0
        assert np.array_equal(mats[k][l] @ mats[m][n],
                              expected if l == m else np.zeros((DIM, DIM)))

    eye = np.eye(DIM)
    for text in NOT_FAMILY_GATES + UT_FAMILY_GATES:
        u = schedule_propagator(compile_gate(text))
        assert np.abs(u.conj().T @ u - eye).max() < 1e-12
    rng = np.random.default_rng(41)
    for _ in range(50):
        upper, lower = rng.choice(DIM, size=2, replace=False)
        u = multi_tone_propagator((Tone(upper=int(upper), lower=int(lower),
                                        angle=float(rng.uniform(-8, 8)),
                                        phase=float(rng.uniform(-np.pi, np.pi)),
                                        axis="X" if rng.random() < 0.5 else "Y"),))
        assert np.abs(u.conj().T @ u - eye).max() < 1e-12

    for _ in range(20):
        labels = rng.permutation(DIM)
        tones = [Tone(upper=int(min(a, b)), lower=int(max(a, b)),
                      angle=float(rng.uniform(0, 2 * np.pi)),
                      phase=float(rng.uniform(-np.pi, np.pi)))
                 for a, b in zip(labels[::2], labels[1::2])]
        forward = multi_tone_propagator(tones)
        backward = multi_tone_propagator(tuple(reversed(tones)))
        assert np.abs(forward - backward).max() < 1e-14

    for _ in range(20):
        a, b = rng.uniform(-4, 4, size=2)
        phase = float(rng.uniform(-np.pi, np.pi))
        one = multi_tone_propagator((Tone(upper=2, lower=5, angle=float(a), phase=phase),))
        two = multi_tone_propagator((Tone(upper=2, lower=5, angle=float(b), phase=phase),))
        both = multi_tone_propagator((Tone(upper=2, lower=5, angle=float(a + b), phase=phase),))
        assert np.abs(two @ one - both).max() < 1e-12
    print("ACCEPTANCE 6 PASS: projector algebra exact on all 8^4 index "
          "combinations; propagators unitary < 1e-12; group order "
          "independence < 1e-14; composition additivity < 1e-12")


def test_criterion_7_cli_contract(tmp_path, capsys):
    """compile->verify exits 0 for the whole grammar; corrupted 1; malformed 2."""
    for text in NOT_FAMILY_GATES + UT_FAMILY_GATES:
        path = tmp_path / "schedule.st"
        assert main(["compile", text, "--out", str(path)]) == 0
        assert main(["verify", "--schedule", str(path)]) == 0

    path = tmp_path / "ccnot.st"
    assert main(["compile", "CCNOT:QR->S", "--out", str(path)]) == 0
    corrupted = tmp_path / "corrupted.st"
    corrupted.write_text(path.read_text().replace(
        "angle_rad: 3.141592653589793", "angle_rad: 2.0"))
    assert main(["verify", "--schedule", str(corrupted)]) == 1

    assert main(["compile", "CCNOT:QR→S"]) == 2
    assert main(["verify", "NOT:S(1.0,2.0)"]) == 2
    capsys.readouterr()
    print("ACCEPTANCE 7 PASS: compile->verify exits 0 for all 24 grammar "
          "gate strings; corrupted schedule exits 1; malformed gate exits 2")
