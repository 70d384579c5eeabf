import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from virtualspin import (DIM, SPIN, AmbiguousLabelingError, DriveSpec, DriveTone, InputError,
                         SpinSystem, build_hamiltonian, compile_gate, evolve, exact_spectrum,
                         perturbative_spectrum, simulate_schedule,
                         transition_table)
from virtualspin import system
from virtualspin.spectrum import OVERLAP_DOMINANCE

m = np.arange(DIM) - SPIN


def test_perturbative_unperturbed_limit():
    spec = perturbative_spectrum(SpinSystem(omega0=1.0, omegaQ=0.0, theta=0.9))
    assert np.abs(spec.energies - (-m)).max() == 0
    assert np.abs(spec.states - np.eye(DIM)).max() == 0
    assert spec.method == "perturbative-first-order"
    assert spec.warning is None


def test_perturbative_energy_arithmetic():
    # theta=0: q0=2, shift = omegaQ*2*(m^2 - 21/4); m=7/2 gives -3.5 + 0.01*2*7
    spec = perturbative_spectrum(SpinSystem(omega0=1.0, omegaQ=0.01, theta=0.0))
    assert abs(spec.energies[7] - (-3.36)) < 1e-14
    assert abs(spec.energies[0] - 3.64) < 1e-14


def test_perturbative_states_orthonormal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sys = SpinSystem(omegaQ=float(rng.uniform(0, 0.05)),
                         theta=float(rng.uniform(0, np.pi)),
                         phi=float(rng.uniform(-np.pi, np.pi)))
        states = perturbative_spectrum(sys).states
        gram = states.conj().T @ states
        assert np.abs(gram - np.eye(DIM)).max() < 1e-10


def test_perturbative_warning_flag():
    assert perturbative_spectrum(SpinSystem(omegaQ=0.09)).warning is None
    warned = perturbative_spectrum(SpinSystem(omegaQ=0.2))
    assert warned.warning is not None and "first-order" in warned.warning


def test_exact_unperturbed_limit():
    spec = exact_spectrum(SpinSystem(omega0=1.0, omegaQ=0.0, theta=0.7))
    assert np.abs(spec.energies - (-m)).max() < 1e-15
    assert np.abs(spec.states - np.eye(DIM)).max() < 1e-12
    assert spec.method == "exact"


def test_exact_matches_perturbative_at_weak_coupling():
    sys = SpinSystem(omega0=1.0, omegaQ=1e-3, theta=np.pi / 5)
    pert = perturbative_spectrum(sys)
    exact = exact_spectrum(sys)
    overlaps = np.abs(np.sum(pert.states.conj() * exact.states, axis=0)) ** 2
    assert overlaps.min() > 0.999
    # residual error is second order: O((omegaQ/omega0)^2 * omega0)
    err = np.abs(pert.energies - exact.energies).max()
    assert err < 100 * (1e-3) ** 2
    assert err > 1e-8  # and it is genuinely second order, not zero


def test_energy_error_scales_as_ratio_squared():
    ratios = np.logspace(-4, -2, 9)
    errs = []
    for ratio in ratios:
        sys = SpinSystem(omega0=1.0, omegaQ=float(ratio), theta=np.pi / 5)
        errs.append(np.abs(perturbative_spectrum(sys).energies
                           - exact_spectrum(sys).energies).max())
    slope = np.polyfit(np.log(ratios), np.log(errs), 1)[0]
    assert abs(slope - 2) < 0.15


def test_theta_zero_spectra_coincide():
    for omega_q in (1e-3, 0.01, 0.05):
        sys = SpinSystem(omega0=1.0, omegaQ=omega_q, theta=0.0)
        pert = perturbative_spectrum(sys)
        exact = exact_spectrum(sys)
        assert np.abs(pert.energies - exact.energies).max() < 1e-12
        assert np.abs(np.abs(pert.states) - np.abs(exact.states)).max() < 1e-12


def test_label_stability_in_perturbative_regime():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sys = SpinSystem(omegaQ=float(rng.uniform(1e-4, 1e-2)),
                         theta=float(rng.uniform(0.1, np.pi - 0.1)),
                         phi=float(rng.uniform(-np.pi, np.pi)))
        energies = exact_spectrum(sys).energies
        # overlap labeling must coincide with descending-energy labeling
        assert np.array_equal(np.argsort(energies)[::-1], np.arange(DIM))


def test_strong_mixing_is_labeled_or_fails_loudly():
    # omegaQ ~ omega0 is a level-mixing regime: the overlap matching either
    # resolves or raises the dedicated error, never silently permutes
    sys = SpinSystem(omega0=1.0, omegaQ=0.5, theta=np.pi / 3)
    # a failure is not held: the second call for the same system raises too
    for _ in range(2):
        with pytest.raises(AmbiguousLabelingError):
            exact_spectrum(sys)


def test_an_overflowing_coupling_is_refused_on_every_call_without_a_warning():
    sys = SpinSystem(omegaQ=1e308, theta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spectrum in (exact_spectrum, perturbative_spectrum, exact_spectrum):
            with pytest.raises(InputError, match="overflows the first-order levels"):
                spectrum(sys)


def test_evolve_refuses_an_overflowing_coupling_like_the_spectra():
    # the held Hamiltonian is built without a numpy warning by whichever caller asks first,
    # and the held eigh refuses it before diagonalizing a non-finite matrix
    drive = DriveSpec(tones=(DriveTone(1.0, 1e-3),), duration=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = SpinSystem(omegaQ=1e308, theta=0.5)
        for _ in range(2):
            with pytest.raises(InputError, match=r"omegaQ/omega0 = 1e\+308 overflows"):
                evolve(sys, drive)
        sys = SpinSystem(omegaQ=1e308, theta=0.5)
        with pytest.raises(InputError, match="overflows the first-order levels"):
            exact_spectrum(sys)
        with pytest.raises(InputError, match=r"omegaQ/omega0 = 1e\+308 overflows"):
            evolve(sys, drive)


def test_labels_match_optimal_assignment():
    # reference: the optimal assignment of perturbative to exact states,
    # trusted only where every chosen overlap dominates its row 2:1
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(400):
        sys = SpinSystem(omegaQ=float(10 ** rng.uniform(-3, 0)),
                         theta=float(rng.uniform(0, np.pi)),
                         phi=float(rng.uniform(0, 2 * np.pi)))
        evals, evecs = np.linalg.eigh(build_hamiltonian(sys))
        overlap = np.abs(perturbative_spectrum(sys).states.conj().T @ evecs)
        _, cols = linear_sum_assignment(-(overlap ** 2))
        labelable = all(overlap[m, cols[m]] >= OVERLAP_DOMINANCE
                        * np.delete(overlap[m], cols[m]).max() for m in range(DIM))
        outcomes.add(labelable)
        if labelable:
            assert np.array_equal(exact_spectrum(sys).energies, evals[cols])
        else:
            with pytest.raises(AmbiguousLabelingError):
                exact_spectrum(sys)
    assert outcomes == {True, False}


def test_transition_table_has_28_ordered_pairs():
    rows = transition_table(exact_spectrum(SpinSystem(theta=np.pi / 5)))
    assert len(rows) == 28
    assert [(r.upper, r.lower) for r in rows] == [(u, l) for u in range(DIM)
                                                  for l in range(u + 1, DIM)]
    allowed = [r for r in rows if r.allowed]
    assert len(allowed) == 7
    assert all(r.lower - r.upper == 1 for r in allowed)
    assert all(r.flag == "allowed" for r in allowed)
    assert all(r.flag == "weak/forbidden" for r in rows if not r.allowed)


def test_transition_frequency_67_is_088():
    for method_spectrum in (perturbative_spectrum, exact_spectrum):
        spec = method_spectrum(SpinSystem(omega0=1.0, omegaQ=0.01, theta=0.0))
        rows = {(r.upper, r.lower): r for r in transition_table(spec)}
        assert abs(rows[(6, 7)].omega - 0.88) < 1e-12


def test_selection_rule_at_zero_coupling():
    rows = transition_table(exact_spectrum(SpinSystem(omegaQ=0.0, theta=0.4)))
    nonzero = [r for r in rows if r.ix_element > 1e-14]
    assert len(nonzero) == 7
    assert all(r.allowed for r in nonzero)
    by_pair = {(r.upper, r.lower): r for r in rows}
    assert by_pair[(3, 7)].ix_element == 0


def test_forbidden_element_is_first_order():
    # |<psi_5|Ix|psi_7>| should double when omegaQ doubles (within 5%)
    ix = SpinSystem.ops.Ix
    values = []
    for omega_q in (1e-3, 2e-3):
        states = exact_spectrum(SpinSystem(omegaQ=omega_q, theta=np.pi / 5)).states
        values.append(abs(states[:, 7].conj() @ ix @ states[:, 5]))
    assert abs(values[1] / values[0] - 2) < 0.1


def test_exact_energy_sum_is_zero():
    rng = np.random.default_rng(13)
    for _ in range(10):
        sys = SpinSystem(omegaQ=float(rng.uniform(0, 0.05)),
                         theta=float(rng.uniform(0, np.pi)),
                         phi=float(rng.uniform(-np.pi, np.pi)))
        assert abs(exact_spectrum(sys).energies.sum()) < 1e-10


def test_exact_spectrum_builds_the_quadrupole_hamiltonian_once(monkeypatch):
    built = []
    original = system.quadrupole_hamiltonian
    monkeypatch.setattr(system, "quadrupole_hamiltonian",
                        lambda sys: built.append(sys) or original(sys))
    sys = SpinSystem(omegaQ=0.05, theta=np.pi / 6, phi=0.4)
    spectrum = exact_spectrum(sys)
    assert built == [sys]
    # the system holds its static problem: later spectra, drives and schedules on it
    # build and diagonalize nothing more
    assert exact_spectrum(sys) is spectrum
    omega = float(spectrum.energies[6] - spectrum.energies[7])
    evolve(sys, DriveSpec(tones=(DriveTone(omega, 2e-3),), duration=100.0))
    sched = compile_gate("CNOT:R->S;CCNOT:QR->S", spectrum=spectrum, gamma_hrf=5e-3)
    assert len(simulate_schedule(sys, sched, 5e-3).group_durations) == 2
    assert exact_spectrum(sys) is spectrum
    assert built == [sys]
    # the first-order mixing reads the full Hamiltonian's off-diagonal part, which is
    # the quadrupole term's to the bit
    assert np.array_equal(perturbative_spectrum(sys).states,
                          _first_order_states(sys, original(sys)))
    assert built == [sys]


def test_the_held_spectrum_is_read_only_and_each_system_holds_its_own():
    sys = SpinSystem(omegaQ=0.05, theta=np.pi / 6)
    spectrum = exact_spectrum(sys)
    for array in (spectrum.energies, spectrum.states):
        with pytest.raises(ValueError):
            array[0] = 0
    # build_hamiltonian stays a fresh, writable array
    build_hamiltonian(sys)[0, 0] = 0
    # the hold is no field: the filled system prints as a fresh one does
    assert repr(sys) == repr(SpinSystem(omegaQ=0.05, theta=np.pi / 6))
    stronger = replace(sys, omegaQ=0.06)
    assert exact_spectrum(stronger) is not spectrum
    assert not np.array_equal(exact_spectrum(stronger).energies, spectrum.energies)
    # an equal system built separately diagonalizes anew, to the same bits
    twin = exact_spectrum(SpinSystem(omegaQ=0.05, theta=np.pi / 6))
    assert twin is not spectrum
    assert twin.energies.tobytes() == spectrum.energies.tobytes()
    assert twin.states.tobytes() == spectrum.states.tobytes()


def _first_order_states(sys, hq):
    """The first-order vectors built from the quadrupole term alone, Loewdin-orthonormalized."""
    denom = sys.omega0 * (m[:, None] - m[None, :])
    np.fill_diagonal(denom, 1.0)
    raw = np.eye(DIM, dtype=complex) + hq * (1.0 / denom) * (1 - np.eye(DIM))
    w, v = np.linalg.eigh(raw.conj().T @ raw)
    return raw @ ((v * (w ** -0.5)[None, :]) @ v.conj().T)


def test_first_order_energies_read_a_float32_angle_at_double_precision():
    # q0 takes math.cos, as the Hamiltonian does: numpy's cos of a float32 angle is a
    # float32, and its energies 5.7e-9 off those of the same angle as a Python float
    theta = np.float32(0.5)
    spectra = [perturbative_spectrum(SpinSystem(omegaQ=0.01, theta=angle))
               for angle in (theta, float(theta))]
    assert spectra[0].energies.tobytes() == spectra[1].energies.tobytes()
    assert spectra[0].states.tobytes() == spectra[1].states.tobytes()
