import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from virtualspin import (DIM, ForbiddenTransitionError, InputError,
                         OverlappingTonesError, PulseParams, Tone, compile_gate,
                         multi_tone_propagator, projector, pulse_duration,
                         pulse_propagator)
from test_gates import ALL_NOT_FAMILY


def test_projector_algebra_exhaustive():
    mats = [[projector(a, b).matrix for b in range(DIM)] for a in range(DIM)]
    for k, l, m, n in itertools.product(range(DIM), repeat=4):
        product = mats[k][l] @ mats[m][n]
        expected = mats[k][n] if l == m else np.zeros((DIM, DIM))
        assert np.array_equal(product, expected)


def test_projector_adjoint_and_completeness():
    for a, b in itertools.product(range(DIM), repeat=2):
        assert np.array_equal(projector(a, b).matrix.conj().T, projector(b, a).matrix)
    total = sum(projector(a, a).matrix for a in range(DIM))
    assert np.array_equal(total, np.eye(DIM))
    # spelled-out cases
    assert np.array_equal(projector(6, 7).matrix @ projector(7, 6).matrix,
                          projector(6, 6).matrix)
    assert np.abs(projector(0, 1).matrix @ projector(2, 3).matrix).max() == 0


def test_projector_index_range():
    with pytest.raises(InputError):
        projector(-1, 0)
    with pytest.raises(InputError):
        projector(0, 8)


def test_zero_angle_is_identity():
    v = pulse_propagator(Tone(upper=3, lower=5, angle=0.0))
    assert np.abs(v - np.eye(DIM)).max() == 0


def test_pi_pulse_on_67():
    v = pulse_propagator(Tone(upper=6, lower=7, angle=np.pi, phase=0.0, axis="X"))
    expected = np.diag([1, 1, 1, 1, 1, 1, 0, 0]).astype(complex)
    expected[6, 7] = expected[7, 6] = 1j
    assert np.abs(v - expected).max() < 1e-15


def test_y_axis_shifts_phase_by_half_pi():
    v = pulse_propagator(Tone(upper=6, lower=7, angle=np.pi, phase=0.0, axis="Y"))
    assert abs(v[6, 7] - (-1)) < 1e-15
    assert abs(v[7, 6] - 1) < 1e-15
    vx = pulse_propagator(Tone(upper=6, lower=7, angle=np.pi, phase=np.pi / 2, axis="X"))
    assert np.abs(v - vx).max() < 1e-15


def test_matches_two_level_block_exponential():
    # independent oracle: V = exp(i (angle/2) (e^{if'} P_mn + e^{-if'} P_nm))
    rng = np.random.default_rng(17)
    for _ in range(25):
        upper, lower = rng.choice(DIM, size=2, replace=False)
        angle = float(rng.uniform(-2 * np.pi, 4 * np.pi))
        phase = float(rng.uniform(-np.pi, np.pi))
        axis = "X" if rng.random() < 0.5 else "Y"
        f_eff = phase + (np.pi / 2 if axis == "Y" else 0.0)
        generator = (np.exp(1j * f_eff) * projector(upper, lower).matrix
                     + np.exp(-1j * f_eff) * projector(lower, upper).matrix)
        expected = expm(1j * (angle / 2) * generator)
        got = pulse_propagator(Tone(upper=int(upper), lower=int(lower),
                                    angle=angle, phase=phase, axis=axis))
        assert np.abs(got - expected).max() < 1e-12


def test_unitarity_over_random_tones():
    rng = np.random.default_rng(23)
    for _ in range(50):
        upper, lower = rng.choice(DIM, size=2, replace=False)
        tone = Tone(upper=int(upper), lower=int(lower),
                    angle=float(rng.uniform(-10, 10)),
                    phase=float(rng.uniform(-np.pi, np.pi)),
                    axis="X" if rng.random() < 0.5 else "Y")
        u = pulse_propagator(tone)
        assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


def test_periodicity():
    full = pulse_propagator(Tone(upper=2, lower=3, angle=4 * np.pi))
    assert np.abs(full - np.eye(DIM)).max() < 1e-12
    half = pulse_propagator(Tone(upper=2, lower=3, angle=2 * np.pi))
    expected = np.eye(DIM, dtype=complex)
    expected[2, 2] = expected[3, 3] = -1
    assert np.abs(half - expected).max() < 1e-12


def test_composition_additivity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a, b = rng.uniform(-5, 5, size=2)
        phase = float(rng.uniform(-np.pi, np.pi))
        first = pulse_propagator(Tone(upper=1, lower=4, angle=float(a), phase=phase))
        second = pulse_propagator(Tone(upper=1, lower=4, angle=float(b), phase=phase))
        combined = pulse_propagator(Tone(upper=1, lower=4, angle=float(a + b), phase=phase))
        assert np.abs(second @ first - combined).max() < 1e-12


def test_multi_tone_block_structure():
    tones = (Tone(upper=2, lower=3, angle=np.pi), Tone(upper=6, lower=7, angle=np.pi))
    combined = multi_tone_propagator(tones)
    product = (pulse_propagator(tones[0]) @ pulse_propagator(tones[1]))
    assert np.abs(combined - product).max() < 1e-15


def test_multi_tone_empty_and_commutation():
    assert np.array_equal(multi_tone_propagator(()), np.eye(DIM))
    a = pulse_propagator(Tone(upper=0, lower=4, angle=1.1, phase=0.2))
    b = pulse_propagator(Tone(upper=2, lower=6, angle=2.3, phase=-0.4, axis="Y"))
    assert np.abs(a @ b - b @ a).max() < 1e-14


def test_multi_tone_rejects_overlap():
    with pytest.raises(OverlappingTonesError):
        multi_tone_propagator((Tone(upper=2, lower=3, angle=np.pi),
                               Tone(upper=3, lower=7, angle=np.pi)))


def test_tone_validation():
    with pytest.raises(InputError):
        Tone(upper=2, lower=2, angle=1.0)
    with pytest.raises(InputError):
        Tone(upper=2, lower=9, angle=1.0)
    with pytest.raises(InputError):
        Tone(upper=2, lower=3, angle=np.inf)
    with pytest.raises(InputError):
        Tone(upper=2, lower=3, angle=1.0, axis="Z")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            Tone(upper=2, lower=3, angle=1.0, phase=bad)


def test_tone_omega_and_duration_are_none_or_finite_numbers():
    for name in ("omega", "duration"):
        for bad in ("0.88", True, np.inf, -np.inf, np.nan, [1.0]):
            with pytest.raises(InputError, match=f"^tone {name} must be"):
                Tone(upper=6, lower=7, angle=np.pi, **{name: bad})
        # no sign check: a crossed level pair has a negative omega
        for good in (None, -0.88, 0, np.float32(0.5), np.int64(3)):
            assert getattr(Tone(upper=6, lower=7, angle=np.pi, **{name: good}), name) is good


def test_pulse_duration():
    params = PulseParams(gammaHrf=1.0)
    duration = pulse_duration(np.pi, params, np.sqrt(7) / 2)
    assert abs(duration - np.pi / np.sqrt(7)) < 1e-14
    assert abs(duration - 1.18741) < 1e-5
    assert pulse_duration(0.0, params, 2.0) == 0.0
    with pytest.raises(ForbiddenTransitionError):
        pulse_duration(np.pi, params, 0.0)
    # a length beyond floating point is refused, not returned as inf
    with pytest.raises(InputError):
        pulse_duration(1e308, PulseParams(gammaHrf=1e-3), 0.04)
    with pytest.raises(InputError):
        pulse_duration(np.pi, PulseParams(gammaHrf=1e-320), 1e-10)
    with pytest.raises(InputError):
        PulseParams(gammaHrf=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            PulseParams(gammaHrf=bad)


def test_propagator_equals_projector_form():
    # the paper's projector sum is the reference for the four-entry construction
    gates = ALL_NOT_FAMILY + [g.replace("NOT", "UT") + "(1.2,0.4)" for g in ALL_NOT_FAMILY]
    tones = [tone for gate in gates for group in compile_gate(gate).groups for tone in group]
    tones += [Tone(6, 7, np.pi / 2, 0.3, "Y"), Tone(2, 3, -1.1, 0.4)]
    assert len(gates) == 24 and len(tones) == 2 + 2 * (3 * 4 + 6 * 2 + 3 * 1)
    for tone in tones:
        m, n = tone.upper, tone.lower
        f_eff = tone.phase + (np.pi / 2 if tone.axis == "Y" else 0.0)
        half = tone.angle / 2
        reference = (np.eye(DIM, dtype=complex)
                     + (projector(n, n).matrix + projector(m, m).matrix) * (np.cos(half) - 1)
                     + 1j * (projector(m, n).matrix * np.exp(1j * f_eff)
                             + projector(n, m).matrix * np.exp(-1j * f_eff)) * np.sin(half))
        assert np.array_equal(pulse_propagator(tone), reference)
