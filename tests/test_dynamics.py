import contextlib
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from virtualspin import (DIM, DegenerateFitError, DriveSpec, DriveTone,
                         ForbiddenTransitionError, InputError,
                         IntegrationConfig, PulseParams, PulseSchedule,
                         ResolutionError, SpinSystem, Tone, build_hamiltonian,
                         compile_gate, evolve, exact_spectrum,
                         forbidden_scaling, interaction_propagator,
                         multi_tone_propagator, rwa_deviation, simulate_schedule)
from virtualspin import compiler, dynamics, spectrum
from test_cli_contract import CONTRACT

# weak-coupling system used by most drive tests
SYS = SpinSystem(omega0=1.0, omegaQ=0.05, theta=np.pi / 6)
# the omegaQ/omega0 grid of `sweep` at its default --points, --min and --max
GRID = np.logspace(-4, -2, 20)


def test_integration_config_validation():
    for steps in (10, dynamics.MAX_SLICES + 1, 10**400):
        with pytest.raises(ResolutionError, match="steps_per_shortest_period"):
            IntegrationConfig(steps_per_shortest_period=steps)
    assert IntegrationConfig().steps_per_shortest_period >= 20
    IntegrationConfig(steps_per_shortest_period=dynamics.MAX_SLICES)
    # the type is checked before the range, by the integer rule that checks level labels
    for steps in (20.5, 32.0, "32", None, True, np.float64(32)):
        with pytest.raises(InputError, match="^steps_per_shortest_period must be an integer"):
            IntegrationConfig(steps_per_shortest_period=steps)
    assert IntegrationConfig(np.int64(64)).steps_per_shortest_period == 64


def test_drive_validation():
    with pytest.raises(InputError):
        DriveTone(frequency=1.0, amplitude=0.0)
    with pytest.raises(InputError):
        DriveTone(frequency=1.0, amplitude=1e-3, axis="Z")
    with pytest.raises(InputError):
        DriveSpec(tones=(), duration=-1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            DriveSpec(tones=(), duration=bad)
        with pytest.raises(InputError):
            DriveTone(frequency=bad, amplitude=1e-3)
        with pytest.raises(InputError):
            DriveTone(frequency=1.0, amplitude=1e-3, phase=bad)
        with pytest.raises(InputError):
            DriveTone(frequency=1.0, amplitude=bad)


def test_drive_spec_refuses_tones_that_are_not_drive_tones():
    tone = DriveTone(0.9, 1e-3)
    # a number would fail only inside evolve, and a bare tone is no sequence of tones
    for tones in ([1.0], tone, (tone, "X"), "X", None):
        with pytest.raises(InputError, match="^drive tones must be a sequence of DriveTone"):
            DriveSpec(tones=tones, duration=10.0)
    assert DriveSpec(tones=[tone], duration=10.0).tones == (tone,)


def test_free_evolution_matches_matrix_exponential():
    duration = 7.3
    u = evolve(SYS, DriveSpec(tones=(), duration=duration))
    expected = expm(-1j * build_hamiltonian(SYS) * duration)
    assert np.abs(u - expected).max() < 1e-8
    # in the eigenbasis this is diag(exp(-i E_M T))
    spec = exact_spectrum(SYS)
    u_eig = spec.states.conj().T @ u @ spec.states
    assert np.abs(u_eig - np.diag(np.exp(-1j * spec.energies * duration))).max() < 1e-8


def test_zero_duration_is_identity():
    u = evolve(SYS, DriveSpec(tones=(), duration=0.0))
    assert np.array_equal(u, np.eye(DIM))


def test_drive_free_evolution_floating_point_cannot_place_is_refused():
    # doubles near 1e15 are 0.125 apart, wider than a slice; at 1e308 the phases overflow
    for duration in (1e15, 1e308):
        with warnings.catch_warnings(), mock.patch.object(
                dynamics, "_phase_conjugate", side_effect=AssertionError("integrated")):
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ResolutionError, match="floating-point") as refused:
                evolve(SpinSystem(omegaQ=0.05, theta=0.5), DriveSpec(tones=(), duration=duration))
        assert "gammaHrf" not in str(refused.value)


def test_drive_tone_keeps_the_float_of_each_float32_value():
    values = {"frequency": 0.88, "amplitude": 2e-3, "phase": 0.3}
    for name, value in values.items():
        narrow = DriveTone(**{**values, name: np.float32(value)})
        wide = DriveTone(**{**values, name: float(np.float32(value))})
        assert type(getattr(narrow, name)) is float
        assert np.array_equal(evolve(SYS, DriveSpec(tones=(narrow,), duration=2e5)),
                              evolve(SYS, DriveSpec(tones=(wide,), duration=2e5)))


def test_drive_spec_keeps_the_float_of_a_float32_duration():
    tone = DriveTone(0.88, 2e-3, 0.3)
    narrow = DriveSpec(tones=(tone,), duration=np.float32(2e5 + 0.3))
    wide = DriveSpec(tones=(tone,), duration=float(np.float32(2e5 + 0.3)))
    assert type(narrow.duration) is float
    assert np.array_equal(evolve(SYS, narrow), evolve(SYS, wide))


def test_a_float32_tone_phase_plays_as_its_float():
    # a Tone keeps its phase as given; a Y tone's phase meets a Python float (pi/2 and the
    # element's angle), which NEP 50 would keep in float32
    for phase in (np.float32(0.3), np.float32(-1.1)):
        narrow, wide = (Tone(upper=6, lower=7, angle=np.pi, phase=p, axis="Y")
                        for p in (phase, float(phase)))
        assert np.array_equal(multi_tone_propagator((narrow,)), multi_tone_propagator((wide,)))
        played = (simulate_schedule(SYS, PulseSchedule(gates=(), groups=((tone,),)), 1e-3)
                  for tone in (narrow, wide))
        assert np.array_equal(next(played).actual, next(played).actual)


def test_integrator_unitarity():
    tone = DriveTone(frequency=0.9, amplitude=2e-3, phase=0.4)
    u = evolve(SYS, DriveSpec(tones=(tone,), duration=200.0))
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-10


def _slice_width(tones, steps):
    """evolve's widest slice on SYS: one `steps`-th of the shortest period of its levels and tones."""
    energies = np.linalg.eigh(build_hamiltonian(SYS))[0]
    omega_max = max(float(energies[-1] - energies[0]), SYS.omega0,
                    *(abs(t.frequency) for t in tones))
    return 2 * np.pi / omega_max / steps


def _period_slices(tone, steps):
    """The slices of one period of a single tone on SYS, and its period."""
    period = 2 * np.pi / abs(tone.frequency)
    return max(1, math.ceil(period / _slice_width((tone,), steps))), period


def _slices_applied(tones, midpoints, widths):
    """Strang slices on SYS, widths[j] wide about midpoints[j], applied one at a time by expm.

    Slice j is e^{-i H_static w/2} e^{-i w V(t)} e^{-i H_static w/2} with
    w = widths[j], t = midpoints[j] and V(t) = -sum amplitude I_axis cos(Omega t + f).
    """
    h_static = build_hamiltonian(SYS)
    axis_ops = {"X": SYS.ops.Ix, "Y": SYS.ops.Iy}
    v = np.zeros((len(midpoints), DIM, DIM), dtype=complex)
    for tone in tones:
        field = -tone.amplitude * np.cos(tone.frequency * midpoints + tone.phase)
        v += field[:, None, None] * axis_ops[tone.axis]
    uniques, index = np.unique(widths, return_inverse=True)
    halves = expm(-0.5j * uniques[:, None, None] * h_static)[index]
    u = np.eye(DIM, dtype=complex)
    for s in halves @ expm(-1j * widths[:, None, None] * v) @ halves:
        u = s @ u
    return u


def _uniformly_sliced(drive, steps):
    """The fewest equal slices of the whole pulse at most _slice_width wide, applied by expm.

    Returns their product and their number.
    """
    count = max(1, math.ceil(drive.duration / _slice_width(drive.tones, steps)))
    dt = drive.duration / count
    return _slices_applied(drive.tones, (np.arange(count) + 0.5) * dt, np.full(count, dt)), count


def _definition(drive, steps):
    """evolve's propagator of a driven pulse on SYS by its definition, and its number of slices.

    The pulse is cut into the fewest uniform slices at most _slice_width
    wide, except that a single tone lasting n >= 2 periods T keeps its
    period's grid of n_span slices of width dt = T / n_span over the whole
    pulse: n n_span slices, then the first k = floor(r / dt) of the
    remainder r, then one slice of width r - k dt about its midpoint.
    """
    (tone, *others) = drive.tones
    n_span, period = (0, math.inf) if others or not tone.frequency else _period_slices(tone, steps)
    whole = math.floor(drive.duration / period)
    if whole < 2:
        return _uniformly_sliced(drive, steps)
    dt = period / n_span
    remainder = max(drive.duration - whole * period, 0.0)
    head = math.floor(remainder / dt)
    partial = remainder - head * dt
    count = whole * n_span + head
    midpoints, widths = (np.arange(count) + 0.5) * dt, np.full(count, dt)
    if partial > 0:
        midpoints = np.append(midpoints, whole * period + head * dt + partial / 2)
        widths = np.append(widths, partial)
    return _slices_applied(drive.tones, midpoints, widths), len(widths)


# the fastest scale of SYS's levels; a drawn drive takes at most about 4100 slices
SPREAD = float(np.ptp(np.linalg.eigvalsh(build_hamiltonian(SYS))))
MAX_PERIOD_SLICES = 800
AMPLITUDES = st.floats(-4, -1).map(lambda exponent: 10.0 ** exponent)
PHASES = st.one_of(st.floats(-7, 7), st.floats(-1e6, 1e6))
AXES = st.sampled_from("XY")
# a fraction of a slice, a period or the level spread, drawn evenly rather than near 0 and 1
PARTS = st.integers(0, 999).map(lambda part: part / 1000)


def _after_periods(tone, steps, periods, head, fraction):
    """A pulse of one tone: whole periods, then head + fraction of its period's slices."""
    n_span, period = _period_slices(tone, steps)
    return DriveSpec(tones=(tone,), duration=periods * period + (head + fraction) * period / n_span)


@st.composite
def drives(draw):
    """(steps_per_shortest_period, drive) for a drive of 1-4 tones on SYS.

    A single tone lasts n periods and a drawn head k of its period's slices
    plus a fraction of one, or under two periods.  Any drive may instead be
    cut into a drawn number of slices, among them 1, 16, 17, 4096 and 4097.
    """
    steps = draw(st.integers(20, 1024))
    kind = draw(st.sampled_from(["periods", "slices", "short"]))
    if kind != "slices":
        # a tone at least this fast keeps its period within MAX_PERIOD_SLICES slices
        slowest = SPREAD * steps / (MAX_PERIOD_SLICES - 1)
        magnitude = slowest + draw(PARTS) * (3 * SPREAD - slowest)
        tone = draw(st.builds(DriveTone, st.sampled_from([magnitude, -magnitude]),
                              AMPLITUDES, PHASES, AXES))
        n_span, period = _period_slices(tone, steps)
        if kind == "short":
            return steps, DriveSpec(tones=(tone,), duration=(0.001 + 2 * draw(PARTS)) * period)
        head = draw(st.one_of(st.sampled_from([0, 1, n_span // 2, n_span - 1]),
                              st.integers(0, n_span - 1)))
        return steps, _after_periods(tone, steps, draw(st.integers(2, 3)), head, draw(PARTS))
    # from -3 to 3 times the level spread, 0 among them
    frequencies = PARTS.map(lambda part: (6 * part - 3) * SPREAD)
    tones = [draw(st.builds(DriveTone, frequencies, AMPLITUDES, PHASES, AXES))
             for _ in range(draw(st.integers(1, 4)))]
    count = draw(st.one_of(st.sampled_from([1, 16, 17, 4096, 4097]), st.integers(1, 2000)))
    fraction = 0.01 + 0.98 * draw(PARTS)
    return steps, DriveSpec(tones=tuple(tones),
                            duration=(count - fraction) * _slice_width(tones, steps))


# a period of 259 slices at 32 steps, of 4136 at 512
TONE = DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4)
UNDER_THREE_PERIODS = 3 * _period_slices(TONE, 32)[1]
for _ in range(3):   # three ulps under: two whole periods and a remainder a hair under one
    UNDER_THREE_PERIODS = math.nextafter(UNDER_THREE_PERIODS, 0)
# X and Y tones: zero, negative, above the level spread, and a phase of 1e6 rad
MIXED = (TONE, DriveTone(-2.5, 0.05, 1e6, "Y"), DriveTone(0.0, 1e-4, 1.1, "Y"),
         DriveTone(9.0, 0.1, 0.3, "X"))
X_PAIR = (TONE, DriveTone(-1.7, 0.02, 2.0))
XY_PAIR = (DriveTone(1.2, 0.03, -0.7, "X"), DriveTone(0.4, 0.01, 5.0, "Y"))
Y_PAIR = (DriveTone(0.9, 4e-3, 0.4, "Y"), DriveTone(-1.3, 0.02, 1.0, "Y"))


@settings(CONTRACT, max_examples=40)
@example(case=(32, _after_periods(TONE, 32, 2, 0, 0.3)))
@example(case=(32, _after_periods(TONE, 32, 2, 1, 0.0)))
@example(case=(32, _after_periods(TONE, 32, 2, _period_slices(TONE, 32)[0] // 2, 0.5)))
@example(case=(32, _after_periods(TONE, 32, 2, _period_slices(TONE, 32)[0] - 1, 0.5)))
@example(case=(512, _after_periods(TONE, 512, 2, _period_slices(TONE, 512)[0] - 1, 0.5)))
@example(case=(32, DriveSpec(tones=(TONE,), duration=UNDER_THREE_PERIODS)))
@example(case=(20, DriveSpec(tones=MIXED, duration=4096.5 * _slice_width(MIXED, 20))))
# 4100 slices: 17 steps in 3 fill chunks of 6, the last run started late at step 14
@example(case=(32, DriveSpec(tones=X_PAIR, duration=4099.5 * _slice_width(X_PAIR, 32))))
# 200 slices: 14 steps in 2 fill chunks of 7 that fill turns and phases; a late run from step 10
@example(case=(32, DriveSpec(tones=XY_PAIR, duration=199.5 * _slice_width(XY_PAIR, 32))))
# 1000 slices in the Iy eigenframe: 16 steps in 2 fill chunks of 8; a late run from step 8
@example(case=(32, DriveSpec(tones=Y_PAIR, duration=999.5 * _slice_width(Y_PAIR, 32))))
# 2040 slices: 128 runs, the fewest kicked row by row; a late run from step 8
@example(case=(32, DriveSpec(tones=X_PAIR, duration=2039.5 * _slice_width(X_PAIR, 32))))
# 2032 slices: 127 runs, the most kicked as one array
@example(case=(32, DriveSpec(tones=Y_PAIR, duration=2031.5 * _slice_width(Y_PAIR, 32))))
# 3001 slices of turns and phases: 188 runs kicked row by row; a late run from step 7
@example(case=(32, DriveSpec(tones=XY_PAIR, duration=3000.5 * _slice_width(XY_PAIR, 32))))
@given(case=drives())
def test_evolve_is_its_slices_applied_one_at_a_time(case):
    _evolve_by_definition(*case)


def _evolve_by_definition(steps, drive):
    """evolve's propagator of drive on SYS, checked against _definition and for unitarity.

    Returns it, its largest entrywise distance from _definition and the number of slices.
    """
    u = evolve(SYS, drive, IntegrationConfig(steps))
    expected, n_slices = _definition(drive, steps)
    # each slice adds about eps, and rounding its field's argument Omega t + f a further
    # eps |Omega t + f| times its kick: 1000 random draws came within 1.2 n eps (1 + that
    # term), and 20000 drives of 1-5 slices within 48 eps beyond 2 n eps (1 + that term)
    reach = max(abs(t.phase) + abs(t.frequency) * drive.duration for t in drive.tones)
    kick = max(t.amplitude for t in drive.tones) * _slice_width(drive.tones, steps)
    eps = np.finfo(float).eps
    error = np.abs(u - expected).max()
    assert error <= eps * (64 + 2 * n_slices * (1 + reach * kick))
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() <= 1e-12
    return u, error, n_slices


def test_stroboscopic_matches_uniform_slices_on_pi_pulse():
    spec = exact_spectrum(SYS)
    drive_tone, duration = _realized(spec, Tone(upper=6, lower=7, angle=np.pi), 1e-3)
    drive = DriveSpec(tones=(drive_tone,), duration=duration)
    u = evolve(SYS, drive)
    assert np.abs(u - _uniformly_sliced(drive, 32)[0]).max() < 1e-6
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


def test_stroboscopic_period_boundaries():
    n_span, period = _period_slices(TONE, 32)
    dt = period / n_span
    # 2 + 19 dt / T periods: a remainder of exactly 19 slices, no partial slice
    exact = 2 * period + 19 * dt
    assert math.floor((exact - 2 * period) / dt) == 19 and exact - 2 * period - 19 * dt == 0
    # three periods less three ulps: two whole periods and a remainder a hair under T
    assert math.floor(UNDER_THREE_PERIODS / period) == 2
    assert period - (UNDER_THREE_PERIODS - 2 * period) < 1e-14
    # under two periods the whole drive is sliced uniformly
    durations = [p * period for p in (1.9, 2, 7, 2.01, 7.5)]
    # a remainder inside the first slice (k = 0)
    durations += [2 * period + 0.3 * dt, exact, UNDER_THREE_PERIODS]
    for duration in durations:
        drive = DriveSpec(tones=(TONE,), duration=duration)
        u, error, _ = _evolve_by_definition(32, drive)
        assert error < 1e-12, duration
        assert np.abs(u - _uniformly_sliced(drive, 32)[0]).max() < 1e-6, duration


@pytest.mark.parametrize("slices", [2481.5, 4096.5, 4100.5, 8230.5])
def test_stroboscopic_remainder_across_blocks(slices):
    # at 1024 steps a period takes 8272 slices; the remainders end early in the period, a
    # half slice past 4096 and past 4100, and a half slice under its end
    n_span, period = _period_slices(TONE, 1024)
    assert n_span == 8272
    drive = DriveSpec(tones=(TONE,), duration=2 * period + slices * period / n_span)
    u, *_ = _evolve_by_definition(1024, drive)
    assert np.abs(u - _uniformly_sliced(drive, 1024)[0]).max() < 1e-6


@pytest.mark.parametrize("steps", [32, 1024])
def test_stroboscopic_heads_in_every_kind_of_run(steps):
    # a period of 259 or 8272 slices; the remainder's head ends early in the period, just
    # past and at its middle, and two slices before its end
    n_span, _ = _period_slices(TONE, steps)
    for head in (math.isqrt(n_span) // 2, n_span // 2 + 3, n_span - 2, n_span // 2):
        _evolve_by_definition(steps, _after_periods(TONE, steps, 2, head, 0.5))


def _two_tones(axes, shift=0.0):
    """Tones on the 6-7 and 4-5 transitions of SYS, one on each of axes, phases shifted."""
    return tuple(DriveTone(_transition(*pair), 0.05, phase + shift, axis)
                 for pair, phase, axis in zip(((6, 7), (4, 5)), (0.3, 1.1), axes))


def _in_slices(tones, count, steps=32):
    """A drive of tones that evolve cuts into count uniform slices, unless it is periodic."""
    return DriveSpec(tones=tones, duration=(count - 0.5) * _slice_width(tones, steps))


@pytest.mark.parametrize("axes", [("X", "X"), ("Y",), ("X", "Y")])
def test_slice_kernel_matches_one_slice_at_a_time(axes):
    # tone phases near 1e4 rad, as late in a long gate
    for shift in (0.0, 1e4):
        for count in (1, 15, 16, 17, 4095, 4096, 4097, 8193):
            _, error, n = _evolve_by_definition(32, _in_slices(_two_tones(axes, shift), count))
            # rounding in the constant step grows linearly, about 2.4e-16 a slice
            assert error <= max(1e-12, 5e-16 * n), (shift, count)


@pytest.mark.parametrize("axes", [("X", "X"), ("X", "Y")])
def test_every_run_layout_matches_one_slice_at_a_time(axes):
    # slice counts from 1 to 6001: fewer than, as many as and more than a power of two
    for count in (1, 17, 100, 200, 4095, 4096, 4097, 5120, 6001):
        _, error, _ = _evolve_by_definition(32, _in_slices(_two_tones(axes), count))
        assert error <= 1e-12, count


def test_a_head_of_every_slice_is_the_span_product():
    # evolve caps a head at the period's slices, which rounding of r / dt could reach
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    drive = DriveSpec(tones=(TONE,), duration=1.0)
    for n in (1, 259):
        u, head = dynamics._slice_products(energies, basis, drive, n * 0.025, n, n)
        assert np.array_equal(head, u)


@pytest.mark.parametrize("axes,n_slices", [
    (("X", "X"), 1), (("X", "X"), 9), (("X", "X"), 5), (("X", "Y"), 1), (("X", "Y"), 15),
    (("X", "Y"), 4097)])
def test_block_products_do_not_alias_the_work_buffers(axes, n_slices):
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    tones = _two_tones(axes)
    drive = DriveSpec(tones=tones, duration=1.0)
    kernel, aliased = dynamics._block_product, []

    def recording(stages, fill, runs, cut=0):
        product, head = kernel(stages, fill, runs, cut)
        aliased.append(np.shares_memory(product, runs.work))
        runs.work[...] = np.nan   # a view into work would now read nan
        return product, head

    dt = 0.025
    with mock.patch.object(dynamics, "_block_product", recording):
        u, _ = dynamics._slice_products(energies, basis, drive, n_slices * dt, n_slices, 0)
    assert aliased and not any(aliased)
    assert np.all(np.isfinite(u))
    expected = _slices_applied(tones, (np.arange(n_slices) + 0.5) * dt, np.full(n_slices, dt))
    assert np.abs(u - expected).max() <= 1e-12


def test_stroboscopic_unitarity_over_a_million_periods():
    tone = DriveTone(frequency=0.9, amplitude=2e-3, phase=0.4)
    duration = (1e6 + 0.3) * 2 * np.pi / tone.frequency
    u = evolve(SYS, DriveSpec(tones=(tone,), duration=duration))
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


def _svd_polar(m):
    """The polar factor of m from its SVD: the oracle of the Newton-Schulz projection."""
    left, _, right = np.linalg.svd(m)
    return left @ right


def _random_unitary(rng):
    z = rng.normal(size=(DIM, DIM)) + 1j * rng.normal(size=(DIM, DIM))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("size", [1e-15, 1e-12, 1e-10, 1e-8])
def test_polar_unitary_matches_the_svd_polar_factor(size):
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = _random_unitary(rng) + size * (rng.normal(size=(DIM, DIM))
                                           + 1j * rng.normal(size=(DIM, DIM)))
        projected = dynamics._polar_unitary(m)
        assert np.abs(projected - _svd_polar(m)).max() <= 1e-14
        assert np.abs(projected.conj().T @ projected - np.eye(DIM)).max() <= 1e-14


@pytest.mark.parametrize("m", [2 * np.eye(DIM), (1 + 1e-5) * np.eye(DIM),
                               np.full((DIM, DIM), np.nan)], ids=["2I", "1e-5 off", "nan"])
def test_polar_unitary_refuses_a_matrix_far_from_unitary(m):
    # one Newton-Schulz step takes 2 I to 2 I (3 I - 4 I) / 2 = -I, a unitary but the wrong one
    with pytest.raises(ResolutionError, match="drifted from the unitaries"):
        dynamics._polar_unitary(m)


def test_polar_unitary_refuses_what_its_steps_leave_unsettled():
    rng = np.random.default_rng(3)
    m = _random_unitary(rng) + 1e-7 * rng.normal(size=(DIM, DIM))
    with mock.patch.object(dynamics, "_POLAR_STEPS", 1):
        with pytest.raises(ResolutionError, match="did not settle"):
            dynamics._polar_unitary(m)


def _svd_power(u, n):
    """u**n by repeated squaring, each product projected by the SVD oracle."""
    result = np.eye(DIM, dtype=complex)
    for bit in reversed(bin(n)[2:]):
        if bit == "1":
            result = _svd_polar(u @ result)
        u = _svd_polar(u @ u)
    return result


@pytest.mark.parametrize("n", [2, 3, 185, 2**20 + 1, 2**47 - 1])
def test_unitary_power_matches_svd_projected_squaring(n):
    u = _random_unitary(np.random.default_rng(n))
    with mock.patch.object(dynamics, "_polar_unitary",
                           wraps=dynamics._polar_unitary) as projection:
        power = dynamics._unitary_power(u, n)
    # one projection after every 16th squaring and one of the power
    assert projection.call_count == (n.bit_length() - 1) // 16 + 1
    assert np.abs(power.conj().T @ power - np.eye(DIM)).max() <= 1e-14
    # squaring amplifies a rounding-level change of u about n-fold, for the SVD path as well
    assert np.abs(power - _svd_power(u, n)).max() <= max(1e-12, n * 1e-15)


def test_right_multiplier_is_the_real_form_of_the_transpose():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(37, DIM)) + 1j * rng.normal(size=(37, DIM))
    w = dynamics._AXIS_EIGENBASES
    for m in (_random_unitary(rng), _random_unitary(rng), w["X"], w["Y"],
              w["X"].conj().T, w["Y"].conj().T):
        g = dynamics._right_multiplier(m)
        assert g.shape == (2 * DIM, 2 * DIM) and g.dtype == float
        assert np.abs(x.view(float) @ g - (x @ m.T).view(float)).max() < 1e-13
    frame = (dynamics._right_multiplier(w["X"].conj().T), dynamics._right_multiplier(w["X"]))
    assert all(np.array_equal(a, b) for a, b in zip(dynamics._IX_FRAME, frame))
    assert not any(g.flags.writeable for g in dynamics._IX_FRAME)


@pytest.mark.parametrize("gate", ["CCNOT:QR->S", "CCUT:QR->S(1.2,0.4)", "NOT:S"])
def test_simulate_schedule_matches_the_svd_projected_run(gate):
    sched = compile_gate(gate)
    actual = simulate_schedule(SYS, sched, 1e-3).actual
    with mock.patch.object(dynamics, "_polar_unitary", _svd_polar):
        oracle = simulate_schedule(SYS, sched, 1e-3).actual
    assert np.abs(actual - oracle).max() <= 1e-10


def test_propagators_without_drive_are_fresh_writable_arrays():
    cut = compile_gate("CCUT:QR->S(0,0)")
    empty = PulseSchedule(gates=(), groups=())
    results = [evolve(SYS, DriveSpec(tones=(DriveTone(1.0, 1e-3),), duration=0.0)),
               simulate_schedule(SYS, empty, 1e-3).actual, simulate_schedule(SYS, cut, 1e-3).actual]
    assert simulate_schedule(SYS, cut, 1e-3).group_durations == (0.0,)
    for u in results:
        assert u.dtype == complex and np.array_equal(u, np.eye(DIM))
        u[0, 0] = 2   # raises ValueError on a read-only array
    # the writes above reach no array that a later call returns
    assert np.array_equal(evolve(SYS, DriveSpec(tones=(), duration=0.0)), np.eye(DIM))
    assert np.array_equal(simulate_schedule(SYS, empty, 1e-3).actual, np.eye(DIM))


@pytest.mark.parametrize("tones", [((6, 7, "X"),), ((5, 6, "X"), (6, 7, "Y"))])
def test_evolve_on_a_held_decomposition_matches_a_fresh_system(tones):
    energies = exact_spectrum(SYS).energies   # fills SYS's hold, if no earlier test did
    drive = DriveSpec(tones=tuple(DriveTone(float(energies[u] - energies[l]), 2e-3, 0.3, axis)
                                  for u, l, axis in tones), duration=700.0)
    fresh = replace(SYS)
    assert np.array_equal(evolve(SYS, drive), evolve(fresh, drive))


def test_simulate_schedule_takes_each_axis_drive_elements_once():
    counted = []
    original = compiler.drive_elements

    def counting(spec, axis="X"):
        counted.append(axis)
        return original(spec, axis)

    sched = compile_gate("CNOT:R->S;CCNOT:QR->S")
    expected = simulate_schedule(SYS, sched, 5e-3)
    # at every name a caller in the package could look it up by
    with contextlib.ExitStack() as patches:
        for module in (compiler, dynamics, spectrum):
            patches.enter_context(mock.patch.object(module, "drive_elements", counting,
                                                    create=True))
        result = simulate_schedule(SYS, sched, 5e-3)
    # the resolution takes them, and both groups' drive phases read the same elements
    assert counted == ["X"]
    assert np.array_equal(result.actual, expected.actual)


def _midpoint_reference(system, drive, steps_per_period):
    """Exact midpoint exponentials on evolve's slice grid, one slice at a time."""
    h_static = build_hamiltonian(system)
    evals = np.linalg.eigvalsh(h_static)
    omega_max = max(evals[-1] - evals[0], system.omega0,
                    *(abs(t.frequency) for t in drive.tones))
    n_slices = math.ceil(drive.duration / (2 * np.pi / omega_max / steps_per_period))
    dt = drive.duration / n_slices
    t_mid = (np.arange(n_slices) + 0.5) * dt
    axis_ops = {"X": system.ops.Ix, "Y": system.ops.Iy}
    h = np.broadcast_to(h_static, (n_slices, DIM, DIM)).copy()
    for tone in drive.tones:
        envelope = -tone.amplitude * np.cos(tone.frequency * t_mid + tone.phase)
        h += envelope[:, None, None] * axis_ops[tone.axis]
    u = np.eye(DIM, dtype=complex)
    for prop in expm(-1j * dt * h):
        u = prop @ u
    return u


def _fine_reference(system, drive):
    """Midpoint products at 128 and 256 steps per period, Richardson-extrapolated.

    The exponential midpoint rule is symmetric, so its error has only even
    powers of the slice width; the extrapolation is fourth order.
    """
    coarse = _midpoint_reference(system, drive, 128)
    fine = _midpoint_reference(system, drive, 256)
    return (4 * fine - coarse) / 3


def _transition(upper, lower):
    spec = exact_spectrum(SYS)
    return float(spec.energies[upper] - spec.energies[lower])


def test_split_kernel_matches_midpoint_exponentials_on_mixed_axes():
    # simultaneous X and Y tones: the drive axis turns from slice to slice
    drive = DriveSpec(tones=(DriveTone(_transition(6, 7), 4e-3, 0.3, "X"),
                             DriveTone(_transition(4, 5), 4e-3, 1.1, "Y")),
                      duration=25.0)
    reference = _fine_reference(SYS, drive)
    err_32 = np.abs(evolve(SYS, drive) - reference).max()
    err_64 = np.abs(evolve(SYS, drive, IntegrationConfig(64)) - reference).max()
    assert err_32 < 2e-6
    # second order: halving the slice width quarters the error
    assert 3 < err_32 / err_64 < 5


def test_split_kernel_matches_midpoint_exponentials_on_y_tone():
    drive = DriveSpec(tones=(DriveTone(_transition(6, 7), 4e-3, 0.3, "Y"),), duration=25.0)
    assert np.abs(evolve(SYS, drive) - _fine_reference(SYS, drive)).max() < 2e-6


def test_multi_tone_step_doubling_converges_at_second_order():
    drive = DriveSpec(tones=(DriveTone(_transition(6, 7), 4e-3, 0.3),
                             DriveTone(_transition(4, 5), 4e-3, 1.1)),
                      duration=100.0)
    u_32, u_64, u_128 = (evolve(SYS, drive, IntegrationConfig(steps))
                         for steps in (32, 64, 128))
    coarse = np.abs(u_32 - u_64).max()
    fine = np.abs(u_64 - u_128).max()
    assert fine < 1e-6
    assert 3 < coarse / fine < 5


def test_multi_tone_unitarity_over_many_slices():
    drive = DriveSpec(tones=(DriveTone(_transition(6, 7), 2e-3, 0.3),
                             DriveTone(_transition(4, 5), 2e-3, 1.1)),
                      duration=1500.0)
    evals = np.linalg.eigvalsh(build_hamiltonian(SYS))
    assert drive.duration / (2 * np.pi / (evals[-1] - evals[0]) / 32) > 5e4
    u = evolve(SYS, drive)
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-10


def test_slice_budget_is_checked_before_integrating():
    drive = DriveSpec(tones=(DriveTone(0.9, 1e-3), DriveTone(0.8, 1e-3)), duration=1e8)
    with pytest.raises(ResolutionError, match=r"3\.\d+e\+09 time slices"):
        evolve(SYS, drive)
    # a single tone only slices one period and one partial slice of the remainder
    u = evolve(SYS, DriveSpec(tones=(DriveTone(0.9, 1e-3),), duration=1e8))
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


def test_slice_budget_counts_the_partial_slice():
    # a tone faster than every level spacing: at MAX_SLICES steps its period is MAX_SLICES
    # slices, and a remainder off the period's grid adds one partial slice over the limit
    tone = DriveTone(10.0, 1e-3)
    n_span, period = _period_slices(tone, dynamics.MAX_SLICES)
    assert n_span == dynamics.MAX_SLICES
    dt = period / n_span
    with mock.patch.object(dynamics, "_slice_products", side_effect=AssertionError("integrated")):
        with pytest.raises(ResolutionError, match=r"1e\+08 time slices"):
            evolve(SYS, DriveSpec(tones=(tone,), duration=2 * period + 0.5 * dt),
                   IntegrationConfig(dynamics.MAX_SLICES))


def test_step_doubling_convergence():
    spec = exact_spectrum(SYS)
    omega = float(spec.energies[6] - spec.energies[7])
    drive = DriveSpec(tones=(DriveTone(frequency=omega, amplitude=4e-3),), duration=100.0)
    u_64 = evolve(SYS, drive, IntegrationConfig(steps_per_shortest_period=64))
    u_128 = evolve(SYS, drive, IntegrationConfig(steps_per_shortest_period=128))
    assert np.abs(u_64 - u_128).max() < 1e-6


def test_pi_pulse_population_transfer():
    spec = exact_spectrum(SYS)
    gamma = 2e-3
    tone = Tone(upper=6, lower=7, angle=np.pi)
    deviation = rwa_deviation(SYS, tone, PulseParams(gammaHrf=gamma))
    assert deviation < 0.1
    # explicit transfer check through the raw integrator
    ix = SpinSystem.ops.Ix
    element = spec.states[:, 6].conj() @ ix @ spec.states[:, 7]
    duration = np.pi / (2 * gamma * abs(element))
    drive = DriveTone(frequency=float(spec.energies[6] - spec.energies[7]),
                      amplitude=2 * gamma, phase=float(np.angle(element)))
    u = evolve(SYS, DriveSpec(tones=(drive,), duration=duration))
    transfer = abs(spec.states[:, 7].conj() @ u @ spec.states[:, 6]) ** 2
    assert transfer > 0.99


def test_rabi_transfer_follows_sine_squared():
    # transfer probability vs pulse area: sin^2(angle/2) within 1e-2
    spec = exact_spectrum(SYS)
    gamma = 2e-3
    for angle in (np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
        tone = Tone(upper=6, lower=7, angle=float(angle))
        drive_tone, duration = _realized(spec, tone, gamma)
        u = evolve(SYS, DriveSpec(tones=(drive_tone,), duration=duration))
        u_int = interaction_propagator(spec, u, duration)
        transfer = abs(u_int[7, 6]) ** 2
        assert abs(transfer - np.sin(angle / 2) ** 2) < 1e-2


def _realized(spec, tone, gamma):
    ix = SpinSystem.ops.Ix
    element = spec.states[:, tone.upper].conj() @ ix @ spec.states[:, tone.lower]
    duration = tone.angle / (2 * gamma * abs(element))
    drive = DriveTone(frequency=float(spec.energies[tone.upper] - spec.energies[tone.lower]),
                      amplitude=2 * gamma,
                      phase=float(np.angle(element)) - tone.phase)
    return drive, duration


def test_rwa_deviation_grows_with_drive():
    tone = Tone(upper=6, lower=7, angle=np.pi)
    strong = rwa_deviation(SYS, tone, PulseParams(gammaHrf=1e-2))
    weak = rwa_deviation(SYS, tone, PulseParams(gammaHrf=3e-3))
    assert strong > weak > 0


def test_rwa_deviation_zero_duration():
    tone = Tone(upper=6, lower=7, angle=0.0)
    assert rwa_deviation(SYS, tone, PulseParams(gammaHrf=1e-3)) == 0.0


def test_rwa_deviation_negative_angle():
    # V(-phi, f) = V(phi, f + pi): the realization layer must normalize
    tone = Tone(upper=6, lower=7, angle=-np.pi / 2, phase=0.2)
    assert rwa_deviation(SYS, tone, PulseParams(gammaHrf=3e-3)) < 0.15


def test_forbidden_y_tone_names_iy():
    # at theta = 0 the (5,7) pair has no drive element on either axis
    tone = Tone(upper=5, lower=7, angle=np.pi, axis="Y")
    with pytest.raises(ForbiddenTransitionError, match=r"\|<n\|Iy\|m>\| = 0"):
        rwa_deviation(SpinSystem(theta=0.0), tone, PulseParams(gammaHrf=1e-3))


def test_rwa_deviation_pins_phase_and_axis_conventions():
    # a wrong sign convention in the drive phase mapping would produce an
    # O(1) deviation on a pi pulse; the correct one stays at the leakage level
    params = PulseParams(gammaHrf=3e-3)
    for tone in (Tone(6, 7, np.pi, 0.7, "X"),
                 Tone(6, 7, np.pi, 0.7, "Y"),
                 Tone(6, 7, np.pi / 2, 0.0, "Y")):
        assert rwa_deviation(SYS, tone, params) < 0.15


def test_forbidden_scaling_slopes():
    sys = SpinSystem(omega0=1.0, omegaQ=0.01, theta=np.pi / 5)
    fit_57 = forbidden_scaling(sys, (5, 7), GRID)
    assert 0.85 <= fit_57.slope <= 1.15
    assert fit_57.ratios.size == 20
    assert fit_57.elements.shape == fit_57.local_slopes.shape == fit_57.ratios.shape
    fit_67 = forbidden_scaling(sys, (6, 7), GRID)
    assert abs(fit_67.slope) < 0.05
    # (3,7) opens at higher order than first; measured slope ~ 3
    fit_37 = forbidden_scaling(sys, (3, 7), GRID)
    assert fit_37.slope >= 1.0
    assert 2.5 < fit_37.slope < 3.5


def test_forbidden_scaling_theta_zero_degenerate():
    with pytest.raises(DegenerateFitError):
        forbidden_scaling(SpinSystem(theta=0.0), (5, 7), GRID)


def test_theta_zero_null_elements_for_any_coupling():
    # at theta=0 there is no quadrupole mixing: every non-adjacent element
    # vanishes identically however large omegaQ is
    ix = SpinSystem.ops.Ix
    for omega_q in (0.01, 0.3):
        states = exact_spectrum(SpinSystem(omegaQ=omega_q, theta=0.0)).states
        elements = np.abs(states.conj().T @ ix @ states)
        off_ladder = ~(np.eye(DIM, dtype=bool)
                       | np.eye(DIM, k=1, dtype=bool) | np.eye(DIM, k=-1, dtype=bool))
        assert elements[off_ladder].max() < 1e-14


def test_strong_coupling_elements_become_comparable():
    # for omegaQ ~ omega0 the formerly forbidden elements reach the same
    # order of magnitude as the ladder ones (ratio within one decade);
    # label-free check on energy-sorted exact eigenvectors
    ix = SpinSystem.ops.Ix

    def element_ratio(omega_q):
        h = build_hamiltonian(SpinSystem(omegaQ=omega_q, theta=np.pi / 3))
        _, vecs = np.linalg.eigh(h)
        elements = np.abs(vecs.conj().T @ ix @ vecs)
        ladder = np.eye(DIM, k=1, dtype=bool)
        off = ~(np.eye(DIM, dtype=bool) | ladder | np.eye(DIM, k=-1, dtype=bool))
        return elements[off].max() / elements[ladder].max()

    assert element_ratio(1.0) > 0.1
    assert element_ratio(1e-3) < 1e-2


def test_forbidden_scaling_input_validation():
    with pytest.raises(InputError):
        forbidden_scaling(SpinSystem(theta=0.5), (5, 5), GRID)
    with pytest.raises(InputError):
        forbidden_scaling(SpinSystem(theta=0.5), (0, 9), GRID)
    with pytest.raises(InputError):
        forbidden_scaling(SpinSystem(theta=0.5), (5, 7), ratios=[1e-3])
    # distinct ratios 1e-13 apart differ only by rounding: no slope is fitted
    with pytest.raises(InputError, match="rounding noise"):
        forbidden_scaling(SpinSystem(theta=0.5), (5, 7), ratios=[1e-4, 1.0000000000001e-4])
    # a ratio that is not positive and finite is named before any spectrum is computed
    for ratios, named in (([0, 1e-3, 1e-2], "0.0"), ([-1e-3, 1e-3], "-0.001"),
                          ([1e-3, np.nan, 1e-2], "nan"), ([1e-3, np.inf], "inf")):
        with pytest.raises(InputError, match=f"must be positive and finite, got {named}$"):
            forbidden_scaling(SpinSystem(theta=0.5), (5, 7), ratios)


def test_simulate_schedule_zero_angle():
    sched = compile_gate("CCUT:QR->S(0.0,0.0)")
    result = simulate_schedule(SYS, sched, gamma_hrf=1e-3)
    assert result.deviation == 0.0
    assert np.array_equal(result.actual, np.eye(DIM))
    assert all(prob == 1.0 for _, prob in result.transfer.values())


def test_simulate_schedule_ccnot():
    result = simulate_schedule(SYS, compile_gate("CCNOT:QR->S"), gamma_hrf=5e-3)
    assert result.transfer[6][0] == 7
    assert result.transfer[6][1] > 0.95
    assert result.transfer[0][0] == 0
    assert result.deviation < 0.3
    assert len(result.group_durations) == 1


def test_simulate_schedule_multi_tone_group():
    # NOT:S plays four simultaneous tones of one common duration
    result = simulate_schedule(SYS, compile_gate("NOT:S"), gamma_hrf=5e-3)
    table = {label: out for label, (out, _) in result.transfer.items()}
    assert table == {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    assert all(prob > 0.9 for _, prob in result.transfer.values())


def _edited(sched, angle):
    """sched with every tone's angle set to `angle`, its gates kept."""
    return replace(sched, groups=tuple(tuple(replace(tone, angle=angle) for tone in group)
                                       for group in sched.groups))


# the edited Toffoli's angle of 1 < pi/2 leaves its ideal 6 and 7 columns largest on the diagonal
@pytest.mark.parametrize("sched, kept", [(compile_gate("NOT:S"), ()),
                                         (compile_gate("UT:S(1.2,0.4)"), ()),
                                         (_edited(compile_gate("CCNOT:QR->S"), 1.0), (6, 7))],
                         ids=["NOT:S", "UT:S", "edited CCNOT"])
def test_transfer_table_is_the_per_column_readout(sched, kept):
    result = simulate_schedule(SYS, sched, 5e-3)
    not_family = all(gate.is_not_family for gate in sched.gates)
    assert list(result.transfer) == list(range(DIM))
    for label, (out, probability) in result.transfer.items():
        ideal, actual = result.ideal[:, label], result.actual[:, label]
        # the largest entry of the ideal column; an edited NOT-family schedule need not permute
        assert out == (int(np.argmax(np.abs(ideal))) if not_family else label)
        assert type(out) is int and type(probability) is float
        assert abs(probability - float(abs(ideal.conj() @ actual) ** 2)) <= 2e-16
    assert all(result.transfer[label][0] == label for label in kept)


def test_simulate_plays_the_compiled_durations():
    # compile and simulate read one drive element, so the duration a schedule
    # states is exactly the one the integrator plays
    gamma = 2e-2
    gates = ("CCNOT:QR->S", "CCNOT:QS->R", "CCNOT:RS->Q", "CCUT:QR->S(1.2,0.4)",
             "CCUT:QR->S(-1.0,0.3)", "CNOT:R->S", "CUT:Q->S(1.2,0.4)", "NOT:S")
    for theta in (np.pi / 5, np.pi / 6, 0.5, 1.0):
        for omega_q in (0.01, 0.05):
            system = SpinSystem(omegaQ=omega_q, theta=theta)
            spectrum = exact_spectrum(system)
            for gate in gates:
                sched = compile_gate(gate, spectrum=spectrum, gamma_hrf=gamma)
                result = simulate_schedule(system, sched, gamma)
                assert result.group_durations == tuple(max(t.duration for t in g)
                                                       for g in sched.groups)


def test_simulate_schedule_q_targeted_toffoli():
    # one forbidden-transition tone, (3,7), lasting about 1.2e5 drive periods
    result = simulate_schedule(SYS, compile_gate("CCNOT:RS->Q"), gamma_hrf=1e-3)
    assert result.transfer[3][0] == 7
    assert min(prob for _, prob in result.transfer.values()) > 0.99


def test_simulate_schedule_two_tone_gate_in_the_acceptance_regime():
    # about 3e4 slices: well inside the slice budget
    result = simulate_schedule(SYS, compile_gate("CNOT:R->S"), gamma_hrf=1e-3)
    assert min(prob for _, prob in result.transfer.values()) > 0.99
    assert np.abs(result.actual.conj().T @ result.actual - np.eye(DIM)).max() < 1e-10


def test_zero_angle_tone_plays_no_drive():
    pi_tone, idle = Tone(upper=6, lower=7, angle=np.pi), Tone(upper=4, lower=5, angle=0.0)
    alone, both = (simulate_schedule(SYS, PulseSchedule(gates=(), groups=(group,)), 2e-3).actual
                   for group in ((pi_tone,), (pi_tone, idle)))
    assert np.array_equal(both, alone)
