import math
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

from virtualspin import (DIM, DegenerateFitError, DriveSpec, DriveTone,
                         ForbiddenTransitionError, InputError,
                         IntegrationConfig, PulseParams, PulseSchedule,
                         ResolutionError, SpinSystem, Tone, build_hamiltonian,
                         compile_gate, evolve, exact_spectrum,
                         forbidden_scaling, interaction_propagator,
                         make_spin_operators, rwa_deviation, simulate_schedule)
from virtualspin import dynamics

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


def test_integrator_unitarity():
    tone = DriveTone(frequency=0.9, amplitude=2e-3, phase=0.4)
    u = evolve(SYS, DriveSpec(tones=(tone,), duration=200.0))
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-10


def _slice_count(system, drive, span, steps=32):
    """Slices over [0, span] at evolve's slice width for `steps` a period."""
    evals = np.linalg.eigvalsh(build_hamiltonian(system))
    omega_max = max(evals[-1] - evals[0], system.omega0, *(abs(t.frequency) for t in drive.tones))
    return max(1, math.ceil(span / (2 * np.pi / omega_max / steps)))


def _sliced(system, drive, span, steps=32):
    """Product of midpoint slices over [0, span] at evolve's slice width for `steps` a period."""
    energies, basis = np.linalg.eigh(build_hamiltonian(system))
    n_slices = _slice_count(system, drive, span, steps)
    return dynamics._slice_product(energies, basis, drive, span, n_slices)


def test_stroboscopic_matches_uniform_slices_on_pi_pulse():
    spec = exact_spectrum(SYS)
    gamma = 1e-3
    drive_tone, duration = _realized(spec, Tone(upper=6, lower=7, angle=np.pi), gamma)
    drive = DriveSpec(tones=(drive_tone,), duration=duration)
    u = evolve(SYS, drive)
    assert np.abs(u - _sliced(SYS, drive, duration)).max() < 1e-6
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


def _period_grid(system, tone, steps=32):
    """One period of a tone and evolve's slice count and width for it."""
    period = 2 * np.pi / abs(tone.frequency)
    n_span = _slice_count(system, DriveSpec(tones=(tone,), duration=period), period, steps)
    return period, n_span, period / n_span


def _stroboscopic_reference(system, drive, steps=32):
    """U(T)^n, then the period grid's first k slices of the remainder r, then one partial slice.

    k = floor(r / dt) on the period's slice width dt; the period and its
    first k slices come from separate _slice_product calls, and the partial
    slice of width r - k dt about its midpoint from exact exponentials.
    """
    (tone,) = drive.tones
    h_static = build_hamiltonian(system)
    energies, basis = np.linalg.eigh(h_static)
    period, n_span, dt = _period_grid(system, tone, steps)
    whole = math.floor(drive.duration / period)
    u = np.linalg.matrix_power(
        dynamics._slice_product(energies, basis, drive, period, n_span), whole)
    remainder = drive.duration - whole * period
    k = math.floor(remainder / dt)
    if k:
        u = dynamics._slice_product(energies, basis, drive, k * dt, k) @ u
    delta = remainder - k * dt
    if delta > 0:
        half = expm(-0.5j * delta * h_static)
        field = -tone.amplitude * math.cos(tone.frequency * (k * dt + delta / 2) + tone.phase)
        axis = {"X": system.ops.Ix, "Y": system.ops.Iy}[tone.axis]
        u = half @ expm(-1j * delta * field * axis) @ half @ u
    return u


def test_stroboscopic_period_boundaries():
    tone = DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4)
    period, _, dt = _period_grid(SYS, tone)
    # under two periods the whole drive is sliced uniformly
    short = DriveSpec(tones=(tone,), duration=1.9 * period)
    assert np.array_equal(evolve(SYS, short), _sliced(SYS, short, short.duration))
    # 2 + 19 dt / T periods: a remainder of exactly 19 slices, no partial slice
    exact = 2 * period + 19 * dt
    assert math.floor((exact - 2 * period) / dt) == 19 and exact - 2 * period - 19 * dt == 0
    # three periods less three ulps: two whole periods and a remainder a hair under T
    under_three = 3 * period
    for _ in range(3):
        under_three = math.nextafter(under_three, 0)
    assert math.floor(under_three / period) == 2
    assert period - (under_three - 2 * period) < 1e-14
    durations = [p * period for p in (2, 7, 2.01, 7.5)]
    # a remainder inside the first slice (k = 0)
    durations += [2 * period + 0.3 * dt, exact, under_three]
    for duration in durations:
        drive = DriveSpec(tones=(tone,), duration=duration)
        u = evolve(SYS, drive)
        assert np.abs(u - _stroboscopic_reference(SYS, drive)).max() < 1e-12
        assert np.abs(u - _sliced(SYS, drive, drive.duration)).max() < 1e-6
        assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


@pytest.mark.parametrize("slices", [2481.5, 4096.5, 4100.5, 8230.5])
def test_stroboscopic_remainder_across_blocks(slices):
    # at 1024 steps a period of 8272 slices is cut into 251 runs of 33, the last one late, whose
    # diagonals are filled 11 steps at a time; the remainders end at steps of several chunks
    tone = DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4)
    cfg = IntegrationConfig(steps_per_shortest_period=1024)
    period, n_span, dt = _period_grid(SYS, tone, 1024)
    runs = dynamics._Runs(n_span, 1, False)
    assert runs.chunk < dynamics._CHAIN < runs.steps and len(runs.starts) <= dynamics._MAX_RUNS
    drive = DriveSpec(tones=(tone,), duration=2 * period + slices * dt)
    u = evolve(SYS, drive, cfg)
    assert np.abs(u - _stroboscopic_reference(SYS, drive, 1024)).max() < 1e-12
    assert np.abs(u - _sliced(SYS, drive, drive.duration, 1024)).max() < 1e-6
    assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12


@pytest.mark.parametrize("steps", [32, 1024])
def test_stroboscopic_heads_in_every_kind_of_run(steps):
    # a period of 259 slices (16 runs of 16 and a late run) or of 8272 (250 runs of 33 and a
    # late run); the remainder's head ends in the first run, a middle run, the late run, and
    # at the end of a middle run
    tone = DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4)
    period, n_span, dt = _period_grid(SYS, tone, steps)
    runs = dynamics._Runs(n_span, 1, False)
    middle = len(runs.starts) // 2
    assert runs.late_start < runs.steps and n_span - 2 > runs.starts[-2] + runs.steps
    for head in (runs.steps // 2, middle * runs.steps + 3, n_span - 2, middle * runs.steps):
        drive = DriveSpec(tones=(tone,), duration=2 * period + (head + 0.5) * dt)
        u = evolve(SYS, drive, IntegrationConfig(steps))
        assert np.abs(u - _stroboscopic_reference(SYS, drive, steps)).max() < 1e-12, head


def test_a_head_of_every_slice_is_the_span_product():
    # evolve caps a head at the period's slices, which rounding of r / dt could reach
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    drive = DriveSpec(tones=(DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4),), duration=1.0)
    for n in (1, 259):
        u, head = dynamics._slice_products(energies, basis, drive, n * KERNEL_DT, n, n)
        assert np.array_equal(head, u)


def _kernel_calls(drive, cfg):
    """The spans of slices, as _Runs layouts, that evolve hands the kernel for one drive."""
    with mock.patch.object(dynamics, "_block_product",
                           wraps=dynamics._block_product) as kernel:
        evolve(SYS, drive, cfg)
    return [call.args[2] for call in kernel.call_args_list]


@pytest.mark.parametrize("steps", [32, 1024])
def test_single_tone_drive_runs_one_kernel_pass(steps):
    # a period of 259 or 8272 slices and a remainder of 0.6 periods: one pass over the period
    tone = DriveTone(frequency=0.9, amplitude=4e-3, phase=0.4)
    cfg = IntegrationConfig(steps_per_shortest_period=steps)
    period, n_span, _ = _period_grid(SYS, tone, steps)
    (runs,) = _kernel_calls(DriveSpec(tones=(tone,), duration=2.6 * period), cfg)
    assert runs.starts[-1] + runs.steps == n_span
    # a two-tone drive is sliced uniformly, in one pass over all its slices
    two_tone = DriveSpec(tones=(tone, DriveTone(0.7, 4e-3)), duration=2.6 * period)
    (runs,) = _kernel_calls(two_tone, cfg)
    assert runs.starts[-1] + runs.steps == _slice_count(SYS, two_tone, two_tone.duration, steps)


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


@pytest.mark.parametrize("n", [2, 3, 185, 2**20 + 1])
def test_unitary_power_matches_svd_projected_squaring(n):
    u = _random_unitary(np.random.default_rng(n))
    with mock.patch.object(dynamics, "_polar_unitary",
                           wraps=dynamics._polar_unitary) as projection:
        power = dynamics._unitary_power(u, n)
    # one projection per set bit after the lowest and one per squaring, none after the highest
    assert projection.call_count == bin(n).count("1") + n.bit_length() - 2
    # squaring amplifies a rounding-level change of u about n-fold, for the SVD path as well
    assert np.abs(power - _svd_power(u, n)).max() <= max(1e-12, n * 1e-15)


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
    assert np.array_equal(dynamics._IDENTITY, np.eye(DIM))


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


# slice counts around the run layout (see test_runs_cover_every_slice_once)
SLICE_COUNTS = (1, 15, 16, 17, 4095, 4096, 4097, 8193)
KERNEL_DT = 0.025


def _split_prefix_products(drive, counts):
    """Strang-split slices of width KERNEL_DT applied one at a time, by expm.

    Returns the product over the first n slices for every n in counts.
    """
    h_static = build_hamiltonian(SYS)
    half = expm(-0.5j * KERNEL_DT * h_static)
    t_mid = (np.arange(max(counts)) + 0.5) * KERNEL_DT
    axis_ops = {"X": SYS.ops.Ix, "Y": SYS.ops.Iy}
    v = np.zeros((t_mid.size, DIM, DIM), dtype=complex)
    for tone in drive.tones:
        envelope = -tone.amplitude * np.cos(tone.frequency * t_mid + tone.phase)
        v += envelope[:, None, None] * axis_ops[tone.axis]
    u, products = np.eye(DIM, dtype=complex), {}
    for n, kick in enumerate(expm(-1j * KERNEL_DT * v), start=1):
        u = half @ kick @ half @ u
        if n in counts:
            products[n] = u
    return products


@pytest.mark.parametrize("axes", [("X", "X"), ("Y",), ("X", "Y")])
def test_slice_kernel_matches_one_slice_at_a_time(axes):
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    # tone phases near 1e4 rad, as late in a long gate: each slice's field comes
    # from one coefficient at its run's start times a phasor of its step
    for shift in (0.0, 1e4):
        tones = tuple(DriveTone(_transition(*pair), 0.05, phase + shift, axis)
                      for pair, phase, axis in zip(((6, 7), (4, 5)), (0.3, 1.1), axes))
        drive = DriveSpec(tones=tones, duration=1.0)
        for n, expected in _split_prefix_products(drive, SLICE_COUNTS).items():
            u = dynamics._slice_product(energies, basis, drive, n * KERNEL_DT, n)
            # rounding in the constant step grows linearly, about 2.4e-16 a slice
            assert np.abs(u - expected).max() <= max(1e-12, 5e-16 * n), (shift, n)


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


# (count, runs, steps per run, late last run): fewer slices than the run cap, where runs
# are about as many as steps; runs of _CHAIN or more filling the cap exactly; a late run
RUN_LAYOUTS = [(1, 1, 1, False), (17, 5, 4, True), (100, 10, 10, False), (200, 15, 14, True),
               (4095, 256, 16, True), (4096, 256, 16, False), (4097, 241, 17, False),
               (5120, 256, 20, False), (6001, 251, 24, True), (8193, 249, 33, True),
               (57583, 256, 225, True), (10**8, 256, 390625, False)]


@pytest.mark.parametrize("count,n_runs,steps,late", RUN_LAYOUTS)
def test_runs_cover_every_slice_once(count, n_runs, steps, late):
    runs = dynamics._Runs(count, 1, False)
    assert (len(runs.starts), runs.steps, runs.late_start < runs.steps) == (n_runs, steps, late)
    if count <= 4096:   # a span of up to 4096 slices keeps runs of min(_CHAIN, isqrt(count))
        assert steps == min(dynamics._CHAIN, math.isqrt(count))
    # run r takes slice starts[r] + k at step k, the late run from late_start on: the runs'
    # slices follow each other without a gap or an overlap
    begins, ends = runs.starts.copy(), runs.starts + steps
    if late:
        begins[-1] += runs.late_start
    assert begins[0] == 0 and ends[-1] == count and np.array_equal(begins[1:], ends[:-1])
    # the diagonals are filled a whole chunk of at most _CHAIN steps at a time
    assert runs.chunk <= dynamics._CHAIN and runs.padded % runs.chunk == 0
    assert steps <= runs.padded < steps + runs.padded // runs.chunk


@pytest.mark.parametrize("count", [1, 5, 9, 10, 4097])
def test_block_buffers_are_views_of_the_run_arrays(count):
    # 1 slice: one run; 5 and 9: three runs (5 with a late start); 10: four; 4097: 241 of 17
    runs = dynamics._Runs(count, 2, True)
    n_runs = len(runs.starts)
    assert runs.work.shape == (2, DIM, n_runs, DIM) and runs.work.flags.c_contiguous
    assert runs.rows.shape == (2, DIM * n_runs, 2 * DIM)
    assert runs.trees.shape == (2, n_runs, DIM, DIM)
    assert runs.fields.shape == (2, runs.chunk, n_runs)
    assert runs.phases.shape == runs.turns.shape == (runs.chunk, n_runs, DIM)
    # a reshape that copied would take matmul's out= writes and the tree's copy elsewhere
    for view in (runs.rows, runs.trees):
        for side in (0, 1):
            assert np.shares_memory(view[side], runs.work[side])
            assert not np.shares_memory(view[side], runs.work[1 - side])
    runs.rows[1][...] = 0.5
    assert np.all(runs.work[1] == 0.5 + 0.5j)
    runs.trees[0][...] = 2.0
    assert np.all(runs.work[0] == 2.0)


@pytest.mark.parametrize("axes", [("X", "X"), ("X", "Y")])
def test_every_run_layout_matches_one_slice_at_a_time(axes):
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    tones = tuple(DriveTone(_transition(*pair), 0.05, phase, axis)
                  for pair, phase, axis in zip(((6, 7), (4, 5)), (0.3, 1.1), axes))
    drive = DriveSpec(tones=tones, duration=1.0)
    # longer spans are checked against a bound that grows with the slice count, see SLICE_COUNTS
    counts = [count for count, *_ in RUN_LAYOUTS if count <= 6001]
    for n, expected in _split_prefix_products(drive, counts).items():
        u = dynamics._slice_product(energies, basis, drive, n * KERNEL_DT, n)
        assert np.abs(u - expected).max() <= 1e-12, n


@pytest.mark.parametrize("axes,n_slices", [
    (("X", "X"), 1), (("X", "X"), 9), (("X", "X"), 5), (("X", "Y"), 1), (("X", "Y"), 15),
    (("X", "Y"), 4097)])
def test_block_products_do_not_alias_the_work_buffers(axes, n_slices):
    energies, basis = np.linalg.eigh(build_hamiltonian(SYS))
    tones = tuple(DriveTone(_transition(*pair), 0.05, 0.3, axis)
                  for pair, axis in zip(((6, 7), (4, 5)), axes))
    drive = DriveSpec(tones=tones, duration=1.0)
    kernel, aliased = dynamics._block_product, []

    def recording(stages, fill, runs, cut=0):
        product, head = kernel(stages, fill, runs, cut)
        aliased.append(np.shares_memory(product, runs.work))
        runs.work[...] = np.nan   # a view into work would now read nan
        return product, head

    with mock.patch.object(dynamics, "_block_product", recording):
        u = dynamics._slice_product(energies, basis, drive, n_slices * KERNEL_DT, n_slices)
    assert aliased and not any(aliased)
    assert np.all(np.isfinite(u))
    expected = _split_prefix_products(drive, (n_slices,))[n_slices]
    assert np.abs(u - expected).max() <= 1e-12


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
    period, n_span, dt = _period_grid(SYS, tone, dynamics.MAX_SLICES)
    assert n_span == dynamics.MAX_SLICES
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
    ix = make_spin_operators().Ix
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
    ix = make_spin_operators().Ix
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
    ix = make_spin_operators().Ix
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
    ix = make_spin_operators().Ix

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
