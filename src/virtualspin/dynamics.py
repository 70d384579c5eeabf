"""Exact driven-spin dynamics: the oracle for the idealized pulse model.

The laboratory-frame Hamiltonian of the driven spin is

    H(t) = H_static - sum_tones amplitude * I_axis * cos(Omega t + f)

with the drive operators Ix / Iy taken in the bare Zeeman basis (the coil
geometry does not know about quadrupole dressing).  The propagator is a
time-ordered product over uniform slices, each a second-order Strang split
about the slice midpoint (Strang, SIAM J. Numer. Anal. 5, 506, 1968):

    e^{-i H_static dt/2}  e^{-i dt V(t_mid)}  e^{-i H_static dt/2}.

Neighbouring half steps merge into one constant e^{-i H_static dt}, and the
drive step is a diagonal phase in the fixed eigenbasis of Ix (turned by
the diagonal e^{-i alpha Iz} when X and Y tones mix), so no slice needs an
eigendecomposition.  No per-slice 8x8 factor is formed either: runs of up
to 16 consecutive slices advance in lock step, their partial products side
by side in one 8 x (8 runs) array, so a slice step is one matrix product
and one row scaling for every run at once; the run products are then
multiplied pairwise.  Every factor is unitary up to rounding, and each block
of slices is projected back onto the unitaries.  Slices resolve the fastest
scale present (static level spread and every drive frequency) with at
least `steps_per_shortest_period` points per period.

The drive selects how much of the pulse is sliced.  Without tones the
Hamiltonian is constant and the propagator is one exact exponential.  A
single tone of frequency Omega makes H periodic
with T = 2 pi / |Omega|, so U(n T) = U(T)^n (Floquet; Shirley, Phys. Rev.
138, B979, 1965): once the pulse lasts at least two periods, only one
period is sliced, its propagator is raised to n = floor(duration / T) by
repeated squaring with every product projected back onto the nearest
unitary (the polar factor of its SVD), and the sliced remainder is applied
last.  The cost is then independent of the pulse length.  Multi-tone
drives are sliced uniformly over the whole pulse; a drive needing more
than MAX_SLICES slices is refused before any integration starts.

Amplitude bookkeeping: `amplitude` is the full coefficient of the linearly
polarized drive term above.  A linear drive of amplitude 2*gammaHrf has a
co-rotating component gammaHrf, which is what the idealized rotation-angle
formula  angle = 2 t gammaHrf |<n|Ix|m>|  refers to.  The helpers that
realize idealized tones therefore set amplitude = 2*gammaHrf, and choose
the drive phase  f_drive = arg<psi_m|I_axis|psi_n> - f - (pi/2 for Y)  so
that the co-rotating term reproduces the idealized propagator with RF
phase f exactly (in the rotating-wave limit).

Sequential pulse groups compose in per-group interaction pictures: each
group's drive phase and free-evolution reference start at the group's own
start time, matching how the idealized schedule product is written.
"""

import math
from dataclasses import dataclass

import numpy as np

from .compiler import PulseSchedule, resolve_schedule, schedule_propagator
from .errors import DegenerateFitError, InputError, ResolutionError
from .operators import DIM
from .pulses import AXES, PulseParams, Tone, pulse_propagator
from .spectrum import Spectrum, drive_elements, exact_spectrum
from .system import SpinSystem, build_hamiltonian

MIN_STEPS_PER_PERIOD = 20

_SLICE_CHUNK = 1 << 12
_CHAIN = 16

MAX_SLICES = 10**8


@dataclass(frozen=True)
class DriveTone:
    """One oscillating field component: amplitude * I_axis * cos(Omega t + phase)."""

    frequency: float
    amplitude: float
    phase: float = 0.0
    axis: str = "X"

    def __post_init__(self):
        if not (math.isfinite(self.frequency) and math.isfinite(self.phase)):
            raise InputError(f"drive frequency and phase must be finite, "
                             f"got {self.frequency} and {self.phase}")
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise InputError(f"drive amplitude must be positive and finite, "
                             f"got {self.amplitude}")
        if self.axis not in AXES:
            raise InputError(f"drive axis must be one of {AXES}, got {self.axis!r}")


@dataclass(frozen=True)
class DriveSpec:
    """A set of simultaneous drive tones played for `duration`."""

    tones: tuple
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise InputError(f"duration must be finite and non-negative, "
                             f"got {self.duration}")


@dataclass(frozen=True)
class IntegrationConfig:
    """Time-slicing control for the split-operator integrator."""

    steps_per_shortest_period: int = 32

    def __post_init__(self):
        if self.steps_per_shortest_period < MIN_STEPS_PER_PERIOD:
            raise ResolutionError(
                f"steps_per_shortest_period = {self.steps_per_shortest_period} "
                f"under-resolves the shortest oscillation period; "
                f"need at least {MIN_STEPS_PER_PERIOD}")


def evolve(sys: SpinSystem, drive: DriveSpec,
           cfg: IntegrationConfig = IntegrationConfig()) -> np.ndarray:
    """Time-ordered propagator of the driven spin over drive.duration, in the bare Zeeman basis.

    Raises ResolutionError, before integrating anything, when the drive
    needs more than MAX_SLICES time slices.
    """
    if drive.duration == 0:
        return np.eye(DIM, dtype=complex)

    h_static = build_hamiltonian(sys)
    if not drive.tones:
        # the Hamiltonian is constant: one exact exponential
        energies, basis = np.linalg.eigh(h_static)
        return _phase_conjugate(basis, np.exp(-1j * energies * drive.duration))

    evals = np.linalg.eigvalsh(h_static)
    omega_max = max(float(evals[-1] - evals[0]), sys.omega0,
                    *(abs(t.frequency) for t in drive.tones))
    dt_max = (2 * np.pi / omega_max) / cfg.steps_per_shortest_period
    # a single tone is periodic: slice one period and raise it to a power
    span, n_periods = drive.duration, 1
    if len(drive.tones) == 1 and drive.tones[0].frequency != 0:
        period = 2 * np.pi / abs(drive.tones[0].frequency)
        whole = math.floor(drive.duration / period)
        if whole >= 2:
            span, n_periods = period, whole
    remainder = drive.duration - n_periods * span
    slices = _slice_count(span, dt_max) + (_slice_count(remainder, dt_max) if remainder > 0 else 0)
    if slices > MAX_SLICES:
        raise ResolutionError(
            f"the drive needs {slices:.3g} time slices, more than the limit of "
            f"{MAX_SLICES:.0e}; shorten the pulse or raise gammaHrf")

    u_total = _slice_product(sys, h_static, drive, span, dt_max)
    if n_periods > 1:
        u_total = _unitary_power(u_total, n_periods)
    if remainder > 0:
        u_total = _polar_unitary(_slice_product(sys, h_static, drive, remainder, dt_max) @ u_total)
    return u_total


def _slice_count(span: float, dt_max: float) -> int:
    return max(1, math.ceil(span / dt_max))


def _phase_conjugate(basis: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """basis @ diag(phases) @ basis^dagger."""
    return (basis * phases) @ basis.conj().T


def _slice_product(sys: SpinSystem, h_static: np.ndarray, drive: DriveSpec,
                   span: float, dt_max: float) -> np.ndarray:
    """Strang-split midpoint slices over [0, span], each at most dt_max wide.

    A slice is  C_h e^{-i dt V(t_mid)} C_h  with C_h = e^{-i H_static dt/2};
    neighbouring half steps merge into C = C_h^2, so the product is
    C_h [F_N ... F_1] C_h^dagger  with  F_j = e^{-i dt V_j} C.  The drive
    V = A Ix + B Iy = r e^{-i alpha Iz} Ix e^{i alpha Iz} is a diagonal
    phase in the eigenbasis W of Ix, rotated by the diagonal e^{-i alpha Iz}.
    A one-axis drive keeps alpha fixed, so in that frame each factor is a
    diagonal scaling of the constant M = W^dagger C W; a mixed drive applies
    C, e^{i alpha Iz}, W^dagger, the phase, W and e^{-i alpha Iz} in turn.
    Each block of slices is cut into runs of up to _CHAIN consecutive slices
    that _chain_products multiplies in lock step, and the run products are
    then multiplied pairwise.
    """
    n_slices = _slice_count(span, dt_max)
    dt = span / n_slices
    energies, basis = np.linalg.eigh(h_static)
    step = _polar_unitary(_phase_conjugate(basis, np.exp(-1j * energies * dt)))
    half = _phase_conjugate(basis, np.exp(-0.5j * energies * dt))

    axes = sorted({tone.axis for tone in drive.tones})
    mixed = len(axes) > 1
    # Ix and Iy have the eigenvalues of Iz, M_VALUES, in ascending order
    _, w = np.linalg.eigh(sys.ops.Iy if axes == ["Y"] else sys.ops.Ix)
    if mixed:
        frame = half
    else:
        frame = half @ w
        step = _polar_unitary(w.conj().T @ step @ w)

    def stages(t_mid):
        """(matrix, diagonals) stages of the slices at midpoints t_mid, shape (steps, runs)."""
        field = {"X": np.zeros(t_mid.shape), "Y": np.zeros(t_mid.shape)}
        for tone in drive.tones:
            field[tone.axis] -= tone.amplitude * np.cos(tone.frequency * t_mid + tone.phase)
        strength = np.hypot(field["X"], field["Y"]) if mixed else field[axes[0]]
        phases = _iz_phases(np.exp(-0.5j * dt * strength))
        if not mixed:
            return ((step, phases),)
        turn = _iz_phases(np.exp(-0.5j * np.arctan2(field["Y"], field["X"])))
        return ((step, turn.conj()), (w.conj().T, phases), (w, turn))

    product = np.eye(DIM, dtype=complex)
    for start in range(0, n_slices, _SLICE_CHUNK):
        count = min(_SLICE_CHUNK, n_slices - start)
        # short spans take fewer, shorter runs: about as many runs as steps
        length = min(_CHAIN, math.isqrt(count))
        rest = count % length
        # slice start + r*length + k of run r sits at [k, r]; slices left over
        # form one more run over the block's last `length` slices, started late
        index = np.arange(count - rest).reshape(-1, length).T
        if rest:
            index = np.column_stack([index, np.arange(count - length, count)])
        runs = _chain_products(stages((start + index + 0.5) * dt), late_start=length - rest)
        product = _polar_unitary(_time_ordered_product(runs) @ product)
    return frame @ product @ frame.conj().T


def _iz_phases(z: np.ndarray) -> np.ndarray:
    """z**(2 m) for the Iz eigenvalues m of M_VALUES, stacked on a new axis 1.

    z has unit modulus, so negative powers are the conjugates; the odd
    powers come from repeated multiplication by z**2.
    """
    powers = [z]
    square = z * z
    for _ in range(DIM // 2 - 1):
        powers.append(powers[-1] * square)
    return np.stack([p.conj() for p in powers[::-1]] + powers, axis=1)


def _chain_products(stages, late_start: int) -> np.ndarray:
    """Products of runs of consecutive slices, multiplied in lock step.

    Each stage is a constant (DIM, DIM) matrix and per-slice diagonals of
    shape (steps, DIM, runs); a slice applies every stage's matrix and then
    its diagonal, in order.  The runs' partial products sit side by side in
    one array, so each stage of a step is one matrix product and one row
    scaling along the contiguous run axis.  The last run restarts from the
    identity at step late_start (if there is such a step), dropping the
    slices before it.  Returns
    (runs, DIM, DIM), the product of run r being entry r.
    """
    steps, _, runs = stages[0][1].shape
    # entry [i, j, r] of run r's partial product
    stacked = np.repeat(np.eye(DIM, dtype=complex)[:, :, None], runs, axis=2)
    spare = np.empty_like(stacked)
    for k in range(steps):
        if k == late_start:
            stacked[:, :, -1] = np.eye(DIM)
        for matrix, diagonals in stages:
            np.matmul(matrix, stacked.reshape(DIM, -1), out=spare.reshape(DIM, -1))
            stacked, spare = spare, stacked
            stacked *= diagonals[k][:, None, :]
    return stacked.transpose(2, 0, 1)


def _time_ordered_product(props: np.ndarray) -> np.ndarray:
    """Product props[-1] @ ... @ props[0] by pairwise batched reduction."""
    while props.shape[0] > 1:
        n = props.shape[0]
        half = n // 2
        paired = props[1:2 * half:2] @ props[0:2 * half:2]
        props = np.concatenate([paired, props[2 * half:]], axis=0) if n % 2 else paired
    return props[0]


def _unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """u**n by repeated squaring, each product projected back onto the unitaries."""
    result = np.eye(DIM, dtype=complex)
    while n:
        if n & 1:
            result = _polar_unitary(u @ result)
        u = _polar_unitary(u @ u)
        n >>= 1
    return result


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Nearest unitary to m in the Frobenius norm: the polar factor of its SVD."""
    left, _, right = np.linalg.svd(m)
    return left @ right


def interaction_propagator(spectrum: Spectrum, u_lab: np.ndarray,
                           duration: float) -> np.ndarray:
    """Lab propagator re-expressed in the eigenbasis with free phases removed."""
    psi = spectrum.states
    u_eig = psi.conj().T @ u_lab @ psi
    return np.exp(1j * spectrum.energies * duration)[:, None] * u_eig


def _play_group(sys: SpinSystem, spectrum: Spectrum, group,
                cfg: IntegrationConfig) -> tuple[float, np.ndarray]:
    """Common duration of simultaneous resolved tones and their interaction-picture propagator.

    The group lasts as long as its slowest tone (the largest tone.duration);
    each tone plays at its own tone.omega, faster tones with proportionally
    weaker amplitudes, and zero-angle tones play no drive.
    """
    duration = max((t.duration for t in group), default=0.0)
    if duration == 0:
        return duration, np.eye(DIM, dtype=complex)
    drive = []
    for tone in group:
        if tone.angle == 0:
            continue
        element = drive_elements(spectrum, tone.axis)[tone.upper, tone.lower]
        # a negative rotation angle is a positive one with the phase advanced by pi
        phase = tone.phase + (np.pi if tone.angle < 0 else 0.0)
        f_drive = float(np.angle(element)) - phase - (np.pi / 2 if tone.axis == "Y" else 0.0)
        amplitude = abs(tone.angle) / (duration * abs(element))
        drive.append(DriveTone(frequency=tone.omega, amplitude=amplitude, phase=f_drive,
                               axis=tone.axis))
    u_lab = evolve(sys, DriveSpec(tones=drive, duration=duration), cfg)
    return duration, interaction_propagator(spectrum, u_lab, duration)


def rwa_deviation(sys: SpinSystem, tone: Tone, params: PulseParams,
                  cfg: IntegrationConfig = IntegrationConfig()) -> float:
    """Distance between the exact and the idealized propagator of one tone.

    Integrates the resonant drive realizing `tone` at amplitude
    params.gammaHrf, expresses the result in the interaction picture of
    the static Hamiltonian, and returns the maximum entrywise modulus
    difference from pulse_propagator(tone).  Grows with gammaHrf/omega0
    (counter-rotating terms and off-resonant leakage onto the other
    transitions).
    """
    spectrum = exact_spectrum(sys)
    resolved = resolve_schedule(PulseSchedule(gates=(), groups=((tone,),)), spectrum,
                                params.gammaHrf).groups[0]
    _, u_int = _play_group(sys, spectrum, resolved, cfg)
    return float(np.abs(u_int - pulse_propagator(tone)).max())


@dataclass(frozen=True, eq=False)
class ScheduleSimulation:
    """Physical simulation of a compiled schedule vs its idealized model."""

    ideal: np.ndarray          # idealized schedule propagator (eigenbasis)
    actual: np.ndarray         # integrated propagator, interaction picture
    deviation: float           # max entrywise modulus difference
    transfer: dict             # input label -> (ideal output label, probability)
    group_durations: tuple


def simulate_schedule(sys: SpinSystem, sched: PulseSchedule, gamma_hrf: float,
                      cfg: IntegrationConfig = IntegrationConfig()) -> ScheduleSimulation:
    """Integrate the physical drive realizing a schedule and compare to the ideal.

    The schedule is re-resolved at sys and gamma_hrf first.  Tones within a
    group play simultaneously for a common duration (see _play_group).
    Each group is analyzed in its own interaction picture and the groups
    compose in order.
    """
    spectrum = exact_spectrum(sys)
    sched = resolve_schedule(sched, spectrum, gamma_hrf)
    u_actual = np.eye(DIM, dtype=complex)
    durations = []
    for group in sched.groups:
        group_duration, u_group = _play_group(sys, spectrum, group, cfg)
        durations.append(group_duration)
        u_actual = u_group @ u_actual

    u_ideal = schedule_propagator(sched)
    deviation = float(np.abs(u_actual - u_ideal).max())
    transfer = {}
    not_family = all(g.is_not_family for g in sched.gates)
    for label in range(DIM):
        probability = float(abs(u_ideal[:, label].conj() @ u_actual[:, label]) ** 2)
        # the largest entry of the ideal column; an edited NOT-family schedule need not permute
        out = int(np.argmax(np.abs(u_ideal[:, label]))) if not_family else label
        transfer[label] = (out, probability)
    return ScheduleSimulation(ideal=u_ideal, actual=u_actual, deviation=deviation,
                              transfer=transfer, group_durations=tuple(durations))


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Log-log scaling of a transition element against omegaQ/omega0."""

    pair: tuple[int, int]
    ratios: np.ndarray
    elements: np.ndarray
    slope: float
    local_slopes: np.ndarray


def forbidden_scaling(sys: SpinSystem, pair: tuple[int, int],
                      ratios=None) -> ScalingFit:
    """Fit |<psi_N|Ix|psi_M>| ~ (omegaQ/omega0)^slope over a coupling sweep.

    Allowed (delta-m = +-1) pairs give slope ~ 0; pairs that open up
    through first-order quadrupole mixing give slope ~ 1; higher-order
    pairs give correspondingly larger slopes.  Raises DegenerateFitError
    when every element is numerically zero (e.g. theta = 0, where the
    mixing vanishes identically).
    """
    m_label, n_label = pair
    if not (0 <= m_label < DIM and 0 <= n_label < DIM) or m_label == n_label:
        raise InputError(f"pair must be two distinct labels in 0..{DIM - 1}, got {pair}")
    if ratios is None:
        ratios = np.logspace(-4, -2, 20)
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size < 2:
        raise InputError("need at least two sweep points to fit a slope")
    elements = np.empty_like(ratios)
    for i, ratio in enumerate(ratios):
        swept = SpinSystem(omega0=sys.omega0, omegaQ=ratio * sys.omega0,
                           theta=sys.theta, phi=sys.phi, q2_form=sys.q2_form)
        elements[i] = abs(drive_elements(exact_spectrum(swept))[n_label, m_label])
    if np.all(elements < 1e-14):
        message = (f"all |<psi_{n_label}|Ix|psi_{m_label}>| elements are below "
                   f"1e-14 over the sweep; the scaling fit is degenerate")
        if sys.theta == 0:
            message += " (theta = 0 disables quadrupole mixing)"
        raise DegenerateFitError(message)
    log_r = np.log(ratios)
    log_e = np.log(np.maximum(elements, 1e-300))
    slope = float(np.polyfit(log_r, log_e, 1)[0])
    local = np.empty_like(ratios)
    for i in range(ratios.size):
        j1, j2 = max(0, i - 1), min(ratios.size - 1, i + 1)
        local[i] = (log_e[j2] - log_e[j1]) / (log_r[j2] - log_r[j1])
    return ScalingFit(pair=(m_label, n_label), ratios=ratios, elements=elements,
                      slope=slope, local_slopes=local)
