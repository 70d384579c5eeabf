"""Exact driven-spin dynamics: the oracle for the idealized pulse model.

The laboratory-frame Hamiltonian of the driven spin is

    H(t) = H_static - sum_tones amplitude * I_axis * cos(Omega t + f)

with the drive operators Ix / Iy taken in the bare Zeeman basis (the coil
geometry does not know about quadrupole dressing).  The propagator is
computed as a time-ordered product of exact matrix exponentials over
uniform slices, sampling H at each slice midpoint; this is unconditionally
unitary and second-order accurate in the slice width.  Slices resolve the
fastest scale present (static level spread and every drive frequency) with
at least `steps_per_shortest_period` points per period.

The drive selects how much of the pulse is sliced.  Without tones the
lab-frame Hamiltonian is constant and the propagator is one exact
exponential.  A single lab-frame tone of frequency Omega makes H periodic
with T = 2 pi / |Omega|, so U(n T) = U(T)^n (Floquet; Shirley, Phys. Rev.
138, B979, 1965): once the pulse lasts at least two periods, only one
period is sliced, its propagator is raised to n = floor(duration / T) by
repeated squaring with every product projected back onto the nearest
unitary (the polar factor of its SVD), and the sliced remainder is applied
last.  The cost is then independent of the pulse length.  Multi-tone and
rotating-frame drives are sliced uniformly over the whole pulse.

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

from .compiler import PulseSchedule, schedule_propagator, truth_table
from .errors import (DegenerateFitError, ForbiddenTransitionError, InputError,
                     ResolutionError)
from .operators import DIM, M_VALUES, make_spin_operators
from .pulses import AXES, PulseParams, Tone, pulse_duration, pulse_propagator
from .spectrum import Spectrum, exact_spectrum
from .system import SpinSystem, build_hamiltonian

LAB_FRAME = "lab"
ROTATING_FRAME = "rotating-at-omega0"
FRAMES = (LAB_FRAME, ROTATING_FRAME)

MIN_STEPS_PER_PERIOD = 20

_SLICE_CHUNK = 1 << 15


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
    frame: str = LAB_FRAME

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if not (self.duration >= 0 and math.isfinite(self.duration)):
            raise InputError(f"duration must be finite and non-negative, "
                             f"got {self.duration}")
        if self.frame not in FRAMES:
            raise InputError(f"frame must be one of {FRAMES}, got {self.frame!r}")


@dataclass(frozen=True)
class IntegrationConfig:
    """Time-slicing control for the piecewise-constant-exponential integrator."""

    steps_per_shortest_period: int = 32

    def __post_init__(self):
        if self.steps_per_shortest_period < MIN_STEPS_PER_PERIOD:
            raise ResolutionError(
                f"steps_per_shortest_period = {self.steps_per_shortest_period} "
                f"under-resolves the shortest oscillation period; "
                f"need at least {MIN_STEPS_PER_PERIOD}")


def evolve(sys: SpinSystem, drive: DriveSpec,
           cfg: IntegrationConfig = IntegrationConfig()) -> np.ndarray:
    """Time-ordered propagator of the driven spin over drive.duration.

    Returns the unitary in the bare Zeeman basis, either in the lab frame
    or in the frame rotating at omega0 about z (which removes the Zeeman
    term and shifts every drive component by +-omega0).
    """
    if drive.duration == 0:
        return np.eye(DIM, dtype=complex)

    h_static = build_hamiltonian(sys)
    lab = drive.frame == LAB_FRAME
    if lab and not drive.tones:
        # the Hamiltonian is constant: one slice is exact
        return _slice_product(sys, h_static, drive, drive.duration, math.inf)

    evals = np.linalg.eigvalsh(h_static)
    omega_max = max(float(evals[-1] - evals[0]),
                    max((abs(t.frequency) for t in drive.tones), default=0.0),
                    sys.omega0)
    dt_max = (2 * np.pi / omega_max) / cfg.steps_per_shortest_period
    if lab and len(drive.tones) == 1 and drive.tones[0].frequency != 0:
        period = 2 * np.pi / abs(drive.tones[0].frequency)
        n_periods = math.floor(drive.duration / period)
        if n_periods >= 2:
            u_total = _unitary_power(_slice_product(sys, h_static, drive, period, dt_max),
                                     n_periods)
            remainder = drive.duration - n_periods * period
            if remainder > 0:
                u_total = _polar_unitary(
                    _slice_product(sys, h_static, drive, remainder, dt_max) @ u_total)
            return u_total
    return _slice_product(sys, h_static, drive, drive.duration, dt_max)


def _slice_product(sys: SpinSystem, h_static: np.ndarray, drive: DriveSpec,
                   span: float, dt_max: float) -> np.ndarray:
    """Midpoint-sampled exact exponentials over [0, span] in slices of at most dt_max."""
    ops = sys.ops
    n_slices = max(1, math.ceil(span / dt_max))
    dt = span / n_slices

    rotating = drive.frame == ROTATING_FRAME
    if rotating:
        # H_rot(t) = e^{-i w0 t Iz} (H_static + w0 Iz + V(t)) e^{+i w0 t Iz}
        h_base = h_static + sys.omega0 * ops.Iz
        dm = M_VALUES[:, None] - M_VALUES[None, :]
    else:
        h_base = h_static

    axis_ops = {"X": ops.Ix, "Y": ops.Iy}
    u_total = np.eye(DIM, dtype=complex)
    for start in range(0, n_slices, _SLICE_CHUNK):
        count = min(_SLICE_CHUNK, n_slices - start)
        t_mid = (np.arange(start, start + count) + 0.5) * dt
        h_slices = np.broadcast_to(h_base, (count, DIM, DIM)).copy()
        for tone in drive.tones:
            envelope = -tone.amplitude * np.cos(tone.frequency * t_mid + tone.phase)
            h_slices += envelope[:, None, None] * axis_ops[tone.axis]
        if rotating:
            h_slices *= np.exp(-1j * sys.omega0 * t_mid[:, None, None] * dm)
        w, v = np.linalg.eigh(h_slices)
        props = (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2)
        u_total = _time_ordered_product(props) @ u_total
    return u_total


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


def rotating_frame_transform(sys: SpinSystem, u_lab: np.ndarray,
                             duration: float) -> np.ndarray:
    """Re-express a lab-frame propagator in the rotating-at-omega0 frame."""
    phases = np.exp(-1j * sys.omega0 * duration * M_VALUES)
    return phases[:, None] * u_lab


def interaction_propagator(spectrum: Spectrum, u_lab: np.ndarray,
                           duration: float) -> np.ndarray:
    """Lab propagator re-expressed in the eigenbasis with free phases removed."""
    psi = spectrum.states
    u_eig = psi.conj().T @ u_lab @ psi
    return np.exp(1j * spectrum.energies * duration)[:, None] * u_eig


def _drive_for_tone(spectrum: Spectrum, tone: Tone, gamma_hrf: float,
                    sys: SpinSystem, duration: float | None = None):
    """Physical drive tone realizing an idealized tone, and its duration."""
    ops = sys.ops
    axis_op = ops.Ix if tone.axis == "X" else ops.Iy
    psi = spectrum.states
    element = complex(psi[:, tone.upper].conj() @ axis_op @ psi[:, tone.lower])
    magnitude = abs(element)
    if magnitude == 0:
        raise ForbiddenTransitionError(
            f"transition ({tone.upper},{tone.lower}) has zero "
            f"I{tone.axis.lower()} matrix element")
    omega = float(spectrum.energies[tone.upper] - spectrum.energies[tone.lower])
    # a negative rotation angle is a positive one with the phase advanced by pi
    angle, phase = abs(tone.angle), tone.phase + (np.pi if tone.angle < 0 else 0.0)
    if duration is None:
        duration = pulse_duration(angle, PulseParams(gammaHrf=gamma_hrf), magnitude)
        rotating_amp = gamma_hrf if angle > 0 else 0.0
    else:
        # fit the requested angle into the imposed duration
        rotating_amp = angle / (2 * duration * magnitude) if duration > 0 else 0.0
    f_drive = float(np.angle(element)) - phase - (np.pi / 2 if tone.axis == "Y" else 0.0)
    drive_tone = None
    if rotating_amp > 0:
        drive_tone = DriveTone(frequency=omega, amplitude=2 * rotating_amp,
                               phase=f_drive, axis=tone.axis)
    return drive_tone, duration


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
    drive_tone, duration = _drive_for_tone(spectrum, tone, params.gammaHrf, sys)
    if duration == 0 or drive_tone is None:
        u_int = np.eye(DIM, dtype=complex)
    else:
        u_lab = evolve(sys, DriveSpec(tones=(drive_tone,), duration=duration), cfg)
        u_int = interaction_propagator(spectrum, u_lab, duration)
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

    Tones within a group play simultaneously for a common duration (set by
    the slowest tone at the requested gammaHrf; faster tones get
    proportionally weaker amplitudes).  Each group is analyzed in its own
    interaction picture and the groups compose in order.
    """
    if not gamma_hrf > 0:
        raise InputError(f"gammaHrf must be positive, got {gamma_hrf}")
    spectrum = exact_spectrum(sys)
    params = PulseParams(gammaHrf=gamma_hrf)
    u_actual = np.eye(DIM, dtype=complex)
    durations = []
    ix = sys.ops.Ix
    iy = sys.ops.Iy
    psi = spectrum.states
    for group in sched.groups:
        tone_lengths = []
        for tone in group:
            axis_op = ix if tone.axis == "X" else iy
            magnitude = abs(psi[:, tone.upper].conj() @ axis_op @ psi[:, tone.lower])
            if magnitude == 0:
                raise ForbiddenTransitionError(
                    f"transition ({tone.upper},{tone.lower}) has zero drive element")
            tone_lengths.append(pulse_duration(abs(tone.angle), params, magnitude))
        group_duration = max(tone_lengths, default=0.0)
        durations.append(group_duration)
        if group_duration == 0:
            continue
        drive_tones = []
        for tone in group:
            drive_tone, _ = _drive_for_tone(spectrum, tone, gamma_hrf, sys,
                                            duration=group_duration)
            if drive_tone is not None:
                drive_tones.append(drive_tone)
        u_lab = evolve(sys, DriveSpec(tones=tuple(drive_tones),
                                      duration=group_duration), cfg)
        u_actual = interaction_propagator(spectrum, u_lab, group_duration) @ u_actual

    u_ideal = schedule_propagator(sched)
    deviation = float(np.abs(u_actual - u_ideal).max())
    transfer = {}
    not_family = all(g.is_not_family for g in sched.gates)
    table = truth_table(sched.gates, propagator=u_ideal) if not_family else None
    for label in range(DIM):
        probability = float(abs(u_ideal[:, label].conj() @ u_actual[:, label]) ** 2)
        out = table[label][0] if table is not None else label
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
    ix = make_spin_operators().Ix
    elements = np.empty_like(ratios)
    for i, ratio in enumerate(ratios):
        swept = SpinSystem(omega0=sys.omega0, omegaQ=ratio * sys.omega0,
                           theta=sys.theta, phi=sys.phi, q2_form=sys.q2_form)
        spectrum = exact_spectrum(swept)
        psi = spectrum.states
        elements[i] = abs(psi[:, n_label].conj() @ ix @ psi[:, m_label])
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


@dataclass(frozen=True)
class TradeoffRow:
    """One amplitude setting: required duration and coherence-budget flag."""

    gammaHrf: float
    duration: float
    exceeds_budget: bool


def pulse_strength_tradeoff(sys: SpinSystem, pair: tuple[int, int],
                            target_angle: float, amplitudes,
                            coherence_budget: float = 1e5) -> list[TradeoffRow]:
    """Duration needed for `target_angle` on `pair` across drive amplitudes.

    duration = angle / (2 * gammaHrf * |<psi_N|Ix|psi_M>|); rows whose
    duration exceeds the coherence budget (default 1e5 / omega0) are
    flagged.  A zero matrix element raises ForbiddenTransitionError.
    """
    m_label, n_label = pair
    spectrum = exact_spectrum(sys)
    ix = make_spin_operators().Ix
    psi = spectrum.states
    element = abs(psi[:, n_label].conj() @ ix @ psi[:, m_label])
    rows = []
    for gamma_hrf in amplitudes:
        duration = pulse_duration(target_angle, PulseParams(gammaHrf=gamma_hrf), element)
        rows.append(TradeoffRow(gammaHrf=float(gamma_hrf), duration=float(duration),
                                exceeds_budget=duration > coherence_budget))
    return rows
