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
to 16 consecutive slices advance in lock step, each run's partial product
P kept transposed, X = P^T, and all runs' rows side by side in one
(8 runs) x 8 complex array.  A slice step P <- D M P is then X <- (X M^T) D:
one real matrix product of that array's float view, (8 runs) x 16, with
the 16 x 16 real form of M^T, and one scaling of every row by the diagonal
D; the run products are then multiplied pairwise.  No tone's cosine is
evaluated per slice: on the uniform grid a tone's field over a block of
slices is one complex coefficient, from the block's start time, times
phasors computed once per block size, and every per-slice array lives in
buffers that are reused block after block.  Every factor is unitary up to
rounding, and each block of slices is projected back onto the unitaries by
Newton-Schulz steps (see _polar_unitary): a few 8x8 products, not an SVD.
Slices resolve the fastest scale present (static level spread and every
drive frequency) with at least `steps_per_shortest_period` points per period.

The drive selects how much of the pulse is sliced.  Without tones the
Hamiltonian is constant and the propagator is one exact exponential.  A
single tone of frequency Omega makes H periodic with T = 2 pi / |Omega|,
so U(n T) = U(T)^n (Floquet; Shirley, Phys. Rev. 138, B979, 1965): once
the pulse lasts at least two periods, only one period is sliced, and its
propagator is raised to n = floor(duration / T) by repeated squaring,
starting from U(T) itself at the lowest set bit of n, with every product
projected back onto the nearest unitary (its polar factor, again by
Newton-Schulz); the sliced remainder is applied last.  The cost is then
independent of the pulse length.  Multi-tone drives are sliced uniformly
over the whole pulse.  `evolve` diagonalizes H_static once per drive and
counts the slices of the span and of the remainder once: a drive needing
more than MAX_SLICES slices is refused before any integration starts, and
the kernel is handed both.  So is a drive whose end time floating point
cannot place within one slice.

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
from dataclasses import dataclass, replace

import numpy as np

from .compiler import PulseSchedule, resolve_schedule, schedule_propagator
from .errors import DegenerateFitError, InputError, ResolutionError
from .pulses import AXES, PulseParams, Tone
from .spectrum import Spectrum, drive_elements, exact_spectrum
from .system import (AXIS_OPERATORS, DIM, IDENTITY as _IDENTITY, SpinSystem, build_hamiltonian,
                     level, one_of, positive, real)

MIN_STEPS_PER_PERIOD = 20

_SLICE_CHUNK = 1 << 12
_CHAIN = 16

MAX_SLICES = 10**8

# _polar_unitary corrects a max|U^dagger U - I| up to _POLAR_REACH and takes one up
# to _UNITARY_ROUNDING as unitary; from _POLAR_REACH, two steps get there
_POLAR_REACH = 1e-6
_UNITARY_ROUNDING = 1e-14
_POLAR_STEPS = 4

# narrowest ln(max/min) of a scaling sweep; see forbidden_scaling
MIN_LOG_RANGE = 1e-6


def _eigenbasis(op: np.ndarray) -> np.ndarray:
    _, w = np.linalg.eigh(op)
    w.setflags(write=False)
    return w


def _right_multiplier(m: np.ndarray) -> np.ndarray:
    """The real (2 DIM, 2 DIM) g with  x.view(float) @ g == (x @ m.T).view(float).

    x holds complex rows of length DIM, so its float view interleaves each
    entry's real part a and imaginary part b.  (a + ib) n = a n + b (i n),
    so the rows of g that a and b multiply are row l of n = m^T and of i n,
    each viewed as floats.
    """
    rows = np.empty((DIM, 2, DIM), dtype=complex)
    rows[:, 0] = m.T
    np.multiply(m.T, 1j, out=rows[:, 1])
    g = rows.view(float).reshape(2 * DIM, 2 * DIM)
    g.setflags(write=False)
    return g


# eigenvectors of each axis operator; all have the eigenvalues of Iz, M_VALUES, in ascending order
_AXIS_EIGENBASES = {axis: _eigenbasis(op) for axis, op in AXIS_OPERATORS.items()}
# right multipliers into (W^dagger) and out of (W) the Ix eigenframe, for mixed X+Y drives
_IX_FRAME = (_right_multiplier(_AXIS_EIGENBASES["X"].conj().T),
             _right_multiplier(_AXIS_EIGENBASES["X"]))


@dataclass(frozen=True)
class DriveTone:
    """One oscillating field component: amplitude * I_axis * cos(Omega t + phase)."""

    frequency: float
    amplitude: float
    phase: float = 0.0
    axis: str = "X"

    def __post_init__(self):
        real(self.frequency, "drive frequency")
        real(self.phase, "drive phase")
        positive(self.amplitude, "drive amplitude")
        one_of(self.axis, "drive axis", AXES)


@dataclass(frozen=True)
class DriveSpec:
    """A set of simultaneous drive tones played for `duration`."""

    tones: tuple
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "tones", tuple(self.tones))
        if real(self.duration, "duration") < 0:
            raise InputError(f"duration must be non-negative, got {self.duration}")


@dataclass(frozen=True)
class IntegrationConfig:
    """Time-slicing control for the split-operator integrator."""

    steps_per_shortest_period: int = 32

    def __post_init__(self):
        if not MIN_STEPS_PER_PERIOD <= self.steps_per_shortest_period <= MAX_SLICES:
            raise ResolutionError(
                f"steps_per_shortest_period = {self.steps_per_shortest_period} is outside "
                f"{MIN_STEPS_PER_PERIOD}..{MAX_SLICES:.0e}: fewer steps under-resolve the shortest "
                f"oscillation period, more exceed the slice limit within one such period")


def evolve(sys: SpinSystem, drive: DriveSpec,
           cfg: IntegrationConfig = IntegrationConfig()) -> np.ndarray:
    """Time-ordered propagator of the driven spin over drive.duration, in the bare Zeeman basis.

    Raises ResolutionError, before integrating anything, when the drive needs
    more than MAX_SLICES slices or floating point cannot place its end in one.
    """
    if drive.duration == 0:
        return _IDENTITY.astype(complex)

    energies, basis = np.linalg.eigh(build_hamiltonian(sys))
    if not drive.tones:
        # the Hamiltonian is constant: one exact exponential
        return _phase_conjugate(basis, np.exp(-1j * energies * drive.duration))

    omega_max = max(float(energies[-1] - energies[0]), sys.omega0,
                    *(abs(t.frequency) for t in drive.tones))
    dt_max = (2 * np.pi / omega_max) / cfg.steps_per_shortest_period
    if math.ulp(drive.duration) > dt_max:
        raise ResolutionError(f"the drive lasts {drive.duration:.6g}, where floating-point "
                              f"times are {math.ulp(drive.duration):.3g} apart, wider than a "
                              f"time slice of {dt_max:.3g}; shorten the pulse or raise gammaHrf")
    # a single tone is periodic: slice one period and raise it to a power
    span, n_periods = drive.duration, 1
    if len(drive.tones) == 1 and drive.tones[0].frequency != 0:
        period = 2 * np.pi / abs(drive.tones[0].frequency)
        whole = math.floor(drive.duration / period)
        if whole >= 2:
            span, n_periods = period, whole
    remainder = drive.duration - n_periods * span
    # the fewest slices at most dt_max wide, for the span and for the remainder
    n_span, n_rest = (max(1, math.ceil(t / dt_max)) if t > 0 else 0 for t in (span, remainder))
    if n_span + n_rest > MAX_SLICES:
        # a periodic drive slices one period and less, however long its pulse
        remedy = "lower" if n_periods > 1 else "shorten the pulse, raise gammaHrf or lower"
        raise ResolutionError(
            f"the drive needs {n_span + n_rest:.3g} time slices, more than the limit of "
            f"{MAX_SLICES:.0e}; {remedy} steps_per_shortest_period = "
            f"{cfg.steps_per_shortest_period}")

    u_total = _unitary_power(_slice_product(energies, basis, drive, span, n_span), n_periods)
    if n_rest:
        u_total = _polar_unitary(_slice_product(energies, basis, drive, remainder, n_rest) @ u_total)
    return u_total


def _phase_conjugate(basis: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """basis @ diag(phases) @ basis^dagger."""
    return (basis * phases) @ basis.conj().T


def _slice_product(energies: np.ndarray, basis: np.ndarray, drive: DriveSpec,
                   span: float, n_slices: int) -> np.ndarray:
    """The product of n_slices Strang-split midpoint slices over [0, span].

    evolve diagonalizes H_static = basis diag(energies) basis^dagger once and
    hands the kernel that decomposition and its slice count.  A slice is
    C_h e^{-i dt V(t_mid)} C_h  with C_h = e^{-i H_static dt/2};
    neighbouring half steps merge into C = C_h^2, so the product is
    C_h [F_N ... F_1] C_h^dagger  with  F_j = e^{-i dt V_j} C.  The drive
    V = A Ix + B Iy = r e^{-i alpha Iz} Ix e^{i alpha Iz} is a diagonal
    phase in the eigenbasis W of Ix, rotated by the diagonal e^{-i alpha Iz}.
    A one-axis drive keeps alpha fixed, so in that frame each factor is a
    diagonal scaling of the constant M = W^dagger C W; a mixed drive applies
    C, e^{i alpha Iz}, W^dagger, the phase, W and e^{-i alpha Iz} in turn.
    Each block of slices is cut into runs of up to _CHAIN consecutive slices
    that _block_product advances in lock step and then multiplies pairwise,
    and each block's product is projected as it joins the blocks before it.
    The runs are kept transposed, so each stage's matrix m enters as the
    real right multiplier of m^T (see _right_multiplier): built once per
    drive for the step, once at import for the Ix eigenframe.

    Blocks of one size share the slice midpoints' offsets s from the block
    start t_b, so each tone's phasor e^{i Omega s} is computed once per
    block size (a _Block).  A block's field on an axis is then
    Re(sum c e^{i Omega s}) over that axis's tones, with one coefficient
    c = -amplitude e^{i (Omega t_b + f)} per tone computed from the absolute
    block start: no tone's cosine is evaluated per slice, however large
    the tone phase grows.  Every per-slice array of a block lives in
    its _Block's buffers, refilled in place for each block of that size.
    """
    dt = span / n_slices
    step = _phase_conjugate(basis, np.exp(-1j * energies * dt))
    half = _phase_conjugate(basis, np.exp(-0.5j * energies * dt))

    axes = sorted({tone.axis for tone in drive.tones})
    mixed = len(axes) > 1
    w = _AXIS_EIGENBASES["Y" if axes == ["Y"] else "X"]
    if mixed:
        frame = half
        step = _right_multiplier(_polar_unitary(step))
    else:
        frame = half @ w
        step = _right_multiplier(_polar_unitary(w.conj().T @ step @ w))

    frequencies = np.array([tone.frequency for tone in drive.tones])
    tone_phases = np.array([tone.phase for tone in drive.tones])
    # the drive field on each axis is -sum amplitude cos(Omega t + f) over that axis's tones
    weights = np.array([[-tone.amplitude if tone.axis == axis else 0.0 for tone in drive.tones]
                        for axis in axes])

    def stages(block, start):
        """(matrix, diagonals) stages of the block of slices from slice `start` on."""
        # Re(c e^{i phi}) = Re(c) cos(phi) - Im(c) sin(phi): [Re c, -Im c] is conj(c).view(float)
        c_conj = weights * np.exp(-1j * (frequencies * (start * dt) + tone_phases))
        np.matmul(c_conj.view(float), block.phasors, out=block.fields.reshape(len(axes), -1))
        if not mixed:
            np.multiply(block.fields[0], -0.5j * dt, out=block.kicks)
            return ((step, _iz_phases(np.exp(block.kicks, out=block.kicks), block.phases)),)
        x, y = block.fields
        np.multiply(np.arctan2(y, x), -0.5j, out=block.kicks)
        turns = _iz_phases(np.exp(block.kicks, out=block.kicks), block.turns)
        np.multiply(np.hypot(x, y), -0.5j * dt, out=block.kicks)
        phases = _iz_phases(np.exp(block.kicks, out=block.kicks), block.phases)
        # z**(-2 m) = conj(z**(2 m)) sits at the mirrored Iz eigenvalue
        return ((step, turns[..., ::-1]), (_IX_FRAME[0], phases), (_IX_FRAME[1], turns))

    blocks = {}
    product = _IDENTITY
    for start in range(0, n_slices, _SLICE_CHUNK):
        count = min(_SLICE_CHUNK, n_slices - start)
        if count not in blocks:
            blocks[count] = _Block(count, dt, frequencies, len(axes), mixed)
        block = blocks[count]
        product = _polar_unitary(_block_product(stages(block, start), block) @ product)
    return frame @ product @ frame.conj().T


class _Block:
    """The slice layout of one block size, its tone phasors and its work buffers.

    Slice r*length + k of the block sits at [k, r] of a (length, runs) grid,
    so run r is the slices r*length .. r*length + length - 1; slices left
    over form one more run over the block's last `length` slices, started
    late at step late_start.  phasors holds cos(Omega s) and sin(Omega s)
    for each tone in turn, with s = (index + 1/2) dt the offsets of the
    slice midpoints from the block start on that grid, flattened.  work
    holds two (DIM, runs, DIM) arrays of transposed run products (see
    _block_product); rows is each one's float view as (DIM runs, 2 DIM)
    rows, for matmul's out=, and trees its memory as (runs, DIM, DIM).
    """

    def __init__(self, count: int, dt: float, frequencies: np.ndarray, n_axes: int,
                 mixed: bool):
        # short spans take fewer, shorter runs: about as many runs as steps
        length = min(_CHAIN, math.isqrt(count))
        rest = count % length
        index = np.arange(count - rest).reshape(-1, length).T
        if rest:
            index = np.column_stack([index, np.arange(count - length, count)])
        self.late_start = length - rest
        shape = index.shape
        angles = np.multiply.outer(frequencies, (index + 0.5) * dt).reshape(frequencies.size, -1)
        phasors = np.empty((frequencies.size, 2, index.size))
        np.cos(angles, out=phasors[:, 0])
        np.sin(angles, out=phasors[:, 1])
        self.phasors = phasors.reshape(-1, index.size)
        self.fields = np.empty((n_axes, *shape))
        self.kicks = np.empty(shape, dtype=complex)
        self.phases = np.empty((*shape, DIM), dtype=complex)
        self.turns = np.empty_like(self.phases) if mixed else None
        # two run arrays; rows and trees are views of their memory, never copies
        self.work = np.empty((2, DIM, shape[1], DIM), dtype=complex)
        self.rows = self.work.view(float).reshape(2, -1, 2 * DIM)
        self.trees = self.work.reshape(2, shape[1], DIM, DIM)


def _iz_phases(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write z**(2 m) for the Iz eigenvalues m of M_VALUES into out[..., i], and return out.

    z has shape (steps, runs) and unit modulus, and out (steps, runs, DIM),
    so that out[k] scales the DIM entries of every row of step k's run
    arrays.  The negative powers are the conjugates of the positive ones;
    the odd powers come from repeated multiplication by z**2, which is held
    in out[..., 0] until the conjugates overwrite it.
    """
    middle = DIM // 2
    square = np.multiply(z, z, out=out[..., 0])
    out[..., middle] = z
    for i in range(middle + 1, DIM):
        np.multiply(out[..., i - 1], square, out=out[..., i])
    np.conjugate(out[..., middle:][..., ::-1], out=out[..., :middle])
    return out


def _block_product(stages, block: _Block) -> np.ndarray:
    """Time-ordered product of a block of slices, from runs advanced in lock step.

    Each stage is the real right multiplier g of a constant (DIM, DIM)
    matrix m (see _right_multiplier) and per-slice diagonals d of shape
    (steps, runs, DIM); a slice applies every stage's matrix and then its
    diagonal, in order.  Each run's partial product P is kept transposed,
    X = P^T, in one of block.work's (DIM, runs, DIM) arrays, entry [j, r, i]
    holding P[i, j] of run r.  A stage of a step, P <- diag(d) m P, is then
    X <- (X m^T) diag(d): one real product of the array's float rows with g,
    written into the other array, and one scaling of its rows by d[k],
    broadcast over the outer axis.  The last run restarts from the identity
    at step late_start (if there is such a step), dropping the slices before
    it.  The transposes are then copied, one contiguous (DIM, DIM) matrix a
    run, into the spare array and multiplied pairwise, (P_{r+1} P_r)^T =
    X_r X_{r+1}, into new arrays; block.work is overwritten.
    """
    work, rows = block.work, block.rows
    steps = stages[0][1].shape[0]
    current = 0
    work[0] = _IDENTITY[:, None, :]
    for k in range(steps):
        if k == block.late_start:
            work[current, :, -1] = _IDENTITY
        for right, diagonals in stages:
            np.matmul(rows[current], right, out=rows[1 - current])
            current = 1 - current
            work[current] *= diagonals[k]
    runs = block.trees[1 - current]
    np.copyto(runs, work[current].transpose(1, 0, 2))
    if len(runs) == 1:   # a one-slice block: copy its product out of work
        return runs[0].T.copy()
    while len(runs) > 1:
        half = len(runs) // 2
        paired = runs[:2 * half:2] @ runs[1:2 * half:2]
        runs = np.concatenate([paired, runs[2 * half:]]) if len(runs) % 2 else paired
    return runs[0].T


def _unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """u**n (n >= 1) by repeated squaring, each product projected back onto the unitaries.

    The power starts as u at the lowest set bit of n: popcount(n) + bit_length(n) - 2 projections.
    """
    while not n & 1:
        u = _polar_unitary(u @ u)
        n >>= 1
    power = u
    while n := n >> 1:
        u = _polar_unitary(u @ u)
        if n & 1:
            power = _polar_unitary(u @ power)
    return power


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Nearest unitary to m in the Frobenius norm (its polar factor), by Newton-Schulz.

    m must be unitary up to rounding, as a product of unitaries is.  With
    R = m^dagger m - I, each step m <- m - m R / 2 = m (3 I - m^dagger m) / 2
    squares the residual (Bjorck and Bowie, SIAM J. Numer. Anal. 8, 358,
    1971), so one step takes a product of unitaries to rounding level.
    Raises ResolutionError when max|R| exceeds _POLAR_REACH (1e-6), where the
    iteration can settle on the wrong unitary (2 I goes to -I), or when
    _POLAR_STEPS steps leave it above rounding (_UNITARY_ROUNDING).
    """
    for _ in range(_POLAR_STEPS):
        residual = m.conj().T @ m
        residual -= _IDENTITY
        drift = np.abs(residual).max()
        if drift <= _UNITARY_ROUNDING:
            return m
        if not drift <= _POLAR_REACH:
            raise ResolutionError(f"a propagator drifted from the unitaries by "
                                  f"max|U^dagger U - I| = {drift:.3g}, beyond the "
                                  f"{_POLAR_REACH:g} a projection can restore")
        m = m - 0.5 * (m @ residual)
    raise ResolutionError(f"a propagator did not settle onto the unitaries in {_POLAR_STEPS} "
                          f"Newton-Schulz steps; max|U^dagger U - I| = {drift:.3g} before the last")


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
        return duration, _IDENTITY
    elements = {axis: drive_elements(spectrum, axis) for axis in {t.axis for t in group}}
    drive = []
    for tone in group:
        if tone.angle == 0:
            continue
        element = elements[tone.axis][tone.upper, tone.lower]
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

    The deviation simulate_schedule reports for a schedule of this one tone
    at amplitude params.gammaHrf.  Grows with gammaHrf/omega0 (counter-rotating
    terms and off-resonant leakage onto the other transitions).
    """
    sched = PulseSchedule(gates=(), groups=((tone,),))
    return simulate_schedule(sys, sched, params.gammaHrf, cfg).deviation


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
    u_actual = _IDENTITY
    durations = []
    for group in sched.groups:
        group_duration, u_group = _play_group(sys, spectrum, group, cfg)
        durations.append(group_duration)
        u_actual = u_group @ u_actual
    u_actual = u_actual.astype(complex, copy=False)   # without drive, a copy of the real _IDENTITY

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


def forbidden_scaling(sys: SpinSystem, pair: tuple[int, int], ratios) -> ScalingFit:
    """Fit |<psi_N|Ix|psi_M>| ~ (omegaQ/omega0)^slope over the omegaQ/omega0 `ratios`.

    Allowed (delta-m = +-1) pairs give slope ~ 0; pairs that open up
    through first-order quadrupole mixing give slope ~ 1; higher-order
    pairs give correspondingly larger slopes.  Raises DegenerateFitError
    when every element is numerically zero (e.g. theta = 0, where the
    mixing vanishes identically).

    Raises InputError, before any spectrum is computed, when a ratio is
    not positive and finite, or the ratios span ln(max/min) < MIN_LOG_RANGE.
    The slope's noise is about the relative rounding of the elements
    divided by the log range.  A weak element (~1e-4 of unit eigenvectors)
    is rounded by up to ~1e-12 relative, so at the floor the slope is good
    to ~1e-6, while over ratios 1e-13 apart it is pure noise (slopes of 6.6
    for a pair near 1).
    """
    m_label, n_label = (level(label, "pair label") for label in pair)
    if m_label == n_label:
        raise InputError(f"pair must be two distinct labels, got {pair}")
    ratios = np.asarray(ratios, dtype=float)
    bad = ratios[~(np.isfinite(ratios) & (ratios > 0))]
    if bad.size:
        raise InputError(f"sweep ratios omegaQ/omega0 must be positive and finite, got {bad[0]}")
    log_r = np.log(ratios)
    if np.unique(log_r).size < max(2, ratios.size):
        raise InputError("need at least two sweep points, with distinct logarithms, to fit a slope")
    log_range = float(log_r.max() - log_r.min())
    if not log_range >= MIN_LOG_RANGE:
        raise InputError(f"the ratios span ln(max/min) = {log_range:.6e}, under {MIN_LOG_RANGE:g}; "
                         f"a slope fitted over so narrow a range is rounding noise")
    elements = np.empty_like(ratios)
    for i, ratio in enumerate(ratios):
        swept = replace(sys, omegaQ=ratio * sys.omega0)
        elements[i] = abs(drive_elements(exact_spectrum(swept))[n_label, m_label])
    if np.all(elements < 1e-14):
        message = (f"all |<psi_{n_label}|Ix|psi_{m_label}>| elements are below "
                   f"1e-14 over the sweep; the scaling fit is degenerate")
        if sys.theta == 0:
            message += " (theta = 0 disables quadrupole mixing)"
        raise DegenerateFitError(message)
    log_e = np.log(np.maximum(elements, 1e-300))
    slope = float(np.polyfit(log_r, log_e, 1)[0])
    # each point's slope across its neighbours; an end point stands in for its missing one
    index = np.arange(ratios.size)
    below, above = np.maximum(index - 1, 0), np.minimum(index + 1, ratios.size - 1)
    local = (log_e[above] - log_e[below]) / (log_r[above] - log_r[below])
    return ScalingFit(pair=(m_label, n_label), ratios=ratios, elements=elements,
                      slope=slope, local_slopes=local)
