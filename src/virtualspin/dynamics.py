"""Exact driven-spin dynamics: the oracle for the idealized pulse model.

The laboratory-frame Hamiltonian of the driven spin is

    H(t) = H_static - sum_tones amplitude * I_axis * cos(Omega t + f)

with the drive operators Ix / Iy taken in the bare Zeeman basis (the coil
geometry does not know about quadrupole dressing).  `evolve` integrates it
over time slices, each a second-order Strang split about its midpoint
(Strang, SIAM J. Numer. Anal. 5, 506, 1968); a single tone is periodic, so
its whole periods compose as powers of one period's propagator (Floquet;
Shirley, Phys. Rev. 138, B979, 1965).

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

from .compiler import PulseSchedule, _resolver, schedule_propagator
from .errors import InputError, ResolutionError
from .pulses import AXES, PulseParams, Tone
from .spectrum import Spectrum, exact_spectrum
from .system import (AXIS_OPERATORS, DIM, IDENTITY as _IDENTITY, M_VALUES, SpinSystem,
                     _static_eigh, integer, one_of, positive, real)

MIN_STEPS_PER_PERIOD = 20

_CHAIN = 16
# a NOT:S job took 10.4, 9.0 and 12.3 ms at 128, 256 and 512 runs (one core, row kick)
_MAX_RUNS = 256
# the fewest runs whose kick goes row by row (see _Runs)
_ROW_KICK_RUNS = 128

MAX_SLICES = 10**8

# _polar_unitary corrects a max|U^dagger U - I| up to _POLAR_REACH and takes one up
# to _UNITARY_ROUNDING as unitary; from _POLAR_REACH, two steps get there
_POLAR_REACH = 1e-6
_UNITARY_ROUNDING = 1e-14
# one step from at most this drift lands within _UNITARY_ROUNDING (see _polar_unitary)
_ONE_STEP_DRIFT = 1e-8
# squarings between projections of _unitary_power's base: 2**16 * 1e-14 < 1e-9
_PROJECTED_SQUARINGS = 16
# a single (DIM, DIM) product is ndarray.dot: @'s BLAS call with less dispatch (1.3 vs 1.9 us)


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
_AXIS_EIGENBASES = {axis: np.linalg.eigh(op)[1] for axis, op in AXIS_OPERATORS.items()}
for _basis in _AXIS_EIGENBASES.values():
    _basis.setflags(write=False)
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
        # the Python float of each value: numpy's float32 would keep the kick in float32
        for name, rule in (("frequency", real), ("phase", real), ("amplitude", positive)):
            object.__setattr__(self, name, float(rule(getattr(self, name), f"drive {name}")))
        one_of(self.axis, "drive axis", AXES)


@dataclass(frozen=True)
class DriveSpec:
    """A set of simultaneous drive tones played for `duration`."""

    tones: tuple
    duration: float

    def __post_init__(self):
        if not (isinstance(self.tones, (tuple, list))
                and all(isinstance(tone, DriveTone) for tone in self.tones)):
            raise InputError(f"drive tones must be a sequence of DriveTone, got {self.tones!r}")
        object.__setattr__(self, "tones", tuple(self.tones))
        object.__setattr__(self, "duration", float(real(self.duration, "duration")))
        if self.duration < 0:
            raise InputError(f"duration must be non-negative, got {self.duration}")


@dataclass(frozen=True)
class IntegrationConfig:
    """Time-slicing control for the split-operator integrator."""

    steps_per_shortest_period: int = 32

    def __post_init__(self):
        steps = integer(self.steps_per_shortest_period, "steps_per_shortest_period")
        if not MIN_STEPS_PER_PERIOD <= steps <= MAX_SLICES:
            raise ResolutionError(
                f"steps_per_shortest_period = {steps} is outside "
                f"{MIN_STEPS_PER_PERIOD}..{MAX_SLICES:.0e}: fewer steps under-resolve the shortest "
                f"oscillation period, more exceed the slice limit within one such period")


def evolve(sys: SpinSystem, drive: DriveSpec,
           cfg: IntegrationConfig = IntegrationConfig()) -> np.ndarray:
    """Time-ordered propagator of the driven spin over drive.duration, in the bare Zeeman basis.

    Slices are the fewest of equal width, at most one
    cfg.steps_per_shortest_period-th of the shortest period present (of the
    level spread, at least 7 omega0 as the Q_0 diagonal is even in m and
    Q_+-1, Q_+-2 have none, and every tone), that fill what is sliced.  A
    single tone lasting n >= 2 whole periods T and a remainder r is sliced
    over one period only, in one kernel pass: U(T)^n, then the period's
    first k = floor(r / dt) slices, read out of that pass, then one partial
    slice of width r - k dt.  Any other drive is sliced over its whole
    length, a drive-free one is one exact exponential.  Raises
    ResolutionError, before integrating, when floating point cannot place the
    end of a drive, free or driven, within one slice, or it needs more than
    MAX_SLICES slices.
    """
    if drive.duration == 0:
        return _IDENTITY.astype(complex)

    energies, basis = _static_eigh(sys)
    # eigh sorts energies in ascending order (a spectrum lists them by label)
    omega_max = max([float(energies[-1] - energies[0]),
                     *(abs(t.frequency) for t in drive.tones)])
    dt_max = (2 * np.pi / omega_max) / cfg.steps_per_shortest_period
    if math.ulp(drive.duration) > dt_max:
        remedy = "shorten the pulse or raise gammaHrf" if drive.tones else "shorten it"
        raise ResolutionError(f"the drive lasts {drive.duration:.6g}, where floating-point "
                              f"times are {math.ulp(drive.duration):.3g} apart, wider than a "
                              f"time slice of {dt_max:.3g}; {remedy}")
    if not drive.tones:
        # the Hamiltonian is constant: one exact exponential
        return _phase_conjugate(basis, np.exp(-1j * energies * drive.duration))
    # a single tone is periodic: slice one period and raise it to a power
    span, n_periods = drive.duration, 1
    if len(drive.tones) == 1 and drive.tones[0].frequency != 0:
        period = 2 * np.pi / abs(drive.tones[0].frequency)
        whole = math.floor(drive.duration / period)
        if whole >= 2:
            span, n_periods = period, whole
    # the fewest slices of the span at most dt_max wide
    n_span = max(1, math.ceil(span / dt_max))
    dt = span / n_span
    # the remainder continues the period's grid: its first `head` slices are the period's
    # own, then one partial slice ends it
    remainder = max(drive.duration - n_periods * span, 0.0)
    head = min(math.floor(remainder / dt), n_span)
    partial = remainder - head * dt
    n_slices = n_span + (partial > 0)
    if n_slices > MAX_SLICES:
        # a periodic drive slices one period and one more slice, however long its pulse
        remedy = "lower" if n_periods > 1 else "shorten the pulse, raise gammaHrf or lower"
        raise ResolutionError(
            f"the drive needs {n_slices:.3g} time slices, more than the limit of "
            f"{MAX_SLICES:.0e}; {remedy} steps_per_shortest_period = "
            f"{cfg.steps_per_shortest_period}")

    # the remainder's product, the head's slices then the partial one, ends the power
    u_span, u_rest = _slice_products(energies, basis, drive, span, n_span, head, partial)
    return _unitary_power(u_span, n_periods, u_rest)


def _phase_conjugate(basis: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """basis @ diag(phases) @ basis^dagger, for each row of phases."""
    return (basis * phases[..., None, :]) @ basis.conj().T


def _slice_products(energies: np.ndarray, basis: np.ndarray, drive: DriveSpec,
                    span: float, n_slices: int, head: int, partial: float) -> tuple:
    """The products of n_slices Strang-split midpoint slices over [0, span] and of a remainder.

    The remainder is the first head slices (0 <= head <= n_slices), whose
    product comes from the same pass (see _block_product), then, if
    partial > 0, one slice of a single tone partial wide after them; it is
    unprojected, as the power it ends projects it, and None if empty.

    evolve hands the kernel H_static = basis diag(energies) basis^dagger, as
    the system holds it, and its slice count.  A slice is
    C_h e^{-i dt V(t_mid)} C_h  with C_h = e^{-i H_static dt/2};
    neighbouring half steps merge into C = C_h^2, so the product is
    C_h [F_N ... F_1] C_h^dagger  with  F_j = e^{-i dt V_j} C.  The drive
    V = A Ix + B Iy = r e^{-i alpha Iz} Ix e^{i alpha Iz} is a diagonal
    phase in the eigenbasis W of Ix, rotated by the diagonal e^{-i alpha Iz}.
    Every drive is multiplied in one frame w, with M = w^dagger C w: a one-axis
    drive keeps alpha fixed, so in its axis's eigenbasis w each factor is M
    then a diagonal; a mixed drive's turns are diagonal in the Iz eigenbasis,
    w = I, and it applies M, e^{i alpha Iz}, W^dagger, the phase, W, e^{-i alpha Iz}.
    One _block_product pass multiplies the slices, and its product is
    projected once.  Each stage's matrix enters as a real right multiplier
    (see _right_multiplier): built once per drive for the step, once at
    import for the Ix eigenframe.

    Step k of a run that starts at t_r takes the slice whose midpoint is
    t_r + s_k, s_k = (k + 1/2) dt.  Its kick angle on an axis, -dt/2 times
    the field, is Re(sum c e^{i Omega s_k}) over that axis's tones, with one
    c = dt/2 amplitude e^{i (Omega t_r + f)} per tone and run, from the
    run's absolute start, and one phasor e^{i Omega s_k} per tone and step:
    no cosine is taken per slice, however large the tone phase grows.
    fill(k, planes) takes a chunk of steps' angles theta in one matmul (a
    mixed drive's (x, y) = r (cos a, sin a) kicks by -r along a + pi: turns
    by -atan2(y, x)/2, phases by r) and builds each diagonal e^{2 i m theta}
    in DIM contiguous (chunk, runs) planes: cos and sin into the float view
    of the middle one, z, the odd powers by z**2, their conjugates mirrored,
    then one transposing copy into the stage's buffer.  A mixed drive's
    inverse turns, each diagonal reversed, are by that mirror the turns'
    conjugates bit for bit; they get a buffer of their own, as a reversed
    operand slowed a row kick of 256 runs from 12.7 to 29.1 us.
    """
    dt = span / n_slices
    # e^{-i H_static w} for the step, its half and the partial slice's half: one table, one product
    step, half, partial_half = _phase_conjugate(
        basis, np.exp(np.multiply.outer([dt, 0.5 * dt, 0.5 * partial], -1j * energies)))

    axes = sorted({tone.axis for tone in drive.tones})
    mixed = len(axes) > 1
    # a mixed drive's turns are diagonal in the eigenbasis of Iz: the identity
    w = _IDENTITY if mixed else _AXIS_EIGENBASES[axes[0]]
    frame = half.dot(w)
    step = _right_multiplier(_polar_unitary(w.conj().T.dot(step).dot(w)))

    runs = _Runs(n_slices, len(axes))
    frequencies = np.array([tone.frequency for tone in drive.tones])
    tone_phases = np.array([tone.phase for tone in drive.tones])
    # each axis's kick angle: dt/2 sum amplitude cos(Omega t + f) over its tones
    weights = np.array([[0.5 * dt * tone.amplitude if tone.axis == axis else 0.0
                         for tone in drive.tones] for axis in axes])
    # Re(c e^{i phi}) = Re(c) cos(phi) - Im(c) sin(phi): [Re c, -Im c] is conj(c).view(float)
    c_conj = weights[:, None] * np.exp(-1j * (np.multiply.outer(runs.starts * dt, frequencies)
                                              + tone_phases))
    coefficients = c_conj.view(float).transpose(0, 2, 1).copy()   # (axes, 2 tones, runs)
    angles = np.multiply.outer((np.arange(runs.padded) + 0.5) * dt, frequencies)
    phasors = np.array([np.cos(angles), np.sin(angles)]).transpose(1, 2, 0).reshape(runs.padded, -1)

    def fill(k, planes):
        """Write the diagonals of steps k .. k + chunk - 1 into the stages' buffers."""
        x = np.matmul(phasors[k:k + runs.chunk], coefficients, out=runs.fields)[0]
        kicks = ((x, runs.phases),)
        if mixed:
            y = runs.fields[1]
            kicks = ((-0.5 * np.arctan2(y, x), runs.turns[0]), (np.hypot(x, y), runs.phases))
        middle = DIM // 2
        for theta, out in kicks:
            z = planes[middle]
            np.cos(theta, out=z.view(float)[..., ::2])
            np.sin(theta, out=z.view(float)[..., 1::2])
            square = np.multiply(z, z, out=planes[0])   # until the mirror overwrites it
            for i in range(middle + 1, DIM):
                np.multiply(planes[i - 1], square, out=planes[i])
            np.conjugate(planes[:middle - 1:-1], out=planes[:middle])
            np.copyto(out, planes.transpose(1, 2, 0))
        if mixed:
            # the inverse turns: z**(-2 m) = conj(z**(2 m)) sits at the mirrored Iz eigenvalue
            np.conjugate(runs.turns[0], out=runs.turns[1])

    stages = (((step, runs.turns[1]), (_IX_FRAME[0], runs.phases),
               (_IX_FRAME[1], runs.turns[0])) if mixed else ((step, runs.phases),))
    # a head of every slice is the span's own product
    product, head_product = _block_product(stages, fill, runs, head % n_slices)
    product = _polar_unitary(product)
    if head == n_slices:
        head_product = product
    frame_h = frame.conj().T
    rest = None if head_product is None else frame.dot(head_product).dot(frame_h)
    if partial > 0:
        u_partial = _strang_slice(partial_half, drive.tones[0], head * dt + partial / 2, partial)
        rest = u_partial if rest is None else u_partial.dot(rest)
    return frame.dot(product).dot(frame_h), rest


def _strang_slice(half: np.ndarray, tone: DriveTone, t_mid: float, width: float) -> np.ndarray:
    """One Strang-split slice of a single tone, width wide about t_mid; half = e^{-i H width/2}."""
    field = -tone.amplitude * math.cos(tone.frequency * t_mid + tone.phase)
    kick = _phase_conjugate(_AXIS_EIGENBASES[tone.axis], np.exp(-1j * width * field * M_VALUES))
    return half.dot(kick).dot(half)


class _Runs:
    """The lock-step layout of a span of slices, and the buffers of its one kernel pass.

    The count slices are cut into runs of `steps` consecutive slices,
    max(min(_CHAIN, isqrt(count // 4)), ceil(count / _MAX_RUNS)): about four
    runs a step for a short span, as a run costs one product of the tree and
    a step one pass over the runs (a 312-slice period took 211 us at 8 steps
    over 39 runs, 231 us at 16 over 20), _CHAIN steps from 1024 slices on,
    and at most _MAX_RUNS runs for a long span.  Run r takes slice starts[r] + k at step k; slices left over form one more
    run over the last `steps` slices, started late at step late_start.
    phases, and a mixed drive's turns and inverse turns, hold `chunk`
    steps' diagonals, (chunk, runs, DIM), filled by way of fields (see
    _slice_products); chunk <= DIM, so that its DIM planes fit in a run
    array, and `padded` steps are whole chunks.  work holds two (DIM, runs,
    DIM) arrays of transposed run products (see _block_product); views has
    each as itself and as views: float (DIM runs, 2 DIM) rows for matmul's
    out=, (runs, DIM, DIM) trees, (DIM, chunk, runs) planes and the kick's
    targets.

    The kick scales a run array by a step's (runs, DIM) diagonal: below
    _ROW_KICK_RUNS runs in one multiply, the diagonal broadcast over the
    outer axis, from there on in DIM same-shape multiplies, one a row.
    numpy's loop for a broadcast operand is the slower, but each call has
    its overhead: at 256 runs a kick took 17.7-20.4 us whole and 12.6-16.0
    us by rows, at 20 runs 2.0-3.2 and 3.6-6.5 us (timeit, one pinned
    core); a _block_product step broke even at 112-128 runs.
    """

    def __init__(self, count: int, n_axes: int):
        steps = max(min(_CHAIN, math.isqrt(count // 4)), -(-count // _MAX_RUNS))
        self.steps, self.late_start = steps, steps - count % steps
        self.starts = np.arange(0, count, steps)
        self.starts[-1] = count - steps
        chunks = -(-steps // DIM)
        self.chunk = -(-steps // chunks)
        self.padded = chunks * self.chunk
        shape = (self.chunk, len(self.starts))
        self.fields = np.empty((n_axes, *shape))
        self.phases = np.empty((*shape, DIM), dtype=complex)
        self.turns = np.empty((2, *self.phases.shape), dtype=complex) if n_axes > 1 else None
        work = self.work = np.empty((2, DIM, shape[1], DIM), dtype=complex)
        kicked = tuple((w,) if shape[1] < _ROW_KICK_RUNS else tuple(w) for w in work)
        self.views = tuple(zip(work, work.view(float).reshape(2, -1, 2 * DIM),
                               work.reshape(2, shape[1], DIM, DIM),
                               work.reshape(2, -1)[:, :self.phases.size].reshape(2, DIM, *shape),
                               kicked))


def _block_product(stages, fill, runs: _Runs, cut: int = 0) -> tuple:
    """Time-ordered product of a span of slices, from its runs advanced in lock step.

    Each stage is the real right multiplier g of a constant (DIM, DIM)
    matrix m (see _right_multiplier) and a (chunk, runs, DIM) buffer of
    per-slice diagonals d, which fill(k, planes) writes from step k on, the
    spare array's planes its scratch; a slice applies every stage's matrix,
    then its diagonal.  Each run's product P is kept transposed, X = P^T, in
    one of runs.work's (DIM, runs, DIM) arrays, entry [j, r, i] holding
    P[i, j] of run r.  A stage of a step, P <- diag(d) m P, is then
    X <- (X m^T) diag(d): one real product of the array's float rows with g,
    written into the other array, and one scaling of it by the step's d,
    broadcast over the outer axis or row by row (see _Runs).  The last run
    restarts from the identity at step late_start (if there is one),
    dropping the slices before it.  The transposes are then copied, one
    contiguous (DIM, DIM) matrix a run, into the spare array and multiplied
    pairwise, (P_{r+1} P_r)^T = X_r X_{r+1}, each level into the other array;
    runs.work is overwritten.

    Returns the span's product and, with 0 < cut < span, the product of its
    first cut slices (else None): the run that holds slice cut - 1, copied
    right after its step over that slice, times the runs wholly before it,
    taken from the pairing's own nodes.
    """
    steps = runs.steps
    run, step = 0, None   # the run that holds slice cut - 1, and the step at which it takes it
    if cut:
        run, step = divmod(cut - 1, steps)
        if run == len(runs.starts) - 1 and runs.late_start < steps:
            step += runs.late_start   # the late run takes the span's last slices from late_start on
    # (work, rows, tree, planes, kick targets) of the array holding the products, and of the spare
    held, spare = runs.views
    held[0][...] = _IDENTITY[:, None, :]
    for k in range(steps):
        if not k % runs.chunk:
            fill(k, spare[3])
        if k == runs.late_start:
            held[0][:, -1] = _IDENTITY
        for right, diagonals in stages:
            np.matmul(held[1], right, out=spare[1])
            held, spare = spare, held
            d = diagonals[k % runs.chunk]
            for target in held[4]:
                np.multiply(target, d, out=target)
        if k == step:
            head = held[0][:, run].copy()
    tree, nodes = spare[2], held[2]
    np.copyto(tree, held[0].transpose(1, 0, 2))
    level, count = 0, len(tree)
    while count > 1:
        # node i of this level is the product of runs i 2^level .. (i + 1) 2^level - 1 (or to
        # the last run), so the runs before `run` are one node for each set bit of `run`
        if run >> level & 1:
            head = tree[(run >> level) - 1].dot(head)
        half, odd = divmod(count, 2)
        np.matmul(tree[:2 * half:2], tree[1:2 * half:2], out=nodes[:half])
        nodes[half:half + odd] = tree[count - odd:count]
        tree, nodes, level, count = nodes, tree, level + 1, half + odd
    # the root is a view of runs.work: copy its product out
    return tree[0].T.copy(), (head.T if cut else None)


def _unitary_power(u: np.ndarray, n: int, left: np.ndarray | None = None) -> np.ndarray:
    """left @ u**n (n >= 1) by repeated squaring, projected onto the unitaries on a drift budget.

    A squaring at most doubles u's drift max|U^dagger U - I| from <= 1e-14,
    so u is projected after every _PROJECTED_SQUARINGS-th (16th) squaring,
    before it passes ~1e-9, and the power, whose products only add drifts,
    once at the end, left (evolve's remainder) included.  evolve places
    n < 2**49 (ulp(n T) <= dt <= T/20), so the power's drift stays below
    ~1e-8, far inside _POLAR_REACH.  u**1 without left is u, unprojected.
    """
    if n == 1 and left is None:
        return u
    power = left
    for bit in range(n.bit_length()):
        if bit:
            u = u.dot(u)
            if not bit % _PROJECTED_SQUARINGS:
                u = _polar_unitary(u)
        if n >> bit & 1:
            power = u if power is None else power.dot(u)
    return _polar_unitary(power)


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Nearest unitary to m in the Frobenius norm (its polar factor), by Newton-Schulz.

    m must be unitary up to rounding, as a product of unitaries is.  With
    R = m^dagger m - I, each step m <- m - m R / 2 = m (3 I - m^dagger m) / 2
    squares the residual (Bjorck and Bowie, SIAM J. Numer. Anal. 8, 358,
    1971): it leaves R' = -3/4 R^2 + 1/4 R^3, and as ||R||_2 <= DIM max|R|,
    max|R'| <= 48 d^2 + 128 d^3 from d = max|R|.  From d <= _ONE_STEP_DRIFT
    (1e-8) that is half of _UNITARY_ROUNDING, the rest left to the step's
    rounding (~7e-16), so the stepped matrix is returned unchecked.  From
    d <= _POLAR_REACH (1e-6) one step leaves at most 4.8e-11, so one more
    pass settles it.  Raises ResolutionError when max|R| exceeds _POLAR_REACH,
    where the iteration can settle on the wrong unitary (2 I goes to -I).
    """
    residual = m.conj().T.dot(m) - _IDENTITY
    drift = np.abs(residual).max()
    if drift <= _UNITARY_ROUNDING:
        return m
    if not drift <= _POLAR_REACH:
        raise ResolutionError(f"a propagator drifted from the unitaries by "
                              f"max|U^dagger U - I| = {drift:.3g}, beyond the "
                              f"{_POLAR_REACH:g} a projection can restore")
    m = m - 0.5 * m.dot(residual)
    if drift > _ONE_STEP_DRIFT:
        residual = m.conj().T.dot(m) - _IDENTITY
        if np.abs(residual).max() > _UNITARY_ROUNDING:
            m = m - 0.5 * m.dot(residual)
    return m


def interaction_propagator(spectrum: Spectrum, u_lab: np.ndarray,
                           duration: float) -> np.ndarray:
    """Lab propagator re-expressed in the eigenbasis with free phases removed."""
    psi = spectrum.states
    u_eig = psi.conj().T.dot(u_lab).dot(psi)
    return np.exp(1j * spectrum.energies * duration)[:, None] * u_eig


def _play_group(sys: SpinSystem, spectrum: Spectrum, elements: dict, group,
                cfg: IntegrationConfig) -> tuple[float, np.ndarray]:
    """Common duration of simultaneous resolved tones and their interaction-picture propagator.

    The group lasts as long as its slowest tone (the largest tone.duration);
    each tone plays at its own tone.omega, faster tones with proportionally
    weaker amplitudes, and zero-angle tones play no drive.  elements maps each
    axis to the spectrum's drive_elements, taken once a job by the resolution.
    """
    duration = max((t.duration for t in group), default=0.0)
    if duration == 0:
        return duration, _IDENTITY.astype(complex)
    drive = []
    for tone in group:
        if tone.angle == 0:
            continue
        element = elements[tone.axis][tone.upper, tone.lower]
        # a negative rotation angle is a positive one with the phase advanced by pi
        phase = float(tone.phase) + (np.pi if tone.angle < 0 else 0.0)
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

    Every tone is resolved at sys and gamma_hrf before any group plays; a
    group's tones play simultaneously for a common duration (see _play_group)
    in its own interaction picture, and the groups compose in order.  The
    ideal is sched's own: it reads no omega or duration.
    """
    spectrum = exact_spectrum(sys)
    tone, elements = _resolver(spectrum, gamma_hrf, {t.axis for g in sched.groups for t in g})
    groups = [[tone(t.upper, t.lower, t.angle, t.phase, t.axis) for t in group]
              for group in sched.groups]
    u_actual, durations = _IDENTITY.astype(complex), []
    for group in groups:
        group_duration, u_group = _play_group(sys, spectrum, elements, group, cfg)
        # the first group's propagator is the product so far: no product with the identity
        u_actual = u_group.dot(u_actual) if durations else u_group
        durations.append(group_duration)

    u_ideal = schedule_propagator(sched)
    deviation = float(np.abs(u_actual - u_ideal).max())
    # each column's overlap with its ideal column, one dot a column; hypot, not the array
    # form of np.abs, which can round the modulus of a complex number a last bit differently
    overlaps = np.matmul(u_ideal.conj().T[:, None, :], u_actual.T[:, :, None])[:, 0, 0]
    probabilities = np.hypot(overlaps.real, overlaps.imag) ** 2
    # the largest entry of the ideal column; an edited NOT-family schedule need not permute
    not_family = all(g.is_not_family for g in sched.gates)
    outs = np.abs(u_ideal).argmax(axis=0).tolist() if not_family else range(DIM)
    transfer = dict(enumerate(zip(outs, probabilities.tolist())))
    return ScheduleSimulation(ideal=u_ideal, actual=u_actual, deviation=deviation,
                              transfer=transfer, group_durations=tuple(durations))
