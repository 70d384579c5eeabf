"""Energy levels and eigenstates, perturbative and exact.

The eight eigenstates are labeled M = 0..7 via m = M - 7/2, so M = 0 is
the m = -7/2 level (highest energy for omegaQ -> 0) and M = 7 is m = +7/2
(lowest).  First-order perturbation theory in the quadrupole coupling
gives

    eps_m = -omega0 * m + omegaQ * q0 * (m^2 - 21/4)
    |psi_m> = |chi_m> + sum_{k != m} <chi_k|H_Q|chi_m> / (omega0 (k - m)) |chi_k>

with |chi_m> the Zeeman (Iz) eigenstates.  The first-order vectors are not
exactly orthonormal; they are symmetrically (Loewdin) orthonormalized so no
level is privileged.  The exact spectrum comes from dense diagonalization
and is relabeled by maximal overlap against the perturbative states, which
keeps the M labels attached to the physical levels rather than to an energy
ordering.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmbiguousLabelingError, DegenerateFitError, InputError
from .system import (AXIS_OPERATORS, DIM, IDENTITY, M_VALUES, SpinSystem, _held, _read_only,
                     _static_eigh, _static_hamiltonian, level)

PERTURBATIVE = "perturbative-first-order"
EXACT = "exact"

# above this coupling ratio first-order theory degrades noticeably
PERTURBATIVE_RATIO_LIMIT = 0.1

# a label assignment is trusted only if the best overlap beats the
# runner-up by this factor
OVERLAP_DOMINANCE = 2.0

# narrowest ln(max/min) of a scaling sweep; see forbidden_scaling
MIN_LOG_RANGE = 1e-6

_M_DIFFERENCES, _OFF_DIAGONAL = _read_only(M_VALUES[:, None] - M_VALUES[None, :], 1 - IDENTITY)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eight labeled energy levels and eigenvectors of a SpinSystem.

    states[:, M] is the eigenvector for label M; energies[M] its energy.
    """

    energies: np.ndarray
    states: np.ndarray
    method: str
    warning: str | None = None


# an overflowing coupling is reported once, by the InputError below
@np.errstate(over="ignore", invalid="ignore")
def perturbative_spectrum(sys: SpinSystem) -> Spectrum:
    """First-order energies and (orthonormalized) first-order eigenvectors.

    Returns a Spectrum with a diagnostic warning when omegaQ/omega0 >= 0.1,
    where first-order theory is unreliable; the values are still computed.
    Raises InputError when they overflow floating point.
    """
    q0 = 3 * math.cos(sys.theta) ** 2 - 1
    energies = -sys.omega0 * M_VALUES + sys.omegaQ * q0 * (M_VALUES ** 2 - 21 / 4)

    # the mixing reads only the off-diagonal part, which is the quadrupole term's
    denom = sys.omega0 * _M_DIFFERENCES  # omega0 * (k - m)
    np.fill_diagonal(denom, 1.0)
    raw = IDENTITY + _static_hamiltonian(sys) * (1.0 / denom) * _OFF_DIAGONAL

    ratio = sys.omegaQ / sys.omega0
    try:
        states = _loewdin_orthonormalize(raw)
    except np.linalg.LinAlgError:
        states = raw * np.nan
    if not (np.isfinite(energies).all() and np.isfinite(states).all()):
        raise InputError(f"omegaQ/omega0 = {ratio:.3g} overflows the first-order levels; "
                         "the coupling is far outside the perturbative regime")

    warning = None
    if ratio >= PERTURBATIVE_RATIO_LIMIT:
        warning = (f"omegaQ/omega0 = {ratio:.3g} >= {PERTURBATIVE_RATIO_LIMIT}: "
                   "first-order perturbation theory is unreliable here")
    return Spectrum(energies=energies, states=states, method=PERTURBATIVE, warning=warning)


def exact_spectrum(sys: SpinSystem) -> Spectrum:
    """Dense eigendecomposition of the static Hamiltonian, relabeled M = 0..7.

    Labels are assigned by maximal overlap with the perturbative states
    (not by energy sort), so they track the adiabatic continuation of each
    level.  Raises AmbiguousLabelingError when two perturbative states pick
    the same exact state, or when, for some perturbative state, the two
    largest overlaps differ by less than a factor of two; either signals a
    level crossing / strong mixing regime where labels would be arbitrary.
    Under that dominance rule the row-wise best match is the unique optimal
    assignment, so no assignment solver is needed.  The system holds its
    spectrum: every call for it returns one read-only Spectrum, or raises.
    """
    return _held(sys, "_exact_spectrum", _labeled)


def _labeled(sys: SpinSystem) -> Spectrum:
    """The labeled exact spectrum that exact_spectrum holds, computed."""
    reference = perturbative_spectrum(sys).states
    evals, evecs = _static_eigh(sys)
    overlap = np.abs(reference.conj().T @ evecs)  # overlap[M, j]

    assignment = overlap.argmax(axis=1)
    if len(set(assignment.tolist())) < DIM:
        shared = int(np.bincount(assignment, minlength=DIM).argmax())
        rivals = np.flatnonzero(assignment == shared)
        raise AmbiguousLabelingError(
            f"cannot label exact eigenstates: perturbative states "
            f"M={rivals[0]} and M={rivals[1]} both overlap exact state {shared} most; "
            f"omegaQ/omega0 = {sys.omegaQ / sys.omega0:.3g} is a level-mixing regime")

    # per row, the runner-up and the best (assigned) overlap; the first weak row is reported
    rest, best = np.sort(overlap, axis=1)[:, -2:].T
    weak = np.flatnonzero(best < OVERLAP_DOMINANCE * rest)
    if weak.size:
        m = weak[0]
        raise AmbiguousLabelingError(
            f"cannot label exact eigenstates: perturbative state M={m} "
            f"overlaps two exact states at ratio {best[m]:.3f}:{rest[m]:.3f} "
            f"(< {OVERLAP_DOMINANCE}:1); omegaQ/omega0 = "
            f"{sys.omegaQ / sys.omega0:.3g} is a level-mixing regime")

    states = evecs[:, assignment]
    # fix gauge: overlap with the perturbative reference is real positive
    phases = np.angle(np.sum(reference.conj() * states, axis=0))
    energies, states = _read_only(evals[assignment], states * np.exp(-1j * phases)[None, :])
    return Spectrum(energies=energies, states=states, method=EXACT)


@dataclass(frozen=True)
class Transition:
    """One level pair: labels, frequency and drive matrix element."""

    upper: int          # smaller label = higher energy in the normal regime
    lower: int
    omega: float        # E_upper - E_lower
    ix_element: float   # |<psi_lower| Ix |psi_upper>|
    allowed: bool       # delta m = +-1 ladder transition

    @property
    def flag(self) -> str:
        return "allowed" if self.allowed else "weak/forbidden"


def drive_elements(spec: Spectrum, axis: str = "X") -> np.ndarray:
    """Drive matrix elements <psi_M|I_axis|psi_N> (complex 8x8) for coil axis "X" or "Y".

    Every pulse angle, duration and drive phase derives from this product.
    """
    return spec.states.conj().T @ AXIS_OPERATORS[axis] @ spec.states


def transition_table(spec: Spectrum) -> list[Transition]:
    """All 28 level pairs with transition frequency and |Ix| matrix element.

    The seven delta-m = +-1 pairs are flagged allowed; quadrupole mixing
    makes the remaining ones weakly allowed at theta != 0.
    """
    energies = spec.energies.tolist()
    elements = np.abs(drive_elements(spec)).tolist()
    return [Transition(upper, lower, energies[upper] - energies[lower], elements[upper][lower],
                       lower - upper == 1)
            for upper in range(DIM) for lower in range(upper + 1, DIM)]


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
    # a set, not np.unique, which on numpy 2 would import numpy.ma into a cold CLI call
    if len(set(log_r.ravel().tolist())) < max(2, ratios.size):
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


def _loewdin_orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization: A (A^dag A)^{-1/2}."""
    s = vectors.conj().T @ vectors
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = (v * (w ** -0.5)[None, :]) @ v.conj().T
    return vectors @ s_inv_sqrt
