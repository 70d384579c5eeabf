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

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousLabelingError, InputError
from .system import AXIS_OPERATORS, DIM, M_VALUES, SpinSystem, build_hamiltonian

PERTURBATIVE = "perturbative-first-order"
EXACT = "exact"

# above this coupling ratio first-order theory degrades noticeably
PERTURBATIVE_RATIO_LIMIT = 0.1

# a label assignment is trusted only if the best overlap beats the
# runner-up by this factor
OVERLAP_DOMINANCE = 2.0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eight labeled energy levels and eigenvectors of a SpinSystem.

    states[:, M] is the eigenvector for label M; energies[M] its energy.
    """

    energies: np.ndarray
    states: np.ndarray
    method: str
    warning: str | None = None


def perturbative_spectrum(sys: SpinSystem) -> Spectrum:
    """First-order energies and (orthonormalized) first-order eigenvectors.

    Returns a Spectrum with a diagnostic warning when omegaQ/omega0 >= 0.1,
    where first-order theory is unreliable; the values are still computed.
    Raises InputError when they overflow floating point.
    """
    return _first_order(sys)[0]


# an overflowing coupling is reported once, by the InputError below
@np.errstate(over="ignore", invalid="ignore")
def _first_order(sys: SpinSystem) -> tuple[Spectrum, np.ndarray]:
    """perturbative_spectrum and the static Hamiltonian it was derived from."""
    hamiltonian = build_hamiltonian(sys)
    m = M_VALUES
    q0 = 3 * np.cos(sys.theta) ** 2 - 1
    energies = -sys.omega0 * m + sys.omegaQ * q0 * (m ** 2 - 21 / 4)

    # the mixing reads only the off-diagonal part, which is the quadrupole term's
    denom = sys.omega0 * (m[:, None] - m[None, :])  # omega0 * (k - m)
    np.fill_diagonal(denom, 1.0)
    raw = np.eye(DIM, dtype=complex) + hamiltonian * (1.0 / denom) * (1 - np.eye(DIM))

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
    return Spectrum(energies=energies, states=states,
                    method=PERTURBATIVE, warning=warning), hamiltonian


def exact_spectrum(sys: SpinSystem) -> Spectrum:
    """Dense eigendecomposition of the static Hamiltonian, relabeled M = 0..7.

    Labels are assigned by maximal overlap with the perturbative states
    (not by energy sort), so they track the adiabatic continuation of each
    level.  Raises AmbiguousLabelingError when two perturbative states pick
    the same exact state, or when, for some perturbative state, the two
    largest overlaps differ by less than a factor of two; either signals a
    level crossing / strong mixing regime where labels would be arbitrary.
    Under that dominance rule the row-wise best match is the unique optimal
    assignment, so no assignment solver is needed.
    """
    # first, so its overflow check keeps a non-finite Hamiltonian from eigh
    first_order, hamiltonian = _first_order(sys)
    reference = first_order.states
    evals, evecs = np.linalg.eigh(hamiltonian)
    overlap = np.abs(reference.conj().T @ evecs)  # overlap[M, j]

    assignment = overlap.argmax(axis=1)
    shared = int(np.bincount(assignment, minlength=DIM).argmax())
    rivals = np.flatnonzero(assignment == shared)
    if rivals.size > 1:
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

    energies = evals[assignment]
    states = evecs[:, assignment]
    # fix gauge: overlap with the perturbative reference is real positive
    phases = np.angle(np.sum(reference.conj() * states, axis=0))
    states = states * np.exp(-1j * phases)[None, :]
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
    return [Transition(upper=upper, lower=lower, omega=energies[upper] - energies[lower],
                       ix_element=elements[upper][lower], allowed=(lower - upper == 1))
            for upper in range(DIM) for lower in range(upper + 1, DIM)]


def _loewdin_orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Symmetric orthonormalization: A (A^dag A)^{-1/2}."""
    s = vectors.conj().T @ vectors
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = (v * (w ** -0.5)[None, :]) @ v.conj().T
    return vectors @ s_inv_sqrt
