"""Spin-7/2 operator matrices and the static Hamiltonian of one spin-7/2.

The eight levels are indexed M = 0..7 with magnetic quantum number
m = M - 7/2, i.e. row/column 0 is m = -7/2 and row/column 7 is m = +7/2.
All matrices are written in this basis and use hbar = 1; the operator
matrices are read-only constants built once at import.

A nucleus with spin 7/2 sits in a strong magnetic field along z (Zeeman
frequency omega0) and an axially symmetric electric field gradient whose
symmetry axis points along the polar angles (theta, phi) in the lab frame.
The static Hamiltonian is

    H = -omega0 * Iz + omegaQ * sum_a Q_a q_{-a},  a in {0, +-1, +-2}

    Q_0   = Iz^2 - I(I+1)/3          q_0   = 3 cos^2(theta) - 1
    Q_+-1 = Iz I_+-1 + I_+-1 Iz      q_+-1 = sin(theta)cos(theta) e^{+-i phi}
    Q_+-2 = I_+-1^2                  q_+-2 = (1/2) sin(2 theta) e^{+-2i phi}

omegaQ is normalized so that first-order theory gives level shifts
omegaQ * q0 * (m^2 - 21/4) exactly (see spectrum module).  The q_+-2
coefficient above is the default ("as-printed") form; the conventional
coefficient obtained by rotating an axial field-gradient tensor is
(1/2) sin^2(theta) e^{+-2i phi} and can be selected with
q2_form="sin-squared".
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InputError

SPIN = 3.5
DIM = 8
Q2_FORMS = ("as-printed", "sin-squared")
_REAL = (int, float, np.integer, np.floating)


# the input rules, one per field kind: each returns its value or raises an InputError naming it
def real(value, name: str):
    """A finite int or float, numpy's included, that is not a bool."""
    if type(value) is not float and (type(value) is bool or not isinstance(value, _REAL)):
        raise InputError(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return value
    except OverflowError as exc:   # an integer beyond floating point
        raise InputError(f"{name}: {exc}") from None
    raise InputError(f"{name} must be finite, got {value}")


def positive(value, name: str):
    """A real value above 0."""
    if not real(value, name) > 0:
        raise InputError(f"{name} must be positive, got {value}")
    return value


def level(value, name: str):
    """A level label: an int or numpy integer, not a bool, in 0..DIM-1."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < DIM:
        raise InputError(f"{name} must lie in 0..{DIM - 1}, got {value}")
    return value


def one_of(value, name: str, allowed: tuple):
    """A member of allowed."""
    if value not in allowed:
        raise InputError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


# the one identity, real and read-only; IDENTITY.astype(complex) is a writable complex copy
IDENTITY = np.eye(DIM)
IDENTITY.setflags(write=False)

# m values in label order M = 0..7
M_VALUES = np.arange(DIM) - SPIN
M_VALUES.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SpinOperators:
    """Spin-7/2 operator matrices (complex 8x8, units of hbar = 1)."""

    Ix: np.ndarray
    Iy: np.ndarray
    Iz: np.ndarray
    Iplus: np.ndarray
    Iminus: np.ndarray


# <m+1|I+|m> = sqrt(I(I+1) - m(m+1)); Ix = (I+ + I-)/2, Iy = (I+ - I-)/2i
_IPLUS = np.zeros((DIM, DIM), dtype=complex)
_IPLUS[np.arange(1, DIM), np.arange(DIM - 1)] = np.sqrt(
    SPIN * (SPIN + 1) - M_VALUES[:-1] * (M_VALUES[:-1] + 1))
_IMINUS = _IPLUS.conj().T
_IZ = np.diag(M_VALUES).astype(complex)
_OPERATORS = SpinOperators(*_read_only(
    (_IPLUS + _IMINUS) / 2, (_IPLUS - _IMINUS) / 2j, _IZ, _IPLUS, _IMINUS))

# coil axis -> the spin operator it drives: the one list of axes
AXIS_OPERATORS = {"X": _OPERATORS.Ix, "Y": _OPERATORS.Iy}

# Q_0, Q_+1, Q_-1, Q_+2, Q_-2
_QUADRUPOLE_OPERATORS = _read_only(
    _IZ @ _IZ - SPIN * (SPIN + 1) / 3 * IDENTITY, _IZ @ _IPLUS + _IPLUS @ _IZ,
    _IZ @ _IMINUS + _IMINUS @ _IZ, _IPLUS @ _IPLUS, _IMINUS @ _IMINUS)


def make_spin_operators() -> SpinOperators:
    """Ix, Iy, Iz and the ladder operators for I = 7/2: the one read-only set."""
    return _OPERATORS


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Physical parameters of the spin-7/2 system (frequencies in units of omega0)."""

    omega0: float = 1.0
    omegaQ: float = 0.01
    theta: float = 0.0
    phi: float = 0.0
    q2_form: str = "as-printed"
    ops: ClassVar[SpinOperators] = _OPERATORS

    def __post_init__(self):
        positive(self.omega0, "omega0")
        if real(self.omegaQ, "omegaQ") < 0:
            raise InputError(f"omegaQ must be non-negative, got {self.omegaQ}")
        if not 0 <= real(self.theta, "theta") <= np.pi:
            raise InputError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(2.0 * float(real(self.phi, "phi"))):
            raise InputError(f"phi = {self.phi} is too large: the q_+-2 phase 2*phi overflows")
        one_of(self.q2_form, "q2_form", Q2_FORMS)


def quadrupole_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Quadrupole part omegaQ * sum_a Q_a q_{-a} as a complex 8x8 matrix."""
    big_q0, big_qp1, big_qm1, big_qp2, big_qm2 = _QUADRUPOLE_OPERATORS
    q0 = 3 * np.cos(sys.theta) ** 2 - 1
    qp1 = np.sin(sys.theta) * np.cos(sys.theta) * np.exp(1j * sys.phi)
    if sys.q2_form == "as-printed":
        q2_mag = 0.5 * np.sin(2 * sys.theta)
    else:
        q2_mag = 0.5 * np.sin(sys.theta) ** 2
    qp2 = q2_mag * np.exp(2j * sys.phi)

    # term for index a pairs Q_a with q_{-a} = conj(q_a)
    total = (big_q0 * q0
             + big_qp1 * np.conj(qp1) + big_qm1 * qp1
             + big_qp2 * np.conj(qp2) + big_qm2 * qp2)
    return sys.omegaQ * total


def build_hamiltonian(sys: SpinSystem) -> np.ndarray:
    """Full static Hamiltonian -omega0*Iz + quadrupole term (Hermitian 8x8)."""
    return -sys.omega0 * _IZ + quadrupole_hamiltonian(sys)
