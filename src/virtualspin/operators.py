"""Angular-momentum operator matrices for a single spin I = 7/2.

The eight levels are indexed M = 0..7 with magnetic quantum number
m = M - 7/2, i.e. row/column 0 is m = -7/2 and row/column 7 is m = +7/2.
All matrices are written in this basis and use hbar = 1.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPIN = 3.5
DIM = 8

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


@lru_cache(maxsize=1)
def make_spin_operators() -> SpinOperators:
    """Build Ix, Iy, Iz and the ladder operators for I = 7/2.

    <m+1|I+|m> = sqrt(I(I+1) - m(m+1)); Ix = (I+ + I-)/2, Iy = (I+ - I-)/2i.
    """
    m = M_VALUES
    ladder = np.sqrt(SPIN * (SPIN + 1) - m[:-1] * (m[:-1] + 1))
    iplus = np.zeros((DIM, DIM), dtype=complex)
    iplus[np.arange(1, DIM), np.arange(DIM - 1)] = ladder
    iminus = iplus.conj().T
    ix = (iplus + iminus) / 2
    iy = (iplus - iminus) / 2j
    iz = np.diag(m).astype(complex)
    for a in (ix, iy, iz, iplus, iminus):
        a.setflags(write=False)
    return SpinOperators(Ix=ix, Iy=iy, Iz=iz,
                         Iplus=iplus, Iminus=iminus)
