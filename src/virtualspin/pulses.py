"""Projector algebra and idealized resonant-pulse propagators.

A hard resonant pulse addressing the level pair (m, n), with E_m > E_n,
rotation angle a and RF phase f produces (in the energy eigenbasis)

    V_X(a_mn, f) = 1 + (P_nn + P_mm)(cos(a/2) - 1)
                     + i (P_mn e^{if} + P_nm e^{-if}) sin(a/2)

where P_mn is the matrix unit |m><n|.  A pulse along the Y coil axis is
the same operator with f replaced by f + pi/2.  The rotation angle obeys
a = 2 (t - t0) gammaHrf |<n|Ix|m>|, which pulse_duration inverts.

Multi-frequency pulses drive several level pairs at once; as long as the
pairs are disjoint the total propagator is the (order-independent) product
of the per-tone propagators: one helper writes each tone's 2x2 block into an identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ForbiddenTransitionError, InputError, OverlappingTonesError
from .system import AXIS_OPERATORS, DIM


@dataclass(frozen=True, eq=False)
class Projector:
    """Matrix unit P_mn: all entries zero except a single 1 at (m, n)."""

    m: int
    n: int
    matrix: np.ndarray


def projector(m: int, n: int) -> Projector:
    """P_mn with P_kl P_mn = delta_lm P_kn and P_mn^dag = P_nm (exact)."""
    if not (0 <= m < DIM and 0 <= n < DIM):
        raise InputError(f"projector indices must lie in 0..{DIM - 1}, got ({m}, {n})")
    mat = np.zeros((DIM, DIM), dtype=complex)
    mat[m, n] = 1.0
    mat.setflags(write=False)
    return Projector(m=m, n=n, matrix=mat)


AXES = tuple(AXIS_OPERATORS)


@dataclass(frozen=True)
class Tone:
    """One resonant tone: level pair, rotation angle, RF phase and coil axis.

    compiler.resolve_schedule fills in its transition frequency `omega` and
    pulse length `duration`; both are None before.
    """

    upper: int
    lower: int
    angle: float
    phase: float = 0.0
    axis: str = "X"
    omega: float | None = None
    duration: float | None = None

    def __post_init__(self):
        if not (0 <= self.upper < DIM and 0 <= self.lower < DIM):
            raise InputError(f"tone levels must lie in 0..{DIM - 1}, "
                             f"got ({self.upper}, {self.lower})")
        if self.upper == self.lower:
            raise InputError("tone must address two distinct levels")
        for name in ("angle", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"tone {name} must be finite, got {getattr(self, name)}")
        if self.axis not in AXES:
            raise InputError(f"tone axis must be one of {AXES}, got {self.axis!r}")


@dataclass(frozen=True)
class PulseParams:
    """Drive amplitude gammaHrf (gamma * H_rf, angular frequency units)."""

    gammaHrf: float

    def __post_init__(self):
        if not (self.gammaHrf > 0 and np.isfinite(self.gammaHrf)):
            raise InputError(f"gammaHrf must be positive and finite, got {self.gammaHrf}")


def _write_tone(v: np.ndarray, tone: Tone) -> np.ndarray:
    """v with the projector form of one tone written into its 2x2 block, entry by entry."""
    m, n = tone.upper, tone.lower
    f_eff = tone.phase + (np.pi / 2 if tone.axis == "Y" else 0.0)
    half = tone.angle / 2
    # 1 + (cos - 1) rounds as the projector sum does; a plain cos would not
    v[m, m] = v[n, n] = 1 + (np.cos(half) - 1)
    v[m, n] = 1j * np.exp(1j * f_eff) * np.sin(half)
    v[n, m] = 1j * np.exp(-1j * f_eff) * np.sin(half)
    return v


def pulse_propagator(tone: Tone) -> np.ndarray:
    """Idealized unitary propagator of one resonant tone."""
    return _write_tone(np.eye(DIM, dtype=complex), tone)


def check_disjoint(tones):
    """Raise OverlappingTonesError unless the simultaneous tones share no level."""
    seen: set[int] = set()
    for tone in tones:
        for level in (tone.upper, tone.lower):
            if level in seen:
                raise OverlappingTonesError(
                    f"level {level} is addressed by more than one "
                    f"simultaneous tone within a group")
            seen.add(level)


def multi_tone_propagator(tones) -> np.ndarray:
    """Propagator of simultaneous tones on pairwise-disjoint level pairs.

    Disjoint pairs commute and touch separate entries, so each tone's block is written
    into one identity; overlapping pairs are rejected: the product form would be wrong there.
    """
    check_disjoint(tones)
    u = np.eye(DIM, dtype=complex)
    for tone in tones:
        _write_tone(u, tone)
    return u


def pulse_duration(angle: float, params: PulseParams, element: float,
                   axis: str = "X") -> float:
    """Finite pulse length t - t0 realizing `angle` on a pair with |<n|I_axis|m>| = element."""
    if element == 0:
        raise ForbiddenTransitionError(
            f"forbidden transition: |<n|I{axis.lower()}|m>| = 0 implies infinite pulse "
            "duration (longer pulses or a stronger RF field are needed as the element -> 0)")
    rate = 2 * params.gammaHrf * float(element)
    if rate == 0 or not math.isfinite(angle / rate):
        raise InputError(f"pulse length overflows: angle {angle:g}, gammaHrf {params.gammaHrf:g}")
    return angle / rate
