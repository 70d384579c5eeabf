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
of the per-tone propagators, each tone's 2x2 block written into one identity.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ForbiddenTransitionError, InputError, OverlappingTonesError
from .system import AXIS_OPERATORS, DIM, IDENTITY, level, one_of, positive, real


def projector(m: int, n: int) -> np.ndarray:
    """The matrix unit P_mn, read-only: one 1 at (m, n), so P_kl P_mn = delta_lm P_kn and
    P_mn^dag = P_nm (exact)."""
    mat = np.zeros((DIM, DIM), dtype=complex)
    mat[level(m, "projector m"), level(n, "projector n")] = 1.0
    mat.setflags(write=False)
    return mat


AXES = tuple(AXIS_OPERATORS)


@dataclass(frozen=True)
class Tone:
    """One resonant tone: level pair, rotation angle, RF phase and coil axis.

    compiler.resolve_schedule fills in its transition frequency `omega` and
    pulse length `duration`, finite numbers; both are None before.
    """

    upper: int
    lower: int
    angle: float
    phase: float = 0.0
    axis: str = "X"
    omega: float | None = None
    duration: float | None = None

    def __post_init__(self):
        if level(self.upper, "tone upper") == level(self.lower, "tone lower"):
            raise InputError("tone must address two distinct levels")
        real(self.angle, "tone angle")
        real(self.phase, "tone phase")
        one_of(self.axis, "tone axis", AXES)
        if self.omega is not None:   # no sign check: a crossed pair has omega < 0
            real(self.omega, "tone omega")
        if self.duration is not None:
            real(self.duration, "tone duration")


@dataclass(frozen=True)
class PulseParams:
    """Drive amplitude gammaHrf (gamma * H_rf, angular frequency units)."""

    gammaHrf: float

    def __post_init__(self):
        positive(self.gammaHrf, "gammaHrf")


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
    """Idealized propagator of simultaneous tones on pairwise-disjoint level pairs; of one
    tone, multi_tone_propagator((tone,)).

    Disjoint pairs commute and touch separate entries, so the projector form of each tone
    is written into its 2x2 block of one identity, entry by entry, each computed with math
    and cmath on Python floats (the bits numpy's ufuncs give); overlapping pairs are
    rejected: the product form would be wrong there.
    """
    check_disjoint(tones)
    u = IDENTITY.astype(complex)
    for tone in tones:
        m, n = tone.upper, tone.lower
        f_eff = float(tone.phase) + (math.pi / 2 if tone.axis == "Y" else 0.0)
        half = tone.angle / 2
        sine = math.sin(half)
        # 1 + (cos - 1) rounds as the projector sum does; a plain cos would not
        u[m, m] = u[n, n] = 1 + (math.cos(half) - 1)
        u[m, n] = 1j * cmath.exp(1j * f_eff) * sine
        u[n, m] = 1j * cmath.exp(-1j * f_eff) * sine
    return u


def pulse_duration(angle: float, params: PulseParams, element: float,
                   axis: str = "X") -> float:
    """Finite pulse length t - t0 realizing `angle` on a pair with |<n|I_axis|m>| = element."""
    if element == 0:
        raise ForbiddenTransitionError(
            f"forbidden transition: |<n|I{axis.lower()}|m>| = 0 implies infinite pulse "
            "duration (longer pulses or a stronger RF field are needed as the element -> 0)")
    # in Python floats: a numpy float32 angle or gammaHrf would keep the quotient in float32
    rate = 2 * float(params.gammaHrf) * float(element)
    if rate == 0 or not math.isfinite(duration := float(angle) / rate):
        raise InputError(f"pulse length overflows: angle {angle:g}, gammaHrf {params.gammaHrf:g}")
    return duration
