"""Virtual-qubit encoding and target gate matrices.

Three virtual spin-1/2 particles Q, R, S live in the eight levels of one
spin-7/2: level label M = 0..7 is read as the binary word (m_Q m_R m_S),
so |5> = |101> means Q up, R down, S up (bit 1 = m = +1/2).

The gate library covers the NOT family (NOT, CNOT, CCNOT = Toffoli),
stored as plain 0/1 permutation matrices, and its unitary generalization
(UT, CUT, CCUT) where the bit flip is replaced by the two-level rotation
block

    [[cos(a/2),            i e^{if}  sin(a/2)],
     [i e^{-if} sin(a/2),  cos(a/2)          ]]

on every control-satisfying target pair.  Physical (pulse-compiled)
realizations of the NOT family differ from these textbook matrices by a
factor i on the off-diagonal entries; that relation is handled by the
compiler's equivalence checker, not here.

Gate strings follow the grammar

    KIND ":" [CONTROLS "->"] TARGET ["(" PHI "," F ")"]

with KIND in {NOT, CNOT, CCNOT, UT, CUT, CCUT}, CONTROLS a set of distinct
spins from {Q, R, S} (size fixed by KIND), TARGET a single spin not among
the controls, and the finite (phi, f) payload (radians) required exactly
for the UT family.  Examples: "NOT:S", "CNOT:R->Q", "CCNOT:QR->S",
"CCUT:QR->S(1.2,0.4)".
"""

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import GateGrammarError, InputError
from .system import DIM, IDENTITY, one_of, real

SPINS = ("Q", "R", "S")
BIT_OF_SPIN = {"Q": 4, "R": 2, "S": 1}

NOT_FAMILY = ("NOT", "CNOT", "CCNOT")
UT_FAMILY = ("UT", "CUT", "CCUT")
CONTROL_COUNT = {"NOT": 0, "UT": 0, "CNOT": 1, "CUT": 1, "CCNOT": 2, "CCUT": 2}


@dataclass(frozen=True)
class GateSpec:
    """Symbolic gate: kind, master (control) spins, slave (target) spin, float payload."""

    kind: str
    target: str
    controls: frozenset = frozenset()
    phi: float | None = None
    f: float | None = None

    def __post_init__(self):
        one_of(self.kind, "gate kind", NOT_FAMILY + UT_FAMILY)
        one_of(self.target, "target", SPINS)
        object.__setattr__(self, "controls", frozenset(self.controls))
        if not self.controls <= set(SPINS):
            raise InputError(f"controls must be a subset of {SPINS}, got {set(self.controls)}")
        if self.target in self.controls:
            raise InputError(f"target {self.target} cannot also be a control")
        expected = CONTROL_COUNT[self.kind]
        if len(self.controls) != expected:
            raise InputError(f"{self.kind} takes {expected} control(s), "
                             f"got {len(self.controls)}")
        if self.is_not_family:
            if self.phi is not None or self.f is not None:
                raise InputError(f"{self.kind} takes no (phi, f) payload")
        else:
            if self.phi is None or self.f is None:
                raise InputError(f"{self.kind} requires a (phi, f) payload")
            object.__setattr__(self, "phi", float(real(self.phi, f"{self.kind} payload (phi, f)")))
            object.__setattr__(self, "f", float(real(self.f, f"{self.kind} payload (phi, f)")))

    @property
    def is_not_family(self) -> bool:
        return self.kind in NOT_FAMILY

    def payload(self) -> np.ndarray:
        """2x2 block applied to each control-satisfying target pair."""
        return np.array(self._payload_entries(), dtype=complex).reshape(2, 2)

    def _payload_entries(self) -> tuple:
        """The payload's entries in row order, as Python scalars (math and cmath)."""
        if self.is_not_family:
            return 0, 1, 1, 0
        half = self.phi / 2
        cosine, sine = math.cos(half), math.sin(half)
        return (cosine, 1j * cmath.exp(1j * self.f) * sine,
                1j * cmath.exp(-1j * self.f) * sine, cosine)

    def level_pairs(self) -> list[tuple[int, int]]:
        """Level pairs (M_target-bit-0, M_target-bit-1) it acts on, ascending."""
        target_bit = BIT_OF_SPIN[self.target]
        control_mask = sum(BIT_OF_SPIN[c] for c in self.controls)
        pairs = []
        for m0 in range(DIM):
            if m0 & target_bit:
                continue
            if (m0 & control_mask) == control_mask:
                pairs.append((m0, m0 | target_bit))
        return pairs

    def __str__(self) -> str:
        controls = "".join(s for s in SPINS if s in self.controls)
        head = f"{self.kind}:{controls}->{self.target}" if controls else f"{self.kind}:{self.target}"
        if self.is_not_family:
            return head
        return f"{head}({self.phi!r},{self.f!r})"


_GATE_RE = re.compile(
    r"^(?P<kind>[A-Z]+):(?:(?P<controls>[QRS]{1,2})->)?(?P<target>[QRS])"
    r"(?:\((?P<phi>[^,()]+),(?P<f>[^,()]+)\))?$")

_GRAMMAR_HINT = ("expected KIND:CONTROLS->TARGET with KIND in "
                 "{NOT,CNOT,CCNOT,UT,CUT,CCUT}, CONTROLS in {,Q,R,S,QR,RS,QS} "
                 "(omitted with the arrow for NOT/UT), TARGET in {Q,R,S}, and "
                 "a (phi,f) payload in radians for the UT family, "
                 "e.g. CCNOT:QR->S or CCUT:QR->S(1.2,0.4)")


def parse_gate(text: str) -> GateSpec:
    """Parse one gate string (shape by regex, the rest by GateSpec); errors carry the hint."""
    match = _GATE_RE.match(text.strip())
    if match is None:
        raise GateGrammarError(f"cannot parse gate string {text!r}: {_GRAMMAR_HINT}")
    controls = match.group("controls") or ""
    if len(set(controls)) != len(controls):
        raise GateGrammarError(f"duplicate control spin in {text!r}: {_GRAMMAR_HINT}")
    phi, f = match.group("phi", "f")
    if phi is not None:
        try:
            phi, f = float(phi), float(f)
        except ValueError as exc:
            raise GateGrammarError(f"non-numeric (phi,f) payload in {text!r}: "
                                   f"{_GRAMMAR_HINT}") from exc
    try:
        return GateSpec(kind=match.group("kind"), target=match.group("target"),
                        controls=frozenset(controls), phi=phi, f=f)
    except InputError as exc:
        raise GateGrammarError(f"invalid gate {text!r}: {exc}: {_GRAMMAR_HINT}") from exc


def parse_gate_sequence(text: str) -> tuple[GateSpec, ...]:
    """Parse a ';'-separated gate sequence (applied left to right)."""
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise GateGrammarError(f"empty gate sequence {text!r}: {_GRAMMAR_HINT}")
    return tuple(parse_gate(p) for p in parts)


def target_gate(spec: GateSpec) -> np.ndarray:
    """Textbook 8x8 matrix of the gate in the M-ordered basis."""
    a, b, c, d = spec._payload_entries()
    u = IDENTITY.astype(complex)
    for m0, m1 in spec.level_pairs():
        u[m0, m0], u[m0, m1], u[m1, m0], u[m1, m1] = a, b, c, d
    return u

