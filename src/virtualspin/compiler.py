"""Gate-to-pulse compilation, schedule simulation and equivalence checking.

Each gate of the library maps to exactly one multi-frequency pulse: the
doubly-controlled gates need a single tone (the one level pair whose
control bits are both 1), singly-controlled gates a two-tone pulse, and
uncontrolled gates a four-tone pulse.  NOT-family tones all carry angle
pi, phase 0, axis X; the UT family reuses the same level pairs with the
requested (phi, f).

A compiled NOT-family propagator equals the textbook permutation matrix
up to a factor i on the off-diagonal entries.  verify() therefore grades
a unitary against a target under three conventions -- exact equality,
equality after multiplying the target's off-diagonal support by i, and
equality up to a global phase -- and reports the best match with its
maximum entrywise deviation.  Entrywise comparison is deliberate: a trace
fidelity would under-report structured phase errors.

Schedules serialize to a small structured-text (YAML-compatible) tree so
they can be written, inspected, and replayed losslessly.
"""

from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import InputError, ScheduleFormatError, TruthTableError
from .gates import GateSpec, parse_gate_sequence, target_gate
from .operators import DIM
from .pulses import (AXES, PulseParams, Tone, check_disjoint, multi_tone_propagator,
                     pulse_duration)
from .spectrum import Spectrum, drive_elements

EXACT_MATCH = "exact"
UP_TO_I = "equal-up-to-i"
UP_TO_GLOBAL_PHASE = "equal-up-to-global-phase"
MISMATCH = "mismatch"
VERDICTS = (EXACT_MATCH, UP_TO_I, UP_TO_GLOBAL_PHASE, MISMATCH)

OK_VERDICTS = (EXACT_MATCH, UP_TO_I)


@dataclass(frozen=True, eq=True)
class PulseSchedule:
    """Ordered pulse groups realizing a gate (or gate sequence).

    Tones within a group are simultaneous (one multi-frequency pulse) and
    address disjoint level pairs; groups apply in order.  `omegas` and
    `durations` mirror the shape of `groups` and hold the resolved
    transition frequency and pulse length per tone (None when the schedule
    was compiled without a spectrum / drive amplitude).
    """

    gates: tuple
    groups: tuple
    spectrum_method: str | None = None
    parameters: dict | None = None
    omegas: tuple = ()
    durations: tuple = ()

    def __post_init__(self):
        for group in self.groups:
            check_disjoint(group)
        if not self.omegas:
            object.__setattr__(self, "omegas",
                               tuple(tuple(None for _ in g) for g in self.groups))
        if not self.durations:
            object.__setattr__(self, "durations",
                               tuple(tuple(None for _ in g) for g in self.groups))
        for name in ("omegas", "durations"):
            shape = tuple(len(g) for g in getattr(self, name))
            if shape != tuple(len(g) for g in self.groups):
                raise InputError(f"{name} must mirror the shape of groups")

    def gate_string(self) -> str:
        return ";".join(str(g) for g in self.gates)


def _as_gates(gate) -> tuple:
    if isinstance(gate, str):
        return parse_gate_sequence(gate)
    if isinstance(gate, GateSpec):
        return (gate,)
    gates = tuple(gate)
    if not gates or not all(isinstance(g, GateSpec) for g in gates):
        raise InputError("expected a GateSpec, a gate string, or a sequence of GateSpec")
    return gates


def compile_gate(gate, spectrum: Spectrum | None = None,
                 gamma_hrf: float | None = None,
                 parameters: dict | None = None) -> PulseSchedule:
    """Compile a gate (or ';' sequence) into its pulse schedule.

    One group per gate: 1 tone for CCNOT/CCUT, 2 for CNOT/CUT, 4 for
    NOT/UT, on the level pairs selected by the control/target structure.
    With a Spectrum the per-tone transition frequencies are resolved;
    with gamma_hrf also the pulse durations.
    """
    gates = _as_gates(gate)
    groups = []
    for g in gates:
        angle = np.pi if g.is_not_family else g.phi
        phase = 0.0 if g.is_not_family else g.f
        groups.append(tuple(Tone(upper=m0, lower=m1, angle=angle, phase=phase, axis="X")
                            for m0, m1 in g.level_pairs()))
    sched = PulseSchedule(gates=gates, groups=tuple(groups),
                          parameters=dict(parameters) if parameters is not None else None)
    if spectrum is not None:
        sched = resolve_schedule(sched, spectrum, gamma_hrf)
    return sched


def resolve_schedule(sched: PulseSchedule, spectrum: Spectrum,
                     gamma_hrf: float | None = None) -> PulseSchedule:
    """Re-resolve an existing schedule's frequencies against another Spectrum.

    The symbolic level pairs stay fixed; only the per-tone omega (and
    duration, when gamma_hrf is given) are recomputed, so the same schedule
    can be expressed against the perturbative or the exact level scheme.
    """
    elements = {axis: np.abs(drive_elements(spectrum, axis))
                for axis in {t.axis for group in sched.groups for t in group}}
    omegas = tuple(
        tuple(float(spectrum.energies[t.upper] - spectrum.energies[t.lower])
              for t in group)
        for group in sched.groups)
    durations = ()  # PulseSchedule fills in None
    if gamma_hrf is not None:
        params = PulseParams(gammaHrf=gamma_hrf)
        durations = tuple(
            tuple(float(pulse_duration(abs(t.angle), params,
                                       elements[t.axis][t.upper, t.lower], t.axis))
                  for t in group)
            for group in sched.groups)
    return PulseSchedule(gates=sched.gates, groups=sched.groups,
                         spectrum_method=spectrum.method, parameters=sched.parameters,
                         omegas=omegas, durations=durations)


def schedule_propagator(sched: PulseSchedule) -> np.ndarray:
    """Idealized unitary of the whole schedule (ordered product over groups)."""
    u = np.eye(DIM, dtype=complex)
    for group in sched.groups:
        u = multi_tone_propagator(group) @ u
    return u


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Outcome of comparing a unitary against a target gate."""

    verdict: str
    max_deviation: float
    phase_map: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in OK_VERDICTS


def _sequence_target(gates) -> np.ndarray:
    u = np.eye(DIM, dtype=complex)
    for g in gates:
        u = target_gate(g) @ u
    return u


def verify(gate, u: np.ndarray, tol: float = 1e-12) -> EquivalenceReport:
    """Grade unitary `u` against the textbook target of `gate`.

    Verdicts, in order of preference:
      exact                    entrywise equal
      equal-up-to-i            equal after multiplying every nonzero
                               off-diagonal target entry by i (the phase
                               convention of physical pulse realizations)
      equal-up-to-global-phase equal to e^{i alpha} * target
      mismatch                 none of the above; max_deviation is then the
                               smallest deviation over the conventions
    """
    target = _sequence_target(_as_gates(gate))

    off_diag = ~np.eye(DIM, dtype=bool) & (np.abs(target) > tol)
    target_i = target.copy()
    target_i[off_diag] *= 1j

    dev_exact = float(np.abs(u - target).max())
    dev_i = float(np.abs(u - target_i).max())
    inner = np.trace(target.conj().T @ u)
    alpha = np.angle(inner) if abs(inner) > tol else 0.0
    dev_global = float(np.abs(u - np.exp(1j * alpha) * target).max())

    support = np.abs(target) > tol
    phase_map = {}
    for j, k in zip(*np.nonzero(support)):
        phase_map[(int(j), int(k))] = complex(u[j, k] / target[j, k])

    if dev_exact < tol:
        return EquivalenceReport(EXACT_MATCH, dev_exact, phase_map)
    if dev_i < tol:
        return EquivalenceReport(UP_TO_I, dev_i, phase_map)
    if dev_global < tol:
        return EquivalenceReport(UP_TO_GLOBAL_PHASE, dev_global, phase_map)
    return EquivalenceReport(MISMATCH, min(dev_exact, dev_i, dev_global), phase_map)


def truth_table(gate, propagator: np.ndarray | None = None,
                tol: float = 1e-10) -> dict:
    """Classical readout of a compiled NOT-family gate.

    Maps each input label to (output label, amplitude) where the amplitude
    has modulus 1 within `tol`.  Raises TruthTableError when a column is
    not a pure basis vector, which signals a compilation bug (or a
    UT-family payload smuggled in).
    """
    gates = _as_gates(gate)
    if not all(g.is_not_family for g in gates):
        raise InputError("truth_table is defined for NOT-family gates only")
    if propagator is None:
        propagator = schedule_propagator(compile_gate(gates))
    table = {}
    for label in range(DIM):
        column = propagator[:, label]
        out = int(np.argmax(np.abs(column)))
        amp = complex(column[out])
        rest = np.abs(np.delete(column, out)).max()
        if abs(abs(amp) - 1) > tol or rest > tol:
            raise TruthTableError(
                f"column {label} is not a pure basis vector "
                f"(|amp|={abs(amp):.6f}, residual={rest:.3e})")
        table[label] = (out, amp)
    return table


# ---------------------------------------------------------------------------
# structured-text serialization
#
# The format is a plain key-value tree (a YAML subset), e.g.
#
#   gate: "CCNOT:QR->S"
#   spectrum_method: "exact"
#   parameters:
#     gammaHrf: 0.001
#     omega0: 1.0
#   groups:
#   - - upper: 6
#       lower: 7
#       angle_rad: 3.141592653589793
#       phase_rad: 0.0
#       axis: "X"
#       omega: 0.8800000000000001
#       duration: 1187.4100664449326
#
# Floats are written with repr() so that serialize -> parse is lossless.
# ---------------------------------------------------------------------------

_TONE_KEYS = ("upper", "lower", "angle_rad", "phase_rad", "axis", "omega", "duration")


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return repr(float(value))


def format_schedule(sched: PulseSchedule) -> str:
    """Serialize a schedule to its structured-text form (deterministic bytes)."""
    lines = [f"gate: {_scalar(sched.gate_string())}",
             f"spectrum_method: {_scalar(sched.spectrum_method)}"]
    if sched.parameters is None:
        lines.append("parameters: null")
    else:
        lines.append("parameters:")
        for key in sorted(sched.parameters):
            lines.append(f"  {key}: {_scalar(sched.parameters[key])}")
    lines.append("groups:")
    for group, g_omegas, g_durations in zip(sched.groups, sched.omegas, sched.durations):
        for i, (tone, omega, duration) in enumerate(zip(group, g_omegas, g_durations)):
            prefix = "- - " if i == 0 else "  - "
            values = {"upper": tone.upper, "lower": tone.lower,
                      "angle_rad": tone.angle, "phase_rad": tone.phase,
                      "axis": tone.axis, "omega": omega, "duration": duration}
            for j, key in enumerate(_TONE_KEYS):
                lead = prefix if j == 0 else "    "
                lines.append(f"{lead}{key}: {_scalar(values[key])}")
    return "\n".join(lines) + "\n"


def _require(condition: bool, message: str):
    if not condition:
        raise ScheduleFormatError(message)


def parse_schedule(text: str) -> PulseSchedule:
    """Parse the structured-text schedule form back into a PulseSchedule."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScheduleFormatError(f"schedule is not valid structured text: {exc}") from exc
    _require(isinstance(doc, dict), "schedule must be a key-value tree")
    for key in ("gate", "groups"):
        _require(key in doc, f"schedule is missing the {key!r} field")

    gates = parse_gate_sequence(str(doc["gate"]))

    method = doc.get("spectrum_method")
    _require(method is None or isinstance(method, str),
             "spectrum_method must be a string or null")

    parameters = doc.get("parameters")
    if parameters is not None:
        _require(isinstance(parameters, dict), "parameters must be a mapping or null")
        try:
            parameters = {str(k): float(v) for k, v in parameters.items()}
        except (TypeError, ValueError) as exc:
            raise ScheduleFormatError(f"invalid parameters: {exc}") from exc

    raw_groups = doc["groups"]
    _require(isinstance(raw_groups, list) and
             all(isinstance(g, list) for g in raw_groups),
             "groups must be a list of tone lists")
    groups, omegas, durations = [], [], []
    for raw_group in raw_groups:
        tones, g_omegas, g_durations = [], [], []
        for entry in raw_group:
            _require(isinstance(entry, dict), "each tone must be a mapping")
            missing = [k for k in _TONE_KEYS if k not in entry]
            _require(not missing, f"tone is missing fields {missing}")
            _require(entry["axis"] in AXES, f"tone axis must be one of {AXES}")
            # InputError from Tone is a ValueError too
            try:
                tones.append(Tone(upper=int(entry["upper"]), lower=int(entry["lower"]),
                                  angle=float(entry["angle_rad"]),
                                  phase=float(entry["phase_rad"]),
                                  axis=str(entry["axis"])))
                for raw, bucket in ((entry["omega"], g_omegas),
                                    (entry["duration"], g_durations)):
                    bucket.append(None if raw is None else float(raw))
            except (TypeError, ValueError) as exc:
                raise ScheduleFormatError(f"invalid tone: {exc}") from exc
        groups.append(tuple(tones))
        omegas.append(tuple(g_omegas))
        durations.append(tuple(g_durations))
    try:
        return PulseSchedule(gates=gates, groups=tuple(groups),
                             spectrum_method=method, parameters=parameters,
                             omegas=tuple(omegas), durations=tuple(durations))
    except InputError as exc:
        raise ScheduleFormatError(f"invalid schedule: {exc}") from exc
