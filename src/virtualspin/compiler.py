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

Schedules serialize to a small structured-text tree, a YAML subset that
read_tree reads back, so they can be written, inspected, and replayed losslessly.
"""

import math
import re
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import InputError, ScheduleFormatError, TruthTableError
from .gates import GateSpec, parse_gate_sequence, target_gate
from .pulses import PulseParams, Tone, check_disjoint, multi_tone_propagator, pulse_duration
from .spectrum import Spectrum, drive_elements
from .system import DIM, Q2_FORMS

EXACT_MATCH = "exact"
UP_TO_I = "equal-up-to-i"
UP_TO_GLOBAL_PHASE = "equal-up-to-global-phase"
MISMATCH = "mismatch"
OK_VERDICTS = (EXACT_MATCH, UP_TO_I)

VERIFY_TOL = 1e-12
TRUTH_TABLE_TOL = 1e-10

_OFF_DIAGONAL = ~np.eye(DIM, dtype=bool)


@dataclass(frozen=True, eq=True)
class PulseSchedule:
    """Ordered pulse groups realizing a gate (or gate sequence).

    Tones within a group are simultaneous (one multi-frequency pulse) and
    address disjoint level pairs; groups apply in order.  Each tone carries
    its own resolved frequency and pulse length (see resolve_schedule).
    An empty `parameters` mapping is stored as None, as it reads back.
    """

    gates: tuple
    groups: tuple
    spectrum_method: str | None = None
    parameters: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "parameters", dict(self.parameters) if self.parameters else None)
        for group in self.groups:
            check_disjoint(group)

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
    sched = PulseSchedule(gates=gates, groups=tuple(groups), parameters=parameters)
    if spectrum is not None:
        sched = resolve_schedule(sched, spectrum, gamma_hrf)
    return sched


def resolve_schedule(sched: PulseSchedule, spectrum: Spectrum,
                     gamma_hrf: float | None = None) -> PulseSchedule:
    """The schedule with every tone resolved against `spectrum`: the one place this is done.

    Level pairs, angles, phases and axes stay fixed; each tone gets omega =
    E_upper - E_lower and, when gamma_hrf is given, the duration realizing
    its |angle| at that drive amplitude (else None).
    """
    params = PulseParams(gammaHrf=gamma_hrf) if gamma_hrf is not None else None
    elements = {axis: np.abs(drive_elements(spectrum, axis))
                for axis in {t.axis for group in sched.groups for t in group}}

    def resolved(t: Tone) -> Tone:
        duration = None if params is None else pulse_duration(
            abs(t.angle), params, elements[t.axis][t.upper, t.lower], t.axis)
        omega = float(spectrum.energies[t.upper] - spectrum.energies[t.lower])
        return Tone(t.upper, t.lower, t.angle, t.phase, t.axis, omega, duration)

    return PulseSchedule(gates=sched.gates,
                         groups=tuple(tuple(resolved(t) for t in group) for group in sched.groups),
                         spectrum_method=spectrum.method, parameters=sched.parameters)


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


def verify(gate, u: np.ndarray) -> EquivalenceReport:
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

    support = np.abs(target) > VERIFY_TOL
    target_i = np.where(support & _OFF_DIAGONAL, target * 1j, target)

    dev_exact = float(np.abs(u - target).max())
    dev_i = float(np.abs(u - target_i).max())
    inner = np.trace(target.conj().T @ u)
    alpha = np.angle(inner) if abs(inner) > VERIFY_TOL else 0.0
    dev_global = float(np.abs(u - np.exp(1j * alpha) * target).max())

    rows, cols = np.nonzero(support)
    phase_map = dict(zip(zip(rows.tolist(), cols.tolist()),
                         (u[rows, cols] / target[rows, cols]).tolist()))

    if dev_exact < VERIFY_TOL:
        return EquivalenceReport(EXACT_MATCH, dev_exact, phase_map)
    if dev_i < VERIFY_TOL:
        return EquivalenceReport(UP_TO_I, dev_i, phase_map)
    if dev_global < VERIFY_TOL:
        return EquivalenceReport(UP_TO_GLOBAL_PHASE, dev_global, phase_map)
    return EquivalenceReport(MISMATCH, min(dev_exact, dev_i, dev_global), phase_map)


def truth_table(gate, propagator: np.ndarray | None = None) -> dict:
    """Classical readout of a compiled NOT-family gate.

    Maps each input label to (output label, amplitude) where the amplitude
    has modulus 1 within TRUTH_TABLE_TOL.  Raises TruthTableError when a column is
    not a pure basis vector, which signals a compilation bug (or a
    UT-family payload smuggled in).
    """
    gates = _as_gates(gate)
    if not all(g.is_not_family for g in gates):
        raise InputError("truth_table is defined for NOT-family gates only")
    if propagator is None:
        propagator = schedule_propagator(compile_gate(gates))
    # per column: the largest entry and the largest of the other seven
    magnitudes = np.abs(propagator)
    outs = magnitudes.argmax(axis=0)
    amps = propagator[outs, range(DIM)].astype(complex).tolist()
    magnitudes[outs, range(DIM)] = 0.0
    rests = magnitudes.max(axis=0).tolist()
    for label, (amp, rest) in enumerate(zip(amps, rests)):
        if abs(abs(amp) - 1) > TRUTH_TABLE_TOL or rest > TRUTH_TABLE_TOL:
            raise TruthTableError(
                f"column {label} is not a pure basis vector "
                f"(|amp|={abs(amp):.6f}, residual={rest:.3e})")
    return dict(enumerate(zip(outs.tolist(), amps)))


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
# format_tree writes it, for schedules and for every `st` listing of the CLI.
# Floats are written with repr() so that serialize -> parse is lossless, an
# exponent-only repr with a `.0` mantissa (1.0e-05) so that YAML 1.1 reads a float.
# ---------------------------------------------------------------------------

# schedule key -> Tone attribute, in the order format_schedule writes them
_TONE_FIELDS = {"upper": "upper", "lower": "lower", "angle_rad": "angle", "phase_rad": "phase",
                "axis": "axis", "omega": "omega", "duration": "duration"}
_tone_values = attrgetter(*_TONE_FIELDS.values())


def format_scalar(value) -> str:
    """One scalar: an int, any other number as a float (_number_text), a quoted string or null."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return _number_text(float(value))


def _number_text(value) -> str:
    """repr of an int or float; an exponent-only mantissa gets `.0` (1e-05 as 1.0e-05)."""
    text = repr(value)
    return text.replace("e", ".0e") if "e" in text and "." not in text else text


def format_tree(tree) -> str:
    """The structured-text block form of a mapping or list.

    A scalar value is written `key: value`.  A mapping or list value goes
    below a bare `key:` line, a mapping indented two spaces and a list at the
    key's indent; list items are mappings or lists, their first line led by `- `.
    """
    lines = []
    _block(tree, lines, "", "")
    return "\n".join(lines) + "\n"


def _block(tree, lines: list, first: str, rest: str):
    """Append the lines of tree, the first led by `first` and the others by `rest`."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            if type(value) is float or type(value) is int:   # format_scalar's common case
                lines.append(f"{first}{key}: {_number_text(value)}")
            elif isinstance(value, (dict, list)):
                lines.append(f"{first}{key}:")
                inner = rest + "  " if isinstance(value, dict) else rest
                _block(value, lines, inner, inner)
            else:
                lines.append(f"{first}{key}: {format_scalar(value)}")
            first = rest
    else:
        for item in tree:
            _block(item, lines, first + "- ", rest + "  ")
            first = rest


def format_schedule(sched: PulseSchedule) -> str:
    """Serialize a schedule to its structured-text form (deterministic bytes)."""
    parameters = sched.parameters and dict(sorted(sched.parameters.items()))
    groups = [[dict(zip(_TONE_FIELDS, _tone_values(tone))) for tone in group]
              for group in sched.groups]
    return format_tree({"gate": sched.gate_string(), "spectrum_method": sched.spectrum_method,
                        "parameters": parameters, "groups": groups})


# read_tree reads back exactly the layout above, with comments, blank lines
# and trailing spaces, and gives each scalar it accepts its YAML 1.1 value:
# "quoted" strings (escapes \\ and \" only), null, ~ or nothing, decimal
# integers, floats with a dot (-0.0, 1.5e-07, .inf) and plain words (CCNOT:QR->S,
# X, and 1e-05, a string to YAML 1.1).  Booleans (yes, on), 010, 0x1f, 1:30,
# dates, flow collections, anchors, tags, single quotes, multi-line scalars and
# repeated keys are rejected, so a file means what it meant to a YAML reader.

_LINE = re.compile(r"(- - |  - |    |  |)([A-Za-z_][A-Za-z0-9_]{0,63}):(?: +(.*))?$")
_QUOTED = re.compile(r'"((?:[^"\\]|\\["\\])*)"(?: +#.*)?$')
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)$")
_FLOAT = re.compile(r"(?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?$")
_EXPONENT = re.compile(r"[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$")   # a word to YAML 1.1
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_.+:;(),>-]*(?<!:)$|" + _EXPONENT.pattern)
_NAMED = {"~": None, "null": None, "Null": None, "NULL": None, ".nan": math.nan,
          ".NaN": math.nan, ".NAN": math.nan, **{sign + inf: float(sign + "inf")
          for sign in ("", "+", "-") for inf in (".inf", ".Inf", ".INF")}}
_BOOLS = {"yes", "no", "true", "false", "on", "off"}
_BLOCK = object()   # `key:` with no value: null, or the head of an indented block


def _value(raw: str | None, number: int):
    if raw is None or raw.startswith("#"):
        return _BLOCK
    if raw.startswith('"'):
        quoted = _QUOTED.match(raw)
        _require(quoted, "line {}: unclosed string or an escape other than \\\\ and \\\"", number)
        return re.sub(r'\\(["\\])', r"\1", quoted[1])
    token = raw.partition(" #")[0].rstrip(" ")
    if token in _NAMED:
        return _NAMED[token]
    if _INT.match(token):
        try:
            return int(token)
        except ValueError as exc:   # beyond Python's integer digit limit
            raise ScheduleFormatError(f"line {number}: {exc}") from exc
    if _FLOAT.match(token):
        return float(token)
    _require(_WORD.match(token) and token.lower() not in _BOOLS,
             "line {}: unsupported value {!r}", number, token)
    return token


def read_tree(text: str) -> dict:
    """The key-value tree of a schedule or config file (see the grammar above).

    Raises ScheduleFormatError naming the first line outside the grammar.
    """
    doc, head, block = {}, None, None
    for number, line in enumerate(text.split("\n"), 1):
        line = line.rstrip(" ")
        _require(line.isprintable(), "line {}: tab or other unprintable character", number)
        if not line or line.lstrip(" ").startswith("#"):
            continue
        match = _LINE.match(line)
        _require(match, "line {}: expected `key: value`, indented by 0, 2 or 4 "
                        "spaces, or a `- - ` / `  - ` tone line", number)
        lead, key, raw = match.groups()
        _require(key.lower() not in _BOOLS and key not in _NAMED,
                 "line {}: {!r} is not a string key in YAML 1.1", number, key)
        value = _value(raw, number)
        if lead == "":
            mapping, head, block = doc, (key if value is _BLOCK else None), None
        elif lead == "  " and head is not None and not isinstance(block, list):
            if block is None:
                block = doc[head] = {}
            mapping = block
        elif lead == "- - " and head is not None and not isinstance(block, dict):
            if block is None:
                block = doc[head] = []
            block.append([{}])
            mapping = block[-1][-1]
        elif lead != "  " and isinstance(block, list):
            if lead == "  - ":
                block[-1].append({})
            mapping = block[-1][-1]
        else:
            raise ScheduleFormatError(f"line {number}: no open block at this indentation")
        _require(key not in mapping, "line {}: repeated key {!r}", number, key)
        mapping[key] = None if value is _BLOCK else value
    return doc


def _require(condition: bool, message: str, *args):
    """Raise ScheduleFormatError unless condition; message.format(*args) only if args are given."""
    if not condition:
        raise ScheduleFormatError(message.format(*args) if args else message)


def parse_schedule(text: str) -> PulseSchedule:
    """Parse the structured-text schedule form back into a PulseSchedule.

    read_tree reads the text and this function checks its fields; a text it
    accepts gives the same schedule as a YAML 1.1 reader of that text would.
    """
    try:
        doc = read_tree(text)
    except ScheduleFormatError as exc:
        raise ScheduleFormatError(f"schedule is not valid structured text: {exc}") from exc
    for key in ("gate", "groups"):
        _require(key in doc, f"schedule is missing the {key!r} field")

    gates = parse_gate_sequence(str(doc["gate"]))

    method = doc.get("spectrum_method")
    _require(method is None or isinstance(method, str),
             "spectrum_method must be a string or null")

    parameters = doc.get("parameters")
    if parameters is not None:
        _require(isinstance(parameters, dict), "parameters must be a mapping or null")
        form = parameters.get("q2_form", Q2_FORMS[0])
        _require(form in Q2_FORMS, "q2_form must be one of {}, got {!r}", Q2_FORMS, form)
        parameters = {key: value if key == "q2_form" else number(value, key)
                      for key, value in parameters.items()}

    raw_groups = doc["groups"]
    _require(isinstance(raw_groups, list) and all(isinstance(g, list) for g in raw_groups),
             "groups must be a list of tone lists")
    try:   # Tone checks levels, finite angles and the axis; PulseSchedule the overlaps
        groups = tuple(tuple(_tone(entry) for entry in group) for group in raw_groups)
        return PulseSchedule(gates=gates, groups=groups,
                             spectrum_method=method, parameters=parameters)
    except InputError as exc:
        raise ScheduleFormatError(f"invalid schedule: {exc}") from exc


def _tone(entry) -> Tone:
    """The Tone of one schedule entry, each field checked as read_tree typed it."""
    _require(isinstance(entry, dict), "each tone must be a mapping")
    missing = [key for key in _TONE_FIELDS if key not in entry]
    _require(not missing, "tone is missing fields {}", missing)
    fields = {}
    for key, attr in _TONE_FIELDS.items():
        value = entry[key]
        if key in ("upper", "lower"):
            _require(type(value) is int, "tone {} must be an integer, got {!r}", key, value)
        elif key != "axis" and not (value is None and key in ("omega", "duration")):
            value = number(value, key)
        fields[attr] = value
    return Tone(**fields)


def number(value, key: str) -> float:
    """A schedule or config number as read_tree gives it: an int, a float or a word like 1e-05."""
    if type(value) in (int, float) or isinstance(value, str) and _EXPONENT.match(value):
        try:
            return float(value)
        except OverflowError as exc:   # an integer beyond floating point
            raise ScheduleFormatError(f"{key}: {exc}") from exc
    raise ScheduleFormatError(f"{key} must be a number, got {value!r}")
