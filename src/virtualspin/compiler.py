"""Gate-to-pulse compilation, schedule simulation and equivalence checking.

Each gate of the library maps to exactly one multi-frequency pulse: the
doubly-controlled gates need a single tone (the one level pair whose
control bits are both 1), singly-controlled gates a two-tone pulse, and
uncontrolled gates a four-tone pulse.  NOT-family tones all carry angle
pi, phase 0, axis X; the UT family reuses the same level pairs with the
requested (phi, f).

A compiled NOT-family propagator equals the textbook permutation matrix
up to a factor i on the off-diagonal entries.  verify() therefore tries
three conventions in order -- exact equality, equality after multiplying
the target's off-diagonal support by i, and equality up to a global phase
-- and reports the first that holds with its maximum entrywise deviation;
phase_map() gives the factors.  Entrywise comparison is deliberate: a
trace fidelity would under-report structured phase errors.

Schedules serialize to a small structured-text tree, a YAML subset that
read_tree reads back, so they can be written, inspected, and replayed losslessly.
"""

import cmath
import math
import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import InputError, ScheduleFormatError, TruthTableError
from .gates import GateSpec, parse_gate_sequence, target_gate
from .pulses import PulseParams, Tone, check_disjoint, multi_tone_propagator, pulse_duration
from .spectrum import Spectrum, drive_elements
from .system import DIM, IDENTITY, Q2_FORMS, one_of, real

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
    Gates and groups are stored as tuples, an empty `parameters` as None, as they read back;
    a `parameters` key or `spectrum_method` that parse_schedule would refuse is refused here.
    """

    gates: tuple
    groups: tuple
    spectrum_method: str | None = None
    parameters: dict | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "gates", tuple(self.gates))
        except TypeError:
            raise InputError(f"schedule gates must be a sequence, got {self.gates!r}") from None
        try:
            object.__setattr__(self, "groups", tuple(map(tuple, self.groups)))
        except TypeError:
            raise InputError("schedule groups must be a sequence of sequences, "
                             f"got {self.groups!r}") from None
        parameters = {_parameter_key(key): one_of(value, key, Q2_FORMS) if key == "q2_form"
                      else real(value, key) for key, value in dict(self.parameters or {}).items()}
        object.__setattr__(self, "parameters", parameters or None)
        if not all(isinstance(g, GateSpec) for g in self.gates):
            raise InputError(f"schedule gates must be a sequence of GateSpec, got {self.gates!r}")
        for group in self.groups:
            if not group or not all(isinstance(t, Tone) for t in group):
                raise InputError(f"a pulse group must be one or more Tones, got {group!r}")
            check_disjoint(group)
        method = self.spectrum_method
        if not (method is None or isinstance(method, str) and method.isprintable()):
            raise InputError(f"spectrum_method must be a printable string or null, got {method!r}")

    def gate_string(self) -> str:
        return ";".join(str(g) for g in self.gates)


def _parameter_key(key) -> str:
    """A `parameters` key that read_tree reads back: _LINE's key, not a YAML 1.1 bool or null."""
    if isinstance(key, str) and _STRING_KEY.fullmatch(key):
        return key
    raise InputError("a parameters key must be 1-64 letters, digits or _, not led by a digit and "
                     f"not a YAML 1.1 boolean or null, got {key!r}")


def _as_gates(gate) -> tuple:
    if isinstance(gate, str):
        return parse_gate_sequence(gate)
    gates = (gate,) if isinstance(gate, GateSpec) else tuple(gate)
    if not gates or not all(isinstance(g, GateSpec) for g in gates):
        raise InputError("expected a GateSpec, a gate string, or a non-empty sequence of GateSpec")
    return gates


def compile_gate(gate, spectrum: Spectrum | None = None,
                 gamma_hrf: float | None = None,
                 parameters: dict | None = None) -> PulseSchedule:
    """Compile a gate (or ';' sequence) into its pulse schedule.

    One group per gate: 1 tone for CCNOT/CCUT, 2 for CNOT/CUT, 4 for
    NOT/UT, on the level pairs selected by the control/target structure.
    With a Spectrum and gamma_hrf, given together or not at all, each tone is
    built resolved as resolve_schedule would resolve it.
    """
    gates = _as_gates(gate)
    if spectrum is None and gamma_hrf is not None:
        raise InputError("gamma_hrf needs a spectrum to resolve the tones against")
    tone = Tone if spectrum is None else _resolver(spectrum, gamma_hrf, ("X",))[0]
    groups = []
    for g in gates:
        angle, phase = (np.pi, 0.0) if g.is_not_family else (g.phi, g.f)
        groups.append([tone(m0, m1, angle, phase, "X") for m0, m1 in g.level_pairs()])
    return PulseSchedule(gates, groups, None if spectrum is None else spectrum.method, parameters)


def resolve_schedule(sched: PulseSchedule, spectrum: Spectrum,
                     gamma_hrf: float | None = None) -> PulseSchedule:
    """The schedule with every tone resolved against `spectrum` at drive amplitude gamma_hrf.

    Level pairs, angles, phases and axes stay fixed; each tone gets omega =
    E_upper - E_lower and the duration realizing its |angle| at gamma_hrf,
    which must be given.
    """
    tone = _resolver(spectrum, gamma_hrf, {t.axis for g in sched.groups for t in g})[0]
    return PulseSchedule(sched.gates, [[tone(t.upper, t.lower, t.angle, t.phase, t.axis)
                                        for t in group] for group in sched.groups],
                         spectrum.method, sched.parameters)


def _resolver(spectrum: Spectrum, gamma_hrf: float | None, axes) -> tuple:
    """The tone rule of resolve_schedule, compile_gate and simulate_schedule, and the
    drive_elements of spectrum it reads, by axis."""
    if gamma_hrf is None:
        raise InputError("a spectrum needs gamma_hrf to give each tone its duration")
    params = PulseParams(gammaHrf=gamma_hrf)
    elements = {axis: drive_elements(spectrum, axis) for axis in axes}
    moduli = {axis: np.abs(e) for axis, e in elements.items()}

    def resolved(upper: int, lower: int, angle, phase, axis: str) -> Tone:
        duration = pulse_duration(abs(angle), params, moduli[axis][upper, lower], axis)
        omega = float(spectrum.energies[upper] - spectrum.energies[lower])
        return Tone(upper, lower, angle, phase, axis, omega, duration)

    return resolved, elements


def schedule_propagator(sched: PulseSchedule) -> np.ndarray:
    """Idealized unitary of the whole schedule (ordered product over groups)."""
    u = IDENTITY.astype(complex)
    for group in sched.groups:
        u = multi_tone_propagator(group) @ u
    return u


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Outcome of comparing a unitary against a target gate."""

    verdict: str
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.verdict in OK_VERDICTS


def _sequence_target(gates) -> np.ndarray:
    u = IDENTITY.astype(complex)
    for g in gates:
        u = target_gate(g) @ u
    return u


def verify(gate, u: np.ndarray) -> EquivalenceReport:
    """Grade unitary `u` against the textbook target of `gate`.

    Verdicts, tried in this order; the first that holds is returned:
      exact                    entrywise equal
      equal-up-to-i            equal after multiplying every nonzero
                               off-diagonal target entry by i (the phase
                               convention of physical pulse realizations)
      equal-up-to-global-phase equal to e^{i alpha} * target
      mismatch                 none of the above; max_deviation is then the
                               smallest deviation over the conventions
    """
    target = _sequence_target(_as_gates(gate))
    dev_exact = float(np.abs(u - target).max())
    if dev_exact < VERIFY_TOL:
        return EquivalenceReport(EXACT_MATCH, dev_exact)

    support = np.abs(target) > VERIFY_TOL
    target_i = np.where(support & _OFF_DIAGONAL, target * 1j, target)
    dev_i = float(np.abs(u - target_i).max())
    if dev_i < VERIFY_TOL:
        return EquivalenceReport(UP_TO_I, dev_i)

    inner = np.trace(target.conj().T @ u)
    # numpy's abs and angle of inner: cmath's can differ from them in the last bit
    alpha = np.angle(inner) if abs(inner) > VERIFY_TOL else 0.0
    dev_global = float(np.abs(u - cmath.exp(1j * alpha) * target).max())
    if dev_global < VERIFY_TOL:
        return EquivalenceReport(UP_TO_GLOBAL_PHASE, dev_global)
    return EquivalenceReport(MISMATCH, min(dev_exact, dev_i, dev_global))


def phase_map(gate, u: np.ndarray) -> dict:
    """u / target on each nonzero entry of `gate`'s textbook target, keyed (row, column)
    in row order: Python complex, i off the diagonal of a compiled NOT-family gate, 1 on it."""
    target = _sequence_target(_as_gates(gate))
    rows, cols = np.nonzero(np.abs(target) > VERIFY_TOL)
    return dict(zip(zip(rows.tolist(), cols.tolist()),
                    (u[rows, cols] / target[rows, cols]).tolist()))


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
# format_tree writes it, for every schedule and every `st` listing of the CLI.
# Floats are written with repr() so that serialize -> parse is lossless, an
# exponent-only repr with a `.0` mantissa (1.0e-05) so that YAML 1.1 reads a float.
# ---------------------------------------------------------------------------

# schedule key -> Tone attribute, in the order format_schedule writes them
_TONE_FIELDS = {"upper": "upper", "lower": "lower", "angle_rad": "angle", "phase_rad": "phase",
                "axis": "axis", "omega": "omega", "duration": "duration"}
_tone_entries = itemgetter(*_TONE_FIELDS)


def format_scalar(value) -> str:
    """One scalar: an int, any other number as a float, each as its repr with `.0` added
    to an exponent-only mantissa (1e-05 as 1.0e-05), a quoted string or null."""
    if type(value) is float or type(value) is int:   # the common case
        text = repr(value)
        return text.replace("e", ".0e") if "e" in text and "." not in text else text
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return format_scalar(float(value))


def format_tree(tree) -> str:
    """The structured-text block form of a dict or list.

    A scalar value is written `key: value`.  A dict or list value goes
    below a bare `key:` line, a dict indented two spaces and a list at the
    key's indent; list items are dicts or lists, their first line led by `- `.
    """
    lines = []
    _block(tree, lines, "", "")
    return "\n".join(lines) + "\n"


def _block(tree, lines: list, first: str, rest: str):
    """Append the lines of tree, the first led by `first` and the others by `rest`."""
    if type(tree) is dict:
        for key, value in tree.items():
            kind = type(value)
            if kind is dict or kind is list:
                lines.append(f"{first}{key}:")
                inner = rest + "  " if kind is dict else rest
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
    return format_tree({
        "gate": sched.gate_string(), "spectrum_method": sched.spectrum_method,
        "parameters": sched.parameters and dict(sorted(sched.parameters.items())),
        "groups": [[{key: getattr(tone, name) for key, name in _TONE_FIELDS.items()}
                    for tone in group] for group in sched.groups]})


# read_tree reads back exactly the layout above, with comments, blank lines
# and trailing spaces, and gives each scalar it accepts its YAML 1.1 value:
# "quoted" strings (escapes \\ and \" only), null, ~ or nothing, decimal
# integers, floats with a dot (-0.0, 1.5e-07, .inf) and plain words (CCNOT:QR->S,
# X, and 1e-05, a string to YAML 1.1).  Booleans (yes, on), 010, 0x1f, 1:30,
# dates, flow collections, anchors, tags, single quotes, multi-line scalars and
# repeated keys are rejected, so a file means what it meant to a YAML reader.
#
# One pattern, _LINE, reads every line of a text in one findall.  A `key: value`
# line gives its lead (the indentation, or a tone's `- `), its key, and its value:
# typed already when it is a decimal integer or a dotted float, absent for a block
# head or null, and else raw text for _value.  A key YAML 1.1 reads as a boolean
# or null, and a line outside the grammar, each fill a group of their own; a
# blank or comment line fills none.  Tabs and other unprintable characters are
# looked for once, in the whole text.

_KEY = r"[A-Za-z_][A-Za-z0-9_]{0,63}"
_NOT_KEY = r"(?i:yes|no|true|false|on|off)|null|Null|NULL"   # YAML 1.1 booleans and null
_STRING_KEY = re.compile(rf"(?!(?:{_NOT_KEY})\Z){_KEY}")
_LINE = re.compile(r"^(?:(- - |  - |    |  |)"                                   # lead
                   r"(?:(" + _NOT_KEY + r")(?=:)"                               # not a string key
                   r"|(" + _KEY + r")):"                                        # key
                   r"(?: +(?:([-+]?(?:0|[1-9][0-9]*))"                           # integer
                   r"|((?:[-+]?[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][-+][0-9]+)?))"    # float
                   r"(?: +#.*| *)$"
                   r"|(?: +#.*| *)$"                                             # no value
                   r"| +(.*))"                                                   # raw value
                   r"| *(?:#.*)?$"                                               # blank, comment
                   r"|(.*))", re.MULTILINE)                                      # anything else
_QUOTED = re.compile(r'"((?:[^"\\]|\\["\\])*)"(?: +#.*| *)$')
_EXPONENT = re.compile(r"[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$")   # a word to YAML 1.1
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_.+:;(),>-]*(?<!:)$|" + _EXPONENT.pattern)
_NAMED = {"~": None, "null": None, "Null": None, "NULL": None, ".nan": math.nan,
          ".NaN": math.nan, ".NAN": math.nan, **{sign + inf: float(sign + "inf")
          for sign in ("", "+", "-") for inf in (".inf", ".Inf", ".INF")}}
_BOOLS = {"yes", "no", "true", "false", "on", "off"}
_BLOCK = object()   # `key:` with no value: null, or the head of an indented block


def _value(raw: str):
    """The value of raw text that is neither a decimal integer nor a dotted float."""
    if raw.startswith('"'):
        quoted = _QUOTED.match(raw)
        if not quoted:
            raise ScheduleFormatError('unclosed string or an escape other than \\\\ and \\"')
        text = quoted[1]
        return re.sub(r'\\(["\\])', r"\1", text) if "\\" in text else text
    token = raw.partition(" #")[0].rstrip(" ")
    if token in _NAMED:
        return _NAMED[token]
    if not _WORD.match(token) or token.lower() in _BOOLS:
        raise ScheduleFormatError(f"unsupported value {token!r}")
    return token


def read_tree(text: str) -> dict:
    """The key-value tree of a schedule or config file (see the grammar above).

    Raises ScheduleFormatError naming the first line outside the grammar.
    """
    if text.replace("\n", "").isprintable():
        return _tree(text)
    lines = text.split("\n")
    bad = next(index for index, line in enumerate(lines) if not line.isprintable())
    _tree("\n".join(lines[:bad]))   # an error on an earlier line comes first
    raise ScheduleFormatError(f"line {bad + 1}: tab or other unprintable character")


def _tree(text: str) -> dict:
    doc, head, block = {}, None, None   # block: the open block of the top-level key head
    # one match per line, each group "" where it took no part
    for number, (lead, not_key, key, integer, real, raw, other) in enumerate(
            _LINE.findall(text), 1):
        try:
            if not key:
                if not_key:
                    raise ScheduleFormatError(f"{not_key!r} is not a string key in YAML 1.1")
                if other:
                    raise ScheduleFormatError("expected `key: value`, indented by 0, 2 or 4 "
                                              "spaces, or a `- - ` / `  - ` tone line")
                continue   # a blank or comment line
            if integer:
                value = int(integer)
            elif real:
                value = float(real)
            else:
                value = _value(raw) if raw else _BLOCK
            if lead == "":
                mapping, head, block = doc, (key if value is _BLOCK else None), None
            elif type(block) is list and lead != "  ":   # a tone line; "    " adds to the open tone
                if lead == "- - ":
                    block.append([])
                if lead != "    ":
                    mapping = {}
                    block[-1].append(mapping)
            elif head is not None and block is None and lead in ("  ", "- - "):
                mapping = {}
                block = doc[head] = mapping if lead == "  " else [[mapping]]
            elif lead == "  " and type(block) is dict:
                mapping = block
            else:
                raise ScheduleFormatError("no open block at this indentation")
            if key in mapping:
                raise ScheduleFormatError(f"repeated key {key!r}")
        except ValueError as exc:   # a ScheduleFormatError, or an int past Python's digit limit
            raise ScheduleFormatError(f"line {number}: {exc}") from exc
        mapping[key] = None if value is _BLOCK else value
    return doc


def _require(condition: bool, message: str):
    """Raise ScheduleFormatError(message) unless condition."""
    if not condition:
        raise ScheduleFormatError(message)


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

    gates = parse_gate_sequence(str(doc["gate"])) if doc["gate"] != "" else ()   # no gates

    parameters = doc.get("parameters")
    _require(parameters is None or isinstance(parameters, dict),
             "parameters must be a mapping or null")

    raw_groups = [] if doc["groups"] is None else doc["groups"]   # `groups:` holds none
    _require(isinstance(raw_groups, list) and all(isinstance(g, list) for g in raw_groups),
             "groups must be a list of tone lists")
    try:   # the field rules of system, as Tone and PulseSchedule apply them
        parameters = parameters and {key: value if key == "q2_form" else number(value, key)
                                     for key, value in parameters.items()}
        groups = tuple(tuple(_tone(entry) for entry in group) for group in raw_groups)
        return PulseSchedule(gates=gates, groups=groups,
                             spectrum_method=doc.get("spectrum_method"), parameters=parameters)
    except InputError as exc:
        raise ScheduleFormatError(f"invalid schedule: {exc}") from exc


def _tone(entry) -> Tone:
    """The Tone of one schedule entry, each field checked as read_tree typed it."""
    _require(isinstance(entry, dict), "each tone must be a mapping")
    try:
        upper, lower, angle, phase, axis, omega, duration = _tone_entries(entry)
    except KeyError:
        missing = [key for key in _TONE_FIELDS if key not in entry]
        raise ScheduleFormatError(f"tone is missing fields {missing}") from None
    return Tone(upper, lower, number(angle, "angle_rad"), number(phase, "phase_rad"), axis,
                None if omega is None else number(omega, "omega"),
                None if duration is None else number(duration, "duration"))


def number(value, key: str) -> int | float:
    """A schedule or config number: a real (see system.real), or a word like 1e-05 as a float."""
    if isinstance(value, str) and _EXPONENT.match(value):
        value = float(value)
    return real(value, key)
