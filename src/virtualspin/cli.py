"""Command-line front end.

Commands: spectrum | compile | verify | sweep | simulate.  All outputs are
expressed in units of omega0 (frequencies divided by omega0, durations
multiplied by omega0), so changing --omega0 rescales the input
interpretation of --omegaQ / --gammaHrf but never the printed numbers.

Each command offers only the parameter flags it reads; a config file holds
defaults for every parameter, all checked, of which each command reads its own.

Exit codes: 0 success / gate verified; 1 verification mismatch;
2 input error (usage, bad parameters, gate grammar, schedule format,
degenerate sweep); 3 numerical-resolution error.
"""

import argparse
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .compiler import (EXACT_MATCH, compile_gate, format_scalar, format_schedule, format_tree,
                       number, parse_schedule, phase_map, read_tree, schedule_propagator, verify)
from .dynamics import IntegrationConfig, forbidden_scaling, simulate_schedule
from .errors import InputError, ResolutionError, ScheduleFormatError, VirtualSpinError
from .gates import parse_gate_sequence
from .spectrum import exact_spectrum, perturbative_spectrum, transition_table
from .system import Q2_FORMS, SpinSystem, one_of, positive, real

FORMATS = ("table", "csv", "st")
METHODS = ("pert", "exact")

# name -> (default, the allowed values or a number's rule, help, the commands that read
# it); each is a --flag (q2_form as --q2-form) of those and a config key checked for all
PARAMETERS = {
    "omega0": (1.0, positive, "Zeeman frequency (the unit)", "spectrum compile simulate"),
    "omegaQ": (0.01, real, "quadrupole coupling strength", "spectrum compile simulate"),
    "theta": (np.pi / 5, real, "field-gradient polar angle (rad)",
              "spectrum compile sweep simulate"),
    "phi": (0.0, real, "field-gradient azimuth (rad)", "spectrum compile sweep simulate"),
    "method": ("exact", METHODS, "spectrum method", "spectrum"),
    "gammaHrf": (1e-3, positive, "RF drive amplitude gamma*H_rf", "compile simulate"),
    "format": ("table", FORMATS, "output format", "spectrum verify simulate"),
    "q2_form": ("as-printed", Q2_FORMS, "quadrupole q_+-2 coefficient form",
                "spectrum compile sweep simulate"),
}
DEFAULTS = {name: default for name, (default, *_) in PARAMETERS.items()}

STRONG_DRIVE_RATIO = 0.05
# sweep --points bound: at about 0.2 ms a point the largest sweep takes about 21 s
MAX_SWEEP_POINTS = 10**5


class RunConfig(namedtuple("RunConfig", PARAMETERS)):
    """Merged defaults < config file < command-line flags, one field per PARAMETERS entry."""

    __slots__ = ()

    def per_omega0(self, key: str) -> float:
        """omegaQ or gammaHrf in units of omega0, or an InputError naming both values
        if the quotient overflows, or underflows to 0 from a nonzero value."""
        value = getattr(self, key)
        ratio = value / self.omega0
        if not np.isfinite(ratio):
            raise InputError(f"{key}/omega0 = {value}/{self.omega0} overflows floating point")
        if ratio == 0 and value != 0:
            raise InputError(f"{key}/omega0 = {value}/{self.omega0} underflows to 0")
        return ratio

    def system(self) -> SpinSystem:
        return SpinSystem(omega0=1.0, omegaQ=self.per_omega0("omegaQ"),
                          theta=self.theta, phi=self.phi, q2_form=self.q2_form)

    def parameters(self) -> dict:
        # q2_form only when not the default, so default-form schedules keep their bytes
        form = {} if self.q2_form == DEFAULTS["q2_form"] else {"q2_form": self.q2_form}
        return {"omega0": 1.0, "omegaQ": self.per_omega0("omegaQ"),
                "theta": float(self.theta), "phi": float(self.phi),
                "gammaHrf": self.per_omega0("gammaHrf"), **form}


def _merge_config(args, file_defaults: dict) -> RunConfig:
    values = {}
    for key, (default, rule, *_) in PARAMETERS.items():
        flag = getattr(args, key, None)
        value = flag if flag is not None else file_defaults.get(key, default)
        values[key] = rule(number(value, key), key) if callable(rule) else one_of(value, key, rule)
    return RunConfig(**values)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = read_tree(_read_text(path, "config"))
    except ScheduleFormatError as exc:
        raise InputError(f"config file {path} is not flat `key: value` text: {exc}") from exc
    _check_keys(doc, "config")
    return doc


def _check_keys(keys, source: str):
    unknown = set(keys) - set(PARAMETERS)
    if unknown:
        raise InputError(f"unknown {source} keys {sorted(unknown)}; allowed: {sorted(PARAMETERS)}")


def _read_text(path: str, what: str) -> str:
    """The text of a `what` (config or schedule) file, or an InputError naming it.

    A leading byte-order mark, as some Windows editors write, is read past.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} file {path} is not UTF-8 text: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv(rows: list, **comments) -> str:
    """`# key: value` comment lines, a header of the row keys, then one line per row.

    A row cell holding `,` or `"` is quoted as RFC 4180 says; comment lines are not.
    """
    lines = [f"# {key}: {_cell(value)}" for key, value in comments.items()]
    lines.append(",".join(rows[0]))
    lines += [",".join(_quoted(_cell(value)) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return value if isinstance(value, str) else format_scalar(value)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    spectrum = (perturbative_spectrum if config.method == "pert" else exact_spectrum)(
        config.system())
    if spectrum.warning is not None:
        sys.stderr.write(f"warning: {spectrum.warning}\n")
    transitions = transition_table(spectrum)
    rows = [{"upper": r.upper, "lower": r.lower, "omega_over_omega0": r.omega,
             "ix_element": r.ix_element, "flag": r.flag} for r in transitions]
    if config.format == "csv":
        text = _csv(rows)
    elif config.format == "st":
        text = format_tree({"method": config.method, "transitions": rows})
    else:
        header = (f"spin-7/2 transitions  (omegaQ/omega0={config.per_omega0('omegaQ'):g}, "
                  f"theta={config.theta:g}, phi={config.phi:g}, method={config.method})")
        lines = [header,
                 f"{'pair':>7}  {'omega/omega0':>18}  {'|<n|Ix|m>|':>14}  flag"]
        for r in transitions:
            lines.append(f"({r.upper},{r.lower})".rjust(7)
                         + f"  {r.omega:>18.12f}  {r.ix_element:>14.10f}  {r.flag}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_compile(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    gates = parse_gate_sequence(args.gate)
    sched = compile_gate(gates, spectrum=exact_spectrum(config.system()),
                         gamma_hrf=config.per_omega0("gammaHrf"),
                         parameters=config.parameters())
    _emit(format_schedule(sched), args.out)
    return 0


def cmd_verify(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    if args.gate is None and args.schedule is None:
        raise InputError("verify needs a gate string, a --schedule file, or both")
    if args.schedule is not None:
        sched = parse_schedule(_read_text(args.schedule, "schedule"))
        gates = parse_gate_sequence(args.gate) if args.gate is not None else sched.gates
    else:
        gates = parse_gate_sequence(args.gate)
        sched = compile_gate(gates)
    propagator = schedule_propagator(sched)
    report = verify(gates, propagator)

    fields = {"gate": ";".join(str(g) for g in gates), "verdict": report.verdict,
              "max_deviation": report.max_deviation}
    if config.format == "csv":
        text = _csv([fields])
    elif config.format == "st":
        text = format_tree(fields)
    else:
        lines = [f"gate:          {fields['gate']}",
                 f"verdict:       {report.verdict}",
                 f"max deviation: {report.max_deviation:.3e}"]
        if report.verdict != EXACT_MATCH:
            factors = sorted({_phase_label(v) for v in phase_map(gates, propagator).values()})
            lines.append(f"phase factors on target support: {', '.join(factors)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if report.ok else 1


def _phase_label(factor: complex) -> str:
    for label, value in (("1", 1), ("i", 1j), ("-1", -1), ("-i", -1j)):
        if abs(factor - value) < 1e-9:
            return label
    return f"{factor:.3f}"


def cmd_sweep(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    pair = _parse_pair(args.pair)
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise InputError(f"--points must be from 2 to {MAX_SWEEP_POINTS}, got {args.points}")
    if not 0 < args.min < args.max < np.inf:
        raise InputError("need 0 < --min < --max < inf for the omegaQ/omega0 range")
    ratios = np.logspace(np.log10(args.min), np.log10(args.max), args.points)
    # forbidden_scaling sets omegaQ to each ratio times omega0: sweep reads neither value
    swept = SpinSystem(theta=config.theta, phi=config.phi, q2_form=config.q2_form)
    fit = forbidden_scaling(swept, pair, ratios)

    pair_label = f"{pair[0]}-{pair[1]}"
    rows = [{"omegaQ_over_omega0": ratio, "pair": pair_label, "element": element,
             "slope_window": local}
            for ratio, element, local in zip(fit.ratios, fit.elements, fit.local_slopes)]
    _emit(_csv(rows) + f"# fitted_slope: pair={pair_label} slope={format_scalar(fit.slope)}\n",
          args.out)
    return 0


def _parse_pair(text: str) -> tuple[int, int]:
    for sep in (",", "-"):
        if sep in text:
            left, _, right = text.partition(sep)
            try:
                return (int(left), int(right))
            except ValueError:
                break
    raise InputError(f"cannot parse level pair {text!r}; expected e.g. 5,7 or 5-7")


def cmd_simulate(args) -> int:
    file_defaults = _load_config_file(args.config)
    sched = parse_schedule(_read_text(args.schedule, "schedule"))
    _check_keys(sched.parameters or {}, "schedule parameter")
    # flags > the schedule's parameters > the config file > defaults; schedule
    # parameters name q2_form only when it is not the default
    schedule = {"q2_form": DEFAULTS["q2_form"], **sched.parameters} if sched.parameters else {}
    config = _merge_config(args, {**file_defaults, **schedule})

    cfg = IntegrationConfig(steps_per_shortest_period=args.steps)
    gamma = config.per_omega0("gammaHrf")
    if gamma >= STRONG_DRIVE_RATIO:
        sys.stderr.write(f"warning: strong drive gammaHrf/omega0 = {gamma:g} >= "
                         f"{STRONG_DRIVE_RATIO}; the idealized pulse model degrades\n")
    result = simulate_schedule(config.system(), sched, gamma, cfg)

    total = float(sum(result.group_durations))
    fields = {"gate": sched.gate_string(), "deviation": result.deviation, "total_duration": total}
    rows = [{"input": label, "ideal_output": out, "probability": prob}
            for label, (out, prob) in sorted(result.transfer.items())]
    if config.format == "csv":
        text = _csv(rows, **fields)
    elif config.format == "st":
        text = format_tree({**fields, "transfer": rows})
    else:
        lines = [f"schedule:       {fields['gate']}",
                 f"groups:         {len(sched.groups)}",
                 f"total duration: {total:.6g}  (units of 1/omega0)",
                 f"deviation from idealized propagator: {result.deviation:.3e}",
                 "transfer probabilities (input -> ideal output):"]
        lines += [f"  |{row['input']}> -> |{row['ideal_output']}>   P = {row['probability']:.6f}"
                  for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Takes each flag by its full name only, and raises a usage error as an
    InputError, so main reports it on one line and returns 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="virtualspin",
        description="Compile three-qubit gates into resonant RF pulses on a "
                    "spin-7/2 and verify them.")
    parser.add_argument("--version", action="version", version=f"virtualspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, text):
        """The subparser of cmd_<name>, with the PARAMETERS flags it reads, --out and --config."""
        name = func.__name__.removeprefix("cmd_")
        p = sub.add_parser(name, help=text)
        for key, (_, allowed, help_text, readers) in PARAMETERS.items():
            if name in readers.split():
                kind = {"choices": allowed} if isinstance(allowed, tuple) else {"type": float}
                p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text, **kind)
        p.add_argument("--out", help="write output to FILE instead of stdout")
        p.add_argument("--config", help="config file with default parameter values")
        p.set_defaults(func=func)
        return p

    command(cmd_spectrum, "print all 28 level pairs with frequency, Ix element, flag")
    p = command(cmd_compile, "compile a gate string into a pulse schedule")
    p.add_argument("gate", help="gate string, e.g. CCNOT:QR->S (';'-separated for sequences)")

    p = command(cmd_verify, "compile (or replay) and check against the target gate")
    p.add_argument("gate", nargs="?", help="gate string (defaults to the schedule's)")
    p.add_argument("--schedule", help="verify the propagator of this schedule file")

    p = command(cmd_sweep, "forbidden-transition scaling sweep over omegaQ/omega0")
    p.add_argument("--pair", required=True, help="level pair, e.g. 5,7")
    p.add_argument("--points", type=int, default=20, help="number of sweep points")
    p.add_argument("--min", type=float, default=1e-4, help="smallest omegaQ/omega0")
    p.add_argument("--max", type=float, default=1e-2, help="largest omegaQ/omega0")

    p = command(cmd_simulate, "integrate the physical drive realizing a schedule file")
    p.add_argument("schedule", help="schedule file produced by compile")
    p.add_argument("--steps", type=int, default=IntegrationConfig.steps_per_shortest_period,
                   help="integrator steps per shortest oscillation period")
    return parser


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            # name the unread flags, not a positional that one of them pushed along
            raise InputError(f"virtualspin {args.command}: unrecognized arguments: "
                             + " ".join([a for a in extra if a.startswith("-")] or extra))
        return args.func(args)
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (VirtualSpinError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
