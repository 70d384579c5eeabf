"""Command-line front end.

Commands: spectrum | compile | verify | sweep | simulate.  All outputs are
expressed in units of omega0 (frequencies divided by omega0, durations
multiplied by omega0), so changing --omega0 rescales the input
interpretation of --omegaQ / --gammaHrf but never the printed numbers.

Exit codes: 0 success / gate verified; 1 verification mismatch;
2 input error (bad parameters, gate grammar, schedule format, degenerate
sweep); 3 numerical-resolution error.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .compiler import (OK_VERDICTS, compile_gate, format_schedule, parse_schedule,
                       read_tree, schedule_propagator, verify)
from .dynamics import IntegrationConfig, forbidden_scaling, simulate_schedule
from .errors import InputError, ResolutionError, ScheduleFormatError, VirtualSpinError
from .gates import parse_gate_sequence
from .spectrum import exact_spectrum, perturbative_spectrum, transition_table
from .system import Q2_FORMS, SpinSystem

FORMATS = ("table", "csv", "st")
METHODS = ("pert", "exact")

DEFAULTS = {
    "omega0": 1.0,
    "omegaQ": 0.01,
    "theta": np.pi / 5,
    "phi": 0.0,
    "method": "exact",
    "gammaHrf": 1e-3,
    "format": "table",
    "q2_form": "as-printed",
}

STRONG_DRIVE_RATIO = 0.05


@dataclass(frozen=True)
class RunConfig:
    """Merged defaults < config file < command-line flags."""

    omega0: float
    omegaQ: float
    theta: float
    phi: float
    method: str
    gammaHrf: float
    format: str
    q2_form: str

    def system(self) -> SpinSystem:
        # work in units of omega0 throughout
        return SpinSystem(omega0=1.0, omegaQ=self.omegaQ / self.omega0,
                          theta=self.theta, phi=self.phi, q2_form=self.q2_form)

    def spectrum(self):
        sys_ = self.system()
        if self.method == "pert":
            spec = perturbative_spectrum(sys_)
            if spec.warning is not None:
                sys.stderr.write(f"warning: {spec.warning}\n")
            return spec
        return exact_spectrum(sys_)

    def gamma_normalized(self) -> float:
        return self.gammaHrf / self.omega0

    def parameters(self) -> dict:
        return {"omega0": 1.0, "omegaQ": self.omegaQ / self.omega0,
                "theta": self.theta, "phi": self.phi,
                "gammaHrf": self.gammaHrf / self.omega0}


def _merge_config(args, file_defaults: dict) -> RunConfig:
    values = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        elif key in file_defaults:
            values[key] = file_defaults[key]
        else:
            values[key] = default
    if values["method"] not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {values['method']!r}")
    if values["format"] not in FORMATS:
        raise InputError(f"format must be one of {FORMATS}, got {values['format']!r}")
    for key in ("omega0", "omegaQ", "theta", "phi", "gammaHrf"):
        try:
            values[key] = float(values[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"{key} must be a number, got {values[key]!r}") from exc
        if not np.isfinite(values[key]):
            raise InputError(f"{key} must be finite, got {values[key]}")
    if not values["omega0"] > 0:
        raise InputError(f"omega0 must be positive, got {values['omega0']}")
    if not values["gammaHrf"] > 0:
        raise InputError(f"gammaHrf must be positive, got {values['gammaHrf']}")
    return RunConfig(**values)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            doc = read_tree(handle.read())
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except ScheduleFormatError as exc:
        raise InputError(f"config file {path} is not flat `key: value` text: {exc}") from exc
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}; "
                         f"allowed: {sorted(DEFAULTS)}")
    return doc


def _read_schedule(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"schedule file {path} is not UTF-8 text: {exc}") from exc
    return parse_schedule(text)


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _repr_float(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    rows = transition_table(config.spectrum())
    if config.format == "csv":
        lines = ["upper,lower,omega_over_omega0,ix_element,flag"]
        lines += [f"{r.upper},{r.lower},{_repr_float(r.omega)},"
                  f"{_repr_float(r.ix_element)},{r.flag}" for r in rows]
        text = "\n".join(lines) + "\n"
    elif config.format == "st":
        lines = [f"method: \"{config.method}\"", "transitions:"]
        for r in rows:
            lines += [f"- upper: {r.upper}",
                      f"  lower: {r.lower}",
                      f"  omega_over_omega0: {_repr_float(r.omega)}",
                      f"  ix_element: {_repr_float(r.ix_element)}",
                      f"  flag: \"{r.flag}\""]
        text = "\n".join(lines) + "\n"
    else:
        header = (f"spin-7/2 transitions  (omegaQ/omega0={config.omegaQ / config.omega0:g}, "
                  f"theta={config.theta:g}, phi={config.phi:g}, method={config.method})")
        lines = [header,
                 f"{'pair':>7}  {'omega/omega0':>18}  {'|<n|Ix|m>|':>14}  flag"]
        for r in rows:
            lines.append(f"({r.upper},{r.lower})".rjust(7)
                         + f"  {r.omega:>18.12f}  {r.ix_element:>14.10f}  {r.flag}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_compile(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    gates = parse_gate_sequence(args.gate)
    sched = compile_gate(gates, spectrum=config.spectrum(),
                         gamma_hrf=config.gamma_normalized(),
                         parameters=config.parameters())
    _emit(format_schedule(sched), args.out)
    return 0


def cmd_verify(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    if args.gate is None and args.schedule is None:
        raise InputError("verify needs a gate string, a --schedule file, or both")
    if args.schedule is not None:
        sched = _read_schedule(args.schedule)
        gates = parse_gate_sequence(args.gate) if args.gate is not None else sched.gates
    else:
        gates = parse_gate_sequence(args.gate)
        sched = compile_gate(gates)
    propagator = schedule_propagator(sched)
    report = verify(gates, propagator)

    gate_string = ";".join(str(g) for g in gates)
    if config.format == "csv":
        text = ("gate,verdict,max_deviation\n"
                f"{gate_string},{report.verdict},{_repr_float(report.max_deviation)}\n")
    elif config.format == "st":
        text = (f"gate: \"{gate_string}\"\n"
                f"verdict: \"{report.verdict}\"\n"
                f"max_deviation: {_repr_float(report.max_deviation)}\n")
    else:
        lines = [f"gate:          {gate_string}",
                 f"verdict:       {report.verdict}",
                 f"max deviation: {report.max_deviation:.3e}"]
        if report.verdict != "exact" and report.phase_map:
            factors = sorted({_phase_label(v) for v in report.phase_map.values()})
            lines.append(f"phase factors on target support: {', '.join(factors)}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if report.verdict in OK_VERDICTS else 1


def _phase_label(factor: complex) -> str:
    for label, value in (("1", 1), ("i", 1j), ("-1", -1), ("-i", -1j)):
        if abs(factor - value) < 1e-9:
            return label
    return f"{factor:.3f}"


def cmd_sweep(args) -> int:
    config = _merge_config(args, _load_config_file(args.config))
    pair = _parse_pair(args.pair)
    if args.points < 2:
        raise InputError("--points must be at least 2")
    if not 0 < args.min < args.max:
        raise InputError("need 0 < --min < --max for the omegaQ/omega0 range")
    ratios = np.logspace(np.log10(args.min), np.log10(args.max), args.points)
    fit = forbidden_scaling(config.system(), pair, ratios)

    pair_label = f"{pair[0]}-{pair[1]}"
    lines = ["omegaQ_over_omega0,pair,element,slope_window"]
    for ratio, element, local in zip(fit.ratios, fit.elements, fit.local_slopes):
        lines.append(f"{_repr_float(ratio)},{pair_label},"
                     f"{_repr_float(element)},{_repr_float(local)}")
    csv_text = "\n".join(lines) + "\n"
    slope_line = f"# fitted_slope: pair={pair_label} slope={_repr_float(fit.slope)}\n"
    if args.out is None:
        sys.stdout.write(csv_text + slope_line)
    else:
        _emit(csv_text, args.out)
        sys.stdout.write(slope_line)
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
    sched = _read_schedule(args.schedule)
    # schedule parameters act as config-file-level defaults; flags still win
    if sched.parameters:
        merged = dict(sched.parameters)
        merged.update(file_defaults)
        file_defaults = merged
    config = _merge_config(args, file_defaults)

    cfg = IntegrationConfig(steps_per_shortest_period=args.steps)
    gamma = config.gamma_normalized()
    if gamma >= STRONG_DRIVE_RATIO:
        sys.stderr.write(f"warning: strong drive gammaHrf/omega0 = {gamma:g} >= "
                         f"{STRONG_DRIVE_RATIO}; the idealized pulse model degrades\n")
    result = simulate_schedule(config.system(), sched, gamma, cfg)

    gate_string = sched.gate_string()
    total = float(sum(result.group_durations))
    if config.format == "csv":
        lines = [f"# gate: {gate_string}",
                 f"# deviation: {_repr_float(result.deviation)}",
                 f"# total_duration: {_repr_float(total)}",
                 "input,ideal_output,probability"]
        lines += [f"{label},{out},{_repr_float(prob)}"
                  for label, (out, prob) in sorted(result.transfer.items())]
        text = "\n".join(lines) + "\n"
    elif config.format == "st":
        lines = [f"gate: \"{gate_string}\"",
                 f"deviation: {_repr_float(result.deviation)}",
                 f"total_duration: {_repr_float(total)}",
                 "transfer:"]
        for label, (out, prob) in sorted(result.transfer.items()):
            lines += [f"- input: {label}",
                      f"  ideal_output: {out}",
                      f"  probability: {_repr_float(prob)}"]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"schedule:       {gate_string}",
                 f"groups:         {len(sched.groups)}",
                 f"total duration: {total:.6g}  (units of 1/omega0)",
                 f"deviation from idealized propagator: {result.deviation:.3e}",
                 "transfer probabilities (input -> ideal output):"]
        for label, (out, prob) in sorted(result.transfer.items()):
            lines.append(f"  |{label}> -> |{out}>   P = {prob:.6f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega0", type=float, help="Zeeman frequency (the unit)")
    common.add_argument("--omegaQ", type=float, help="quadrupole coupling strength")
    common.add_argument("--theta", type=float, help="field-gradient polar angle (rad)")
    common.add_argument("--phi", type=float, help="field-gradient azimuth (rad)")
    common.add_argument("--method", choices=METHODS, help="spectrum method")
    common.add_argument("--gammaHrf", type=float, dest="gammaHrf",
                        help="RF drive amplitude gamma*H_rf")
    common.add_argument("--format", choices=FORMATS, help="output format")
    common.add_argument("--q2-form", choices=Q2_FORMS, dest="q2_form",
                        help="quadrupole q_+-2 coefficient form")
    common.add_argument("--out", help="write output to FILE instead of stdout")
    common.add_argument("--config", help="config file with default parameter values")

    parser = argparse.ArgumentParser(
        prog="virtualspin",
        description="Compile three-qubit gates into resonant RF pulses on a "
                    "spin-7/2 and verify them.")
    parser.add_argument("--version", action="version", version=f"virtualspin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="print all 28 level pairs with frequency, Ix element, flag")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("compile", parents=[common],
                       help="compile a gate string into a pulse schedule")
    p.add_argument("gate", help="gate string, e.g. CCNOT:QR->S (';'-separated for sequences)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", parents=[common],
                       help="compile (or replay) and check against the target gate")
    p.add_argument("gate", nargs="?", help="gate string (defaults to the schedule's)")
    p.add_argument("--schedule", help="verify the propagator of this schedule file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="forbidden-transition scaling sweep over omegaQ/omega0")
    p.add_argument("--pair", required=True, help="level pair, e.g. 5,7")
    p.add_argument("--points", type=int, default=20, help="number of sweep points")
    p.add_argument("--min", type=float, default=1e-4, help="smallest omegaQ/omega0")
    p.add_argument("--max", type=float, default=1e-2, help="largest omegaQ/omega0")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the physical drive realizing a schedule file")
    p.add_argument("schedule", help="schedule file produced by compile")
    p.add_argument("--steps", type=int, default=32,
                   help="integrator steps per shortest oscillation period")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResolutionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (VirtualSpinError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
