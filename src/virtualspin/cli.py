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
from collections import namedtuple

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

# name -> (default, allowed values or "finite"/"positive" for a float, help); each
# is a --flag (q2_form as --q2-form) and a config key, checked alike by _merge_config
PARAMETERS = {
    "omega0": (1.0, "positive", "Zeeman frequency (the unit)"),
    "omegaQ": (0.01, "finite", "quadrupole coupling strength"),
    "theta": (np.pi / 5, "finite", "field-gradient polar angle (rad)"),
    "phi": (0.0, "finite", "field-gradient azimuth (rad)"),
    "method": ("exact", METHODS, "spectrum method"),
    "gammaHrf": (1e-3, "positive", "RF drive amplitude gamma*H_rf"),
    "format": ("table", FORMATS, "output format (compile always writes schedule "
                                 "text, sweep always CSV)"),
    "q2_form": ("as-printed", Q2_FORMS, "quadrupole q_+-2 coefficient form"),
}
DEFAULTS = {name: default for name, (default, _, _) in PARAMETERS.items()}

STRONG_DRIVE_RATIO = 0.05
# sweep --points bound: at about 0.4 ms a point the largest sweep takes under a minute
MAX_SWEEP_POINTS = 10**5


class RunConfig(namedtuple("RunConfig", PARAMETERS)):
    """Merged defaults < config file < command-line flags, one field per PARAMETERS entry."""

    __slots__ = ()

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
    for key, (default, allowed, _) in PARAMETERS.items():
        flag = getattr(args, key, None)
        value = flag if flag is not None else file_defaults.get(key, default)
        if isinstance(allowed, tuple):
            if value not in allowed:
                raise InputError(f"{key} must be one of {allowed}, got {value!r}")
        else:
            try:
                value = float(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{key} must be a number, got {value!r}") from exc
            if not np.isfinite(value):
                raise InputError(f"{key} must be finite, got {value}")
            if allowed == "positive" and not value > 0:
                raise InputError(f"{key} must be positive, got {value}")
        values[key] = value
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
    _check_keys(doc, "config")
    return doc


def _check_keys(keys, source: str):
    unknown = set(keys) - set(PARAMETERS)
    if unknown:
        raise InputError(f"unknown {source} keys {sorted(unknown)}; allowed: {sorted(PARAMETERS)}")


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
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise InputError(f"--points must be from 2 to {MAX_SWEEP_POINTS}, got {args.points}")
    if not 0 < args.min < args.max < np.inf:
        raise InputError("need 0 < --min < --max < inf for the omegaQ/omega0 range")
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
    _check_keys(sched.parameters or {}, "schedule parameter")
    # schedule parameters act as config-file-level defaults; flags still win
    config = _merge_config(args, {**(sched.parameters or {}), **file_defaults})

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
    for name, (_, allowed, text) in PARAMETERS.items():
        kind = {"choices": allowed} if isinstance(allowed, tuple) else {"type": float}
        common.add_argument("--" + name.replace("_", "-"), dest=name, help=text, **kind)
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
