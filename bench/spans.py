"""Spans recorded around calls into the package's public functions.

Tracing is done from outside the package: `Tracer.install` replaces each
traced function at every name a caller can look it up by (the defining
module and every `virtualspin.*` module or package namespace that imported
it), so a call from inside the package is recorded as well as a direct
call.  `Tracer.uninstall` puts the original functions back.

A span is (name, start_ns, end_ns, parent, request, ok): parent is the
index of the enclosing span or -1, request the caller-set request id, and
ok False when the call raised.  Spans stay in memory; `layer_stats` and
`self_times` turn them into per-layer numbers when the run ends.
"""

import functools
import importlib
import statistics
import sys
import time

import exact_dynamics

# (module, attribute, span name).  cli.cmd_* are the per-command bodies that
# cli.main dispatches to, so a cli.<command> span is main(argv) minus parsing.
TARGETS = (
    ("virtualspin.cli", "cmd_spectrum", "cli.spectrum"),
    ("virtualspin.cli", "cmd_compile", "cli.compile"),
    ("virtualspin.cli", "cmd_verify", "cli.verify"),
    ("virtualspin.cli", "cmd_sweep", "cli.sweep"),
    ("virtualspin.cli", "cmd_simulate", "cli.simulate"),
    ("virtualspin.gates", "parse_gate_sequence", "gates.parse_gate_sequence"),
    ("virtualspin.system", "build_hamiltonian", "system.build_hamiltonian"),
    ("virtualspin.spectrum", "exact_spectrum", "spectrum.exact_spectrum"),
    ("virtualspin.spectrum", "perturbative_spectrum", "spectrum.perturbative_spectrum"),
    ("virtualspin.spectrum", "transition_table", "spectrum.transition_table"),
    ("virtualspin.pulses", "multi_tone_propagator", "pulses.multi_tone_propagator"),
    ("virtualspin.compiler", "compile_gate", "compiler.compile_gate"),
    ("virtualspin.compiler", "format_schedule", "compiler.format_schedule"),
    ("virtualspin.compiler", "parse_schedule", "compiler.parse_schedule"),
    ("virtualspin.compiler", "schedule_propagator", "compiler.schedule_propagator"),
    ("virtualspin.compiler", "verify", "compiler.verify"),
    ("virtualspin.compiler", "truth_table", "compiler.truth_table"),
    ("virtualspin.dynamics", "simulate_schedule", "dynamics.simulate_schedule"),
    ("virtualspin.dynamics", "evolve", "dynamics.evolve"),
)

LAYER_NAMES = tuple(name for _, _, name in TARGETS)


def _evolve_counts(args, kwargs, result) -> dict:
    system, drive = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    steps = cfg.steps_per_shortest_period if cfg is not None else exact_dynamics.STEPS_PER_PERIOD
    return {"dynamics.evolve.projected_slices": exact_dynamics.drive_slices(system, drive, steps),
            "dynamics.evolve.drive_time": drive.duration}


def _format_counts(args, kwargs, result) -> dict:
    return {"compiler.schedule_bytes": len(result.encode())}


# span name -> f(args, kwargs, result) -> {counter: amount}, run after the call
HOOKS = {"dynamics.evolve": _evolve_counts, "compiler.format_schedule": _format_counts}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.request = -1
        self._stack = []
        self._plan = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.request, ok)
                if ok and hook is not None:
                    for key, amount in hook(args, kwargs, result).items():
                        self.counters.setdefault(key, []).append(amount)

        return traced

    def install(self):
        """Replace every traced function at every virtualspin name bound to it."""
        if not self._plan:
            originals = [(getattr(importlib.import_module(module_name), attr), name)
                         for module_name, attr, name in TARGETS]
            modules = [m for n, m in list(sys.modules.items())
                       if n == "virtualspin" or n.startswith("virtualspin.")]
            for original, name in originals:
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._plan.append((module, key, original, wrapper))
        for module, key, _, wrapper in self._plan:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._plan:
            setattr(module, key, original)


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (name, start, end, *_), kids in zip(spans, children):
        covered, reach = 0, start
        for k_start, k_end in sorted(kids):
            k_start, k_end = max(k_start, reach), min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                reach = k_end
        result.append(end - start - covered)
    return result


def layer_stats(spans) -> dict:
    """name -> {calls, ok, self_ns, busy_ns, p50_ns} over the given spans.

    busy_ns sums the durations of spans not nested in a span of the same
    name, so a recursive or re-entrant call is not counted twice.
    """
    selfs = self_times(spans)
    stats = {name: {"calls": 0, "ok": 0, "self_ns": 0, "busy_ns": 0, "durations": []}
             for name in LAYER_NAMES}
    for i, (name, start, end, parent, _request, ok) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "ok": 0, "self_ns": 0,
                                        "busy_ns": 0, "durations": []})
        entry["calls"] += 1
        entry["ok"] += bool(ok)
        entry["self_ns"] += selfs[i]
        entry["durations"].append(end - start)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_ns"] += end - start
    for entry in stats.values():
        durations = entry.pop("durations")
        entry["p50_ns"] = statistics.median(durations) if durations else 0
    return stats


def merge(span_lists) -> list:
    """Concatenate span lists recorded separately, re-basing parent indices."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        merged.extend((name, start, end, parent + base if parent >= 0 else -1, request, ok)
                      for name, start, end, parent, request, ok in spans)
    return merged
