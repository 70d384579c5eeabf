"""virtualspin benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cli-cold|gate-service|exact-dynamics \
        --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics named in BENCHMARK.json with no
tracing.  Every time metric is normalized for host speed drift by a probe
timed between operations (see speed.py): an in-process kernel for warm
work, a fresh-interpreter start-up for cold CLI calls and set-up
processes.  The summary lines also give the raw medians.  --trace 1 is a separate run that reports the
per-layer metrics: it alternates traced and untraced operations, so the
tracing overhead is measured in the same run, and it adds fresh-interpreter
import probes, a per-slice integrator calibration and the Q-target cost
projection.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it give the
provenance, the correctness fingerprints and a readable summary that
names each workload's own quantities (cli_p50_ms, compile_p50_us,
sim_1tone_s, ...) and error_rate.  The package is
imported from the checkout's src/ directory; nothing is installed.
"""

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import sys
import time
from pathlib import Path

BLAS_THREADS = 1          # one caller, no extra threads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# One CPU for this process and every child it starts, so the speed probe
# (speed.py) runs on the core the measured work runs on.
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import percentiles  # noqa: E402  (numpy must see the BLAS thread pin)
import proc  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# every child process (CLI calls, set-up and import probes) imports from src/
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
WORKLOADS = {"cli-cold": "cli_cold", "gate-service": "gate_service",
             "exact-dynamics": "exact_dynamics"}
SETUP_REPEATS = 7
IMPORT_PROBES = 3
BARE_PROBES = 5
CALIBRATION_GAMMA = 0.005  # a ~1.2e4-slice single-tone drive for the per-slice cost

# Per-workload names of the summary lines:
# sample group -> (name prefix, unit, scale from seconds)
SUMMARY_NAMES = {
    "cli-cold": {None: ("cli", "ms", 1e3), "command": ("cli_command", "ms", 1e3),
                 "simulate": ("cli_simulate", "ms", 1e3)},
    "gate-service": {"compile": ("compile", "us", 1e6), "replay": ("replay", "us", 1e6)},
    "exact-dynamics": {"single": ("sim_1tone", "s", 1.0), "multi": ("sim_multitone", "s", 1.0)},
}


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _setup_seconds(args, probe, workdir: Path) -> list:
    """Normalized wall time of fresh processes that only set up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    children = []
    probe.sample()
    for _ in range(SETUP_REPEATS):
        child = proc.call(argv, workdir, cwd=ROOT)
        if child["code"] != 0:
            raise RuntimeError(f"set-up process exited {child['code']}: {child['err']}")
        probe.sample()
        children.append(child)
    return [probe.normalize(child["start"], child["wall"]) for child in children]


def import_times(stderr: str) -> dict:
    """Cumulative import ms per top-level package from `-X importtime` output.

    A package counts once per subtree: an entry whose importer belongs to
    the same package is already inside its importer's cumulative time.
    """
    rows = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if match:
            rows.append((int(match.group(1)), len(match.group(2)), match.group(3)))
    totals = {}
    # children are printed before their parent, one indent level deeper
    for i, (cumulative, depth, name) in enumerate(rows):
        parent = next((r[2] for r in rows[i + 1:] if r[1] < depth), None)
        package = name.split(".")[0]
        if parent is None or parent.split(".")[0] != package:
            totals[package] = totals.get(package, 0) + cumulative / 1e3
    return totals


def _import_probes(workdir: Path) -> dict:
    """Fresh-interpreter import times (-X importtime) and bare start-up, raw ms."""
    runs = []
    for _ in range(IMPORT_PROBES):
        child = proc.call([sys.executable, "-X", "importtime", "-c", "import virtualspin"],
                          workdir)
        runs.append(import_times(child["err"]))
    out = {f"import.{pkg}_ms": percentiles.median([r.get(pkg, 0.0) for r in runs])
           for pkg in ("virtualspin", "scipy", "yaml", "numpy")}
    bare = [proc.call([sys.executable, "-c", "pass"], workdir)["wall"]
            for _ in range(BARE_PROBES)]
    out["python.bare_ms"] = percentiles.median(bare) * 1e3
    return out


def _calibrate_ns_per_slice() -> float:
    """Integrator cost per slice on a fixed single-tone drive, untraced."""
    import exact_dynamics
    import inputs
    import virtualspin as vs
    system = vs.SpinSystem(omegaQ=inputs.REGIME["omegaQ"], theta=inputs.REGIME["theta"])
    sched = vs.compile_gate("CCNOT:QR->S", spectrum=vs.exact_spectrum(system),
                            gamma_hrf=CALIBRATION_GAMMA)
    vs.simulate_schedule(system, sched, CALIBRATION_GAMMA)
    slices = exact_dynamics.projected_slices(dict(inputs.REGIME, gammaHrf=CALIBRATION_GAMMA),
                                             "CCNOT:QR->S")
    start = time.perf_counter_ns()
    vs.simulate_schedule(system, sched, CALIBRATION_GAMMA)
    return (time.perf_counter_ns() - start) / slices


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def _provenance(args, why: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    versions = {dist: importlib.metadata.version(dist)
                for dist in ("numpy", "scipy", "PyYAML")}
    return {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), **versions,
            "blas_threads": BLAS_THREADS, "pinned_cpu": CPU, "src_lines": _src_lines(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": why}


def normalized(result: dict, probe, group: str = "samples") -> dict:
    """kind -> normalized seconds of each operation (sum of its timed segments)."""
    return {kind: [sum(probe.normalize(start, seconds) for start, seconds in op)
                   for op in ops]
            for kind, ops in result[group].items()}


def end_to_end(module, result: dict, probe, setup_samples: list) -> dict:
    first, second = module.KINDS
    times = normalized(result, probe)
    return {
        "setup_s": percentiles.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_per_s": result["ops"] / sum(sum(v) for v in times.values()),
        "kind1_p50_ms": percentiles.median(times[first]) * 1e3,
        "kind2_p50_ms": percentiles.median(times[second]) * 1e3,
    }


def per_layer(module, result: dict, tracer, probe, probes: dict) -> dict:
    import spans
    stats = spans.layer_stats(tracer.spans)
    out = {}
    for name in spans.LAYER_NAMES:
        entry = stats[name]
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_ms"] = entry["self_ns"] / 1e6
        out[f"{name}.p50_us"] = entry["p50_ns"] / 1e3
    spectra = stats["spectrum.exact_spectrum"]
    out["spectrum.label_ok_ratio"] = spectra["ok"] / spectra["calls"] if spectra["calls"] else 0.0
    counters = tracer.counters
    sizes = counters.get("compiler.schedule_bytes", [])
    out["compiler.schedule_bytes"] = percentiles.median(sizes) if sizes else 0
    busy_ns = stats["dynamics.evolve"]["busy_ns"]
    out["dynamics.evolve.busy_ms"] = busy_ns / 1e6
    out["dynamics.evolve.projected_slices"] = sum(
        counters.get("dynamics.evolve.projected_slices", []))
    drive_time = sum(counters.get("dynamics.evolve.drive_time", []))
    out["dynamics.drive_time_per_s"] = drive_time / (busy_ns / 1e9) if busy_ns else 0.0
    plain, traced = normalized(result, probe), normalized(result, probe, "traced")
    for number, kind in enumerate(module.KINDS, start=1):
        overhead = 0.0
        if traced[kind] and plain[kind]:
            overhead = (percentiles.median(traced[kind]) / percentiles.median(plain[kind])
                        - 1) * 100
        out[f"trace.kind{number}_overhead_pct"] = overhead
    out.update(probes)
    return out


def summary(workload: str, module, result: dict, probe, metrics: dict) -> list:
    """Readable lines: per-workload latency names with units, error rate, failures."""
    lines = [f"workload {workload}: {result['attempted']} operations in "
             f"{result['elapsed']:.2f} s; time metrics normalized to a probe time of "
             f"{probe.nominal * 1e3:g} ms (median probe here "
             f"{percentiles.median(probe.durations) * 1e3:.4g} ms)"]
    norm = normalized(result, probe)
    raw = {kind: [sum(s for _, s in op) for op in ops] for kind, ops in result["samples"].items()}
    for values in (norm, raw):
        values[None] = [x for kind in module.KINDS for x in values[kind]]
    for group, (prefix, unit, scale) in SUMMARY_NAMES[workload].items():
        values = norm[group]
        if not values:
            continue
        lines.append(f"  {prefix}_p50_{unit} = {percentiles.median(values) * scale:.6g} {unit}"
                     f"  (n={len(values)}; raw {percentiles.median(raw[group]) * scale:.6g})")
        q = percentiles.tail_percentile(len(values))
        if q is not None:
            lines.append(f"  {prefix}_tail_{unit} = "
                         f"{percentiles.percentile(values, q) * scale:.6g} {unit}"
                         f"  (p{q:g} of n={len(values)}; raw "
                         f"{percentiles.percentile(raw[group], q) * scale:.6g})")
    failed = len(result["failures"])
    lines.append(f"  error_rate = {failed / max(1, result['attempted']):.6g}  "
                 f"({failed} failed)")
    if result["known_defects"]:
        still = sum(d["still_failing"] for d in result["known_defects"])
        lines.append(f"  known defects (ROADMAP item 4, untimed): {still} of "
                     f"{len(result['known_defects'])} still fail")
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g}")
    for reason in sorted(set(result["failures"]))[:12]:
        lines.append(f"  failed: {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; used to time set-up in a fresh process")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "virtualspin" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC}; run from a full checkout")
    if not bench_file.is_file():
        return _fail(f"missing {bench_file}")
    spec = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))
    import spans
    module = importlib.import_module(WORKLOADS[args.workload])

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            module.setup(args.seed, workdir)
            return 0
        probe = speed.cold_probe(workdir) if module.COLD else speed.Probe()
        setup_samples = ([] if args.trace else
                         _setup_seconds(args, speed.cold_probe(workdir), workdir))
        probes = {}
        if args.trace:
            probes.update(_import_probes(workdir))
            import exact_dynamics
            probes.update(exact_dynamics.q_target_projection(_calibrate_ns_per_slice()))
            probes["src.lines"] = _src_lines()
        state = module.setup(args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        result = module.run(state, args.seconds, tracer, probe)
        probe.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.setdefault("peak_rss_mb",
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer(module, result, tracer, probe, probes)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    else:
        values = end_to_end(module, result, probe, setup_samples)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(json.dumps({"provenance": _provenance(args, why)}))
    print(json.dumps({"fingerprints": result["fingerprints"]}))
    if result["known_defects"]:
        print(json.dumps({"known_defects": result["known_defects"]}))
    for line in summary(args.workload, module, result, probe,
                        {k: v["value"] for k, v in metrics.items()}):
        print(line)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
