"""cli-cold: one fresh-interpreter CLI call at a time, as a user runs the tool.

The command mix comes from inputs.cli_commands.  Schedule files that the
commands read are written once in setup, through the CLI's own compile
command.  The CLI runs from the checkout's src/ (run.py sets PYTHONPATH
for every child).  Each call is timed from spawn to reap, and os.wait4
gives the peak resident memory of that one child (see proc.py).  Traced
calls go through cli_shim.py, which records spans inside the cold process.
"""

import json
import math
import re
import sys
import time
from pathlib import Path

import checks
import exact_dynamics
import inputs
import spans
from proc import call
from virtualspin import cli

KINDS = ("command", "simulate")   # simulate calls, and all other calls
COLD = True                       # each operation is a fresh interpreter (speed.cold_probe)
# how one fingerprint value is folded over the calls of a run
FOLD = {"omega67_error": max, "verify_max_deviation": max, "strong_transfer_67": min}
SHIM = Path(__file__).with_name("cli_shim.py")
STRONG = {"omegaQ": 0.05, "theta": math.pi / 6, "phi": 0.0, "gammaHrf": inputs.STRONG_GAMMA}


def _compile(argv):
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"setup compile {argv} exited {code}")


def setup(seed: int, workdir: Path) -> dict:
    """Schedule files and the budget guard for simulate."""
    gates = inputs.grammar_strings()
    for index, gate in enumerate(gates):
        _compile(["compile", gate, "--out", str(workdir / f"g{index}.st")])
    _compile(["compile", "CCNOT:QR->S", "--omegaQ", repr(STRONG["omegaQ"]),
              "--theta", repr(STRONG["theta"]), "--out", str(workdir / "strong.st")])
    toffoli = (workdir / f"g{gates.index('CCNOT:QR->S')}.st").read_text()
    strong = (workdir / "strong.st").read_text()
    (workdir / "corrupt.st").write_text(toffoli.replace(
        f"angle_rad: {math.pi!r}", f"angle_rad: {math.pi / 2!r}"))
    (workdir / "garbage.st").write_text("gate: [unclosed\n")
    (workdir / "bad_upper.st").write_text(strong.replace("upper: 6", 'upper: "x"'))
    (workdir / "bad_omega.st").write_text(re.sub(r"omega: .*", "omega: [1]", strong))
    return {"workdir": workdir, "commands": inputs.cli_commands(seed),
            "simulate_ok": exact_dynamics.projected_slices(STRONG, "CCNOT:QR->S")
            <= exact_dynamics.JOB_SLICE_BUDGET}


def probe_defects(workdir: Path) -> list:
    """One untimed call per ROADMAP item 4 defect, graded against the CLI contract.

    They stay out of the timed mix and out of `failed`; each run reports
    whether each one still fails, so a fix (or a regression) shows.
    """
    out = []
    for argv, code in inputs.DEFECTS:
        result = call([sys.executable, "-m", "virtualspin.cli", *argv], workdir)
        op = {"kind": "defect", "code": code, "format": "table"}
        failure, _ = checks.check_cli(op, result["code"], result["out"], result["err"], {})
        out.append({"argv": " ".join(argv), "expected_exit": code, "exit": result["code"],
                    "still_failing": failure is not None, "reason": failure})
    return out


def run(state: dict, seconds: float, tracer, probe) -> dict:
    workdir = state["workdir"]
    samples = {kind: [] for kind in KINDS}
    traced = {kind: [] for kind in KINDS}
    failures, fingerprints, span_lists, counters = [], {}, [], {}
    rss, index = 0.0, 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        probe.maybe_sample()
        op = next(state["commands"])
        kind = "simulate" if op["kind"] == "simulate" else "command"
        if kind == "simulate" and not state["simulate_ok"]:
            failures.append("refused simulate: projected slices over budget")
            index += 1
            continue
        tracing = tracer is not None and (index // 2) % 2 == 0
        if tracing:
            dump_path = workdir / "spans.json"
            argv = [sys.executable, str(SHIM), str(dump_path), *op["argv"]]
        else:
            argv = [sys.executable, "-m", "virtualspin.cli", *op["argv"]]
        result = call(argv, workdir)
        (traced if tracing else samples)[kind].append([(result["start"], result["wall"])])
        rss = max(rss, result["rss_mb"])
        if tracing:
            dump = json.loads(dump_path.read_text())
            span_lists.append([(*s[:4], index, s[5]) for s in dump["spans"]])
            for key, values in dump["counters"].items():
                counters.setdefault(key, []).extend(values)
        files = {}
        if op["kind"] == "compile" and (workdir / op["out"]).exists():
            files[op["out"]] = (workdir / op["out"]).read_text()
            (workdir / op["out"]).unlink()
        failure, found = checks.check_cli(op, result["code"], result["out"],
                                          result["err"], files)
        if failure is not None:
            failures.append(f"{' '.join(op['argv'])}: {failure}")
        for key, value in found.items():
            fingerprints[key] = FOLD[key](fingerprints.get(key, value), value)
        index += 1
    elapsed = time.perf_counter() - start
    probe.sample()   # close the last operation's probe window before the untimed calls
    known_defects = probe_defects(workdir)
    if tracer is not None:
        tracer.spans = spans.merge([tracer.spans] + span_lists)
        for key, values in counters.items():
            tracer.counters.setdefault(key, []).extend(values)
    return {"attempted": index, "failures": failures, "known_defects": known_defects,
            "elapsed": elapsed, "ops": index, "samples": samples, "traced": traced,
            "peak_rss_mb": rss, "fingerprints": fingerprints}
