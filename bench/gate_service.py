"""gate-service: warm in-process compile and replay requests, one caller.

compile: spectrum, transition table, resolved compile, schedule text,
idealized propagator, verify (and the truth table for NOT-family
sequences).  replay: parse a schedule text written earlier in the run,
then propagator and verify.  The two kinds alternate 1:1.
"""

import time

import checks
import inputs
import virtualspin as vs

KINDS = ("compile", "replay")
COLD = False  # operations run in this process (speed.Probe)
WARMUP_REQUESTS = 40
GAMMA = 1e-3
REPLAY_POOL = 256          # replay draws from the most recent schedule texts


def setup(seed: int, workdir) -> dict:
    state = {"stream": inputs.gate_service_requests(seed), "texts": []}
    for _ in range(WARMUP_REQUESTS):
        _serve(state, next(state["stream"]))
    omega67 = vs.exact_spectrum(vs.SpinSystem(omegaQ=0.01, theta=0.0))
    state["omega67_error"] = abs(float(omega67.energies[6] - omega67.energies[7])
                                 - checks.OMEGA67_THETA0)
    return state


def _compile(req: dict):
    system = vs.SpinSystem(omegaQ=req["omegaQ"], theta=req["theta"], phi=req["phi"])
    spectrum = vs.exact_spectrum(system)
    rows = vs.transition_table(spectrum)
    parameters = {"omega0": 1.0, "omegaQ": req["omegaQ"], "theta": req["theta"],
                  "phi": req["phi"], "gammaHrf": GAMMA}
    sched = vs.compile_gate(req["gates"], spectrum=spectrum, gamma_hrf=GAMMA,
                            parameters=parameters)
    text = vs.format_schedule(sched)
    u = vs.schedule_propagator(sched)
    report = vs.verify(sched.gates, u)
    table = None
    if all(g.is_not_family for g in sched.gates):
        table = vs.truth_table(sched.gates, propagator=u)
    return sched, text, rows, u, report, table


def _replay(text: str):
    sched = vs.parse_schedule(text)
    u = vs.schedule_propagator(sched)
    return sched, vs.verify(sched.gates, u)


def _serve(state: dict, req: dict):
    """Run one request: (start, latency_s, failure reason or None, verify report)."""
    if req["kind"] == "compile":
        start = time.perf_counter()
        try:
            sched, text, rows, u, report, table = _compile(req)
        except vs.AmbiguousLabelingError as exc:
            return start, time.perf_counter() - start, f"compile raised {exc!r}", None
        latency = time.perf_counter() - start
        state["texts"] = state["texts"][-REPLAY_POOL + 1:] + [(req["gates"], sched, text)]
        return start, latency, checks.check_compile(req["gates"], rows, u, report.verdict,
                                                    table), report
    gates, original, text = state["texts"][int(req["pick"] * len(state["texts"]))]
    start = time.perf_counter()
    parsed, report = _replay(text)
    latency = time.perf_counter() - start
    return start, latency, checks.check_replay(gates, parsed, original, report.verdict), report


def run(state: dict, seconds: float, tracer, probe) -> dict:
    samples = {kind: [] for kind in KINDS}
    traced = {kind: [] for kind in KINDS}
    failures, max_dev, index = [], 0.0, 0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        probe.maybe_sample()
        req = next(state["stream"])
        # pairs of requests alternate traced / untraced, so both kinds get both
        tracing = tracer is not None and (index // 2) % 2 == 0
        if tracing:
            tracer.request = index
            tracer.install()
        begin, latency, failure, report = _serve(state, req)
        if tracing:
            tracer.uninstall()
        (traced if tracing else samples)[req["kind"]].append([(begin, latency)])
        if failure is not None:
            failures.append(failure)
        elif report is not None and report.ok:
            max_dev = max(max_dev, report.max_deviation)
        index += 1
    elapsed = time.perf_counter() - start
    return {"attempted": index, "failures": failures, "known_defects": [],
            "elapsed": elapsed, "ops": index, "samples": samples, "traced": traced,
            "fingerprints": {"verify_max_deviation": max_dev,
                             "omega67_theta0_error": state["omega67_error"]}}
