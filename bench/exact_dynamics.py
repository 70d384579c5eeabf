"""exact-dynamics: simulate_schedule jobs in the acceptance regime, one caller.

Passes alternate between the single-tone job list and the multi-tone job
list (inputs.SINGLE_TONE_JOBS, inputs.MULTI_TONE_JOBS); a pass is the time
of its jobs.  Q-target gates are never run: their cost is only projected,
and any job whose projected slice count exceeds JOB_SLICE_BUDGET is
refused, so a run cannot hang.
"""

import itertools
import math
import time

import numpy as np

import checks
import inputs
import virtualspin as vs
# bound here before any tracing starts, so projections never record spans
from virtualspin.system import build_hamiltonian as _static_hamiltonian

KINDS = ("single", "multi")
COLD = False  # operations run in this process (speed.Probe)
STEPS_PER_PERIOD = 32          # IntegrationConfig default
JOB_SLICE_BUDGET = 500_000     # about 10 s at the measured cost per slice
WARMUP_GAMMA = 0.05            # a short strong-drive job warms the integrator


def _system(regime: dict):
    return vs.SpinSystem(omegaQ=regime["omegaQ"], theta=regime["theta"], phi=regime["phi"])


def drive_slices(system, drive, steps: int = STEPS_PER_PERIOD) -> int:
    """Slices evolve() would use for one drive: the fastest scale over steps per period.

    A projection, not a count: it copies evolve()'s slicing rule as it
    stands when this benchmark was written.  A change to how evolve()
    slices time does not show here.
    """
    levels = np.linalg.eigvalsh(_static_hamiltonian(system))
    omega_max = max(float(levels[-1] - levels[0]), system.omega0,
                    max((abs(t.frequency) for t in drive.tones), default=0.0))
    if drive.duration == 0:
        return 0
    return max(1, math.ceil(drive.duration / (2 * math.pi / omega_max / steps)))


def projected_slices(regime: dict, gate: str) -> int:
    """Slices simulate_schedule would integrate for `gate` in `regime`.

    Mirrors simulate_schedule: each group lasts as long as its slowest tone
    at the regime's drive amplitude.
    """
    system = _system(regime)
    spectrum = vs.exact_spectrum(system)
    sched = vs.compile_gate(gate)
    psi, ops = spectrum.states, system.ops
    total = 0
    for group in sched.groups:
        duration, tones = 0.0, []
        for tone in group:
            axis = ops.Ix if tone.axis == "X" else ops.Iy
            element = abs(psi[:, tone.upper].conj() @ axis @ psi[:, tone.lower])
            duration = max(duration, abs(tone.angle) / (2 * regime["gammaHrf"] * element))
            tones.append(vs.DriveTone(
                frequency=float(spectrum.energies[tone.upper] - spectrum.energies[tone.lower]),
                amplitude=1.0))
        total += drive_slices(system, vs.DriveSpec(tones=tuple(tones), duration=duration))
    return total


def setup(seed: int, workdir) -> dict:
    regime = inputs.REGIME
    system = _system(regime)
    spectrum = vs.exact_spectrum(system)
    jobs = inputs.dynamics_jobs(seed)
    state = {"system": system, "jobs": {}, "refused": []}
    for kind in KINDS:
        state["jobs"][kind] = []
        for gate in jobs[kind]:
            if projected_slices(regime, gate) > JOB_SLICE_BUDGET:
                state["refused"].append(gate)
                continue
            sched = vs.compile_gate(gate, spectrum=spectrum, gamma_hrf=regime["gammaHrf"])
            state["jobs"][kind].append((gate, sched))
    warm = vs.compile_gate("CCNOT:QR->S", spectrum=spectrum, gamma_hrf=WARMUP_GAMMA)
    vs.simulate_schedule(system, warm, WARMUP_GAMMA)
    return state


def run(state: dict, seconds: float, tracer, probe) -> dict:
    samples = {kind: [] for kind in KINDS}
    traced = {kind: [] for kind in KINDS}
    failures = [f"refused {gate}: projected slices over budget" for gate in state["refused"]]
    fingerprints, jobs_done = {}, 0
    last_pass = dict.fromkeys(KINDS, 0.0)
    start = time.perf_counter()
    # passes alternate kinds; one of each always runs, and none that would overrun
    for number in itertools.count():
        kind = KINDS[number % len(KINDS)]
        if number >= len(KINDS) and time.perf_counter() - start + last_pass[kind] > seconds:
            break
        tracing = tracer is not None and (number // len(KINDS)) % 2 == 0
        if tracing:
            tracer.request = number
            tracer.install()
        pass_start, segments = time.perf_counter(), []
        for gate, sched in state["jobs"][kind]:
            probe.maybe_sample()
            begin = time.perf_counter()
            result = vs.simulate_schedule(state["system"], sched, inputs.REGIME["gammaHrf"])
            segments.append((begin, time.perf_counter() - begin))
            jobs_done += 1
            failure, low = checks.check_dynamics(gate, result.transfer, result.actual)
            if failure is not None:
                failures.append(f"{gate}: {failure}")
            fingerprints[gate] = {"deviation": result.deviation, "min_transfer": low}
        if tracing:
            tracer.uninstall()
        (traced if tracing else samples)[kind].append(segments)
        last_pass[kind] = time.perf_counter() - pass_start
    elapsed = time.perf_counter() - start
    return {"attempted": jobs_done + len(state["refused"]), "failures": failures,
            "known_defects": [], "elapsed": elapsed, "ops": jobs_done,
            "samples": samples, "traced": traced, "fingerprints": fingerprints}


def q_target_projection(ns_per_slice: float) -> dict:
    """Projected slices and seconds for the Q-target gates, never run."""
    out = {}
    for gate in inputs.Q_TARGET_JOBS:
        key = gate.lower().replace(":", "_").replace("->", "_")
        for label, regime in (("regime", inputs.REGIME), ("defaults", inputs.CLI_DEFAULTS)):
            slices = projected_slices(regime, gate)
            out[f"qtarget.{key}.{label}_slices"] = slices
            out[f"qtarget.{key}.{label}_s"] = slices * ns_per_slice * 1e-9
    return out
