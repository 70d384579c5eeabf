"""Self-tests of the benchmark harness.

Run from the checkout root: PYTHONPATH=src python3 -m pytest -q bench
"""

import itertools
import math

import numpy as np
import pytest

import checks
import inputs
import percentiles
import run
import spans
import speed


def test_tail_percentile_keeps_ten_samples_beyond():
    assert percentiles.tail_percentile(10_000) == 99.9
    assert percentiles.tail_percentile(1000) == 99
    assert percentiles.tail_percentile(999) == 95
    assert percentiles.tail_percentile(40) == 75
    assert percentiles.tail_percentile(25) == 60
    assert percentiles.tail_percentile(19) is None
    for n in (25, 40, 200, 1000, 5000):
        q = percentiles.tail_percentile(n)
        assert n * (100 - q) / 100 >= percentiles.TAIL_MIN_BEYOND


def test_percentile_interpolates_order_statistics():
    values = list(range(101))
    assert percentiles.percentile(values, 99) == 99
    assert percentiles.median([3, 1, 2, 10]) == 2.5
    with pytest.raises(ValueError):
        percentiles.percentile([], 50)


def _span(name, start, end, parent, ok=True):
    return (name, start, end, parent, 0, ok)


def test_self_time_on_synthetic_tree():
    # root [0, 100] has children [10, 30] and [20, 50] (overlapping: cover 40)
    # and [60, 70]; the first child has a grandchild [12, 18].
    tree = [_span("root", 0, 100, -1), _span("a", 10, 30, 0), _span("g", 12, 18, 1),
            _span("b", 20, 50, 0), _span("c", 60, 70, 0)]
    assert spans.self_times(tree) == [50, 14, 6, 30, 10]


def test_layer_stats_counts_nested_same_name_once():
    tree = [_span("dynamics.evolve", 0, 100, -1), _span("dynamics.evolve", 10, 40, 0),
            _span("spectrum.exact_spectrum", 50, 60, 0, ok=False)]
    stats = spans.layer_stats(tree)
    assert stats["dynamics.evolve"]["calls"] == 2
    assert stats["dynamics.evolve"]["busy_ns"] == 100
    assert stats["dynamics.evolve"]["self_ns"] == 60 + 30
    assert stats["spectrum.exact_spectrum"]["ok"] == 0
    assert stats["compiler.verify"]["calls"] == 0


def test_tracer_wraps_every_name_a_caller_looks_up():
    import virtualspin as vs
    from virtualspin import compiler, dynamics
    originals = (dynamics.evolve, dynamics.exact_spectrum, compiler.multi_tone_propagator)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dynamics.exact_spectrum is not originals[1]
        assert compiler.multi_tone_propagator is not originals[2]
        system = vs.SpinSystem(omegaQ=0.05, theta=np.pi / 6)
        sched = vs.compile_gate("CCNOT:QR->S", spectrum=vs.exact_spectrum(system),
                                gamma_hrf=0.05)
        vs.simulate_schedule(system, sched, 0.05)
    finally:
        tracer.uninstall()
    assert (dynamics.evolve, dynamics.exact_spectrum,
            compiler.multi_tone_propagator) == originals
    names = [s[0] for s in tracer.spans]
    simulate = names.index("dynamics.simulate_schedule")
    children = {s[0] for s in tracer.spans if s[3] == simulate}
    assert {"spectrum.exact_spectrum", "dynamics.evolve",
            "compiler.schedule_propagator"} <= children
    assert "pulses.multi_tone_propagator" in names
    assert tracer.counters["dynamics.evolve.projected_slices"][0] > 0


def test_merge_rebases_parents():
    merged = spans.merge([[_span("a", 0, 5, -1)], [_span("b", 0, 5, -1), _span("c", 1, 2, 0)]])
    assert [s[3] for s in merged] == [-1, -1, 1]


def test_same_seed_same_inputs():
    for make in (inputs.gate_service_requests, inputs.cli_commands):
        first = list(itertools.islice(make(7), 200))
        assert first == list(itertools.islice(make(7), 200))
        assert first != list(itertools.islice(make(8), 200))
    assert inputs.dynamics_jobs(7) == inputs.dynamics_jobs(7)


def test_cli_mix_has_fixed_composition_per_block():
    size = sum(n for _, n in inputs.CLI_BLOCK)
    ops = list(itertools.islice(inputs.cli_commands(3), 2 * size))
    for block in (ops[:size], ops[size:]):
        kinds = sorted(op["kind"] for op in block)
        assert kinds == sorted(k for k, n in inputs.CLI_BLOCK for _ in range(n))


def test_grammar_strings_cover_every_gate_once():
    gates = inputs.grammar_strings()
    assert len(gates) == len(set(gates)) == 24


def test_reference_semantics():
    assert checks.bit_flip_table("CCNOT:QR->S") == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5,
                                                    6: 7, 7: 6}
    assert checks.level_pairs(checks.parse_gate("CNOT:S->Q")) == [(1, 5), (3, 7)]
    assert checks.expected_verdict("NOT:S") == "equal-up-to-i"
    assert checks.expected_verdict("CCUT:QR->S(1.2,0.4)") == "exact"
    assert checks.expected_verdict("NOT:S;NOT:S") == "equal-up-to-global-phase"


class _Row:
    def __init__(self, allowed):
        self.allowed = allowed


ROWS = [_Row(i < 7) for i in range(28)]


def test_flipped_verdict_counts_as_failure():
    gates = "CCNOT:QR->S"
    u = checks.sequence(gates, checks.physical)
    table = {label: (out, 1j if out != label else 1)
             for label, out in checks.bit_flip_table(gates).items()}
    assert checks.check_compile(gates, ROWS, u, "equal-up-to-i", table) is None
    assert checks.check_compile(gates, ROWS, u, "exact", table) is not None
    wrong = {**table, 6: (6, 1)}
    assert checks.check_compile(gates, ROWS, u, "equal-up-to-i", wrong) is not None


def test_wrong_exit_code_counts_in_error_rate():
    op = {"kind": "verify-gate", "code": 0, "format": "st", "gate": "NOT:S"}
    good = 'gate: "NOT:S"\nverdict: "equal-up-to-i"\nmax_deviation: 0.0\n'
    assert checks.check_cli(op, 0, good, "", {})[0] is None
    assert checks.check_cli(op, 1, good, "", {})[0] is not None
    flipped = good.replace("equal-up-to-i", "exact")
    assert checks.check_cli(op, 0, flipped, "", {})[0] is not None

    results = [checks.check_cli(op, code, text, "", {})[0]
               for code, text in ((0, good), (1, good), (0, flipped), (0, good))]
    failed = sum(r is not None for r in results)
    assert failed / len(results) == 0.5


def test_dynamics_check_uses_its_own_reference():
    gates = "CCNOT:QR->S"
    right = checks.sequence(gates, checks.physical)
    claimed = {label: (out, 0.999) for label, out in checks.bit_flip_table(gates).items()}
    assert checks.check_dynamics(gates, claimed, right) == (None, pytest.approx(1.0))
    # the program's transfer table looks fine, but its propagator does not flip 6 <-> 7
    assert checks.check_dynamics(gates, claimed, np.eye(8, dtype=complex))[0] is not None
    # a wrong ideal output label fails even when the propagator is right
    assert checks.check_dynamics(gates, {**claimed, 6: (6, 0.999)}, right)[0] is not None
    assert checks.check_dynamics(gates, claimed, right * (1 + 1e-6))[0] is not None
    ut = "CCUT:QR->S(1.2,0.4)"
    identity = {label: (label, 0.999) for label in range(8)}
    assert checks.check_dynamics(ut, identity, checks.sequence(ut, checks.physical))[0] is None


def test_import_times_counts_each_package_subtree_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       50 |         50 |       scipy",
        "import time:       70 |        120 |     scipy.optimize",
        "import time:       10 |        130 |   virtualspin.spectrum",
        "import time:       20 |        450 | virtualspin",
    ])
    totals = run.import_times(stderr)
    assert totals == {"numpy": 0.3, "scipy": 0.12, "virtualspin": 0.45}


def test_strong_drive_projection_is_within_budget():
    import cli_cold
    import exact_dynamics
    slices = exact_dynamics.projected_slices(cli_cold.STRONG, "CCNOT:QR->S")
    assert 4000 < slices < 8000
    q_slices = exact_dynamics.projected_slices(inputs.REGIME, "CCNOT:RS->Q")
    assert q_slices > exact_dynamics.JOB_SLICE_BUDGET
    assert math.isclose(q_slices, 8.5e6, rel_tol=0.1)


def test_known_defects_stay_out_of_the_timed_mix_and_are_graded_by_the_contract():
    size = sum(n for _, n in inputs.CLI_BLOCK)
    ops = list(itertools.islice(inputs.cli_commands(5), 4 * size))
    defect_argvs = {tuple(argv) for argv, _ in inputs.DEFECTS}
    assert not any(tuple(op["argv"]) in defect_argvs for op in ops)
    op = {"kind": "defect", "code": 2, "format": "table"}
    assert checks.check_cli(op, 1, "", "Traceback (most recent call last):\n", {})[0]
    assert checks.check_cli(op, 2, "", "error: omegaQ must be finite\n", {})[0] is None


def test_probe_normalizes_by_the_probes_around_an_operation():
    probe = speed.Probe(run_kernel=lambda: 2e-3, burst=1, nominal=1e-3)
    probe.sample()
    assert probe.durations == [2e-3]
    probe.times, probe.durations = [0.0, 2.0, 100.0], [2e-3, 2e-3, 8e-3]
    assert probe.normalize(0.5, 1.0) == pytest.approx(0.5)   # the far probe is not used
    assert probe.normalize(99.0, 2.0) == pytest.approx(2.0 * 1e-3 / 5e-3)
