from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtualspin import (DIM, AmbiguousLabelingError, ForbiddenTransitionError, InputError,
                         PulseParams, ScheduleFormatError, SpinSystem, TruthTableError,
                         compile_gate, exact_spectrum, format_schedule, parse_gate,
                         parse_schedule, perturbative_spectrum, projector,
                         pulse_duration, resolve_schedule, schedule_propagator,
                         target_gate, transition_table, truth_table, verify)
from virtualspin.compiler import phase_map
from test_cli_contract import CONTRACT
from test_gates import ALL_NOT_FAMILY


def test_compiled_level_pairs_match_the_identities():
    expected_pairs = {
        "CCNOT:QR->S": [(6, 7)],
        "CCNOT:QS->R": [(5, 7)],
        "CCNOT:RS->Q": [(3, 7)],
        "CNOT:R->S": [(2, 3), (6, 7)],
        "CNOT:S->R": [(1, 3), (5, 7)],
        "CNOT:Q->S": [(4, 5), (6, 7)],
        "CNOT:S->Q": [(1, 5), (3, 7)],
        "CNOT:Q->R": [(4, 6), (5, 7)],
        "CNOT:R->Q": [(2, 6), (3, 7)],
        "NOT:Q": [(0, 4), (1, 5), (2, 6), (3, 7)],
        "NOT:R": [(0, 2), (1, 3), (4, 6), (5, 7)],
        "NOT:S": [(0, 1), (2, 3), (4, 5), (6, 7)],
    }
    for text, pairs in expected_pairs.items():
        sched = compile_gate(text)
        assert len(sched.groups) == 1
        assert [(t.upper, t.lower) for t in sched.groups[0]] == pairs


def test_tone_count_law():
    # one single-frequency pulse for CC*, double for C*, four-frequency for plain
    for text in ALL_NOT_FAMILY:
        sched = compile_gate(text)
        count = {"CCNOT": 1, "CNOT": 2, "NOT": 4}[parse_gate(text).kind]
        assert len(sched.groups[0]) == count


def test_not_family_tones_are_pi_x_pulses():
    for text in ALL_NOT_FAMILY:
        for tone in compile_gate(text).groups[0]:
            assert tone.angle == np.pi
            assert tone.phase == 0.0
            assert tone.axis == "X"


def test_ccnot_propagator_projector_form():
    # 1 - (P77 + P66) + i (P67 + P76)
    u = schedule_propagator(compile_gate("CCNOT:QR->S"))
    expected = (np.eye(DIM, dtype=complex)
                - projector(7, 7) - projector(6, 6)
                + 1j * (projector(6, 7) + projector(7, 6)))
    assert np.abs(u - expected).max() < 1e-15


def test_not_s_propagator_antidiagonal_blocks():
    u = schedule_propagator(compile_gate("NOT:S"))
    expected = np.zeros((DIM, DIM), dtype=complex)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7)):
        expected[a, b] = expected[b, a] = 1j
    assert np.abs(u - expected).max() < 1e-15


def test_empty_schedule_is_identity():
    sched = compile_gate("CCNOT:QR->S")
    empty = type(sched)(gates=sched.gates, groups=())
    assert np.array_equal(schedule_propagator(empty), np.eye(DIM))


def test_all_not_family_verify_up_to_i():
    for text in ALL_NOT_FAMILY:
        report = verify(text, schedule_propagator(compile_gate(text)))
        assert report.verdict == "equal-up-to-i"
        assert report.max_deviation < 1e-12
        assert report.ok


def test_verify_identity_against_ccnot_mismatch():
    report = verify("CCNOT:QR->S", np.eye(DIM, dtype=complex))
    assert report.verdict == "mismatch"
    assert abs(report.max_deviation - 1.0) < 1e-15
    assert not report.ok


def test_verify_global_phase():
    target = target_gate(parse_gate("CCNOT:QR->S"))
    report = verify("CCNOT:QR->S", np.exp(0.3j) * target)
    assert report.verdict == "equal-up-to-global-phase"
    assert report.max_deviation < 1e-12
    assert not report.ok


def test_verify_exact_for_compiled_ut_family():
    for text in ("UT:S(1.2,0.4)", "CUT:R->S(2.2,-0.3)", "CCUT:QR->S(3.141592653589793,0.0)"):
        report = verify(text, schedule_propagator(compile_gate(text)))
        assert report.verdict == "exact"
        assert report.max_deviation < 1e-12


def test_verify_phase_map_shows_the_i_convention():
    factors = phase_map("CCNOT:QR->S", schedule_propagator(compile_gate("CCNOT:QR->S")))
    for (row, col), factor in factors.items():
        expected = 1j if row != col else 1.0
        assert abs(factor - expected) < 1e-12


def test_compiled_square_is_minus_one_on_affected_blocks():
    for text in ALL_NOT_FAMILY:
        sched = compile_gate(text)
        u = schedule_propagator(sched)
        square = u @ u
        touched = {level for tone in sched.groups[0] for level in (tone.upper, tone.lower)}
        expected = np.eye(DIM, dtype=complex)
        for level in touched:
            expected[level, level] = -1
        assert np.abs(square - expected).max() < 1e-12
        # and the classical truth table is an involution on labels
        table = truth_table(text)
        assert all(table[table[label][0]][0] == label for label in range(DIM))


def test_group_order_irrelevant():
    sched = compile_gate("NOT:Q")
    reversed_group = (tuple(reversed(sched.groups[0])),)
    flipped = type(sched)(gates=sched.gates, groups=reversed_group)
    assert np.abs(schedule_propagator(sched) - schedule_propagator(flipped)).max() < 1e-14


def test_ccut_block_matches_two_level_form():
    phi, f = 1.9, 0.6
    u = schedule_propagator(compile_gate(f"CCUT:QR->S({phi},{f})"))
    half = phi / 2
    block = np.array([[np.cos(half), 1j * np.exp(1j * f) * np.sin(half)],
                      [1j * np.exp(-1j * f) * np.sin(half), np.cos(half)]])
    assert np.abs(u[np.ix_([6, 7], [6, 7])] - block).max() < 1e-15
    for level in range(6):
        assert u[level, level] == 1


def test_truth_table_examples():
    table = truth_table("CCNOT:QR->S")
    assert table[6][0] == 7 and abs(table[6][1] - 1j) < 1e-12
    assert table[2][0] == 2 and abs(table[2][1] - 1) < 1e-12
    table_r = truth_table("NOT:R")
    assert table_r[0][0] == 2 and abs(table_r[0][1] - 1j) < 1e-12


def test_truth_table_rejects_ut_family_and_superpositions():
    with pytest.raises(InputError):
        truth_table("CCUT:QR->S(1.2,0.4)")
    hadamard_ish = schedule_propagator(compile_gate("CCUT:QR->S(1.5707963267948966,0.0)"))
    with pytest.raises(TruthTableError):
        truth_table("CCNOT:QR->S", propagator=hadamard_ish)


def test_gate_sequences_concatenate_and_track_phases():
    sched = compile_gate("NOT:S;NOT:S")
    assert len(sched.groups) == 2
    u = schedule_propagator(sched)
    # each pi pulse contributes i per flipped pair: NOT^2 = -1 globally
    assert np.abs(u + np.eye(DIM)).max() < 1e-12
    report = verify("NOT:S;NOT:S", u)
    assert report.verdict == "equal-up-to-global-phase"
    # a CNOT equals two CCNOTs sharing the target pair structure: sanity only
    u2 = schedule_propagator(compile_gate("CCNOT:QR->S;CCNOT:QR->S"))
    report2 = verify("CCNOT:QR->S;CCNOT:QR->S", u2)
    assert report2.verdict == "mismatch"  # -1 on the {6,7} block only
    factors = phase_map("CCNOT:QR->S;CCNOT:QR->S", u2)
    assert factors[(6, 6)] == pytest.approx(-1)
    assert factors[(0, 0)] == pytest.approx(1)


def test_resolved_frequencies_and_durations():
    sys = SpinSystem(omega0=1.0, omegaQ=0.01, theta=0.0)
    spectrum = perturbative_spectrum(sys)
    gamma = 1e-3
    sched = compile_gate("CCNOT:QR->S", spectrum=spectrum, gamma_hrf=gamma,
                         parameters={"omega0": 1.0, "omegaQ": 0.01,
                                     "theta": 0.0, "phi": 0.0, "gammaHrf": gamma})
    assert sched.spectrum_method == "perturbative-first-order"
    assert abs(sched.groups[0][0].omega - 0.88) < 1e-12
    rows = {(r.upper, r.lower): r for r in transition_table(spectrum)}
    expected = pulse_duration(np.pi, PulseParams(gammaHrf=gamma),
                              rows[(6, 7)].ix_element)
    assert abs(sched.groups[0][0].duration - expected) < 1e-12


def test_resolve_schedule_against_both_spectra():
    # the same symbolic schedule re-resolves against pert or exact levels
    sys = SpinSystem(omega0=1.0, omegaQ=0.01, theta=np.pi / 5)
    sched = compile_gate("CCNOT:QR->S")
    assert sched.groups[0][0].omega is None
    pert = resolve_schedule(sched, perturbative_spectrum(sys), gamma_hrf=1e-3)
    exact = resolve_schedule(sched, exact_spectrum(sys), gamma_hrf=1e-3)
    assert pert.spectrum_method == "perturbative-first-order"
    assert exact.spectrum_method == "exact"
    def symbolic(s):
        return [[(t.upper, t.lower, t.angle, t.phase, t.axis) for t in g] for g in s.groups]
    assert symbolic(pert) == symbolic(exact) == symbolic(sched)
    pert_tone, exact_tone = pert.groups[0][0], exact.groups[0][0]
    assert pert_tone.omega != exact_tone.omega
    assert abs(pert_tone.omega - exact_tone.omega) < 200 * 0.01 ** 2
    assert pert_tone.duration is not None


def test_a_spectrum_and_gamma_hrf_are_given_together_or_not_at_all():
    spectrum = exact_spectrum(SpinSystem(omegaQ=0.01, theta=np.pi / 5))
    unresolved = compile_gate("CNOT:R->S")
    for half_resolved in (lambda: compile_gate("CNOT:R->S", spectrum=spectrum),
                          lambda: resolve_schedule(unresolved, spectrum),
                          lambda: resolve_schedule(unresolved, spectrum, gamma_hrf=None)):
        with pytest.raises(InputError, match="needs gamma_hrf"):
            half_resolved()
    # NOT:S included: a drive amplitude is never silently dropped
    for gate in ("NOT:S", "CNOT:R->S"):
        with pytest.raises(InputError, match="gamma_hrf needs a spectrum"):
            compile_gate(gate, gamma_hrf=1e-3)
    assert all(t.omega is None and t.duration is None for t in unresolved.groups[0])
    resolved = compile_gate("CNOT:R->S", spectrum=spectrum, gamma_hrf=1e-3)
    assert all(t.omega is not None and t.duration is not None for t in resolved.groups[0])


def test_schedule_round_trip_is_lossless():
    sys = SpinSystem(omega0=1.0, omegaQ=0.01, theta=np.pi / 5, phi=0.3)
    spectrum = exact_spectrum(sys)
    ccut = compile_gate(f"CCUT:QR->S({3 * np.pi / 4},{np.pi / 3})", spectrum=spectrum,
                        gamma_hrf=1e-3)
    cases = [
        compile_gate("CCNOT:QR->S", spectrum=spectrum, gamma_hrf=1e-3,
                     parameters={"omega0": 1.0, "omegaQ": 0.01,
                                 "theta": np.pi / 5, "phi": 0.3, "gammaHrf": 1e-3}),
        compile_gate("NOT:S"),
        # a tone with a frequency and `duration: null`, as an edited file may hold
        replace(ccut, groups=[[replace(t, duration=None) for t in g] for g in ccut.groups]),
        compile_gate("NOT:S;CCNOT:QR->S", spectrum=spectrum, gamma_hrf=2e-3),
        compile_gate("CNOT:R->S", parameters={}),
    ]
    for sched in cases:
        text = format_schedule(sched)
        parsed = parse_schedule(text)
        assert parsed == sched
        assert format_schedule(parsed) == text


def test_parse_schedule_errors():
    with pytest.raises(ScheduleFormatError):
        parse_schedule("groups: []\n")  # no gate
    with pytest.raises(ScheduleFormatError):
        parse_schedule("gate: \"CCNOT:QR->S\"\ngroups: 7\n")
    with pytest.raises(ScheduleFormatError):
        parse_schedule("{unbalanced")
    good = format_schedule(compile_gate("CCNOT:QR->S"))
    with pytest.raises(ScheduleFormatError):
        parse_schedule(good.replace("axis: \"X\"", "axis: \"Z\""))
    with pytest.raises(ScheduleFormatError):
        parse_schedule(good.replace("    lower: 7\n", ""))
    # a group whose tones overlap violates the schedule invariant
    two_tone = format_schedule(compile_gate("CNOT:R->S"))
    with pytest.raises(ScheduleFormatError):
        parse_schedule(two_tone.replace("upper: 2", "upper: 6"))


def test_schedule_rejects_overlapping_group():
    from virtualspin import OverlappingTonesError, PulseSchedule, Tone
    with pytest.raises(OverlappingTonesError):
        PulseSchedule(gates=(parse_gate("CNOT:R->S"),),
                      groups=((Tone(2, 3, np.pi), Tone(3, 7, np.pi)),))


def test_compile_rejects_sequences_of_non_gatespecs():
    for bad in (["NOT:S"], [], (parse_gate("NOT:S"), "NOT:S")):
        with pytest.raises(InputError, match="sequence of GateSpec"):
            compile_gate(bad)


def test_non_default_q2_form_round_trips_as_a_parameter():
    parameters = {"omega0": 1.0, "omegaQ": 0.05, "q2_form": "sin-squared"}
    sched = compile_gate("CCNOT:QR->S", parameters=parameters)
    text = format_schedule(sched)
    assert '  q2_form: "sin-squared"\n' in text
    assert parse_schedule(text) == sched
    with pytest.raises(ScheduleFormatError, match="q2_form must be one of"):
        parse_schedule(text.replace('"sin-squared"', "0.5"))


# a grammar gate, NOT family or UT family with a drawn (phi, f)
GATE = st.one_of(st.sampled_from(ALL_NOT_FAMILY), st.builds(
    lambda text, phi, f: f"{text.replace('NOT', 'UT')}({phi!r},{f!r})",
    st.sampled_from(ALL_NOT_FAMILY), st.floats(-7, 7), st.floats(-7, 7)))


@settings(CONTRACT, max_examples=200)
@given(gates=st.lists(GATE, min_size=1, max_size=3), omega_q=st.floats(1e-3, 0.05),
       theta=st.floats(0.0, np.pi), phi=st.floats(-np.pi, np.pi),
       gamma=st.one_of(st.none(), st.floats(1e-4, 1e-1)), exact=st.booleans())
@example(gates=["CCNOT:QS->R"], omega_q=0.01, theta=0.0, phi=0.0, gamma=1e-3, exact=True)
def test_one_pass_compile_equals_compile_then_resolve(gates, omega_q, theta, phi, gamma, exact):
    system = SpinSystem(omegaQ=omega_q, theta=theta, phi=phi)
    try:
        spectrum = (exact_spectrum if exact else perturbative_spectrum)(system)
    except AmbiguousLabelingError:
        return
    text = ";".join(gates)
    parameters = {"omegaQ": omega_q, "theta": theta, "phi": phi}
    outcomes = []
    for build in (lambda: compile_gate(text, spectrum=spectrum, gamma_hrf=gamma,
                                       parameters=parameters),
                  lambda: resolve_schedule(compile_gate(text, parameters=parameters),
                                           spectrum, gamma)):
        try:   # near theta = 0 a pair with a vanishing drive element has no finite duration
            outcomes.append(build())
        except (ForbiddenTransitionError, InputError) as exc:
            outcomes.append((type(exc), str(exc)))
    one, two = outcomes
    assert one == two
    if not isinstance(one, tuple):
        assert format_schedule(one) == format_schedule(two)
