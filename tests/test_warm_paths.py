"""The warm compile path against test-local copies of the forms it replaced.

quadrupole_hamiltonian used to rebuild its five operator products on every
call, exact_spectrum checked 2:1 dominance with one np.delete per row,
transition_table converted numpy scalars one by one, multi_tone_propagator
multiplied full per-tone matrices, verify and truth_table worked entry by
entry, and the tone blocks, target_gate and verify took their sines, cosines and
phase factors from numpy's ufuncs on numpy scalars.  quadrupole_hamiltonian took
its q coefficients from numpy scalars too, _first_order built its identity,
off-diagonal mask and m differences on every call, and compile_gate built every
tone and the schedule twice, unresolved and then resolved.  The copies below are
those forms; every result must be bit-identical to theirs: the same arrays,
the same schedule bytes, the same verdicts and the same error messages.

The last test is the labeling contract of exact_spectrum: over any finite
coupling up to 10 and any angles it labels cleanly, refuses with
AmbiguousLabelingError, or reports overflow with InputError.
"""

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtualspin import (DIM, SPIN, AmbiguousLabelingError, ForbiddenTransitionError,
                         InputError, PulseParams, PulseSchedule, SpinSystem, Spectrum, Tone,
                         TruthTableError, Transition, compile_gate, drive_elements,
                         exact_spectrum, format_schedule, parse_gate_sequence,
                         perturbative_spectrum, quadrupole_hamiltonian,
                         schedule_propagator, target_gate, transition_table, truth_table,
                         verify)
from virtualspin import pulses
from virtualspin.compiler import (EXACT_MATCH, MISMATCH, TRUTH_TABLE_TOL, UP_TO_GLOBAL_PHASE,
                                  UP_TO_I, VERIFY_TOL, phase_map)
from virtualspin.spectrum import OVERLAP_DOMINANCE, _loewdin_orthonormalize
from virtualspin.dynamics import _AXIS_EIGENBASES
from virtualspin.system import Q2_FORMS, _QUADRUPOLE_OPERATORS
from test_cli_contract import CONTRACT
from test_schedule_reader import GRAMMAR_GATES

M = np.arange(DIM) - SPIN


# --- the replaced forms -------------------------------------------------------

def old_quadrupole_hamiltonian(sys):
    iz, ip, im = sys.ops.Iz, sys.ops.Iplus, sys.ops.Iminus
    eye = np.eye(DIM)
    q0 = 3 * np.cos(sys.theta) ** 2 - 1
    qp1 = np.sin(sys.theta) * np.cos(sys.theta) * np.exp(1j * sys.phi)
    if sys.q2_form == "as-printed":
        q2_mag = 0.5 * np.sin(2 * sys.theta)
    else:
        q2_mag = 0.5 * np.sin(sys.theta) ** 2
    qp2 = q2_mag * np.exp(2j * sys.phi)
    big_q0 = iz @ iz - SPIN * (SPIN + 1) / 3 * eye
    big_qp1 = iz @ ip + ip @ iz
    big_qm1 = iz @ im + im @ iz
    big_qp2 = ip @ ip
    big_qm2 = im @ im
    total = (big_q0 * q0
             + big_qp1 * np.conj(qp1) + big_qm1 * qp1
             + big_qp2 * np.conj(qp2) + big_qm2 * qp2)
    return sys.omegaQ * total


@np.errstate(over="ignore", invalid="ignore")
def old_first_order(sys):
    """(energies, states, warning, hamiltonian) of _first_order with numpy-scalar quadrupole
    terms and its identity, mask and m differences built on every call."""
    hamiltonian = -sys.omega0 * sys.ops.Iz + old_quadrupole_hamiltonian(sys)
    q0 = 3 * np.cos(sys.theta) ** 2 - 1
    energies = -sys.omega0 * M + sys.omegaQ * q0 * (M ** 2 - 21 / 4)
    denom = sys.omega0 * (M[:, None] - M[None, :])
    np.fill_diagonal(denom, 1.0)
    raw = np.eye(DIM, dtype=complex) + hamiltonian * (1.0 / denom) * (1 - np.eye(DIM))
    ratio = sys.omegaQ / sys.omega0
    try:
        states = _loewdin_orthonormalize(raw)
    except np.linalg.LinAlgError:
        states = raw * np.nan
    if not (np.isfinite(energies).all() and np.isfinite(states).all()):
        raise InputError(f"omegaQ/omega0 = {ratio:.3g} overflows the first-order levels; "
                         "the coupling is far outside the perturbative regime")
    warning = None
    if ratio >= 0.1:
        warning = (f"omegaQ/omega0 = {ratio:.3g} >= 0.1: "
                   "first-order perturbation theory is unreliable here")
    return energies, states, warning, hamiltonian


def old_exact_spectrum(sys):
    _, reference, _, hamiltonian = old_first_order(sys)
    evals, evecs = np.linalg.eigh(hamiltonian)
    overlap = np.abs(reference.conj().T @ evecs)
    assignment = overlap.argmax(axis=1)
    shared = int(np.bincount(assignment, minlength=DIM).argmax())
    rivals = np.flatnonzero(assignment == shared)
    if rivals.size > 1:
        raise AmbiguousLabelingError(
            f"cannot label exact eigenstates: perturbative states "
            f"M={rivals[0]} and M={rivals[1]} both overlap exact state {shared} most; "
            f"omegaQ/omega0 = {sys.omegaQ / sys.omega0:.3g} is a level-mixing regime")
    for m_label in range(DIM):
        best = overlap[m_label, assignment[m_label]]
        rest = np.delete(overlap[m_label], assignment[m_label]).max()
        if best < OVERLAP_DOMINANCE * rest:
            raise AmbiguousLabelingError(
                f"cannot label exact eigenstates: perturbative state M={m_label} "
                f"overlaps two exact states at ratio {best:.3f}:{rest:.3f} "
                f"(< {OVERLAP_DOMINANCE}:1); omegaQ/omega0 = "
                f"{sys.omegaQ / sys.omega0:.3g} is a level-mixing regime")
    states = evecs[:, assignment]
    phases = np.angle(np.sum(reference.conj() * states, axis=0))
    return evals[assignment], states * np.exp(-1j * phases)[None, :]


def old_transition_table(spec):
    elements = np.abs(drive_elements(spec))
    return [Transition(upper=upper, lower=lower,
                       omega=float(spec.energies[upper] - spec.energies[lower]),
                       ix_element=float(elements[upper, lower]), allowed=(lower - upper == 1))
            for upper in range(DIM) for lower in range(upper + 1, DIM)]


def old_multi_tone_propagator(tones):
    u = np.eye(DIM, dtype=complex)
    for tone in tones:
        u = pulses.multi_tone_propagator((tone,)) @ u
    return u


def old_schedule_propagator(sched):
    u = np.eye(DIM, dtype=complex)
    for group in sched.groups:
        u = old_multi_tone_propagator(group) @ u
    return u


def textbook(gates):
    target = np.eye(DIM, dtype=complex)
    for g in gates:
        target = target_gate(g) @ target
    return target


def old_verify(gates, u):
    """(verdict, max_deviation, phase_map)"""
    target = textbook(gates)
    support = np.abs(target) > VERIFY_TOL
    target_i = target.copy()
    target_i[support & ~np.eye(DIM, dtype=bool)] *= 1j
    dev_exact = float(np.abs(u - target).max())
    dev_i = float(np.abs(u - target_i).max())
    inner = np.trace(target.conj().T @ u)
    alpha = np.angle(inner) if abs(inner) > VERIFY_TOL else 0.0
    dev_global = float(np.abs(u - np.exp(1j * alpha) * target).max())
    phase_map = {}
    for j, k in zip(*np.nonzero(support)):
        phase_map[(int(j), int(k))] = complex(u[j, k] / target[j, k])
    for verdict, dev in ((EXACT_MATCH, dev_exact), (UP_TO_I, dev_i),
                         (UP_TO_GLOBAL_PHASE, dev_global)):
        if dev < VERIFY_TOL:
            return verdict, dev, phase_map
    return MISMATCH, min(dev_exact, dev_i, dev_global), phase_map


def old_truth_table(propagator):
    table = {}
    for label in range(DIM):
        column = propagator[:, label]
        out = int(np.argmax(np.abs(column)))
        amp = complex(column[out])
        rest = np.abs(np.delete(column, out)).max()
        if abs(abs(amp) - 1) > TRUTH_TABLE_TOL or rest > TRUTH_TABLE_TOL:
            raise TruthTableError(
                f"column {label} is not a pure basis vector "
                f"(|amp|={abs(amp):.6f}, residual={rest:.3e})")
        table[label] = (out, amp)
    return table


def numpy_write_tone(v, tone):
    m, n = tone.upper, tone.lower
    f_eff = tone.phase + (np.pi / 2 if tone.axis == "Y" else 0.0)
    half = tone.angle / 2
    v[m, m] = v[n, n] = 1 + (np.cos(half) - 1)
    v[m, n] = 1j * np.exp(1j * f_eff) * np.sin(half)
    v[n, m] = 1j * np.exp(-1j * f_eff) * np.sin(half)
    return v


def numpy_schedule_propagator(sched):
    u = np.eye(DIM, dtype=complex)
    for group in sched.groups:
        v = np.eye(DIM, dtype=complex)
        for tone in group:
            numpy_write_tone(v, tone)
        u = v @ u
    return u


def numpy_payload(spec):
    if spec.is_not_family:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    half = spec.phi / 2
    return np.array(
        [[np.cos(half), 1j * np.exp(1j * spec.f) * np.sin(half)],
         [1j * np.exp(-1j * spec.f) * np.sin(half), np.cos(half)]])


def numpy_target_gate(spec):
    block = numpy_payload(spec)
    u = np.eye(DIM, dtype=complex)
    for m0, m1 in spec.level_pairs():
        u[m0, m0] = block[0, 0]
        u[m0, m1] = block[0, 1]
        u[m1, m0] = block[1, 0]
        u[m1, m1] = block[1, 1]
    return u


def numpy_verify(gates, u):
    """(verdict, max_deviation, phase_map) of verify as it computed with numpy scalars."""
    target = np.eye(DIM, dtype=complex)
    for g in gates:
        target = numpy_target_gate(g) @ target
    support = np.abs(target) > VERIFY_TOL
    target_i = np.where(support & ~np.eye(DIM, dtype=bool), target * 1j, target)
    dev_exact = float(np.abs(u - target).max())
    dev_i = float(np.abs(u - target_i).max())
    inner = np.trace(target.conj().T @ u)
    alpha = np.angle(inner) if abs(inner) > VERIFY_TOL else 0.0
    dev_global = float(np.abs(u - np.exp(1j * alpha) * target).max())
    rows, cols = np.nonzero(support)
    phase_map = dict(zip(zip(rows.tolist(), cols.tolist()),
                         (u[rows, cols] / target[rows, cols]).tolist()))
    for verdict, dev in ((EXACT_MATCH, dev_exact), (UP_TO_I, dev_i),
                         (UP_TO_GLOBAL_PHASE, dev_global)):
        if dev < VERIFY_TOL:
            return verdict, dev, phase_map
    return MISMATCH, min(dev_exact, dev_i, dev_global), phase_map


def old_resolve_schedule(sched, spectrum, gamma_hrf=None):
    params = PulseParams(gammaHrf=gamma_hrf) if gamma_hrf is not None else None
    elements = {axis: np.abs(drive_elements(spectrum, axis))
                for axis in {t.axis for group in sched.groups for t in group}}

    def resolved(t):
        duration = None if params is None else pulses.pulse_duration(
            abs(t.angle), params, elements[t.axis][t.upper, t.lower], t.axis)
        omega = float(spectrum.energies[t.upper] - spectrum.energies[t.lower])
        return Tone(t.upper, t.lower, t.angle, t.phase, t.axis, omega, duration)

    return PulseSchedule(gates=sched.gates,
                         groups=tuple(tuple(resolved(t) for t in group) for group in sched.groups),
                         spectrum_method=spectrum.method, parameters=sched.parameters)


def old_compile_gate(text, spectrum, gamma_hrf, parameters):
    """compile_gate in two passes: every tone and the schedule built unresolved, then again."""
    gates = parse_gate_sequence(text)
    groups = []
    for g in gates:
        angle, phase = (np.pi, 0.0) if g.is_not_family else (g.phi, g.f)
        groups.append([Tone(m0, m1, angle, phase, axis="X") for m0, m1 in g.level_pairs()])
    sched = PulseSchedule(gates=gates, groups=groups, parameters=parameters)
    return old_resolve_schedule(sched, spectrum, gamma_hrf)


# --- helpers -----------------------------------------------------------------

def drawn_system(rng: random.Random) -> SpinSystem:
    return SpinSystem(omegaQ=10 ** rng.uniform(-3, 0), theta=rng.uniform(0, np.pi),
                      phi=rng.uniform(0, 2 * np.pi))


def old_outcome(sys):
    """old_exact_spectrum's (energies, states), or its AmbiguousLabelingError or overflow."""
    try:
        return old_exact_spectrum(sys)
    except (AmbiguousLabelingError, InputError) as exc:
        return exc


def assert_same_table(new, old):
    assert new == old
    assert all(type(a) is type(b) for a, b in zip(new, old))
    assert all(type(r.omega) is float and type(r.ix_element) is float for r in new)


def sequences():
    """All grammar gates, then 50 seeded 1-3 gate sequences of them."""
    rng = random.Random(11)
    drawn = [";".join(rng.choice(GRAMMAR_GATES) for _ in range(rng.randint(1, 3)))
             for _ in range(50)]
    return GRAMMAR_GATES + drawn


# --- bit identity ------------------------------------------------------------

def test_spectra_and_tables_are_bit_identical():
    rng = random.Random(5)
    labeled = refused = 0
    for _ in range(300):
        sys = drawn_system(rng)
        assert np.array_equal(quadrupole_hamiltonian(sys), old_quadrupole_hamiltonian(sys))
        old = old_outcome(sys)
        if isinstance(old, AmbiguousLabelingError):
            with pytest.raises(AmbiguousLabelingError) as caught:
                exact_spectrum(sys)
            assert str(caught.value) == str(old)
            refused += 1
            continue
        spec = exact_spectrum(sys)
        assert np.array_equal(spec.energies, old[0]) and np.array_equal(spec.states, old[1])
        assert_same_table(transition_table(spec), old_transition_table(spec))
        labeled += 1
    # both branches are exercised
    assert labeled > 100 and refused > 10


def test_spin_matrices_are_read_only_constants():
    sys_a, sys_b = SpinSystem(theta=0.3), SpinSystem(omegaQ=0.05, theta=2.0, phi=1.0)
    assert sys_a.ops is sys_b.ops is SpinSystem().ops is SpinSystem.ops
    assert not any(q.flags.writeable for q in _QUADRUPOLE_OPERATORS)
    assert sorted(_AXIS_EIGENBASES) == ["X", "Y"]
    assert not any(w.flags.writeable for w in _AXIS_EIGENBASES.values())
    assert np.array_equal(quadrupole_hamiltonian(sys_b), old_quadrupole_hamiltonian(sys_b))


@pytest.mark.parametrize("text", sequences())
def test_compile_path_is_bit_identical(text):
    rng = random.Random(text)
    sys = drawn_system(rng)
    while isinstance(old_outcome(sys), AmbiguousLabelingError):
        sys = drawn_system(rng)
    spec = exact_spectrum(sys)
    energies, states = old_outcome(sys)
    old_spec = Spectrum(energies=energies, states=states, method=spec.method)
    parameters = {"omegaQ": sys.omegaQ, "theta": sys.theta, "phi": sys.phi, "gammaHrf": 1e-3}
    sched = compile_gate(text, spec, 1e-3, parameters)
    assert format_schedule(sched) == format_schedule(compile_gate(text, old_spec, 1e-3,
                                                                  parameters))
    u = schedule_propagator(sched)
    assert np.array_equal(u, old_schedule_propagator(sched))
    for group in sched.groups:
        assert np.array_equal(pulses.multi_tone_propagator(group),
                              old_multi_tone_propagator(group))

    gates = parse_gate_sequence(text)
    other = parse_gate_sequence(rng.choice(GRAMMAR_GATES))
    # the compiled unitary, the textbook gate up to a global phase, a unitary of another gate
    for graded, candidate in ((gates, u), (gates, np.exp(0.7j) * textbook(gates)),
                              (gates, np.exp(0.7j) * u), (other, u)):
        report = verify(graded, candidate)
        verdict, deviation, old_factors = old_verify(graded, candidate)
        assert (report.verdict, report.max_deviation) == (verdict, deviation)
        factors = phase_map(graded, candidate)
        assert factors == old_factors
        assert list(factors) == list(old_factors)
        assert all(type(k) is tuple and type(k[0]) is int and type(v) is complex
                   for k, v in factors.items())

    if all(g.is_not_family for g in gates):
        table = truth_table(gates, propagator=u)
        old = old_truth_table(u)
        assert table == old
        assert all(type(out) is int and type(amp) is complex for out, amp in table.values())
    else:
        # graded as a NOT-family gate, a UT-family unitary is no permutation: same refusal
        with pytest.raises(TruthTableError) as caught:
            truth_table(parse_gate_sequence(GRAMMAR_GATES[0]), propagator=u)
        with pytest.raises(TruthTableError, match=re.escape(str(caught.value))):
            old_truth_table(u)


# UT payloads with negative and large angles and phases
SCALAR_GATES = sequences() + ["UT:Q(-2.5,-0.7)", "CCUT:QR->S(-7.0,3.0)",
                              "CUT:S->R(100.0,-100.0);UT:R(-0.0,-3.141592653589793)"]


@pytest.mark.parametrize("text", SCALAR_GATES)
def test_scalar_math_is_bit_identical_to_numpy_scalars(text):
    rng = random.Random(text)
    gates = parse_gate_sequence(text)
    for g in gates:
        # the payload: the 2x2 block target_gate writes on every level pair it acts on
        u = target_gate(g)
        for pair in g.level_pairs():
            assert numpy_payload(g).tobytes() == u[np.ix_(pair, pair)].tobytes()
        assert numpy_target_gate(g).tobytes() == u.tobytes()
    sched = compile_gate(gates, exact_spectrum(SpinSystem(omegaQ=0.02, theta=0.6)), 1e-3)
    # the compiled tones, then each on the Y coil with a drawn, often negative, angle and phase
    drawn = dataclasses.replace(sched, groups=tuple(
        tuple(dataclasses.replace(t, axis="Y", angle=rng.uniform(-4 * np.pi, 4 * np.pi),
                                  phase=rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 2))
              for t in group) for group in sched.groups))
    for played in (sched, drawn):
        u = schedule_propagator(played)
        assert u.tobytes() == numpy_schedule_propagator(played).tobytes()
        for candidate in (u, np.exp(0.7j) * u, numpy_schedule_propagator(drawn)):
            report = verify(gates, candidate)
            verdict, deviation, old_factors = numpy_verify(gates, candidate)
            assert (report.verdict, report.max_deviation) == (verdict, deviation)
            assert list(phase_map(gates, candidate).items()) == list(old_factors.items())


def edge_systems(rng: random.Random):
    """Drawn systems, then angles at 0, pi/2 and pi, both q2 forms, a coupling past the
    labeling limit and one whose first-order levels overflow."""
    for _ in range(8):
        yield SpinSystem(omega0=10 ** rng.uniform(-1, 1), omegaQ=10 ** rng.uniform(-3, 0),
                         theta=rng.uniform(0, np.pi), phi=rng.uniform(-10, 10),
                         q2_form=rng.choice(Q2_FORMS))
    for theta in (0.0, np.pi / 2, np.pi):
        yield SpinSystem(omegaQ=0.02, theta=theta, phi=rng.choice((0.0, -np.pi, 2.5)),
                         q2_form=rng.choice(Q2_FORMS))
    yield SpinSystem(omegaQ=5.0, theta=1.0)
    yield SpinSystem(omega0=1e-300, omegaQ=1e300, theta=0.7, phi=1.0)


def outcome(call, *args):
    """The result of call(*args), or the type and message of the error it raised."""
    try:
        return call(*args)
    except (InputError, AmbiguousLabelingError, ForbiddenTransitionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", GRAMMAR_GATES)
def test_one_pass_compile_and_spectrum_are_bit_identical(text):
    rng = random.Random(text)
    gates = parse_gate_sequence(text)
    compiled = 0
    for sys in edge_systems(rng):
        assert quadrupole_hamiltonian(sys).tobytes() == old_quadrupole_hamiltonian(sys).tobytes()
        new, old = outcome(perturbative_spectrum, sys), outcome(old_first_order, sys)
        if isinstance(old, tuple) and len(old) == 2:   # the overflow error
            assert new == old
        else:
            assert new.energies.tobytes() == old[0].tobytes()
            assert new.states.tobytes() == old[1].tobytes() and new.warning == old[2]
        new, old = outcome(exact_spectrum, sys), old_outcome(sys)
        if isinstance(old, Exception):
            assert new == (type(old), str(old))
            continue
        assert new.energies.tobytes() == old[0].tobytes()
        assert new.states.tobytes() == old[1].tobytes()
        assert_same_table(transition_table(new), old_transition_table(new))
        old_spec = Spectrum(energies=old[0], states=old[1], method=new.method)
        # gamma: the bench's, none, a drawn one and one whose pulse length overflows
        for gamma in (1e-3, None, 10 ** rng.uniform(-5, -1), 5e-324):
            parameters = {"omegaQ": sys.omegaQ, "theta": sys.theta, "gammaHrf": gamma or 1e-3}
            sched = outcome(compile_gate, text, new, gamma, parameters)
            if gamma is None:   # a spectrum without a drive amplitude resolves no tone
                assert isinstance(sched, tuple) and sched[0] is InputError
                continue
            old_sched = outcome(old_compile_gate, text, old_spec, gamma, parameters)
            assert sched == old_sched
            if isinstance(sched, tuple):   # a forbidden pair at theta = 0, or an overflow
                continue
            compiled += 1
            assert format_schedule(sched) == format_schedule(old_sched)
            u = schedule_propagator(sched)
            assert u.tobytes() == numpy_schedule_propagator(old_sched).tobytes()
            report = verify(gates, u)
            verdict, deviation, factors = numpy_verify(gates, u)
            assert (report.verdict, report.max_deviation) == (verdict, deviation)
            assert list(phase_map(gates, u).items()) == list(factors.items())
    assert compiled > 0


def test_truth_table_of_a_real_permutation_keeps_complex_amplitudes():
    permutation = np.eye(DIM)[:, [0, 1, 2, 3, 4, 5, 7, 6]]
    table = truth_table("CCNOT:QR->S", propagator=permutation)
    assert table == old_truth_table(permutation)
    assert all(type(amp) is complex for _, amp in table.values())


# --- the labeling contract ----------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(CONTRACT, max_examples=300)
@given(omega_q=st.floats(0.0, 10.0), theta=st.floats(0.0, np.pi), phi=finite)
@example(omega_q=0.0, theta=0.0, phi=0.0)
@example(omega_q=10.0, theta=np.pi / 2, phi=0.0)
@example(omega_q=0.01, theta=0.5, phi=1e308)
def test_exact_spectrum_labels_cleanly_or_refuses(omega_q, theta, phi):
    try:   # SpinSystem refuses a phi whose 2*phi overflows
        sys = SpinSystem(omegaQ=omega_q, theta=theta, phi=phi)
        spec = exact_spectrum(sys)
    except (AmbiguousLabelingError, InputError):
        return
    assert np.isfinite(spec.energies).all()
    gram = spec.states.conj().T @ spec.states
    assert np.abs(gram - np.eye(DIM)).max() <= 1e-12
    gauge = np.sum(perturbative_spectrum(sys).states.conj() * spec.states, axis=0)
    assert (gauge.real > 0).all() and np.abs(gauge.imag).max() <= 1e-12
