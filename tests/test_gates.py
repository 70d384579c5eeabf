import itertools

import numpy as np
import pytest

from virtualspin import (DIM, GateGrammarError, GateSpec, InputError, parse_gate,
                         parse_gate_sequence, target_gate)

BITS = {"Q": 4, "R": 2, "S": 1}

ALL_NOT_FAMILY = (
    ["NOT:Q", "NOT:R", "NOT:S"]
    + [f"CNOT:{c}->{t}" for c, t in itertools.permutations("QRS", 2)]
    + ["CCNOT:QR->S", "CCNOT:QS->R", "CCNOT:RS->Q"])


def classical_flip(label: int, spec: GateSpec) -> int:
    """Independent truth-table oracle: flip the target bit iff all controls are 1."""
    control_mask = sum(BITS[c] for c in spec.controls)
    if (label & control_mask) == control_mask:
        return label ^ BITS[spec.target]
    return label


def test_ccnot_qr_s_matrix():
    u = target_gate(parse_gate("CCNOT:QR->S"))
    expected = np.eye(DIM, dtype=complex)
    expected[6, 6] = expected[7, 7] = 0
    expected[6, 7] = expected[7, 6] = 1
    assert np.array_equal(u, expected)


def test_not_s_swaps_adjacent_pairs():
    u = target_gate(parse_gate("NOT:S"))
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7)):
        assert u[a, b] == 1 and u[b, a] == 1 and u[a, a] == 0


def test_cnot_r_to_q_pairs():
    spec = parse_gate("CNOT:R->Q")
    assert spec.level_pairs() == [(2, 6), (3, 7)]
    u = target_gate(spec)
    assert u[2, 6] == u[6, 2] == u[3, 7] == u[7, 3] == 1
    assert u[0, 0] == u[1, 1] == u[4, 4] == u[5, 5] == 1


def test_all_not_family_truth_tables():
    # exhaustive check of the bit-flip semantics against the classical oracle
    for text in ALL_NOT_FAMILY:
        spec = parse_gate(text)
        u = target_gate(spec)
        assert np.array_equal(u, u.real)
        assert set(np.unique(u.real)) <= {0.0, 1.0}
        for label in range(DIM):
            column = u[:, label]
            assert abs(column.sum() - 1) < 1e-15
            assert int(np.argmax(np.abs(column))) == classical_flip(label, spec)


def test_not_family_involutions():
    for text in ALL_NOT_FAMILY:
        u = target_gate(parse_gate(text))
        assert np.allclose(u @ u, np.eye(DIM))


def test_ut_family_unitary_and_pi_limit():
    rng = np.random.default_rng(31)
    for kind, controls, target in (("UT", "", "S"), ("CUT", "R", "S"), ("CCUT", "QR", "S")):
        arrow = f"{controls}->" if controls else ""
        phi, f = rng.uniform(0, 2 * np.pi, size=2)
        u = target_gate(parse_gate(f"{kind}:{arrow}{target}({phi},{f})"))
        assert np.abs(u.conj().T @ u - np.eye(DIM)).max() < 1e-12
        # phi=pi, f=0 reduces to the NOT-family pattern up to the factor i
        u_pi = target_gate(parse_gate(f"{kind}:{arrow}{target}(3.141592653589793,0.0)"))
        not_kind = {"UT": "NOT", "CUT": "CNOT", "CCUT": "CCNOT"}[kind]
        flip = target_gate(parse_gate(f"{not_kind}:{arrow}{target}"))
        off = ~np.eye(DIM, dtype=bool)
        expected = flip.copy()
        expected[off & (flip != 0)] *= 1j
        assert np.abs(u_pi - expected).max() < 1e-12


def test_ccut_zero_angle_is_identity():
    u = target_gate(parse_gate("CCUT:QR->S(0.0,0.0)"))
    assert np.abs(u - np.eye(DIM)).max() == 0


def test_cut_quarter_turn_is_not_involution():
    u = target_gate(parse_gate(f"CUT:R->S({np.pi / 2},0.0)"))
    assert not np.allclose(u @ u, np.eye(DIM))


def test_gate_string_round_trip():
    strings = ALL_NOT_FAMILY + ["UT:S(1.2,0.4)", "CUT:S->Q(0.5,-0.25)",
                                "CCUT:QR->S(3.141592653589793,0.7)"]
    for text in strings:
        spec = parse_gate(text)
        assert parse_gate(str(spec)) == spec


def test_gate_grammar_errors():
    bad = ["", "TOFFOLI:QR->S", "CCNOT:QQ->S", "CCNOT:QR->Q", "CNOT:QR->S",
           "CCNOT:Q->S", "NOT:QR->S", "NOT:S(1,2)", "UT:S", "CUT:R->S(a,b)",
           "CCNOT:QRS->S", "CNOT:R→Q", "not:s"]
    for text in bad:
        with pytest.raises(GateGrammarError):
            parse_gate(text)


def test_gate_sequence_parsing():
    gates = parse_gate_sequence("NOT:S; CCNOT:QR->S")
    assert len(gates) == 2
    assert gates[0].kind == "NOT" and gates[1].kind == "CCNOT"
    with pytest.raises(GateGrammarError):
        parse_gate_sequence(" ; ")


def test_gatespec_validation():
    with pytest.raises(InputError):
        GateSpec(kind="CNOT", target="S", controls=frozenset())
    with pytest.raises(InputError):
        GateSpec(kind="NOT", target="S", phi=1.0, f=0.0)
    with pytest.raises(InputError):
        GateSpec(kind="CCUT", target="S", controls=frozenset("QR"), phi=1.0)


def test_gatespec_rejects_spins_outside_qrs():
    with pytest.raises(InputError, match="target must be one of"):
        GateSpec(kind="NOT", target="T")
    with pytest.raises(InputError, match="controls must be a subset"):
        GateSpec(kind="CNOT", target="S", controls=frozenset("X"))
