import numpy as np

from virtualspin import DIM, SPIN, SpinSystem

ops = SpinSystem.ops
m = np.arange(DIM) - SPIN


def test_iz_diagonal_is_m_ladder():
    assert ops.Iz.shape == (DIM, DIM) == (8, 8)
    assert np.array_equal(np.diag(ops.Iz).real, m)
    assert np.abs(ops.Iz - np.diag(np.diag(ops.Iz))).max() == 0


def test_ladder_formula_for_ix_elements():
    # <chi_{m+1}|Ix|chi_m> = sqrt(I(I+1) - m(m+1))/2, zero otherwise
    for row in range(DIM):
        for col in range(DIM):
            if abs(row - col) == 1:
                k = min(row, col)
                expected = np.sqrt(SPIN * (SPIN + 1) - m[k] * (m[k] + 1)) / 2
                assert abs(ops.Ix[row, col] - expected) < 1e-14
            else:
                assert ops.Ix[row, col] == 0
    assert abs(ops.Ix[6, 7] - np.sqrt(7) / 2) < 1e-14
    assert abs(ops.Ix[6, 7] - 1.3228757) < 1e-6


def test_casimir_brute_force_cross_check():
    # independent check of the ladder normalization: Ix^2+Iy^2+Iz^2 = I(I+1)
    casimir = ops.Ix @ ops.Ix + ops.Iy @ ops.Iy + ops.Iz @ ops.Iz
    assert np.abs(casimir - SPIN * (SPIN + 1) * np.eye(DIM)).max() < 1e-12


def test_su2_commutators():
    assert np.abs(ops.Ix @ ops.Iy - ops.Iy @ ops.Ix - 1j * ops.Iz).max() < 1e-12
    assert np.abs(ops.Iy @ ops.Iz - ops.Iz @ ops.Iy - 1j * ops.Ix).max() < 1e-12
    assert np.abs(ops.Iz @ ops.Ix - ops.Ix @ ops.Iz - 1j * ops.Iy).max() < 1e-12


def test_ladder_operators_consistent():
    assert np.abs(ops.Iplus - (ops.Ix + 1j * ops.Iy)).max() == 0
    assert np.abs(ops.Iminus - ops.Iplus.conj().T).max() == 0


def test_hermiticity():
    for a in (ops.Ix, ops.Iy, ops.Iz):
        assert np.abs(a - a.conj().T).max() < 1e-15
