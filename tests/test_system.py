import dataclasses

import numpy as np
import pytest

from virtualspin import (DIM, SPIN, InputError, SpinSystem, build_hamiltonian,
                         make_spin_operators, quadrupole_hamiltonian)

m = np.arange(DIM) - SPIN


def test_zeeman_only_limit():
    for theta in (0.0, np.pi / 4, 1.1):
        h = build_hamiltonian(SpinSystem(omega0=1.0, omegaQ=0.0, theta=theta, phi=0.3))
        assert np.abs(h + make_spin_operators().Iz).max() == 0


def test_theta_zero_is_diagonal_with_q0_shifts():
    # q_+-1 = q_+-2 = 0 and q0 = 2 at theta=0, so H_MM = -m + 2*omegaQ*(m^2 - 21/4)
    omega_q = 0.01
    h = build_hamiltonian(SpinSystem(omega0=1.0, omegaQ=omega_q, theta=0.0))
    expected = -m + 2 * omega_q * (m ** 2 - 21 / 4)
    assert np.abs(h - np.diag(expected)).max() < 1e-15


def test_hermiticity_over_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(100):
        sys = SpinSystem(omega0=1.0,
                         omegaQ=float(rng.uniform(0, 0.5)),
                         theta=float(rng.uniform(0, np.pi)),
                         phi=float(rng.uniform(-np.pi, np.pi)))
        h = build_hamiltonian(sys)
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_trace_is_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = SpinSystem(omegaQ=float(rng.uniform(0, 0.3)),
                         theta=float(rng.uniform(0, np.pi)),
                         phi=float(rng.uniform(-np.pi, np.pi)))
        assert abs(np.trace(build_hamiltonian(sys))) < 1e-10


def test_parameter_validation():
    with pytest.raises(InputError):
        SpinSystem(omega0=0.0)
    with pytest.raises(InputError):
        SpinSystem(omega0=-1.0)
    with pytest.raises(InputError):
        SpinSystem(omegaQ=-0.1)
    with pytest.raises(InputError):
        SpinSystem(theta=-0.1)
    with pytest.raises(InputError):
        SpinSystem(theta=np.pi + 0.1)
    with pytest.raises(InputError):
        SpinSystem(q2_form="bogus")
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("omega0", "omegaQ", "theta", "phi"):
            with pytest.raises(InputError):
                SpinSystem(**{name: bad})


def test_q2_form_switch():
    base = dict(omega0=1.0, omegaQ=0.05, theta=np.pi / 5, phi=0.2)
    printed = quadrupole_hamiltonian(SpinSystem(**base, q2_form="as-printed"))
    squared = quadrupole_hamiltonian(SpinSystem(**base, q2_form="sin-squared"))
    assert np.abs(printed - squared).max() > 1e-4
    assert np.abs(squared - squared.conj().T).max() < 1e-12
    # the two forms agree wherever sin(2 theta) = sin^2(theta), e.g. theta = 0
    base["theta"] = 0.0
    printed0 = quadrupole_hamiltonian(SpinSystem(**base, q2_form="as-printed"))
    squared0 = quadrupole_hamiltonian(SpinSystem(**base, q2_form="sin-squared"))
    assert np.abs(printed0 - squared0).max() == 0


def test_phi_whose_double_overflows_is_refused():
    # e^{2i phi} of 2 phi = inf is NaN, which used to surface as a coupling overflow
    with pytest.raises(InputError, match=r"^phi = 1e\+308 "):
        SpinSystem(phi=1e308)
    assert np.isfinite(quadrupole_hamiltonian(SpinSystem(theta=0.5, phi=8e307))).all()


def test_operator_set_is_fixed_not_a_parameter():
    with pytest.raises(TypeError):
        SpinSystem(ops=make_spin_operators())
    assert [f.name for f in dataclasses.fields(SpinSystem)] == [
        "omega0", "omegaQ", "theta", "phi", "q2_form"]
    assert SpinSystem(theta=0.4).ops is make_spin_operators()
