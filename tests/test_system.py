import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualspin import (DIM, SPIN, DriveSpec, DriveTone, GateSpec, InputError, PulseParams,
                         SpinSystem, Tone, build_hamiltonian, forbidden_scaling,
                         perturbative_spectrum, projector, quadrupole_hamiltonian)
from virtualspin.system import level, one_of, positive, real
from test_cli_contract import CONTRACT

m = np.arange(DIM) - SPIN


def test_zeeman_only_limit():
    for theta in (0.0, np.pi / 4, 1.1):
        h = build_hamiltonian(SpinSystem(omega0=1.0, omegaQ=0.0, theta=theta, phi=0.3))
        assert np.abs(h + SpinSystem.ops.Iz).max() == 0


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


@settings(CONTRACT, max_examples=200)
@given(omega_q=st.floats(1e-3, 10.0), theta=st.floats(0.0, np.pi), phi=st.floats(-1e6, 1e6))
def test_sin_squared_quadrupole_spectrum_does_not_depend_on_orientation(omega_q, theta, phi):
    # a rotated axial field-gradient tensor keeps its theta = 0 levels, omegaQ (2 m^2 - 21/2),
    # at every orientation; the default as-printed form does not (see the README)
    system = SpinSystem(omegaQ=omega_q, theta=theta, phi=phi, q2_form="sin-squared")
    levels = np.linalg.eigvalsh(quadrupole_hamiltonian(system))
    expected = omega_q * np.repeat([-10.0, -6.0, 2.0, 14.0], 2)
    assert np.abs(levels - expected).max() <= 1e-12 * omega_q


def test_phi_whose_double_overflows_is_refused():
    # e^{2i phi} of 2 phi = inf is NaN, which used to surface as a coupling overflow
    with pytest.raises(InputError, match=r"^phi = 1e\+308 "):
        SpinSystem(phi=1e308)
    assert np.isfinite(quadrupole_hamiltonian(SpinSystem(theta=0.5, phi=8e307))).all()


def test_operator_set_is_fixed_not_a_parameter():
    with pytest.raises(TypeError):
        SpinSystem(ops=SpinSystem.ops)
    assert [f.name for f in dataclasses.fields(SpinSystem)] == [
        "omega0", "omegaQ", "theta", "phi", "q2_form"]
    assert SpinSystem(theta=0.4).ops is SpinSystem.ops


# --- the input rules: one per field kind, each naming the field it refuses ---------

FINITE = [0, -3, 1.5, -0.0, 10**300, 1e308, np.float32(0.5), np.float64(-2.0), np.int8(-4),
          np.uint64(7)]


@pytest.mark.parametrize("value", FINITE, ids=lambda value: type(value).__name__)
def test_real_returns_every_finite_number_unchanged(value):
    assert real(value, "x") is value


REFUSED = [
    (True, "x must be a number, got True"),
    (np.bool_(False), "x must be a number, got "),
    ("1.5", "x must be a number, got '1.5'"),
    (None, "x must be a number, got None"),
    ([1.0], "x must be a number, got [1.0]"),
    (1j, "x must be a number, got 1j"),
    (math.inf, "x must be finite, got inf"),
    (-math.inf, "x must be finite, got -inf"),
    (math.nan, "x must be finite, got nan"),
    (np.float32("inf"), "x must be finite, got inf"),
    (np.float64("nan"), "x must be finite, got nan"),
    (10**400, "x: int too large to convert to float"),
]


@pytest.mark.parametrize("value, message", REFUSED, ids=[type(v).__name__ for v, _ in REFUSED])
def test_real_refuses_every_other_value_naming_the_field(value, message):
    with pytest.raises(InputError, match="^" + re.escape(message)):
        real(value, "x")


def test_positive_is_real_and_above_zero():
    for value in (5e-324, 1, np.float32(2.0)):
        assert positive(value, "x") is value
    for value, message in ((0, "x must be positive, got 0"), (-0.0, "x must be positive"),
                           (-1.5, "x must be positive"), (math.inf, "x must be finite"),
                           (True, "x must be a number")):
        with pytest.raises(InputError, match="^" + re.escape(message)):
            positive(value, "x")


def test_level_is_an_integer_label_in_range():
    for value in (0, DIM - 1, np.int64(3), np.uint8(7)):
        assert level(value, "x") is value
    for value, message in ((DIM, f"x must lie in 0..{DIM - 1}, got {DIM}"),
                           (-1, "x must lie in"), (True, "x must be an integer, got True"),
                           (3.0, "x must be an integer, got 3.0"),
                           (np.float64(3), "x must be an integer"),
                           ("3", "x must be an integer, got '3'"), (None, "x must be an integer")):
        with pytest.raises(InputError, match="^" + re.escape(message)):
            level(value, "x")


def test_one_of_is_a_member_of_its_allowed_values():
    assert one_of("Y", "x", ("X", "Y")) == "Y"
    for value in ("Z", "x", 1, None):
        message = f"x must be one of ('X', 'Y'), got {value!r}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            one_of(value, "x", ("X", "Y"))


# each builds a library object from one bad field; the InputError opens with that field
LIBRARY_EDGES = [
    pytest.param(lambda: Tone(6.0, 7, math.pi), "tone upper", id="Tone-float-level"),
    pytest.param(lambda: Tone(6, 7, True), "tone angle", id="Tone-bool-angle"),
    pytest.param(lambda: Tone(6, 7, "3.14"), "tone angle", id="Tone-str-angle"),
    pytest.param(lambda: Tone(6, 7, 10**400), "tone angle", id="Tone-huge-int-angle"),
    pytest.param(lambda: PulseParams(True), "gammaHrf", id="PulseParams-bool"),
    pytest.param(lambda: SpinSystem(omega0="1"), "omega0", id="SpinSystem-str-omega0"),
    pytest.param(lambda: SpinSystem(omegaQ=10**400), "omegaQ", id="SpinSystem-huge-int-omegaQ"),
    pytest.param(lambda: SpinSystem(phi=np.float64(1e308)), "phi", id="SpinSystem-numpy-phi"),
    pytest.param(lambda: DriveSpec((), "1"), "duration", id="DriveSpec-str-duration"),
    pytest.param(lambda: DriveTone(1.0, 0.0), "drive amplitude", id="DriveTone-zero-amplitude"),
    pytest.param(lambda: GateSpec("UT", "Q", phi=True, f=0.0), "UT payload (phi, f)",
                 id="GateSpec-bool-payload"),
    pytest.param(lambda: projector(6.0, 7), "projector m", id="projector-float-index"),
    pytest.param(lambda: forbidden_scaling(SpinSystem(theta=0.5), (5.0, 7), [1e-3, 1e-2]),
                 "pair label", id="forbidden_scaling-float-label"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build, field", LIBRARY_EDGES)
def test_library_edges_raise_an_input_error_naming_the_field(build, field):
    with pytest.raises(InputError, match="^" + re.escape(field) + "[ :]"):
        build()


def test_spin_system_keeps_the_float_of_each_float32_parameter():
    # a float32 omegaQ kept sys.omegaQ * q0 in float32, a float32 phi the q_+-2 phase in complex64
    values = {"omega0": 1.1, "omegaQ": 0.05, "theta": 0.5, "phi": 0.3}
    for name, value in values.items():
        narrow = SpinSystem(**{**values, name: np.float32(value)})
        wide = SpinSystem(**{**values, name: float(np.float32(value))})
        assert type(getattr(narrow, name)) is float
        assert np.array_equal(build_hamiltonian(narrow), build_hamiltonian(wide))
        assert np.array_equal(perturbative_spectrum(narrow).energies,
                              perturbative_spectrum(wide).energies)


def test_gate_payload_is_stored_as_the_float_the_gate_string_reads_back():
    gate = GateSpec("UT", "Q", phi=np.float32(0.1), f=10**300)
    assert type(gate.phi) is float and type(gate.f) is float
    assert str(gate) == f"UT:Q({float(np.float32(0.1))!r},1e+300)"
