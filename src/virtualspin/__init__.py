"""Three-qubit logic gates on a single spin-7/2 particle.

Three virtual spin-1/2 qubits Q, R, S are encoded in the eight Zeeman +
quadrupole levels of one nuclear spin-7/2; every gate of the universal
set (NOT, CNOT, CCNOT and their unitary generalizations UT, CUT, CCUT)
compiles to a single multi-frequency resonant RF pulse.  The package
builds the spin Hamiltonian and its spectra, compiles gates to pulse
schedules, simulates them both in the idealized two-level-pulse model and
by exact time-dependent integration, and verifies the resulting
propagators against the textbook gate matrices.
"""

from .compiler import (EquivalenceReport, PulseSchedule, compile_gate,
                       format_schedule, parse_schedule, resolve_schedule,
                       schedule_propagator, truth_table, verify)
from .errors import (AmbiguousLabelingError, DegenerateFitError,
                     ForbiddenTransitionError, GateGrammarError, InputError,
                     OverlappingTonesError, ResolutionError,
                     ScheduleFormatError, TruthTableError, VirtualSpinError)
from .gates import GateSpec, parse_gate, parse_gate_sequence, target_gate
from .pulses import PulseParams, Tone, multi_tone_propagator, projector, pulse_duration
from .spectrum import (ScalingFit, Spectrum, Transition, drive_elements, exact_spectrum,
                       forbidden_scaling, perturbative_spectrum, transition_table)
from .system import DIM, SPIN, SpinOperators, SpinSystem, build_hamiltonian, quadrupole_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabelingError", "DegenerateFitError", "DIM", "DriveSpec",
    "DriveTone", "EquivalenceReport", "ForbiddenTransitionError",
    "GateGrammarError", "GateSpec", "InputError", "IntegrationConfig",
    "OverlappingTonesError", "PulseParams", "PulseSchedule",
    "ResolutionError", "ScalingFit", "ScheduleFormatError",
    "ScheduleSimulation", "SPIN", "SpinOperators", "SpinSystem", "Spectrum",
    "Tone", "Transition", "TruthTableError",
    "VirtualSpinError", "build_hamiltonian", "compile_gate",
    "drive_elements", "evolve", "exact_spectrum",
    "forbidden_scaling", "format_schedule", "interaction_propagator",
    "multi_tone_propagator", "parse_gate", "parse_gate_sequence", "parse_schedule",
    "perturbative_spectrum", "projector", "pulse_duration",
    "quadrupole_hamiltonian", "resolve_schedule",
    "rwa_deviation", "schedule_propagator", "simulate_schedule", "target_gate",
    "transition_table", "truth_table", "verify",
]

# the integrator's names, loaded with .dynamics on first lookup, so a process that
# never integrates (most CLI calls) never compiles it
_DYNAMICS = frozenset({"DriveSpec", "DriveTone", "IntegrationConfig", "ScheduleSimulation",
                       "evolve", "interaction_propagator", "rwa_deviation", "simulate_schedule"})


def __getattr__(name):
    # looked up anew on every call, never stored here: a tracer that swaps
    # virtualspin.dynamics.<name> is then seen through the package name too
    if name in _DYNAMICS or name == "dynamics":
        # not `from . import dynamics`: that form looks the name up on this
        # package first, which would land back here
        import virtualspin.dynamics as dynamics
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_DYNAMICS, "dynamics"})
