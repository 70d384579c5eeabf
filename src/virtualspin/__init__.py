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
from .dynamics import (DriveSpec, DriveTone, IntegrationConfig, ScalingFit,
                       ScheduleSimulation, evolve, forbidden_scaling,
                       interaction_propagator, rwa_deviation,
                       simulate_schedule)
from .errors import (AmbiguousLabelingError, DegenerateFitError,
                     ForbiddenTransitionError, GateGrammarError, InputError,
                     OverlappingTonesError, ResolutionError,
                     ScheduleFormatError, TruthTableError, VirtualSpinError)
from .gates import (GateSpec, VirtualLabel, decode, encode, parse_gate,
                    parse_gate_sequence, target_gate)
from .operators import DIM, SPIN, SpinOperators, make_spin_operators
from .pulses import (PulseParams, Projector, Tone, multi_tone_propagator,
                     projector, pulse_duration, pulse_propagator)
from .spectrum import (Spectrum, Transition, drive_elements, exact_spectrum,
                       perturbative_spectrum, transition_table)
from .system import SpinSystem, build_hamiltonian, quadrupole_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "AmbiguousLabelingError", "DegenerateFitError", "DIM", "DriveSpec",
    "DriveTone", "EquivalenceReport", "ForbiddenTransitionError",
    "GateGrammarError", "GateSpec", "InputError", "IntegrationConfig",
    "OverlappingTonesError", "Projector", "PulseParams", "PulseSchedule",
    "ResolutionError", "ScalingFit", "ScheduleFormatError",
    "ScheduleSimulation", "SPIN", "SpinOperators", "SpinSystem", "Spectrum",
    "Tone", "Transition", "TruthTableError",
    "VirtualLabel", "VirtualSpinError", "build_hamiltonian", "compile_gate",
    "decode", "drive_elements", "encode", "evolve", "exact_spectrum",
    "forbidden_scaling", "format_schedule", "interaction_propagator",
    "make_spin_operators", "multi_tone_propagator",
    "parse_gate", "parse_gate_sequence", "parse_schedule",
    "perturbative_spectrum", "projector", "pulse_duration", "pulse_propagator",
    "quadrupole_hamiltonian", "resolve_schedule",
    "rwa_deviation", "schedule_propagator", "simulate_schedule", "target_gate",
    "transition_table", "truth_table", "verify",
]
