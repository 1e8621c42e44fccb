"""Sympathetic cooling of two trapped atomic species.

An analytical energy-budget model for evaporating a buffer species that
carries away the heat of a co-trapped target species, a regime map for
where either species reaches quantum degeneracy, a thermal-contact model
for the interspecies collision and heat-flow rates (including the
gravitational-sag overlap penalty), a two-temperature trajectory
integrator, and a from-scratch direct simulation Monte Carlo kinetic
solver used as the cross-check oracle.
"""

from .budget import (BudgetParams, CoolingOutcome, Region, buffer_psd_max,
                     classify, critical_numbers, equal_psd,
                     phase_diagram, phase_space_density, psd_curves,
                     target_psd_max, temperature_of)
from .constants import (AMU, BEC_THRESHOLD, HBAR, K_B, MASS_LI6, MASS_RB87,
                        MU_B, PSD_PREFACTOR, constants_table)
from .contact import (TwoGasState, energy_exchange_rate, equivalent_mass,
                      interspecies_collision_rate,
                      interspecies_thermalization_rate, overlap_factor,
                      rms_sizes, single_species_collision_rate,
                      transfer_efficiency)
from .dsmc import (DsmcConfig, DsmcResult, ParticleEnsemble, collide_pair,
                   fit_relaxation, kinetic_temperature, run,
                   sample_equilibrium, total_energy)
from .errors import (AntiTrapped, CellUnderflowWarning, ConfigError,
                     DomainError, InsufficientDecay, NoInteriorPeak,
                     RadialUnconfined, StepFailure, SympcoolError)
from .physics import (SpeciesState, TrapConfig, TrapFrequencies,
                      trap_frequencies)
from .trajectory import (RampDriven, RateDriven, TrajectoryConfig,
                         TrajectoryEvent, TrajectoryPoint, detect_events,
                         region_from_events, simulate_with_audit)

__version__ = "0.1.0"

__all__ = [
    "AMU", "AntiTrapped", "BEC_THRESHOLD", "BudgetParams",
    "CellUnderflowWarning", "ConfigError", "CoolingOutcome", "DomainError",
    "DsmcConfig", "DsmcResult", "HBAR", "InsufficientDecay", "K_B",
    "MASS_LI6", "MASS_RB87",
    "MU_B", "NoInteriorPeak", "PSD_PREFACTOR", "ParticleEnsemble",
    "RadialUnconfined", "RampDriven", "RateDriven", "Region", "SpeciesState",
    "StepFailure", "SympcoolError", "TrajectoryConfig", "TrajectoryEvent",
    "TrajectoryPoint", "TrapConfig", "TrapFrequencies", "TwoGasState",
    "buffer_psd_max", "classify", "collide_pair", "constants_table",
    "critical_numbers", "detect_events", "energy_exchange_rate",
    "equal_psd", "equivalent_mass", "fit_relaxation",
    "interspecies_collision_rate", "interspecies_thermalization_rate",
    "kinetic_temperature", "overlap_factor", "phase_diagram",
    "phase_space_density", "psd_curves", "region_from_events",
    "rms_sizes", "run", "sample_equilibrium", "simulate_with_audit",
    "single_species_collision_rate", "target_psd_max", "temperature_of",
    "total_energy", "transfer_efficiency", "trap_frequencies",
]
