"""Radiative cooling of a spin ensemble through a microwave resonator.

Simulator and estimation toolkit: donor spin spectra vs magnetic field,
cavity-enhanced relaxation and effective spin temperature, thermal
polarization, wire-field coupling distributions, mean-field pulsed
dynamics, and the fitting/sensitivity estimators used to analyse them.
"""

__version__ = "0.1.0"

from .blochsim import (
    Acquire,
    Delay,
    EchoTrace,
    Ensemble,
    EnsembleState,
    Pulse,
    PulseSequence,
    cpmg,
    evolve,
    hahn_echo,
    init_ensemble,
    integrate_echo,
    inversion_recovery,
    phase_aligned_areas,
    pi_pulse_amplitude,
    run_sequence,
)
from .config import ExperimentConfig, parse_config, parse_config_text, serialize
from .coupling import (
    CouplingDistribution,
    FieldGrid,
    ImplantationProfile,
    WireGeometry,
    coupling_distribution,
    coupling_map,
    field_map,
    vacuum_current,
)
from .errors import (
    AllRatesZero,
    EmptyDistribution,
    EmptySupport,
    EmptyWindow,
    GridOverlapsConductor,
    InsufficientSpan,
    MissingLevel,
    NoConvergence,
    PurcellCoolError,
    SchemaError,
    StateCollision,
    StepUnderflow,
)
from .estimators import (
    FitResult,
    PsdModelParams,
    eta_vs_phonon,
    fit_exponential_recovery,
    fit_gaussian_decay,
    fit_psd,
    optimal_trep,
    psd_model,
    snr_argmax_x,
    snr_model,
)
from .hamiltonian import (
    FieldSpectrum,
    HermitianOperator,
    LabeledLevel,
    ResonantField,
    SpinSystemParams,
    Transition,
    build_hamiltonian,
    hyperfine_splitting,
    labeled_eigensystem,
    resonance_groups,
    spectrum_vs_field,
    transition_table,
)
from .ode import dormand_prince
from .optimize import levenberg_marquardt
from .polarization import (
    PopulationVector,
    approx_population_difference,
    boltzmann_populations,
    find_quasi_degenerate_pair,
    manifold_population_difference,
    population_difference,
)
from .thermal import (
    BathCoupling,
    CoolingResult,
    LoadScenario,
    ResonatorParams,
    ThermalState,
    bose_occupation,
    cavity_occupation,
    cooling_factor,
    effective_occupation,
    occupation_temperature,
    purcell_rate,
    spin_polarization,
    spin_relaxation_rate,
    spin_temperature,
)

__all__ = [name for name in dir() if not name.startswith("_")]
