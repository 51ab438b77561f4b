"""Storage of single-photon wavepackets in a driven atom-cavity system
coupled to a non-Markovian (Lorentzian) bath.

The package designs the classical drive that absorbs a given input
envelope without reflection, and verifies the design with independent
forward solvers: the reduced memory-kernel equations, their broadband
(Markovian) limit, an adiabatic dark-state reduction, and a
brute-force discretized-bath oracle.
"""

from .dark_state import (
    AdiabaticRun,
    DarkComparison,
    DarkDesign,
    adiabatic_design,
    adiabatic_simulate,
    adiabaticity_margin,
    compare_dark,
    conservation_drift,
    exact_dark_population,
)
from .dynamics import (
    BathDiscretization,
    DiscreteBathRun,
    InitialState,
    StorageMetrics,
    Trajectory,
    discretize_bath,
    initial_modes,
    simulate_discrete_bath,
    simulate_markovian,
    simulate_nonmarkovian,
    storage_metrics,
)
from .errors import (
    AngleDomain,
    BandTooNarrow,
    ConfigError,
    DegeneratePulse,
    GridMismatch,
    InfeasibleDesign,
    NegativeAccumulator,
    NonFiniteState,
    PhotonStoreError,
    UnsupportedRegime,
    Violation,
)
from .grid import TimeGrid
from .model import (
    InputPulse,
    PhysicalParams,
    builtin_packet,
    future_drive,
    sampled_packet,
)
from .pulse_design import (
    DesignResult,
    coupling_from_bandwidth,
    design_drive,
    design_drive_markovian,
    excited_population,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticRun",
    "AngleDomain",
    "BandTooNarrow",
    "BathDiscretization",
    "ConfigError",
    "DarkComparison",
    "DarkDesign",
    "DegeneratePulse",
    "DesignResult",
    "DiscreteBathRun",
    "GridMismatch",
    "InfeasibleDesign",
    "InitialState",
    "InputPulse",
    "NegativeAccumulator",
    "NonFiniteState",
    "PhotonStoreError",
    "PhysicalParams",
    "StorageMetrics",
    "TimeGrid",
    "Trajectory",
    "UnsupportedRegime",
    "Violation",
    "adiabatic_design",
    "adiabatic_simulate",
    "adiabaticity_margin",
    "builtin_packet",
    "compare_dark",
    "conservation_drift",
    "coupling_from_bandwidth",
    "design_drive",
    "design_drive_markovian",
    "discretize_bath",
    "exact_dark_population",
    "excited_population",
    "future_drive",
    "initial_modes",
    "sampled_packet",
    "simulate_discrete_bath",
    "simulate_markovian",
    "simulate_nonmarkovian",
    "storage_metrics",
]
