"""Storage of single-photon wavepackets in a driven atom-cavity system
coupled to a non-Markovian (Lorentzian) bath.

The package designs the classical drive that absorbs a given input
envelope without reflection, and verifies the design with independent
forward solvers: the reduced memory-kernel equations, their broadband
(Markovian) limit, an adiabatic dark-state reduction, and a
brute-force discretized-bath oracle.

Exports load on first use (PEP 562), so importing the package, parsing
a config or rejecting a command line loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "dark_state": (
            "AdiabaticRun DarkComparison DarkDesign adiabatic_design adiabatic_simulate "
            "adiabaticity_margin compare_dark conservation_drift exact_dark_population"
        ),
        "dynamics": (
            "BathDiscretization DiscreteBathRun InitialState StorageMetrics Trajectory "
            "discretize_bath initial_modes simulate_discrete_bath simulate_markovian "
            "simulate_nonmarkovian storage_metrics"
        ),
        "errors": (
            "AngleDomain BandTooNarrow ConfigError DegeneratePulse GridMismatch "
            "InfeasibleDesign NegativeAccumulator NonFiniteState PhotonStoreError "
            "UnsupportedRegime Violation"
        ),
        "grid": "TimeGrid",
        "model": "InputPulse PhysicalParams builtin_packet future_drive sampled_packet",
        "pulse_design": (
            "DesignResult coupling_from_bandwidth design_drive design_drive_markovian "
            "excited_population"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        # a defining submodule, which the package used to import eagerly
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
