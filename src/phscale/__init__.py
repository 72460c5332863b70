"""Closed-form scale functions and fluctuation identities for spectrally
negative Levy processes with phase-type jumps, truncation bounds for the
beta-family, and a Monte Carlo first-passage oracle."""

__version__ = "0.1.0"

from .models import (
    HyperExpDist,
    PhaseTypeRepr,
    SnLevyModel,
    builtin_model,
    load_model_file,
    validate_model,
)
from .roots import RootDecomposition, find_roots, find_zeta
from .scale import ScaleFunction, boundary_identities, build_scale
from .wiener_hopf import partial_fraction_coefficients, wh_factor_minus
from .fluctuation import (
    IntervalPair,
    down_exit,
    down_exit_unbounded,
    joint_overshoot_undershoot,
    overshoot_density,
    undershoot_density,
    up_exit,
)
from .meromorphic import (
    BetaFamilyParams,
    TruncatedMero,
    beta_psi,
    scale_bounds,
    truncated_coefficients,
    w_bounds,
    w_prime_bounds,
    z_bounds,
)
from .mc import (
    HistogramEstimate,
    SimulationEstimate,
    simulate_overshoot_undershoot,
    simulate_two_sided_exit,
)

__all__ = [
    "BetaFamilyParams",
    "HistogramEstimate",
    "HyperExpDist",
    "IntervalPair",
    "PhaseTypeRepr",
    "RootDecomposition",
    "ScaleFunction",
    "SimulationEstimate",
    "SnLevyModel",
    "TruncatedMero",
    "beta_psi",
    "boundary_identities",
    "build_scale",
    "builtin_model",
    "down_exit",
    "down_exit_unbounded",
    "find_roots",
    "find_zeta",
    "joint_overshoot_undershoot",
    "load_model_file",
    "overshoot_density",
    "partial_fraction_coefficients",
    "scale_bounds",
    "simulate_overshoot_undershoot",
    "simulate_two_sided_exit",
    "truncated_coefficients",
    "undershoot_density",
    "up_exit",
    "validate_model",
    "w_bounds",
    "w_prime_bounds",
    "wh_factor_minus",
    "z_bounds",
]
