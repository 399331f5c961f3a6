"""Alternate-coin quantum walk on the two-dimensional integer lattice.

Exact unitary evolution (lattice and Fourier pictures), the long-time
velocity density on its two-ellipse support, and a verification harness
that cross-checks the two against each other.
"""

from .model import (
    CoinParameters,
    DerivedConstants,
    Model,
    ParameterDomainError,
    build_model,
    derive_constants,
)
from .lattice import (
    LatticeState,
    PositionDistribution,
    Moments,
    initial_state_delta,
    initial_state_from_sites,
    evolve,
    trajectory,
    position_distribution,
    moments,
)
from .spectral import (
    DegeneracyError,
    InitialSpectrum,
    eigenvalues,
    group_velocity,
    fourier_initial,
    spectral_reconstruct,
    band_weights,
    numeric_char_function,
)
from .limit import (
    DensityGrid,
    IntegralResult,
    OutsideSupportError,
    support_contains,
    support_corners,
    support_boundary,
    jacobian_forward,
    jacobian_inverse,
    density,
    density_grid,
    integrate_density,
    reference_ellipse_grover,
)
from .verify import ComparisonReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "CoinParameters",
    "DerivedConstants",
    "Model",
    "ParameterDomainError",
    "build_model",
    "derive_constants",
    "LatticeState",
    "PositionDistribution",
    "Moments",
    "initial_state_delta",
    "initial_state_from_sites",
    "evolve",
    "trajectory",
    "position_distribution",
    "moments",
    "DegeneracyError",
    "InitialSpectrum",
    "eigenvalues",
    "group_velocity",
    "fourier_initial",
    "spectral_reconstruct",
    "band_weights",
    "numeric_char_function",
    "DensityGrid",
    "IntegralResult",
    "OutsideSupportError",
    "support_contains",
    "support_corners",
    "support_boundary",
    "jacobian_forward",
    "jacobian_inverse",
    "density",
    "density_grid",
    "integrate_density",
    "reference_ellipse_grover",
    "ComparisonReport",
    "run_suite",
    "__version__",
]
