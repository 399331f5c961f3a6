import pytest

import altwalk
from altwalk import lattice, limit, spectral

# the package's public names; adding or removing one is a deliberate API change
PUBLIC = [
    "CoinParameters", "DerivedConstants", "Model", "ParameterDomainError", "build_model",
    "derive_constants",
    "LatticeState", "PositionDistribution", "Moments", "initial_state_delta",
    "initial_state_from_sites", "evolve", "trajectory", "position_distribution",
    "moments",
    "DegeneracyError", "InitialSpectrum", "eigenvalues", "group_velocity", "fourier_initial",
    "spectral_reconstruct", "band_weights", "numeric_char_function",
    "DensityGrid", "IntegralResult", "OutsideSupportError", "support_contains",
    "support_corners", "support_boundary", "jacobian_forward", "jacobian_inverse", "density",
    "density_grid", "integrate_density", "reference_ellipse_grover",
    "ComparisonReport", "run_suite", "__version__",
]

DELETED = ["Branch", "BranchError", "classify_branch", "inverse_map", "EigenSystem",
           "eigensystem", "bloch_matrix", "spectral_evolve", "write_state_binary",
           "read_state_binary", "forward_map", "step", "tau_of"]


def test_public_names():
    assert altwalk.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(altwalk, name) is not None


@pytest.mark.parametrize("module", [altwalk, lattice, limit, spectral],
                         ids=lambda m: m.__name__)
def test_deleted_names_stay_deleted(module):
    assert [name for name in DELETED if hasattr(module, name)] == []
    for name in module.__all__:
        getattr(module, name)
