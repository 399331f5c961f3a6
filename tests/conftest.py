import numpy as np
import pytest

from altwalk import lattice
from altwalk.model import CoinParameters, build_model


@pytest.fixture(scope="session")
def reference_model():
    # a = b = 0.3 via |a1|^2 = 0.9, |a2|^2 = 0.1; all phases zero
    return build_model(CoinParameters.from_squared_moduli(0.9, 0.1))


@pytest.fixture(scope="session")
def phased_model():
    return build_model(CoinParameters.from_squared_moduli(
        0.7, 0.33, 0.3, -1.1, 0.5, 2.0, -0.7, 1.3))


@pytest.fixture(scope="session")
def degenerate_model():
    # |a1| = |a2| reaches a + b = 1: two-ellipse support collapses to one
    return build_model(CoinParameters.from_squared_moduli(0.5, 0.5))


@pytest.fixture(scope="session")
def long_run(reference_model):
    """Reference walk from the origin with spinor (1, 0); snapshots at 100/300/500."""
    state0 = lattice.initial_state_delta(np.array([1.0, 0.0]))
    snapshots = {}
    for state in lattice.trajectory(reference_model, state0, (100, 300, 500)):
        snapshots[state.time] = lattice.position_distribution(state)
    return {"snapshots": snapshots, "final_norm_sq": state.norm_sq()}
