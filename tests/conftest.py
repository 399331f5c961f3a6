import pytest

from altwalk import lattice, verify
from altwalk.model import Model


@pytest.fixture(scope="session")
def reference_model():
    # a = b = 0.3 via |a1|^2 = 0.9, |a2|^2 = 0.1; all phases zero
    return Model(0.9, 0.1)


@pytest.fixture(scope="session")
def phased_model():
    return Model(0.7, 0.33, 0.3, -1.1, 0.5, 2.0, -0.7, 1.3)


@pytest.fixture(scope="session")
def degenerate_model():
    # |a1| = |a2| reaches a + b = 1: two-ellipse support collapses to one
    return Model(0.5, 0.5)


def _count_evolve_steps(mp):
    """Patch ``lattice.evolve`` through ``mp`` to record the step count of each call."""
    steps = []
    evolve = lattice.evolve

    def counting(model, state, t):
        steps.append(t)
        return evolve(model, state, t)

    mp.setattr(lattice, "evolve", counting)
    return steps


@pytest.fixture
def evolve_steps(monkeypatch):
    """The step count of each ``lattice.evolve`` call the test makes."""
    return _count_evolve_steps(monkeypatch)


def _record_squares(mp):
    """Patch ``lattice.position_distribution`` through ``mp`` to record the time of each
    snapshot it squares and return its classes read-only, so a reader writing into them
    would raise."""
    times = []
    square = lattice.position_distribution

    def recording(state):
        times.append(state.time)
        dist = square(state)
        for _, _, probs in dist.classes:
            probs.flags.writeable = False
        return dist

    mp.setattr(lattice, "position_distribution", recording)
    return times


@pytest.fixture
def squared_at(monkeypatch):
    """The time of each snapshot ``lattice.position_distribution`` squares in the test."""
    return _record_squares(monkeypatch)


# the reports of the reference coin's suite, in the order _CHECKS lists them
REFERENCE_REPORT_NAMES = [
    "unitarity", "lattice_vs_spectral", "roundtrip", "jacobian_fd", "jacobian_branch",
    "support_containment", "support_tightness", "char_triangle", "char_quadratures",
    "weak_limit", "weak_limit_trend", "weak_limit_escape", "weight_table",
]


@pytest.fixture(scope="session")
def reference_suite(reference_model):
    """``run_suite(reference_model, seed=3)`` at full size, run once per session.

    Returns the reports by name, the number of steps ``lattice.evolve`` took
    during the run and the times ``_record_squares`` records.
    """
    with pytest.MonkeyPatch.context() as mp:
        steps = _count_evolve_steps(mp)
        squared_at = _record_squares(mp)
        reports = verify.run_suite(reference_model, seed=3)
    names = [r.name for r in reports]
    assert names == REFERENCE_REPORT_NAMES
    assert names == [rep for reps in verify.CHECK_NAMES.values() for rep in reps
                     if rep != "support_ellipse_membership"]
    return {"reports": {r.name: r for r in reports}, "evolve_steps": sum(steps),
            "squared_at": squared_at}
