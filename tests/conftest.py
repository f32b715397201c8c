import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def blind_model():
    """Factory of random blind two-action models with ns states (seed ns),
    uniform start and gamma 0.9: each constraint has all ns states in its
    support."""
    from pomdp_geometry.model import PomdpModel

    def build(ns):
        gen = np.random.default_rng(ns)
        return PomdpModel(
            states=tuple(f"s{i + 1}" for i in range(ns)),
            observations=("o",),
            actions=("a1", "a2"),
            alpha=gen.dirichlet(np.ones(ns), size=(ns, 2)),
            beta=np.ones((ns, 1)),
            reward=gen.normal(size=(ns, 2)),
            gamma=0.9,
            mu=np.full(ns, 1.0 / ns),
        )

    return build


@pytest.fixture
def wide_blind_model(blind_model):
    """Blind 21-state two-action model: each constraint's monomial expansion
    would have 2^21 terms."""
    return blind_model(21)
