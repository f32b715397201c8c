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
def wide_blind_model():
    """Blind 21-state two-action model: each constraint has all 21 states in
    its support, so its monomial expansion would have 2^21 terms."""
    from pomdp_geometry.model import PomdpModel

    ns = 21
    gen = np.random.default_rng(21)
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
