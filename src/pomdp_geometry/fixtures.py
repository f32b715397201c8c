"""Small example models used throughout the tests, scripts and documentation.

All three are fixed once and for all: the `three_state_model` arrays were
drawn randomly (strictly positive, generic) and then frozen as literals so
that results are reproducible independently of any RNG implementation.
"""

from __future__ import annotations

import numpy as np

from .model import PomdpModel, parse_graph_model

GRAPH_BLIND_THREE_STATE = """\
# Blind controller: three states, two actions, one observation.
# Rewards make a1 attractive in s1 and ruinous in s2.
gamma: 0.9
states: s1 s2 s3
actions: a1 a2
beta: blind
mu: uniform
s1 a1 -> s1   5
s1 a2 -> s3   0
s2 a1 -> s1 -30
s2 a2 -> s2  30
s3 a1 -> s1   0
s3 a2 -> s2  -5
"""


def two_state_model(mu=None) -> PomdpModel:
    """Two states, two actions, two observations; action a_k jumps to s_k.

    The observation kernel reveals s1 exactly but confounds s2 with a coin
    flip; the reward pays for playing a_k in s_k.  gamma = 1/2 and mu is
    uniform unless overridden.
    """
    alpha = np.zeros((2, 2, 2))
    alpha[:, 0, 0] = 1.0
    alpha[:, 1, 1] = 1.0
    beta = np.array([[1.0, 0.0], [0.5, 0.5]])
    reward = np.array([[1.0, 0.0], [0.0, 1.0]])
    if mu is None:
        mu = np.array([0.5, 0.5])
    return PomdpModel(("s1", "s2"), ("o1", "o2"), ("a1", "a2"),
                      alpha, beta, reward, 0.5, np.asarray(mu, dtype=float))


def blind_three_state_model(mu=None, gamma: float = 0.9) -> PomdpModel:
    """`GRAPH_BLIND_THREE_STATE`: three states, two actions, a single (blind) observation.

    Deterministic transitions: a1 moves every state to s1 (a self-loop at
    s1 paying +5, a catastrophic -30 exit from s2), a2 cycles
    s1 -> s3 -> s2 and then self-loops at s2 paying +30.  mu is uniform
    unless overridden.
    """
    model = parse_graph_model(GRAPH_BLIND_THREE_STATE)
    if mu is None:
        mu = model.mu
    return model.replace(mu=np.asarray(mu, dtype=float), gamma=float(gamma))


def three_state_model() -> PomdpModel:
    """Three states / observations / two actions with an invertible
    triangular observation kernel and generic strictly positive transitions.

    o1 identifies s1; o2 confounds s1, s2; o3 confounds all three states.
    Transitions and the initial distribution are strictly positive, so every
    policy visits every state.
    """
    alpha = np.array([
        [[0.342017, 0.322728, 0.335255],
         [0.449931, 0.069331, 0.480738]],
        [[0.232884, 0.246445, 0.520671],
         [0.368358, 0.339654, 0.291988]],
        [[0.308929, 0.595960, 0.095111],
         [0.664292, 0.171764, 0.163944]],
    ])
    beta = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    ])
    reward = np.array([
        [-0.423628, 0.822083],
        [0.632971, -0.181288],
        [-0.552611, -1.313049],
    ])
    mu = np.array([0.15033, 0.775638, 0.074032])
    return PomdpModel(("s1", "s2", "s3"), ("o1", "o2", "o3"), ("a1", "a2"),
                      alpha, beta, reward, 0.5, mu)


def random_model(rng: np.random.Generator, n_states: int, n_observations: int,
                 n_actions: int, gamma: float, *, positive_mu: bool = False,
                 deterministic_beta: bool = False) -> PomdpModel:
    """A random dense model for property tests (Dirichlet rows, normal rewards)."""
    alpha = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    if deterministic_beta:
        # each state sees exactly one observation; each observation covers >= 1 state
        assign = np.concatenate([rng.permutation(n_observations),
                                 rng.integers(0, n_observations, size=n_states - n_observations)])
        beta = np.zeros((n_states, n_observations))
        beta[np.arange(n_states), assign] = 1.0
    else:
        beta = rng.dirichlet(np.ones(n_observations), size=n_states)
    reward = rng.normal(0.0, 1.0, size=(n_states, n_actions))
    if positive_mu:
        mu = rng.dirichlet(np.ones(n_states)) + 0.05
        mu /= mu.sum()
    else:
        mu = rng.dirichlet(np.ones(n_states))
    states = tuple(f"s{i + 1}" for i in range(n_states))
    observations = tuple(f"o{i + 1}" for i in range(n_observations))
    actions = tuple(f"a{i + 1}" for i in range(n_actions))
    return PomdpModel(states, observations, actions, alpha, beta, reward, gamma, mu)


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
               gamma: float, *, positive_mu: bool = True) -> PomdpModel:
    """A fully observable random model (beta = identity)."""
    m = random_model(rng, n_states, n_states, n_actions, gamma, positive_mu=positive_mu)
    return m.replace(beta=np.eye(n_states), observations=m.states)
