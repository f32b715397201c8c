"""Exact frequencies, the series oracle, values, gradients, conditioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pomdp_geometry import fixtures
from pomdp_geometry.freq import (
    ErgodicityError,
    _solve,
    _stationary_distribution,
    batch_eta,
    batch_rewards,
    conditioning_inverse,
    eta_for_tau,
    fixed_point_residual,
    policy_gradient,
    reward_of,
    state_action_frequency,
    truncated_series_oracle,
    truncation_length,
    value_bundle,
)
from pomdp_geometry.model import Policy, kernels_for_tau, state_conditionals


def always_first_action(model):
    return Policy.deterministic([0] * model.n_observations, model.n_actions)


# --------------------------------------------------------------------------
# hand-computed values on the two-state model


def test_two_state_frequency_hand_values():
    # Policy a1 everywhere: both states jump to s1, which pays 1 under a1.
    # Solving the 2-state chain by hand: rho = (3/4, 1/4) for uniform mu,
    # all mass on action a1.
    m = fixtures.two_state_model()
    f = state_action_frequency(m, always_first_action(m))
    assert_allclose(f.eta, [[0.75, 0.0], [0.25, 0.0]], atol=1e-14)
    assert_allclose(f.rho, [0.75, 0.25], atol=1e-14)


def test_two_state_reward_hand_value():
    # From s1 the run stays in s1 earning 1 forever (value 1); from s2 one
    # zero-reward step then 1 forever (normalized value = gamma).  Uniform mu
    # averages to (1 + 0.5)/2 = 0.75, which also equals <reward, eta>.
    m = fixtures.two_state_model()
    vb = value_bundle(m, always_first_action(m))
    assert vb.R == pytest.approx(0.75, abs=1e-12)
    assert_allclose(vb.V, [1.0, 0.5], atol=1e-12)
    f = state_action_frequency(m, always_first_action(m))
    assert np.sum(m.reward * f.eta) == pytest.approx(vb.R, abs=1e-10)


def test_unnormalized_values_scale_by_horizon():
    m = fixtures.two_state_model()
    pi = always_first_action(m)
    norm = value_bundle(m, pi, normalized=True)
    raw = value_bundle(m, pi, normalized=False)
    assert_allclose(raw.V, norm.V / (1 - m.gamma))
    assert raw.R == pytest.approx(norm.R / (1 - m.gamma))
    assert_allclose(raw.Q, norm.Q)  # Q never carries the prefactor


def test_stationarity_residual_is_tiny():
    m = fixtures.three_state_model()
    rng = np.random.default_rng(7)
    for _ in range(10):
        pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
        f = state_action_frequency(m, pi)
        tau = state_conditionals(m, pi)
        assert fixed_point_residual(m, tau, f.eta) <= 1e-10


@pytest.mark.parametrize("gamma", [0.8, 1.0])
def test_residual_matches_explicit_kernel_off_the_solution(gamma):
    # a defect that is not ~0, so a residual that ignored P^T eta would show
    rng = np.random.default_rng(13)
    m = fixtures.random_model(rng, 4, 2, 3, gamma)
    tau = rng.dirichlet(np.ones(3), size=4)
    eta = rng.dirichlet(np.ones(12)).reshape(4, 3)
    big, _ = kernels_for_tau(m.alpha, tau)
    flat = eta.reshape(-1)
    source = (1.0 - gamma) * (m.mu[:, None] * tau).reshape(-1)
    expected = np.max(np.abs(flat - gamma * (big.T @ flat) - source))
    assert expected > 1e-3
    assert fixed_point_residual(m, tau, eta) == pytest.approx(expected, rel=1e-12)
    assert fixed_point_residual(m, tau, flat) == pytest.approx(expected, rel=1e-12)


def test_marginal_consistency():
    # eta(s,a) = rho(s) tau(a|s) wherever rho(s) is positive
    m = fixtures.three_state_model()
    rng = np.random.default_rng(3)
    pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
    f = state_action_frequency(m, pi)
    tau = state_conditionals(m, pi)
    visited = f.rho > 1e-10
    assert_allclose(f.eta[visited], (f.rho[:, None] * tau)[visited], atol=1e-10)


# --------------------------------------------------------------------------
# series oracle


def test_truncation_length_formula():
    assert truncation_length(0.5, 1e-12) == 41
    with pytest.raises(ValueError):
        truncation_length(1.0, 1e-12)
    with pytest.raises(ValueError):
        truncation_length(0.5, 0.0)


def test_oracle_matches_solver_two_state():
    m = fixtures.two_state_model()
    pi = always_first_action(m)
    exact = state_action_frequency(m, pi)
    series = truncated_series_oracle(m, pi, tol=1e-12)
    assert np.max(np.abs(series.eta - exact.eta)) < 1e-11


@given(st.integers(0, 10_000), st.sampled_from([0.3, 0.7, 0.95]))
@settings(max_examples=30)
def test_oracle_matches_solver_random(seed, gamma):
    rng = np.random.default_rng(seed)
    m = fixtures.random_model(rng, 3, 2, 2, gamma)
    pi = Policy("observation", rng.dirichlet(np.ones(2), size=2))
    exact = state_action_frequency(m, pi)
    series = truncated_series_oracle(m, pi, tol=1e-10)
    assert np.max(np.abs(series.eta - exact.eta)) < 1e-9


def test_oracle_rejects_nonpositive_tol():
    m = fixtures.two_state_model()
    with pytest.raises(ValueError, match="tol"):
        truncated_series_oracle(m, always_first_action(m), tol=-1.0)


# --------------------------------------------------------------------------
# gamma = 1


def test_mean_reward_stationary_chain():
    # gamma = 1 on the two-state model with "always a1": the chain is
    # absorbed in s1 and the stationary distribution is the point mass
    # there, so the mean reward is r(s1, a1) = 1.
    m = fixtures.two_state_model().replace(gamma=1.0)
    f = state_action_frequency(m, always_first_action(m))
    assert_allclose(f.eta, [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    vb = value_bundle(m, always_first_action(m))
    assert vb.V is None and vb.Q is None
    assert vb.R == pytest.approx(1.0, abs=1e-10)


def test_gamma_one_rejects_non_unique_stationary():
    # two absorbing states -> two ergodic classes -> no unique stationary law
    alpha = np.zeros((2, 1, 2))
    alpha[0, 0, 0] = 1.0
    alpha[1, 0, 1] = 1.0
    m = fixtures.two_state_model().replace(
        gamma=1.0,
        alpha=np.repeat(alpha, 2, axis=1),
    )
    with pytest.raises(ErgodicityError, match="not unique"):
        state_action_frequency(m, always_first_action(m))


def test_gamma_one_cesaro_oracle():
    # irreducible two-state chain: uniform policy on the jump model mixes
    m = fixtures.two_state_model().replace(gamma=1.0)
    pi = Policy.uniform(2, 2)
    exact = state_action_frequency(m, pi)
    series = truncated_series_oracle(m, pi, tol=1e-6)
    assert np.max(np.abs(series.eta - exact.eta)) < 1e-5


@pytest.mark.parametrize("gamma", [1.0 - 1e-6, 1.0 - 1e-7])
def test_near_one_discount_is_certified_and_continuous(gamma):
    # Near gamma = 1 the solve's total mass is off by ~eps/(1-gamma), beyond
    # FREQ_SUM_TOL; the result must still be a certified frequency that
    # tends to the gamma = 1 one linearly in 1 - gamma.
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = fixtures.random_model(rng, 4, 3, 2, 1.0)
        pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
        limit = state_action_frequency(m, pi)
        near = m.replace(gamma=gamma)
        f = state_action_frequency(near, pi)
        assert fixed_point_residual(near, state_conditionals(near, pi), f.eta) <= 1e-10
        assert np.max(np.abs(f.eta - limit.eta)) <= 20 * (1.0 - gamma)


def test_gamma_continuity_towards_one():
    # the discounted frequency converges to the stationary one as gamma -> 1
    m = fixtures.three_state_model()
    pi = Policy.uniform(3, 2)
    limit = state_action_frequency(m.replace(gamma=1.0), pi)
    gaps = []
    for gamma in (0.9, 0.99, 0.999):
        f = state_action_frequency(m.replace(gamma=gamma), pi)
        gaps.append(np.max(np.abs(f.eta - limit.eta)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


# --------------------------------------------------------------------------
# gradients


def finite_difference_gradient(model, pi, h=1e-6):
    grad = np.zeros_like(pi.matrix)
    for o in range(pi.matrix.shape[0]):
        for a in range(pi.matrix.shape[1]):
            up = pi.matrix.copy()
            up[o, a] += h
            down = pi.matrix.copy()
            down[o, a] -= h
            r_up = np.sum(model.reward * eta_for_tau(model, model.beta @ up))
            r_down = np.sum(model.reward * eta_for_tau(model, model.beta @ down))
            grad[o, a] = (r_up - r_down) / (2 * h)
    return grad


def test_gradient_matches_finite_differences():
    m = fixtures.three_state_model()
    rng = np.random.default_rng(11)
    for _ in range(5):
        pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
        g = policy_gradient(m, pi).grad
        fd = finite_difference_gradient(m, pi)
        assert_allclose(g, fd, rtol=1e-5, atol=1e-8)


def test_gradient_requires_discounting_and_observation_policy():
    m = fixtures.two_state_model()
    with pytest.raises(ValueError, match="gamma"):
        policy_gradient(m.replace(gamma=1.0), always_first_action(m))
    with pytest.raises(ValueError, match="observation"):
        policy_gradient(m, Policy("state", np.full((2, 2), 0.5)))


def test_jacobian_ranks():
    # with every state visited the frequency map has full-rank Jacobian in
    # ambient coordinates; restricted to the policy-polytope tangent space
    # (rows summing to zero) the rank drops to |S| (|A| - 1)
    m = fixtures.three_state_model()
    pi = Policy.uniform(3, 2)
    J = policy_gradient(m, pi).jacobian
    ns, na = m.n_states, m.n_actions
    assert J.shape == (ns * na, ns * na)
    assert np.linalg.matrix_rank(J, tol=1e-10) == ns * na
    # tangent basis: per state, differences e_{s,a} - e_{s,a'}
    basis = []
    for s in range(ns):
        for a in range(1, na):
            v = np.zeros(ns * na)
            v[s * na] = 1.0
            v[s * na + a] = -1.0
            basis.append(v)
    T = np.array(basis).T
    assert np.linalg.matrix_rank(J @ T, tol=1e-10) == ns * (na - 1)


def test_jacobian_columns_match_finite_differences():
    m = fixtures.two_state_model()
    pi = Policy.uniform(2, 2)
    tau = state_conditionals(m, pi)
    J = policy_gradient(m, pi).jacobian
    h = 1e-6
    for s in range(2):
        for a in range(2):
            up = tau.copy()
            up[s, a] += h
            down = tau.copy()
            down[s, a] -= h
            col = (eta_for_tau(m, up) - eta_for_tau(m, down)).reshape(-1) / (2 * h)
            assert_allclose(J[:, s * 2 + a], col, rtol=1e-4, atol=1e-7)


# --------------------------------------------------------------------------
# conditioning


def test_conditioning_round_trip():
    m = fixtures.three_state_model()  # strictly positive transitions
    rng = np.random.default_rng(5)
    pi = Policy("state", rng.dirichlet(np.ones(2), size=3))
    f = state_action_frequency(m, pi)
    back, flagged = conditioning_inverse(m, f)
    assert flagged == ()
    assert_allclose(back.matrix, pi.matrix, atol=1e-9)


def test_conditioning_flags_unvisited_states():
    # mu = delta_s1 and "always a1" never leaves s1 in the two-state model
    m = fixtures.two_state_model(mu=[1.0, 0.0])
    f = state_action_frequency(m, always_first_action(m))
    back, flagged = conditioning_inverse(m, f)
    assert flagged == (1,)
    assert_allclose(back.matrix[1], [0.5, 0.5])  # uniform on the flagged row
    assert_allclose(back.matrix[0], [1.0, 0.0], atol=1e-12)


# --------------------------------------------------------------------------
# batched helpers


def test_batch_matches_pointwise(rng):
    m = fixtures.three_state_model()
    taus = np.stack([m.beta @ rng.dirichlet(np.ones(2), size=3) for _ in range(8)])
    etas = batch_eta(m, taus)
    rewards = batch_rewards(m, taus)
    for i in range(8):
        eta = eta_for_tau(m, taus[i])
        assert_allclose(etas[i], eta, atol=1e-12)
        assert rewards[i] == pytest.approx(np.sum(m.reward * eta), abs=1e-12)


def test_reward_of_agrees_with_value_bundle():
    m = fixtures.three_state_model()
    pi = Policy.uniform(3, 2)
    assert reward_of(m, pi) == pytest.approx(value_bundle(m, pi).R, abs=1e-10)


# --------------------------------------------------------------------------
# the S x S core against the (S*A) x (S*A) state-action equations


def state_action_reference(m, tau):
    """eta, V, Q, R, grad, jacobian from explicit (S*A) x (S*A) solves."""
    ns, na = tau.shape
    big, _ = kernels_for_tau(m.alpha, tau)
    eye = np.eye(ns * na)
    source = (1.0 - m.gamma) * (m.mu[:, None] * tau).reshape(-1)
    eta = np.linalg.solve(eye - m.gamma * big.T, source).reshape(ns, na)
    q = np.linalg.solve(eye - m.gamma * big, m.reward.reshape(-1)).reshape(ns, na)
    v = (1.0 - m.gamma) * np.sum(tau * q, axis=1)
    rho = eta.sum(axis=1)
    grad = (m.beta * rho[:, None]).T @ q
    jacobian = np.linalg.inv(eye - m.gamma * big.T) * np.repeat(rho, na)[None, :]
    return eta, v, q, float(m.mu @ v), grad, jacobian


def test_core_matches_state_action_equations():
    rng = np.random.default_rng(23)
    for _ in range(40):
        ns, no, na = rng.integers(2, 6), rng.integers(1, 4), rng.integers(2, 4)
        m = fixtures.random_model(rng, ns, no, na, float(rng.uniform(0.3, 0.9)))
        pi = Policy("observation", rng.dirichlet(np.ones(na), size=no))
        tau = state_conditionals(m, pi)
        eta, v, q, r, grad, jacobian = state_action_reference(m, tau)
        vb = value_bundle(m, pi)
        pg = policy_gradient(m, pi)
        assert_allclose(state_action_frequency(m, pi).eta, eta, rtol=0, atol=1e-12)
        assert_allclose(eta_for_tau(m, tau), eta, rtol=0, atol=1e-12)
        assert_allclose(vb.V, v, rtol=0, atol=1e-12)
        assert_allclose(vb.Q, q, rtol=0, atol=1e-12)
        assert vb.R == pytest.approx(r, abs=1e-12)
        assert_allclose(pg.grad, grad, rtol=0, atol=1e-12)
        assert_allclose(pg.jacobian, jacobian, rtol=0, atol=1e-12)
        # off the simplex (finite-difference steps): eta, rewards and values
        # still agree, since P^T eta(s',a') = tau(a'|s') sum alpha(s'|s,a) eta(s,a)
        bent = tau + 1e-3 * rng.normal(size=tau.shape)
        eta, v, q, *_ = state_action_reference(m, bent)
        assert_allclose(eta_for_tau(m, bent), eta, rtol=0, atol=1e-12)
        assert_allclose(batch_eta(m, bent[None])[0], eta, rtol=0, atol=1e-12)
        reward = np.sum(m.reward * eta)
        assert batch_rewards(m, bent[None])[0] == pytest.approx(reward, abs=1e-12)
        _, v_core, q_core = _solve(m, bent[None], values=True)
        assert_allclose(v_core[0], np.sum(bent * q, axis=1), rtol=0, atol=1e-12)
        assert_allclose(q_core[0], q, rtol=0, atol=1e-12)


def test_core_stationary_matches_state_action_kernel():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = fixtures.random_model(rng, 4, 2, 3, 1.0)
        tau = m.beta @ rng.dirichlet(np.ones(3), size=2)
        big, _ = kernels_for_tau(m.alpha, tau)
        assert_allclose(eta_for_tau(m, tau), _stationary_distribution(big).reshape(4, 3),
                        rtol=0, atol=1e-12)


def test_core_rejects_two_closed_classes_at_gamma_one():
    # states {0, 1} and {2, 3} are closed classes, state 4 is transient
    rng = np.random.default_rng(31)
    m = fixtures.random_model(rng, 5, 2, 2, 1.0)
    alpha = np.zeros((5, 2, 5))
    alpha[:2, :, :2] = rng.dirichlet(np.ones(2), size=(2, 2))
    alpha[2:4, :, 2:4] = rng.dirichlet(np.ones(2), size=(2, 2))
    alpha[4] = rng.dirichlet(np.ones(5), size=2)
    m = m.replace(alpha=alpha)
    pi = Policy("observation", rng.dirichlet(np.ones(2), size=2))
    with pytest.raises(ErgodicityError, match="not unique"):
        state_action_frequency(m, pi)
    with pytest.raises(ErgodicityError, match="not unique"):
        value_bundle(m, pi)


def test_only_state_sized_solves_until_the_jacobian_is_read(monkeypatch):
    m = fixtures.random_model(np.random.default_rng(37), 5, 3, 3, 0.8)
    pi = Policy.uniform(3, 3)
    sizes = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        sizes.append(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    bundle = policy_gradient(m, pi)
    assert bundle.grad.shape == (3, 3)
    value_bundle(m, pi)
    state_action_frequency(m, pi)
    assert sizes and set(sizes) == {m.n_states}
    jacobian = bundle.jacobian
    assert sizes[-1] == m.n_states * m.n_actions
    assert bundle.jacobian is jacobian  # built once
    assert sizes.count(m.n_states * m.n_actions) == 1
