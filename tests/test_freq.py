"""Exact frequencies, the series oracle, values, gradients, conditioning."""

import platform
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pomdp_geometry import fixtures, freq
from pomdp_geometry.critical import blind_critical_points
from pomdp_geometry.freq import (
    ERGODICITY_TOL,
    MAX_SERIES_STEPS,
    SMALL_STATES,
    ErgodicityError,
    _solve,
    _values,
    batch_eta,
    batch_rewards,
    certified_etas,
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
from pomdp_geometry.geometry import face_lattice
from pomdp_geometry.model import Policy, compose, kernels_for_tau, state_conditionals
from pomdp_geometry.rational import reward_curve_on_line


def stationary_distribution(kernel: np.ndarray) -> np.ndarray:
    """The unique stationary distribution of a row-stochastic matrix, or ErgodicityError."""
    n = kernel.shape[0]
    mat = kernel.T - np.eye(n)
    sing = np.linalg.svd(mat, compute_uv=False)
    dim = int(np.sum(sing < ERGODICITY_TOL))
    if dim != 1:
        raise ErgodicityError(
            f"stationary distribution is not unique: {dim} singular values of "
            f"(kernel^T - I) lie below {ERGODICITY_TOL}")
    bordered = np.vstack([mat, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    eta, *_ = np.linalg.lstsq(bordered, rhs, rcond=None)
    return eta


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


def test_oracle_refuses_a_series_beyond_the_step_cap(monkeypatch):
    # T ~ 3.0e8 terms at gamma = 1 - 1e-7: refused before the first push
    m = fixtures.two_state_model().replace(gamma=1.0 - 1e-7)
    horizon = truncation_length(m.gamma, 1e-6)
    assert horizon > MAX_SERIES_STEPS
    monkeypatch.setattr(freq, "_push", lambda *args: pytest.fail("pushed P^T"))
    with pytest.raises(ArithmeticError, match=f"T = {horizon} .* cap of {MAX_SERIES_STEPS}"):
        truncated_series_oracle(m, Policy.uniform(2, 2), tol=1e-6)


def _series_reference(model, pi, tol):
    """The series oracle as a loop that builds fresh arrays at every step, gamma * P^T term
    and P^T dist, with P^T applied as tau(b|t) sum_{s,a} alpha(t|s,a) x(s,a)."""
    tau = state_conditionals(model, pi)
    start = model.mu[:, None] * tau

    def push(x):
        return tau * (x.reshape(-1) @ model.alpha.reshape(-1, model.n_states))[:, None]

    if model.gamma < 1.0:
        horizon = truncation_length(model.gamma, tol)
        term, acc = start.copy(), start.copy()
        for _ in range(horizon):
            term = model.gamma * push(term)
            acc += term
        eta = acc * (1.0 - model.gamma) / (1.0 - model.gamma ** (horizon + 1))
    else:
        horizon, previous, steps = 64, None, 0
        dist, acc = start.copy(), np.zeros_like(start)
        while True:
            while steps < horizon:
                acc += dist
                dist = push(dist)
                steps += 1
            eta = acc / steps
            if previous is not None and np.max(np.abs(eta - previous)) <= 0.5 * tol:
                break
            previous, horizon = eta, 2 * horizon
    return freq._scrub(eta)


@pytest.mark.parametrize("gamma, tol", [(0.6, 1e-12), (0.95, 1e-9), (1.0, 1e-4)])
def test_series_oracle_steps_in_place_with_the_bits_of_fresh_arrays(gamma, tol):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        m = fixtures.random_model(rng, 4, 3, 3, gamma, positive_mu=True)
        pi = Policy("observation", rng.dirichlet(np.ones(3), size=3))
        series = truncated_series_oracle(m, pi, tol=tol)
        assert series.eta.tobytes() == _series_reference(m, pi, tol).tobytes()


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


@pytest.mark.parametrize("tol", [1e-4, 1e-5])
def test_gamma_one_cesaro_oracle_doubles_on_while_the_trend_can_meet_tol(tol):
    # the averages change by ~0.25 / T, so these tolerances need T = 2^13 and
    # 2^16: the early refusal must not fire on the way there
    m = fixtures.three_state_model().replace(gamma=1.0)
    pi = Policy.uniform(m.n_observations, m.n_actions)
    series = truncated_series_oracle(m, pi, tol=tol)
    exact = state_action_frequency(m, pi)
    assert np.max(np.abs(series.eta - exact.eta)) <= tol


def _mp_eta(model, tau, digits=50):
    """eta = rho * tau in mpmath: (I - gamma p_tau^T) rho = (1 - gamma) mu for
    gamma < 1; at gamma = 1 (p_tau^T - I) rho = 0 with its last row replaced
    by the mass condition 1^T rho = 1."""
    mp = pytest.importorskip("mpmath")
    ns, na = tau.shape
    with mp.workdps(digits):
        kernel = mp.matrix(ns, ns)
        for s in range(ns):
            for t in range(ns):
                kernel[s, t] = mp.fsum(mp.mpf(tau[s, a]) * mp.mpf(model.alpha[s, a, t])
                                       for a in range(na))
        gamma = mp.mpf(model.gamma)
        if model.gamma < 1.0:
            system = mp.eye(ns) - gamma * kernel.T
            rhs = mp.matrix([(1 - gamma) * mp.mpf(x) for x in model.mu])
        else:
            system = kernel.T - mp.eye(ns)
            rhs = mp.matrix(ns, 1)
            for t in range(ns):
                system[ns - 1, t] = 1
            rhs[ns - 1] = 1
        rho = mp.lu_solve(system, rhs)
        return np.array([[float(rho[s] * mp.mpf(tau[s, a])) for a in range(na)]
                         for s in range(ns)])


def test_mean_reward_frequency_matches_mpmath_stationary_solve():
    rng = np.random.default_rng(43)
    for i in range(40):
        m = fixtures.random_model(rng, 2 + i % 4, 2, 3, 1.0)
        taus = m.beta @ rng.dirichlet(np.ones(3), size=(3, 2))
        etas = batch_eta(m, taus)
        for tau, eta in zip(taus, etas):
            reference = _mp_eta(m, tau)
            assert_allclose(eta, reference, rtol=0, atol=1e-14)
            assert_allclose(eta_for_tau(m, tau), reference, rtol=0, atol=1e-14)


@pytest.mark.parametrize("gamma", [0.5, 0.99, 1.0])
@pytest.mark.parametrize("ns", [3, SMALL_STATES + 1], ids=["elimination", "lapack"])
def test_batch_eta_matches_mpmath_fixed_point(ns, gamma):
    # 1e-14 of the largest entry; at gamma < 1 the entries 1 - gamma p(s|s) are
    # rounded before any solve, an error the 1 / (1 - gamma) conditioning
    # amplifies to ~eps / (1 - gamma): 2.2e-14 at gamma = 0.99
    tol = max(1e-14, np.finfo(float).eps / (1.0 - gamma)) if gamma < 1.0 else 1e-14
    rng = np.random.default_rng(71)
    for _ in range(5):
        m = fixtures.random_model(rng, ns, 2, 3, gamma)
        taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(4, 2)))
        for tau, eta in zip(taus, batch_eta(m, taus)):
            reference = _mp_eta(m, tau)
            assert np.max(np.abs(eta - reference)) <= tol * np.max(np.abs(reference))


def test_mean_reward_batch_is_one_svd_and_one_solve(monkeypatch):
    rng = np.random.default_rng(47)
    m = fixtures.random_model(rng, 4, 2, 3, 1.0)
    taus = m.beta @ rng.dirichlet(np.ones(3), size=(50, 2))
    calls = []
    for owner, name in ((freq, "_linsolve"), (np.linalg, "svd"), (np.linalg, "lstsq")):
        def counting(a, *args, _name=name, _original=getattr(owner, name), **kwargs):
            calls.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    rewards = batch_rewards(m, taus)
    assert calls == [("svd", (50, 4, 4)), ("_linsolve", (4, 4, 50))]  # the solve is batch-last
    assert rewards.shape == (50,)


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
        v_core, q_core = _values(m, bent)
        assert_allclose(v_core, np.sum(bent * q, axis=1), rtol=0, atol=1e-12)
        assert_allclose(q_core, q, rtol=0, atol=1e-12)


def test_core_stationary_matches_state_action_kernel():
    rng = np.random.default_rng(29)
    for _ in range(20):
        m = fixtures.random_model(rng, 4, 2, 3, 1.0)
        tau = m.beta @ rng.dirichlet(np.ones(3), size=2)
        big, _ = kernels_for_tau(m.alpha, tau)
        assert_allclose(eta_for_tau(m, tau), stationary_distribution(big).reshape(4, 3),
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


def count_solves(monkeypatch):
    """Record every call of the S x S solve primitive as (systems, S, S)."""
    calls = []
    solve = freq._linsolve

    def counting_solve(a, b):
        calls.append((a.shape[-1],) + a.shape[:-1])
        return solve(a, b)

    monkeypatch.setattr(freq, "_linsolve", counting_solve)
    return calls


def test_only_state_sized_solves_until_the_jacobian_is_read(monkeypatch):
    m = fixtures.random_model(np.random.default_rng(37), 5, 3, 3, 0.8)
    pi = Policy.uniform(3, 3)
    calls = count_solves(monkeypatch)
    bundle = policy_gradient(m, pi)
    assert bundle.grad.shape == (3, 3)
    assert len(calls) == 2  # rho and v
    value_bundle(m, pi)
    assert len(calls) == 3  # v alone: no rho is solved and thrown away
    state_action_frequency(m, pi)
    solves = len(calls)
    truncated_series_oracle(m, pi, tol=1e-10)
    truncated_series_oracle(m.replace(gamma=1.0), pi, tol=1e-4)
    assert len(calls) == solves  # the series oracle solves nothing
    jacobian = bundle.jacobian
    assert bundle.jacobian is jacobian  # built once
    assert len(calls) == solves + 1
    assert {shape[-1] for shape in calls} == {m.n_states}  # no (S*A)-sized solve at all


@pytest.mark.parametrize("gamma", [0.99, 0.999])
def test_jacobian_matches_state_action_inverse_near_one(gamma):
    rng = np.random.default_rng(53)
    for _ in range(20):
        ns, no, na = rng.integers(2, 7), rng.integers(1, 4), rng.integers(2, 4)
        m = fixtures.random_model(rng, ns, no, na, gamma)
        pi = Policy("observation", rng.dirichlet(np.ones(na), size=no))
        *_, jacobian = state_action_reference(m, state_conditionals(m, pi))
        assert_allclose(policy_gradient(m, pi).jacobian, jacobian,
                        rtol=0, atol=1e-12 * np.max(np.abs(jacobian)))


def test_blocked_solves_match_unsplit_ones(monkeypatch):
    rng = np.random.default_rng(59)
    m = fixtures.random_model(rng, 4, 2, 3, 0.9)
    taus = m.beta @ rng.dirichlet(np.ones(3), size=(50, 2))
    blind = fixtures.blind_three_state_model()
    lattice_model = fixtures.three_state_model()
    whole = (batch_rewards(m, taus), blind_critical_points(blind), face_lattice(lattice_model))
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(freq, "BLOCK_ENTRIES", 3 * 16)  # three 4 x 4 or five 3 x 3 systems
    assert_allclose(batch_rewards(m, taus), whole[0], rtol=0, atol=1e-15)
    assert len(calls) == 17 and calls[-1] == (2, 4, 4)
    split = blind_critical_points(blind)
    assert len(calls) > 17 + 10_000 // 5  # the 10^4-point grid went in blocks of five
    assert split.boundary == whole[1].boundary
    assert [kind for _, kind in split.interior_roots] == [k for _, k in whole[1].interior_roots]
    assert_allclose([p for p, _ in split.interior_roots], [p for p, _ in whole[1].interior_roots],
                    rtol=0, atol=1e-15)
    solves = len(calls)
    assert face_lattice(lattice_model) == whole[2]
    assert len(calls) > solves + 1


def test_a_split_batch_has_the_bits_of_the_unsplit_one(monkeypatch):
    # 2 * 3 + 1 points with room for three 4 x 4 systems per block go as 3 + 2 + 2: a block of
    # one point would build its kernels on numpy's matrix-vector path, with other last bits
    rng = np.random.default_rng(61)
    batches = []
    for _ in range(8):
        m = fixtures.random_model(rng, 4, 2, 3, 0.9)
        taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(7, 2)))
        batches.append((m, taus, batch_eta(m, taus)))
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(freq, "BLOCK_ENTRIES", 3 * 16)
    for m, taus, whole in batches:
        assert batch_eta(m, taus).tobytes() == whole.tobytes()
    assert [n for n, *_ in calls] == [3, 2, 2] * len(batches)


def test_multichain_point_in_a_later_block_is_rejected(monkeypatch):
    # action a1 jumps to s1, action a2 stays: "always a2" has two closed classes
    alpha = np.zeros((2, 2, 2))
    alpha[:, 0, 0] = 1.0
    alpha[0, 1, 0] = alpha[1, 1, 1] = 1.0
    m = fixtures.two_state_model().replace(gamma=1.0, alpha=alpha)
    taus = np.tile(np.array([[0.5, 0.5], [0.5, 0.5]]), (50, 1, 1))
    assert_allclose(batch_rewards(m, taus), batch_rewards(m, taus[:1])[0])
    taus[40] = [[0.0, 1.0], [0.0, 1.0]]
    calls = count_solves(monkeypatch)
    monkeypatch.setattr(freq, "BLOCK_ENTRIES", 3 * 4)  # three 2 x 2 systems
    with pytest.raises(ErgodicityError, match="not unique"):
        batch_rewards(m, taus)
    assert len(calls) == 13  # the blocks before the one holding point 40


def test_certified_etas_checks_every_point_of_a_batch():
    m = fixtures.random_model(np.random.default_rng(41), 4, 3, 3, 0.9)
    rng = np.random.default_rng(42)
    policies = [Policy("observation", rng.dirichlet(np.ones(3), size=3)) for _ in range(4)]
    taus = np.stack([state_conditionals(m, pi) for pi in policies])
    etas = certified_etas(m, taus)
    for pi, eta in zip(policies, etas):
        assert_allclose(state_action_frequency(m, pi).eta, eta, rtol=0, atol=1e-15)
    # a conditional row off the simplex solves exactly but leaves a negative
    # entry, which the per-point checks of Frequency reject
    taus[2, 1] = [1.2, -0.1, -0.1]
    assert fixed_point_residual(m, taus, _solve(m, taus)[..., None] * taus) < 1e-12
    with pytest.raises(ValueError, match="negative entry"):
        certified_etas(m, taus)


def test_certified_etas_refuses_a_solve_off_the_fixed_point(monkeypatch):
    m = fixtures.random_model(np.random.default_rng(41), 4, 3, 3, 0.9)
    taus = compose(m.beta, np.random.default_rng(42).dirichlet(np.ones(3), size=(4, 3)))
    certified_etas(m, taus)
    solve = freq._solve

    def off_by_a_millionth(model, taus):
        rho = solve(model, taus)
        rho[:, 1] *= 1.0 + 1e-6
        return rho

    monkeypatch.setattr(freq, "_solve", off_by_a_millionth)
    with pytest.raises(ArithmeticError, match=r"fixed-point residual .* > 1e-10"):
        certified_etas(m, taus)


def test_certified_etas_refuses_a_nan_residual():
    # one NaN conditional leaves a NaN solve and a NaN residual, which fails the check
    m = fixtures.random_model(np.random.default_rng(41), 4, 3, 3, 0.9)
    taus = compose(m.beta, np.random.default_rng(42).dirichlet(np.ones(3), size=(4, 3)))
    taus[1, 2, 0] = np.nan
    with pytest.raises(ArithmeticError, match=r"fixed-point residual nan > 1e-10"):
        certified_etas(m, taus)


# --------------------------------------------------------------------------
# the S x S solve primitive: one batched elimination up to SMALL_STATES, LAPACK above


def lapack_solve(a, b):
    """np.linalg.solve of batch-last systems a (S, S, N), right-hand sides b (S, K, N or 1)."""
    b = np.broadcast_to(b, b.shape[:2] + a.shape[2:])
    return np.linalg.solve(a.transpose(2, 0, 1), b.transpose(2, 0, 1)).transpose(1, 2, 0)


def relative_gaps(x, reference):
    """max |x - reference| / max |reference| of every system of a batch-last stack."""
    return np.abs(x - reference).max(axis=(0, 1)) / np.abs(reference).max(axis=(0, 1))


@given(ns=st.integers(1, SMALL_STATES + 1), n=st.integers(1, 30), k=st.integers(1, 3),
       gamma=st.floats(0.05, 0.99), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_linsolve_matches_lapack(ns, n, k, gamma, seed):
    rng = np.random.default_rng(seed)
    # strictly diagonally dominant rows, shuffled per system: partial pivoting
    # has to swap every one of them back
    dominant = rng.uniform(-1.0, 1.0, size=(ns, ns, n)) + ns * np.eye(ns)[:, :, None]
    order = np.argsort(rng.random((ns, n)), axis=0)
    shuffled = dominant[order, :, np.arange(n)].transpose(0, 2, 1)
    # the rho-system of the solver core
    m = fixtures.random_model(rng, ns, 2, 2, gamma)
    p = freq._state_kernels(m, compose(m.beta, rng.dirichlet(np.ones(2), size=(n, 2))))
    for a in (shuffled, freq._discounted_system(m, p).transpose(1, 0, 2)):
        b = rng.normal(size=(ns, k, n))
        reference = lapack_solve(a, b)
        assert np.all(relative_gaps(freq._linsolve(a.copy(), b), reference) <= 1e-13)


@pytest.mark.parametrize("ns", [2, 3, SMALL_STATES])
def test_linsolve_hard_systems_match_lapack_to_their_conditioning(ns):
    # within 1e-13, or 4 eps times the condition number where that is larger:
    # at gamma = 1 - 1e-7 two backward-stable solves may differ by ~1e-9
    rng = np.random.default_rng(61 + ns)
    near = 1.0 - 1e-7
    m = fixtures.random_model(rng, ns, 2, 3, near)
    taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(100, 2)))
    bent = taus + 0.5 * rng.normal(size=taus.shape)  # off the simplex
    eye = np.eye(ns)[:, :, None]
    p, p_bent = freq._state_kernels(m, taus), freq._state_kernels(m, bent)
    mu = m.mu[:, None, None]
    cases = {
        "off-simplex rho": (eye - 0.9 * p_bent.transpose(1, 0, 2), 0.1 * mu),
        "off-simplex values": (eye - 0.9 * p_bent, freq._state_rewards(m, bent)[:, None]),
        "rho at 1 - 1e-7": (freq._discounted_system(m, p.copy()).transpose(1, 0, 2),
                            (1.0 - near) * mu),
        "values at 1 - 1e-7": (eye - near * p, freq._state_rewards(m, taus)[:, None]),
        "anchored at 1": (freq._discounted_system(m.replace(gamma=1.0), p - m.mu[:, None])
                          .transpose(1, 0, 2), mu),
    }
    off = cases["off-simplex rho"][0]
    assert np.any(np.abs(off[1:, 0]).max(axis=0) > np.abs(off[0, 0]))  # rows must swap
    eps = np.finfo(float).eps
    for name, (a, b) in cases.items():
        x = freq._linsolve(a.copy(), b)
        bound = np.maximum(1e-13, 4.0 * eps * np.linalg.cond(a.transpose(2, 0, 1)))
        assert np.all(relative_gaps(x, lapack_solve(a, b)) <= bound), name
        residual = np.einsum("stn,tkn->skn", a, x) - b
        assert np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(a)) * np.max(np.abs(x)), name


@pytest.mark.parametrize("ns", [3, SMALL_STATES, SMALL_STATES + 1])
def test_linsolve_solves_each_system_alone_and_never_writes_b(ns):
    # on both branches a system's bits do not depend on the rest of the batch, one
    # system alone included, and b is never written to; a is consumed, as by dgesv
    rng = np.random.default_rng(71 + ns)
    m = fixtures.random_model(rng, ns, 2, 2, 0.9)
    p = freq._state_kernels(m, compose(m.beta, rng.dirichlet(np.ones(2), size=(7, 2))))
    b = rng.normal(size=(ns, 2, 7))
    for a in (freq._discounted_system(m, p).transpose(1, 0, 2), rng.normal(size=(ns, ns, 7))):
        b_before = b.copy()
        whole = freq._linsolve(a.copy(), b)
        assert np.array_equal(b, b_before)
        for cut in ((0, 1), (1, 3), (3, 7)):
            part = freq._linsolve(a[..., slice(*cut)].copy(), b[..., slice(*cut)])
            assert np.array_equal(part, whole[..., slice(*cut)])


@pytest.mark.parametrize("ns", [1, 2, 3, SMALL_STATES, SMALL_STATES + 1])
def test_linsolve_raises_lapacks_error_on_a_singular_system(ns):
    rng = np.random.default_rng(67)
    a = rng.normal(size=(ns, ns, 5))
    a[:, -1, 3] = 0.0  # system 3 has a zero column: an exactly zero pivot
    b = rng.normal(size=(ns, 1, 5))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        lapack_solve(a, b)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        freq._linsolve(a.copy(), b)
    assert np.all(np.isfinite(freq._linsolve(a[..., :3], b[..., :3])))


# --------------------------------------------------------------------------
# the solver core builds each system over its kernel and eliminates it in place


def out_of_place_solve(a, b):
    """`_linsolve` on a copy of the batch-last systems a, with b copied into a new array."""
    ns = a.shape[0]
    if ns > SMALL_STATES:
        return lapack_solve(a, b)
    x = np.empty((ns, b.shape[1], a.shape[-1]))
    x[...] = b
    return freq._eliminate(a.copy(), x)


def reference_solve(m, taus):
    """`_solve` of one block as written with out-of-place builders and a copied system."""
    gamma, eye, p = m.gamma, np.eye(m.n_states)[:, :, None], freq._state_kernels(m, taus)
    if gamma < 1.0:
        system, rhs = eye - gamma * p.transpose(1, 0, 2), ((1.0 - gamma) * m.mu)[:, None, None]
    else:
        system, rhs = (eye - gamma * (p - m.mu[:, None])).transpose(1, 0, 2), m.mu[:, None, None]
    return out_of_place_solve(system, rhs)[:, 0].T


def reference_values(m, tau):
    """`_values` as written with an out-of-place builder and a copied system."""
    taus = tau[None]
    system = np.eye(m.n_states)[:, :, None] - m.gamma * freq._state_kernels(m, taus)
    v = out_of_place_solve(system, freq._state_rewards(m, taus)[:, None])[:, 0].T
    return v[0], (m.reward + m.gamma * np.einsum("sat,nt->nsa", m.alpha, v))[0]


@pytest.mark.parametrize("ns", [1, 2, 3, SMALL_STATES, SMALL_STATES + 1])
@pytest.mark.parametrize("gamma", [0.5, 1.0 - 1e-7, 1.0])
def test_core_solves_in_place_with_the_bits_of_out_of_place_systems(ns, gamma):
    rng = np.random.default_rng(83 + ns)
    m = fixtures.random_model(rng, ns, 2, 3, gamma)
    for n in (1, 2, 7):
        taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(n, 2)))
        bend = 0.3 * rng.normal(size=taus.shape)
        bent = taus + bend - bend.mean(axis=-1, keepdims=True)  # off the simplex, rows sum to 1
        for t in (taus, bent):
            assert _solve(m, t).tobytes() == reference_solve(m, t).tobytes(), n
            if gamma < 1.0:  # values exist for gamma < 1 only
                for tau in t:
                    for x, y in zip(_values(m, tau), reference_values(m, tau)):
                        assert x.tobytes() == y.tobytes(), n


@pytest.mark.parametrize("ns", [1, 2, 3, SMALL_STATES, SMALL_STATES + 1])
@pytest.mark.parametrize("gamma", [0.6, 0.9, 1.0])
def test_reward_line_denominators_have_the_bits_of_out_of_place_systems(ns, gamma):
    rng = np.random.default_rng(91 + ns)
    m = fixtures.random_model(rng, ns, 2, 3, gamma)
    taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(7, 2)))
    p = freq._state_kernels(m, taus)
    dets = np.linalg.det((np.eye(ns)[:, :, None] - gamma * (p - m.mu[:, None])).transpose(2, 0, 1))
    terms = freq._reward_line_terms(m, taus)
    assert terms[:, 1].tobytes() == dets.tobytes()
    assert terms[:, 0].tobytes() == (batch_rewards(m, taus) * dets).tobytes()


@pytest.mark.parametrize("ns", [3, SMALL_STATES + 1])
@pytest.mark.parametrize("gamma", [0.9, 1.0])
def test_no_public_solve_writes_to_its_callers_arrays(ns, gamma):
    rng = np.random.default_rng(89 + ns)
    m = fixtures.random_model(rng, ns, 2, 3, gamma)
    pi0, pi1 = (Policy("observation", rng.dirichlet(np.ones(3), size=2)) for _ in range(2))
    taus = compose(m.beta, rng.dirichlet(np.ones(3), size=(5, 2)))
    arrays = (taus, m.alpha, m.beta, m.reward, m.mu, pi0.matrix, pi1.matrix)
    before = [a.tobytes() for a in arrays]
    calls = [lambda: batch_eta(m, taus), lambda: batch_rewards(m, taus),
             lambda: certified_etas(m, taus), lambda: state_action_frequency(m, pi0),
             lambda: value_bundle(m, pi0), lambda: reward_curve_on_line(m, pi0, pi1)]
    if gamma < 1.0:
        calls.append(lambda: policy_gradient(m, pi0).jacobian)
    for call in calls:
        call()
        assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("ns", [4, SMALL_STATES])
def test_batch_rewards_holds_one_system_and_one_elimination_product(ns):
    # one (S, S, N) kernel becomes the system and is eliminated in place; the only other
    # array of that size is the product of one elimination step
    m = fixtures.random_model(np.random.default_rng(97), ns, 2, 2, 0.9)
    taus = compose(m.beta, np.random.default_rng(98).dirichlet(np.ones(2), size=(10**4, 2)))
    tracemalloc.start()
    try:
        batch_rewards(m, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ns * ns * len(taus) * 8


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc thresholds are glibc's")
@pytest.mark.parametrize("ns", [2, 3, 4, 8])
def test_warm_batched_solves_fault_no_pages(ns):
    # importing freq keeps freed (S, S, N) blocks in the heap, so once warm the 10^4-point
    # solves reuse them instead of faulting in fresh pages (thousands of faults without it)
    import resource  # POSIX only, like glibc

    rng = np.random.default_rng(ns)
    m = fixtures.random_model(rng, ns, 2, 2, 0.9)
    taus = compose(m.beta, rng.dirichlet(np.ones(2), size=(10**4, 2)))
    blind = fixtures.random_model(rng, ns, 1, 2, 0.9)

    def solves():
        batch_rewards(m, taus)
        blind_critical_points(blind)

    solves()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        solves()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50
