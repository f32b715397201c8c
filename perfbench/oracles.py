"""Benchmark-side reference computations, written in plain numpy.

Nothing here calls `pomdp_geometry`, so the checks stay independent of the
code they check.  Every function works on the raw model arrays: alpha
(S, A, S'), beta (S, O), reward (S, A), mu (S,) and gamma.
"""

from __future__ import annotations

import math

import numpy as np


def state_action_kernel(alpha, tau):
    """P[(s,a),(s',a')] = alpha(s'|s,a) tau(a'|s'), row-major (s,a) -> s*A + a."""
    ns, na, _ = alpha.shape
    return (alpha.reshape(ns * na, ns)[:, :, None] * tau[None, :, :]).reshape(ns * na, ns * na)


def fixed_point_residual(alpha, mu, gamma, tau, eta):
    """Max-norm defect of eta in eta = gamma P^T eta + (1 - gamma) (mu * tau)."""
    flat = np.asarray(eta, dtype=float).reshape(-1)
    big = state_action_kernel(alpha, tau)
    source = (mu[:, None] * tau).reshape(-1)
    return float(np.max(np.abs(flat - gamma * (big.T @ flat) - (1.0 - gamma) * source)))


def frequencies(alpha, mu, gamma, taus):
    """eta = rho * tau from the S x S system (I - gamma p^T) rho = (1 - gamma) mu.

    taus is (S, A) or a batch (N, S, A); the result has the same shape.
    """
    taus = np.asarray(taus, dtype=float)
    batch = taus.reshape((-1,) + taus.shape[-2:])
    ns = alpha.shape[0]
    small = np.einsum("nsa,sat->nst", batch, alpha)
    mats = np.eye(ns)[None] - gamma * np.swapaxes(small, 1, 2)
    rhs = np.broadcast_to((1.0 - gamma) * mu, (len(batch), ns))[..., None]
    rho = np.linalg.solve(mats, rhs)[..., 0]
    return (rho[:, :, None] * batch).reshape(taus.shape)


def rewards(alpha, reward, mu, gamma, taus):
    """Normalized rewards <reward, eta> for conditionals taus (S, A) or (N, S, A)."""
    etas = frequencies(alpha, mu, gamma, taus)
    return np.einsum("...sa,sa->...", etas, reward)


def directional_derivative_fd(alpha, beta, reward, mu, gamma, pi, direction, h=1e-5):
    """Central difference of R along an observation-policy direction."""
    taus = np.stack([beta @ (pi + h * direction), beta @ (pi - h * direction)])
    plus, minus = rewards(alpha, reward, mu, gamma, taus)
    return float((plus - minus) / (2.0 * h))


def blind_grid_extrema(alpha, reward, mu, gamma, grid=10_000):
    """Sign changes of the reward increments on a grid over p = pi(a1).

    For a blind two-action controller tau(.|s) = (p, 1 - p) in every state.
    Increments below 1e-13 of the reward scale count as flat, as in the
    library's own cross-validation.
    """
    ps = np.linspace(0.0, 1.0, grid + 1)
    ns = alpha.shape[0]
    taus = np.empty((grid + 1, ns, 2))
    taus[:, :, 0] = ps[:, None]
    taus[:, :, 1] = 1.0 - ps[:, None]
    values = rewards(alpha, reward, mu, gamma, taus)
    scale = max(1.0, float(np.max(np.abs(values))))
    diffs = np.diff(values)
    signs = np.sign(np.where(np.abs(diffs) <= 1e-13 * scale, 0.0, diffs))
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def product_simplex_f_vector(n_observations, n_actions):
    """Face counts by dimension of a product of n_observations (n_actions - 1)-simplices.

    A d-face picks k >= 1 of the A vertices per factor with sum(k - 1) = d,
    so the f-polynomial is (sum_k C(A, k) x^(k-1))^O.
    """
    factor = np.array([math.comb(n_actions, k) for k in range(1, n_actions + 1)], dtype=object)
    poly = np.array([1], dtype=object)
    for _ in range(n_observations):
        poly = np.convolve(poly, factor)
    return tuple(int(c) for c in poly)


def single_pair_face_bound(beta, n_actions, observation, support_tol=1e-12):
    """Critical-point bound for a face pinning one (action, observation) pair.

    With a square invertible beta, the pinned observation's constraint has
    degree d = |support of its row of beta^-1|, and the budget is
    m = S (A - 1) - 1; the bound d * (d - 1)^m follows.
    """
    ns = beta.shape[0]
    d = int(np.count_nonzero(np.abs(np.linalg.inv(beta)[observation]) > support_tol))
    m = ns * (n_actions - 1) - 1
    return d * (d - 1) ** m
