"""Exact state-action frequencies, values, gradients.

For gamma < 1 the (normalized, discounted) state-action frequency of a
policy is the unique solution of the linear fixed-point equation

    eta = gamma P^T eta + (1 - gamma) (mu * tau),

where P is the state-action kernel and (mu * tau)(s,a) = mu(s) tau(a|s).
For gamma = 1 it is the unique stationary distribution of P, provided the
stationary eigenspace is one-dimensional.

Every solver goes through one batched S x S core, `_solve`: eta = rho * tau
with (I - gamma p^T) rho = (1 - gamma) mu for the state kernel p, and values
solve (I - gamma p) v = r_tau.  Only the certificates and the on-demand
`GradientBundle.jacobian` use P.  Dense LU solves, no iterative methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Frequency, PomdpModel, Policy, kernels_for_tau, state_conditionals

RESIDUAL_TOL = 1e-10    # fixed-point residual any returned frequency must meet
ERGODICITY_TOL = 1e-8   # singular-value threshold for stationary-space dimension
RHO_FLOOR = 1e-12       # below this a state marginal counts as unvisited


class ErgodicityError(RuntimeError):
    """gamma = 1 was requested but the stationary distribution is not unique."""


@dataclass(frozen=True)
class ValueBundle:
    """State values V, state-action values Q and the scalar reward R.

    R = sum_s mu(s) V(s) always; with the normalized convention
    V(s) = (1-gamma) sum_a tau(a|s) Q(s,a) so that R = <reward, eta>.
    For gamma = 1 only R (the mean reward) is defined and V, Q are None.
    """

    V: np.ndarray | None
    Q: np.ndarray | None
    R: float


@dataclass(frozen=True)
class GradientBundle:
    """Reward gradient over observation-policy coordinates plus the frequency Jacobian.

    grad[o,a] is the partial derivative of R in the ambient coordinate
    pi(a|o).  jacobian[:, (s,a)], the derivative of the flattened eta in the
    state-policy coordinate tau(a|s), needs an SA x SA solve: built on first access.
    """

    grad: np.ndarray  # (O, A)
    model: PomdpModel = field(repr=False, compare=False)
    tau: np.ndarray = field(repr=False, compare=False)  # (S, A)
    rho: np.ndarray = field(repr=False, compare=False)  # (S,)

    @cached_property
    def jacobian(self) -> np.ndarray:
        """(S*A, S*A): column (s,a) is rho(s) (I - gamma P^T)^{-1} e_{(s,a)}."""
        big, _ = kernels_for_tau(self.model.alpha, self.tau)
        n = big.shape[0]
        inverse = np.linalg.solve(np.eye(n) - self.model.gamma * big.T, np.eye(n))
        return inverse * np.repeat(self.rho, self.tau.shape[1])[None, :]


# --------------------------------------------------------------------------
# solvers


def _solve(model: PomdpModel, taus: np.ndarray, values: bool = False):
    """The solver core: conditionals taus (N, S, A) -> (rho, v, q).

    rho (N, S) solves (I - gamma p^T) rho = (1 - gamma) mu, or at gamma = 1
    is the stationary distribution of p; eta = rho[..., None] * taus, also
    off the simplex.  With values (gamma < 1), v (N, S) solves
    (I - gamma p) v = r_tau and q = reward + gamma alpha v; else both None.
    """
    gamma = model.gamma
    small = (taus[:, :, None, :] @ model.alpha)[:, :, 0, :]  # p[n, s, t]
    eye = np.eye(model.n_states)
    if gamma < 1.0:
        rhs = np.repeat(((1.0 - gamma) * model.mu)[None, :, None], len(taus), axis=0)
        rho = np.linalg.solve(eye - gamma * small.transpose(0, 2, 1), rhs)[..., 0]
    else:
        rho = np.stack([_stationary_distribution(p) for p in small])
    if not values:
        return rho, None, None
    r_tau = np.einsum("nsa,sa->ns", taus, model.reward)
    v = np.linalg.solve(eye - gamma * small, r_tau[..., None])[..., 0]
    q = model.reward + gamma * np.einsum("sat,nt->nsa", model.alpha, v)
    return rho, v, q


def eta_for_tau(model: PomdpModel, tau: np.ndarray) -> np.ndarray:
    """Solve the fixed-point equation for raw conditionals tau; returns eta (S, A).

    No validation of tau: used internally for finite differences and grids.
    """
    rho, _, _ = _solve(model, tau[None])
    return rho[0][:, None] * tau


def batch_eta(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Frequencies for a batch of conditionals (gamma < 1): taus (N, S, A) -> (N, S, A)."""
    if model.gamma >= 1.0:
        raise ValueError("batch_eta requires gamma < 1")
    rho, _, _ = _solve(model, taus)
    return rho[..., None] * taus


def batch_rewards(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Normalized rewards for a batch of conditionals (gamma < 1): taus (N, S, A) -> (N,)."""
    if model.gamma >= 1.0:
        raise ValueError("batch_rewards requires gamma < 1")
    rho, _, _ = _solve(model, taus)
    return np.einsum("ns,nsa,sa->n", rho, taus, model.reward)


def _stationary_distribution(kernel: np.ndarray) -> np.ndarray:
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


def state_action_frequency(model: PomdpModel, pi: Policy) -> Frequency:
    """The exact state-action frequency of a policy.

    For gamma < 1 this solves the linear system directly; for gamma = 1 it
    returns the unique stationary distribution of the state-action kernel
    (raising ErgodicityError if the stationary eigenspace has dimension != 1).
    The mass is reset to the known 1 (near gamma = 1 the solve is off by
    ~eps/(1-gamma)) before the fixed-point residual is checked against 1e-10.
    """
    tau = state_conditionals(model, pi)
    eta = eta_for_tau(model, tau)
    eta /= eta.sum()
    residual = fixed_point_residual(model, tau, eta)
    if residual > RESIDUAL_TOL:
        raise ArithmeticError(
            f"frequency solve left fixed-point residual {residual:.3e} > {RESIDUAL_TOL}")
    # scrub solver noise: entries in (-1e-12, 0) are zeros
    eta = np.where(np.abs(eta) < 1e-15, 0.0, eta)
    return Frequency.from_eta(eta)


def fixed_point_residual(model: PomdpModel, tau: np.ndarray, eta: np.ndarray) -> float:
    """Max-norm defect of eta in the stationarity equation for conditionals tau.

    P^T eta is formed as tau(b|t) sum_{s,a} alpha(t|s,a) eta(s,a), without building P.
    """
    eta = np.asarray(eta, dtype=float).reshape(tau.shape)
    pushed = tau * np.einsum("sa,sat->t", eta, model.alpha)[:, None]
    if model.gamma < 1.0:
        defect = eta - model.gamma * pushed - (1.0 - model.gamma) * (model.mu[:, None] * tau)
    else:
        defect = eta - pushed
    return float(np.max(np.abs(defect)))


def truncation_length(gamma: float, tol: float) -> int:
    """Number of terms after which the tail of the discounted series is below tol."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"truncation length needs gamma in (0,1), got {gamma}")
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return max(0, math.ceil(math.log(tol * (1.0 - gamma)) / math.log(gamma)))


def truncated_series_oracle(model: PomdpModel, pi: Policy, tol: float) -> Frequency:
    """Independent frequency computation by summing the defining series.

    gamma < 1: sums gamma^t (P^T)^t (mu * tau) for t <= T, with T chosen so
    the discarded tail has total-variation mass below tol, and divides by
    the exact mass of the kept terms (so the result is a distribution while
    staying within tol of the limit).
    gamma = 1: Cesaro averages with doubling horizon until two successive
    averages agree within tol (O(1/T) convergence -- use coarse tolerances).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    tau = state_conditionals(model, pi)
    ns, na = model.n_states, model.n_actions
    big, _ = kernels_for_tau(model.alpha, tau)
    start = (model.mu[:, None] * tau).reshape(-1)
    if model.gamma < 1.0:
        horizon = truncation_length(model.gamma, tol)
        term = start.copy()
        acc = start.copy()
        for _ in range(horizon):
            term = model.gamma * (big.T @ term)
            acc += term
        # the kept terms have exact total mass sum_{t<=T} gamma^t; scaling by
        # it keeps the result a distribution and stays within tol of the limit
        eta = acc * (1.0 - model.gamma) / (1.0 - model.gamma ** (horizon + 1))
    else:
        eta = _cesaro_average(big, start, tol)
    eta = eta.reshape(ns, na)
    eta = np.where(np.abs(eta) < 1e-15, 0.0, eta)
    return Frequency.from_eta(eta)


def _cesaro_average(big: np.ndarray, start: np.ndarray, tol: float,
                    max_horizon: int = 1 << 22) -> np.ndarray:
    horizon = 64
    previous = None
    dist = start.copy()
    acc = np.zeros_like(start)
    steps = 0
    while horizon <= max_horizon:
        while steps < horizon:
            acc += dist
            dist = big.T @ dist
            steps += 1
        average = acc / steps
        if previous is not None and np.max(np.abs(average - previous)) <= 0.5 * tol:
            return average
        previous = average
        horizon *= 2
    raise ArithmeticError(
        f"Cesaro averaging did not stabilize within {max_horizon} steps at tol {tol}")


# --------------------------------------------------------------------------
# values and gradients


def value_bundle(model: PomdpModel, pi: Policy, normalized: bool = True) -> ValueBundle:
    """State/state-action values and the scalar reward of a policy.

    With the default normalized convention the reward and values carry the
    (1-gamma) prefactor, so R equals <reward, eta>.  normalized=False drops
    the prefactor from V and R (the plain expected discounted sum); Q never
    carries it.  For gamma = 1 returns the mean reward with V = Q = None.
    """
    if model.gamma == 1.0:
        return ValueBundle(V=None, Q=None, R=reward_of(model, pi))
    _, v, q = _solve(model, state_conditionals(model, pi)[None], values=True)
    v = v[0] * ((1.0 - model.gamma) if normalized else 1.0)
    return ValueBundle(V=v, Q=q[0], R=float(model.mu @ v))


def policy_gradient(model: PomdpModel, pi: Policy) -> GradientBundle:
    """Gradient of the (normalized) reward in ambient observation-policy coordinates.

    grad[o,a] = sum_s rho(s) beta(o|s) Q(s,a), which is the partial
    derivative of R = <reward, eta> with respect to pi(a|o) holding the other
    coordinates fixed.  It takes two S x S solves; the Jacobian is built on
    first access.
    """
    if model.gamma >= 1.0:
        raise ValueError("policy_gradient requires gamma < 1")
    if pi.kind != "observation":
        raise ValueError(f"policy_gradient needs an observation policy, got kind {pi.kind!r}")
    tau = state_conditionals(model, pi)
    rho, _, q = _solve(model, tau[None], values=True)
    grad = (model.beta * rho[0][:, None]).T @ q[0]
    return GradientBundle(grad=grad, model=model, tau=tau, rho=rho[0])


def conditioning_inverse(model: PomdpModel, freq: Frequency,
                         tol: float = RHO_FLOOR) -> tuple[Policy, tuple[int, ...]]:
    """Recover a state policy from a frequency by conditioning.

    pi(a|s) = eta(s,a)/rho(s) wherever rho(s) > tol; rows of unvisited
    states are set to the uniform distribution and their indices returned as
    the second element.
    """
    eta = np.clip(freq.eta, 0.0, None)
    rho = eta.sum(axis=1)
    na = eta.shape[1]
    matrix = np.full_like(eta, 1.0 / na)
    visited = rho > tol
    matrix[visited] = eta[visited] / rho[visited, None]
    flagged = tuple(int(i) for i in np.nonzero(~visited)[0])
    return Policy("state", matrix), flagged


def reward_of(model: PomdpModel, pi: Policy) -> float:
    """The normalized reward <reward, eta> of a policy (any gamma in (0, 1])."""
    tau = state_conditionals(model, pi)
    eta = eta_for_tau(model, tau)
    return float(np.sum(model.reward * eta))
