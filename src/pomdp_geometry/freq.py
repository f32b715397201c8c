"""Exact state-action frequencies, values, gradients.

For gamma < 1 the (normalized, discounted) state-action frequency of a
policy is the unique solution of the linear fixed-point equation

    eta = gamma P^T eta + (1 - gamma) (mu * tau),

where P is the state-action kernel and (mu * tau)(s,a) = mu(s) tau(a|s).
For gamma = 1 it is the unique stationary distribution of P, provided the
stationary eigenspace is one-dimensional (the chain is unichain).

Every S x S system of the package is I - gamma K for a batch of state kernels p,
made by one builder, `_discounted_system`, over K = p.  The rho-system
I - gamma p^T is its transposed view (the identity is symmetric).  The builder
applied after p -= 1 mu^T gives M = I - gamma (p - 1 mu^T): rho^T M = mu^T for every
gamma in (0, 1], and at gamma = 1 M is invertible exactly when p is unichain.  Each
function asks one question: `_solve` gives the state marginals rho of a batch, any
gamma, so eta = rho * tau, from (I - gamma p^T) rho = (1 - gamma) mu, or M^T rho = mu
at gamma = 1.  `_values` gives one policy's v and q at gamma < 1, (I - gamma p) v =
r_tau.  `_reward_line_terms` gives a policy line's N = R det M and D = det M, and
`GradientBundle.jacobian` solves the rho-system with S*A right-hand sides.  P is
never built: the certificates apply P^T through `_push`.

Every S x S solve goes through one primitive, `_linsolve`, on systems built
batch-last, (S, S, N), each written over the state kernel p it is built from;
`_linsolve` consumes its system, as LAPACK's dgesv does, and never writes its
right-hand sides, so a block holds one (S, S, N) array besides the elimination's
step products.  Direct solves, no iterative methods, in two branches:
up to SMALL_STATES states one Gaussian elimination with partial pivoting
runs over all N systems at once, a few numpy operations per column, where
LAPACK would be called once per tiny matrix; larger models call LAPACK's LU
(np.linalg.solve).  The branch depends on S alone, never on N, and both
branches solve each system on its own.  `_solve` splits a batch into
near-equal blocks, so no block holds a single point while a block has room
for two, and splitting a batch of two or more points never changes a bit.
A one-point batch can differ in the last bit: numpy's matmul takes a
matrix-vector path for it in `_state_kernels`.  For gamma < 1 the rho-systems
I - gamma p^T are strictly diagonally dominant by columns on the simplex
(|1 - gamma p(s|s)| > gamma sum_{t != s} p(t|s)), elimination keeps them so,
and partial pivoting never swaps a row there; conditionals off the simplex,
the gamma = 1 system M^T and the value systems I - gamma p can need swaps.

Importing this module sets two glibc malloc thresholds for the whole process,
where the C library has `mallopt` (glibc; not macOS or Windows): allocations
up to 32 MiB, four full solver blocks, come from the heap instead of fresh
mappings, and the heap is trimmed only past 64 MiB of free space at its top.
Freed (S, S, N) temporaries then stay mapped and are reused, so a warm batched
solve faults in no new pages.  The price: every caller in the process gets these
thresholds, and up to 64 MiB of freed memory per malloc arena stays mapped for
reuse.  No result depends on them.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Frequency, InputError, PomdpModel, Policy, check_frequency, state_conditionals

RESIDUAL_TOL = 1e-10    # fixed-point residual any returned frequency must meet
ERGODICITY_TOL = 1e-8   # singular-value threshold for stationary-space dimension
RHO_FLOOR = 1e-12       # below this a state marginal counts as unvisited
BLOCK_ENTRIES = 2**20   # a batched solve holds at most this many S x S matrix entries
# `_linsolve` eliminates all systems at once up to this many states: on 1681 to 10^4 systems
# that takes 0.07-0.44 of LAPACK's time for S <= 7, 0.6-0.95 at S = 8, 9, more from S ~ 10-16
SMALL_STATES = 8
MAX_SERIES_STEPS = 1 << 22  # the series oracle refuses to push P^T more often
# glibc's mallopt parameters (malloc.h) and values: four full solver blocks of float64
# entries, which is also the most glibc's own dynamic threshold reaches on 64-bit
# hosts, and a trim threshold twice the mmap threshold, glibc's own rule
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 4 * 8 * BLOCK_ENTRIES


def _keep_freed_blocks() -> None:
    """Keep freed solver blocks in the heap for reuse (see the module docstring);
    nothing is set where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (macOS), no CDLL(None) (Windows)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


_keep_freed_blocks()


class ErgodicityError(RuntimeError):
    """gamma = 1 was requested but the stationary distribution is not unique."""


@dataclass(frozen=True, eq=False)
class ValueBundle:
    """State values V, state-action values Q and the scalar reward R.

    R = sum_s mu(s) V(s) always; with the normalized convention
    V(s) = (1-gamma) sum_a tau(a|s) Q(s,a) so that R = <reward, eta>.
    For gamma = 1 only R (the mean reward) is defined and V, Q are None.
    """

    V: np.ndarray | None
    Q: np.ndarray | None
    R: float


@dataclass(frozen=True, eq=False)
class GradientBundle:
    """Reward gradient over observation-policy coordinates plus the frequency Jacobian.

    grad[o,a] is the partial derivative of R in the ambient coordinate
    pi(a|o).  jacobian[:, (s,a)], the derivative of the flattened eta in the
    state-policy coordinate tau(a|s), is built on first access by one S x S solve.
    """

    grad: np.ndarray  # (O, A)
    model: PomdpModel = field(repr=False)
    tau: np.ndarray = field(repr=False)  # (S, A)
    rho: np.ndarray = field(repr=False)  # (S,)

    @cached_property
    def jacobian(self) -> np.ndarray:
        """(S*A, S*A): column (s,a) is rho(s) (I - gamma P^T)^{-1} e_{(s,a)}, which is
        rho(s) (e_{(s,a)} + gamma tau * Y[:, (s,a)]) with (I - gamma p^T) Y = alpha^T (S, S*A),
        since P^T x = tau(b|t) sum_{s,a} alpha(t|s,a) x(s,a) (see `_push`)."""
        gamma, (ns, na) = self.model.gamma, self.tau.shape
        p = _state_kernels(self.model, self.tau[None])
        system = _discounted_system(self.model, p).transpose(1, 0, 2)
        y = _linsolve(system, self.model.alpha.reshape(-1, ns).T[..., None])[..., 0]
        pushed = (self.tau[:, :, None] * y[:, None, :]).reshape(ns * na, ns * na)
        return (np.eye(ns * na) + gamma * pushed) * np.repeat(self.rho, na)


# --------------------------------------------------------------------------
# solvers


def _state_kernels(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """State kernels p[s, t, n] = sum_a taus[n, s, a] alpha(t|s, a) of a batch of conditionals
    taus (N, S, A), batch-last: one (S, A) @ (A, N) product per state s."""
    return model.alpha.transpose(0, 2, 1) @ taus.transpose(1, 2, 0)


def _state_rewards(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Expected rewards r_tau[s, n] = sum_a taus[n, s, a] reward(s, a), batch-last (S, N)."""
    return (taus.transpose(1, 0, 2) @ model.reward[:, :, None])[..., 0]


def _discounted_system(model: PomdpModel, p: np.ndarray) -> np.ndarray:
    """I - gamma p for batch-last kernels p (S, S, N), written over p and returned in it:
    the one builder of every S x S system (see the module docstring)."""
    np.multiply(p, model.gamma, out=p)
    return np.subtract(np.eye(model.n_states)[:, :, None], p, out=p)


def _linsolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one S x S solve primitive, under `_solve`, `_values` and `GradientBundle.jacobian`:
    x[:, :, n] = a[:, :, n]^{-1} b[:, :, n] for batch-last systems a (S, S, N) and
    right-hand sides b (S, K, N), or (S, K, 1) shared by all N.

    Up to SMALL_STATES states `_eliminate` solves all systems at once in place of a;
    larger ones go to LAPACK one matrix at a time.  Like LAPACK's dgesv it may overwrite
    a, which the caller must not read afterwards; b is never written.  A zero pivot
    raises np.linalg.LinAlgError("Singular matrix") on both branches.
    """
    ns, n = a.shape[0], a.shape[-1]
    if ns > SMALL_STATES:
        return np.linalg.solve(a.transpose(2, 0, 1), b.transpose(2, 0, 1)).transpose(1, 2, 0)
    x = np.empty((ns, b.shape[1], n))
    x[...] = b
    return _eliminate(a, x)


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on systems a (S, S, N) with right-hand
    sides b (S, K, N), all N at once: a few numpy operations per column, each over every
    system.  Overwrites both and returns x in b.

    A row is swapped in only where it beats the pivot candidate strictly (ties keep the
    candidate, as LAPACK's first-maximum rule does), so the rho-systems of gamma < 1 on
    the simplex never swap.  Back substitution goes column by column: no step sums over a
    batch-dependent axis, so every system's bits are independent of the rest of the batch.
    """
    ns = a.shape[0]
    for k in range(ns):
        if k + 1 < ns:
            mags = np.abs(a[k:, k])
            beaten = mags[1:] > mags[0]
            if beaten.any():
                cols = np.flatnonzero(beaten.any(axis=0))
                rows = k + np.argmax(mags[:, cols], axis=0)
                for m in (a, b):
                    top = m[k, :, cols]
                    m[k, :, cols] = m[rows, :, cols]
                    m[rows, :, cols] = top
        pivot = a[k, k]
        if not pivot.all():
            raise np.linalg.LinAlgError("Singular matrix")
        if k + 1 < ns:
            factors = (a[k + 1:, k] / pivot)[:, None]
            a[k + 1:, k + 1:] -= factors * a[k, None, k + 1:]
            b[k + 1:] -= factors * b[k]
    for k in range(ns - 1, -1, -1):
        b[k] /= a[k, k]
        if k:
            b[:k] -= a[:k, k, None] * b[k]
    return b


def _solve(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """The solver core: conditionals taus (N, S, A) -> state marginals rho (N, S), any gamma.

    rho solves (I - gamma p^T) rho = (1 - gamma) mu, or at gamma = 1
    M^T rho = mu with M = I - (p - 1 mu^T), once one batched SVD shows
    each p^T - I with exactly one singular value below ERGODICITY_TOL (else
    ErgodicityError); eta = rho[..., None] * taus, also off the simplex.  The
    systems are built batch-last, (S, S, N), over the state kernels and consumed by
    `_linsolve`: one batched elimination up to SMALL_STATES states, LAPACK above, the
    branch chosen by S alone.  Partial pivoting never swaps rows of the gamma < 1
    rho-systems: on the simplex their columns are strictly diagonally dominant.
    Batches beyond BLOCK_ENTRIES S x S entries are solved in ceil(N / block) near-equal
    blocks, so no block holds one point while a block has room for two.
    """
    block = _block_len(model.n_states**2, BLOCK_ENTRIES)
    if len(taus) > block:
        return np.concatenate([_solve(model, part)
                               for part in np.array_split(taus, -(-len(taus) // block))])
    gamma, ns = model.gamma, model.n_states
    p = _state_kernels(model, taus)
    if gamma < 1.0:
        rhs = ((1.0 - gamma) * model.mu)[:, None, None]
    else:
        sing = np.linalg.svd(p.transpose(2, 1, 0) - np.eye(ns), compute_uv=False)
        dims = np.count_nonzero(sing < ERGODICITY_TOL, axis=1)
        if np.any(dims != 1):
            raise ErgodicityError(
                f"stationary distribution is not unique: {dims[dims != 1][0]} singular "
                f"values of (kernel^T - I) lie below {ERGODICITY_TOL}")
        np.subtract(p, model.mu[:, None], out=p)
        rhs = model.mu[:, None, None]
    return _linsolve(_discounted_system(model, p).transpose(1, 0, 2), rhs)[:, 0].T


def _values(model: PomdpModel, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One policy's unnormalized values at gamma < 1 from its conditionals tau (S, A):
    v (S,) solves (I - gamma p) v = r_tau and q = reward + gamma alpha v (S, A).  The
    system is built over the kernel of a one-point batch and consumed by `_linsolve`."""
    system = _discounted_system(model, _state_kernels(model, tau[None]))
    v = _linsolve(system, _state_rewards(model, tau[None])[:, None])[:, 0].T
    q = model.reward + model.gamma * np.einsum("sat,nt->nsa", model.alpha, v)
    return v[0], q[0]


def _block_len(entries_per_item: int, budget: int) -> int:
    """How many items of entries_per_item entries one block holds: at most budget
    entries, and at least one item."""
    return max(1, budget // entries_per_item)


def _scrub(eta: np.ndarray) -> np.ndarray:
    """eta with solver noise, entries below 1e-15 in magnitude, set to exact zeros."""
    return np.where(np.abs(eta) < 1e-15, 0.0, eta)


def _check_visits(model: PomdpModel, what: str) -> None:
    """InputError unless every policy visits every state: gamma < 1 with mu > 0, or alpha > 0."""
    if not (model.gamma < 1.0 and np.all(model.mu > 0.0)) and not np.all(model.alpha > 0.0):
        raise InputError(
            f"{what} requires every policy to visit every state: need gamma < 1 with "
            "positive mu, or a positive transition kernel")


def eta_for_tau(model: PomdpModel, tau: np.ndarray) -> np.ndarray:
    """Solve the fixed-point equation for raw conditionals tau; returns eta (S, A).

    No validation of tau: used internally for finite differences and grids.
    """
    return batch_eta(model, tau[None])[0]


def batch_eta(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Frequencies for a batch of conditionals: taus (N, S, A) -> (N, S, A), any gamma."""
    return _solve(model, taus)[..., None] * taus


def batch_rewards(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Normalized rewards for a batch of conditionals: taus (N, S, A) -> (N,), any gamma."""
    # one (S, N) layout for both factors, so the sum over s never depends on how taus is laid out
    rho = np.ascontiguousarray(_solve(model, taus).T)
    return (rho * _state_rewards(model, taus)).sum(axis=0)


def _reward_line_terms(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """(N, 2): the numerator R det M and denominator det M of the reward R = <reward, eta>
    of each conditional of taus (N, S, A), with M = I - gamma (p - 1 mu^T) (see
    `rational.RewardLine`); ErgodicityError as `_solve` at gamma = 1."""
    rewards = batch_rewards(model, taus)
    p = _state_kernels(model, taus)  # batch-last (S, S, N)
    np.subtract(p, model.mu[:, None], out=p)
    dets = np.linalg.det(_discounted_system(model, p).transpose(2, 0, 1))
    return np.stack([rewards * dets, dets], axis=1)


def certified_etas(model: PomdpModel, taus: np.ndarray) -> np.ndarray:
    """Certified frequencies of a batch of conditionals: taus (N, S, A) -> (N, S, A).

    Solves through `_solve` (ErgodicityError at gamma = 1 if the stationary
    eigenspace has dimension != 1), resets each mass to the known 1 (near
    gamma = 1 the solve is off by ~eps/(1-gamma)), checks the batch's
    fixed-point residual against 1e-10 and each point against `Frequency`.
    """
    eta = _solve(model, taus)[..., None] * taus
    eta /= eta.sum(axis=(1, 2), keepdims=True)
    residual = fixed_point_residual(model, taus, eta)
    if not residual <= RESIDUAL_TOL:  # NaN fails
        raise ArithmeticError(
            f"frequency solve left fixed-point residual {residual:.3e} > {RESIDUAL_TOL}")
    eta = _scrub(eta)
    check_frequency(eta)
    return eta


def state_action_frequency(model: PomdpModel, pi: Policy) -> Frequency:
    """The exact state-action frequency of a policy: `certified_etas` for one point."""
    return Frequency.from_eta(certified_etas(model, state_conditionals(model, pi)[None])[0])


def fixed_point_residual(model: PomdpModel, tau: np.ndarray, eta: np.ndarray) -> float:
    """Max-norm defect of eta in the stationarity equation for conditionals tau.

    Broadcasts over leading batch axes of tau (..., S, A), returning the worst.
    """
    eta = np.asarray(eta, dtype=float).reshape(tau.shape)
    pushed = _push(model, tau, eta)
    defect = eta - model.gamma * pushed - (1.0 - model.gamma) * (model.mu[:, None] * tau)
    return float(np.max(np.abs(defect)))


def _push(model: PomdpModel, tau: np.ndarray, eta: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """(P^T eta)(t, b) = tau(b|t) sum_{s,a} alpha(t|s,a) eta(s,a), batched over leading
    axes, without building the state-action kernel P; written into ``out`` when given,
    which may be eta itself."""
    flat = eta.reshape(eta.shape[:-2] + (-1,)) @ model.alpha.reshape(-1, model.n_states)
    return np.multiply(tau, flat[..., None], out=out)


def _check_tol(tol: float) -> None:
    """InputError unless 0 < tol < inf: no result meets a tol of zero or below (NaN fails
    too), and an infinite one overflows the series horizon or admits anything."""
    if not tol > 0.0:
        raise InputError(f"tol must be > 0, got {tol}")
    if tol == math.inf:
        raise InputError(f"tol must be finite, got {tol}")


def truncation_length(gamma: float, tol: float) -> int:
    """Number of terms after which the tail of the discounted series is below tol."""
    if not (0.0 < gamma < 1.0):
        raise InputError(f"truncation length needs gamma in (0,1), got {gamma}")
    _check_tol(tol)
    return max(0, math.ceil(math.log(tol * (1.0 - gamma)) / math.log(gamma)))


def truncated_series_oracle(model: PomdpModel, pi: Policy, tol: float) -> Frequency:
    """Independent frequency computation by summing the defining series.

    gamma < 1: sums gamma^t (P^T)^t (mu * tau) for t <= T, with T chosen so
    the discarded tail has total-variation mass below tol, and divides by
    the exact mass of the kept terms (so the result is a distribution while
    staying within tol of the limit).
    gamma = 1: Cesaro averages with doubling horizon until two successive
    averages agree within tol (O(1/T) convergence -- use coarse tolerances;
    a tol that trend cannot meet by the step cap is refused early).
    P^T is applied by `_push`; beyond MAX_SERIES_STEPS steps it raises ArithmeticError.
    """
    _check_tol(tol)  # a NaN tol would run every step of the cap before refusing
    tau = state_conditionals(model, pi)
    start = model.mu[:, None] * tau
    if model.gamma < 1.0:
        horizon = truncation_length(model.gamma, tol)
        if horizon > MAX_SERIES_STEPS:
            raise ArithmeticError(
                f"series oracle needs T = {horizon} terms at gamma {model.gamma} and tol {tol}, "
                f"beyond the cap of {MAX_SERIES_STEPS}")
        term = start.copy()
        acc = start.copy()
        for _ in range(horizon):  # each step in place: term <- gamma * P^T term
            _push(model, tau, term, out=term)
            term *= model.gamma
            acc += term
        # the kept terms have exact total mass sum_{t<=T} gamma^t; scaling by
        # it keeps the result a distribution and stays within tol of the limit
        eta = acc * (1.0 - model.gamma) / (1.0 - model.gamma ** (horizon + 1))
    else:
        eta = _cesaro_average(model, tau, start, tol)
    return Frequency.from_eta(_scrub(eta))


def _cesaro_average(model: PomdpModel, tau: np.ndarray, start: np.ndarray,
                    tol: float) -> np.ndarray:
    horizon = 64
    previous, stuck = None, False
    dist = start.copy()
    acc = np.zeros_like(start)
    steps = 0
    while horizon <= MAX_SERIES_STEPS:
        while steps < horizon:
            acc += dist
            _push(model, tau, dist, out=dist)
            steps += 1
        average = acc / steps
        if previous is not None:
            change = np.max(np.abs(average - previous))
            if change <= 0.5 * tol:
                return average
            # changes shrink like 1/T: refuse once two in a row, scaled to the cap, miss tol/2 4x
            stuck, was_stuck = change * steps > 4.0 * 0.5 * tol * MAX_SERIES_STEPS, stuck
            if stuck and was_stuck:
                break
        previous = average
        horizon *= 2
    raise ArithmeticError(
        f"Cesaro averaging cannot stabilize within {MAX_SERIES_STEPS} steps at tol {tol}")


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
    v, q = _values(model, state_conditionals(model, pi))
    v = v * ((1.0 - model.gamma) if normalized else 1.0)
    return ValueBundle(V=v, Q=q, R=float(model.mu @ v))


def policy_gradient(model: PomdpModel, pi: Policy) -> GradientBundle:
    """Gradient of the (normalized) reward in ambient observation-policy coordinates.

    grad[o,a] = sum_s rho(s) beta(o|s) Q(s,a), which is the partial
    derivative of R = <reward, eta> with respect to pi(a|o) holding the other
    coordinates fixed.  It takes two S x S solves; the Jacobian is built on
    first access.
    """
    if model.gamma >= 1.0:
        raise InputError("policy_gradient requires gamma < 1")
    if pi.kind != "observation":
        raise InputError(f"policy_gradient needs an observation policy, got kind {pi.kind!r}")
    tau = state_conditionals(model, pi)
    rho = _solve(model, tau[None])[0]
    grad = (model.beta * rho[:, None]).T @ _values(model, tau)[1]
    return GradientBundle(grad=grad, model=model, tau=tau, rho=rho)


def conditioning_inverse(model: PomdpModel, freq: Frequency) -> tuple[Policy, tuple[int, ...]]:
    """Recover a state policy from a frequency by conditioning.

    pi(a|s) = eta(s,a)/rho(s) wherever rho(s) > RHO_FLOOR; rows of unvisited
    states are set to the uniform distribution and their indices returned as
    the second element.
    """
    eta = np.clip(freq.eta, 0.0, None)
    rho = eta.sum(axis=1)
    na = eta.shape[1]
    matrix = np.full_like(eta, 1.0 / na)
    visited = rho > RHO_FLOOR
    matrix[visited] = eta[visited] / rho[visited, None]
    flagged = tuple(int(i) for i in np.nonzero(~visited)[0])
    return Policy("state", matrix), flagged


def reward_of(model: PomdpModel, pi: Policy) -> float:
    """The normalized reward <reward, eta> of a policy (any gamma in (0, 1])."""
    tau = state_conditionals(model, pi)
    eta = eta_for_tau(model, tau)
    return float(np.sum(model.reward * eta))
