"""Rational structure of the reward along policy lines.

Along a line of policies that vary only on a set of observations O, every
state-action frequency coordinate (and hence the reward) is a rational
function whose degree is at most the number of states compatible with O
under the observation kernel.  This module provides that bound, the exact
reward line R = N / D (`RewardLine`, any gamma in (0, 1]) with the degree
certificate and one-state reparametrization speed built on it, a rational
curve fitter for vectorised callables, the vertex and edge sweeps of the
policy polytope, one-observation vertex improvement, and monotone
improvement paths for fully observable models.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial import polynomial as pol

# reward_of is unused: perfbench/test_smoke.py checks the tracer wraps this binding site
from .freq import (BLOCK_ENTRIES, ErgodicityError, _block_len, _check_visits,  # noqa: F401
                   _reward_line_terms, batch_rewards, certified_etas, conditioning_inverse,
                   reward_of, state_action_frequency)
from .model import (Frequency, InputError, PomdpModel, Policy, _at_least, compose,
                    state_conditionals)

FIT_RESIDUAL_TOL = 1e-7   # a fitted degree is accepted when it explains f this well
LINE_MISS_TOL = 1e-7      # an exact line may miss direct solves by this share of the reward scale
COMMON_ROOT_TOL = 1e-6    # num/den roots closer than this in [0,1] flag a reducible fit
SAME_ROW_TOL = 1e-12      # policy rows closer than this count as equal
TRIM_TOL = 1e-13          # slope-numerator coefficients below this share of the largest are noise
ZERO_DEN_TOL = 1e-12      # |D| below this share of D's largest coefficient: M is singular


class DegreeFitError(ArithmeticError):
    """No rational function of the allowed degree explains the sampled curve."""


@dataclass(frozen=True, eq=False)
class RationalCurve:
    """A univariate rational function num/den with ascending coefficients.

    Normalized so den(1/2) = 1; fit_residual is the worst absolute error on
    the held-out validation grid.
    """

    num: np.ndarray
    den: np.ndarray
    fit_residual: float

    def __post_init__(self):
        num = np.atleast_1d(np.asarray(self.num, dtype=float))
        den = np.atleast_1d(np.asarray(self.den, dtype=float))
        if not np.any(den != 0.0):
            raise InputError("denominator must not be identically zero")
        num.setflags(write=False)
        den.setflags(write=False)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __call__(self, x):
        return pol.polyval(x, self.num) / pol.polyval(x, self.den)


@dataclass(frozen=True, eq=False)
class DegreeCertificate:
    """A degree bound, the exact N / D degree k <= bound, and the held-out check points."""

    bound: int
    fitted_degree: int
    witness_grid: np.ndarray

    def __post_init__(self):
        if self.fitted_degree > self.bound:
            raise InputError(
                f"fitted degree {self.fitted_degree} exceeds the bound {self.bound}")


def degree_bound(model: PomdpModel, varying_obs: Iterable) -> int:
    """Degree bound for the frequency curve along lines varying only these observations.

    The bound is the number of states compatible with the varying
    observations: |{s : beta(o|s) > 0 for some o in varying_obs}|.
    """
    indices = [model.observation_index(o) for o in varying_obs]
    if not indices:
        return 0
    support = np.any(model.beta[:, indices] > 0.0, axis=1)
    return int(np.sum(support))


def chebyshev_grid(n: int) -> np.ndarray:
    """n Chebyshev points of the first kind mapped to [0, 1], ascending."""
    k = np.arange(n)
    return np.sort((np.cos((2 * k + 1) * np.pi / (2 * n)) + 1.0) / 2.0)


def fit_rational_curve(f: Callable[[np.ndarray], np.ndarray], max_degree: int) -> RationalCurve:
    """Fit the smallest-degree rational function matching f on [0, 1].

    f takes an array of points and returns their values (a scalar result
    broadcasts); it is called once per candidate degree k, on the 4(k+1)
    Chebyshev fitting points and their interleaved midpoints together.  The
    first k whose worst error on the midpoints is at most 1e-7 wins.  The
    denominator is pinned by den(1/2) = 1, must stay positive on the grid
    (curves with poles in [0, 1] are rejected), and accepted fits share no
    num/den root in [0, 1] within 1e-6.
    """
    max_degree = _at_least(max_degree, "max_degree", 0)
    best_residual = np.inf
    for k in range(max_degree + 1):
        nodes = chebyshev_grid(4 * (k + 1))
        midpoints = (nodes[:-1] + nodes[1:]) / 2.0
        points = np.concatenate([nodes, midpoints])
        values, check = np.split(np.broadcast_to(f(points), points.shape), [len(nodes)])
        num, den = _solve_rational_ls(nodes, values, k)
        if np.min(pol.polyval(points, den)) <= 1e-9:
            continue  # spurious pole inside [0, 1]
        approx = pol.polyval(midpoints, num) / pol.polyval(midpoints, den)
        residual = float(np.max(np.abs(approx - check)))
        best_residual = min(best_residual, residual)
        # a reducible fit is passed over: a smaller degree must explain f
        if residual <= FIT_RESIDUAL_TOL and not _has_common_root(num, den):
            return RationalCurve(num, den, residual)
    raise DegreeFitError(
        f"no rational function of degree <= {max_degree} fits within "
        f"{FIT_RESIDUAL_TOL} (best validation residual {best_residual:.3e})")


def _solve_rational_ls(nodes: np.ndarray, values: np.ndarray, k: int):
    """Least squares for num/den of degree k with den(1/2) = 1.

    Eliminates den[0] via the normalization: unknowns are
    [num_0..num_k, den_1..den_k] and each node contributes the linear
    equation sum_j den_j f(x)(x^j - 2^-j) - sum_j num_j x^j = -f(x).
    """
    powers = np.vander(nodes, k + 1, increasing=True)          # x^0..x^k
    design = [-powers]
    if k > 0:
        shifted = powers[:, 1:] - np.power(0.5, np.arange(1, k + 1))[None, :]
        design.append(values[:, None] * shifted)
    design = np.hstack(design)
    sol, *_ = np.linalg.lstsq(design, -values, rcond=None)
    num = sol[:k + 1]
    den_tail = sol[k + 1:]
    den0 = 1.0 - float(np.sum(den_tail * np.power(0.5, np.arange(1, k + 1))))
    den = np.concatenate([[den0], den_tail])
    return num, den


def _has_common_root(num: np.ndarray, den: np.ndarray) -> bool:
    num, den = np.trim_zeros(num, "b"), np.trim_zeros(den, "b")
    if len(num) <= 1 or len(den) <= 1:
        return False
    r = pol.polyroots(num)
    r = r[(np.abs(r.imag) <= COMMON_ROOT_TOL) & (r.real >= -0.05) & (r.real <= 1.05)]
    return bool(np.any(np.abs(pol.polyroots(den)[:, None] - r) < COMMON_ROOT_TOL))


def _differing_rows(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Indices of the rows where two policy or conditional matrices differ by more than
    SAME_ROW_TOL."""
    return np.flatnonzero(np.max(np.abs(m1 - m0), axis=1) > SAME_ROW_TOL)


def _segment(start: np.ndarray, end: np.ndarray, ts) -> np.ndarray:
    """start + t (end - start) for every t in ts, on the last two (matrix) axes; the
    axes of ts broadcast against the leading axes of start and end."""
    return start + np.asarray(ts)[..., None, None] * (end - start)


class RewardLine(NamedTuple):
    """The reward R = N / D along tau0 + lam (tau1 - tau0), lam in [0, 1], as two read-only
    Chebyshev coefficient arrays of one length in x = 2 lam - 1.  Called on a scalar or an
    array of lam it gives R, or ErgodicityError where D vanishes to rounding (gamma = 1,
    multichain).

    With M = I - gamma (p_lam - 1 mu^T) (the gamma = 1 system of the solver
    core, built in `freq._reward_line_terms`), rho^T M = mu^T for every gamma in
    (0, 1], and D = det(M) is det(I - gamma p_lam) / (1 - gamma) for gamma < 1
    (matrix determinant lemma), finite at gamma = 1.  Only the rows of the k
    states whose conditionals differ move with lam, so by Cramer's rule D
    and N = R D have degree at most k = len(den) - 1.
    """

    num: np.ndarray
    den: np.ndarray

    def __call__(self, lam):
        num = chebyshev.chebval(-1.0 + 2.0 * np.asarray(lam), self.num)
        return num / self.denominator(lam)

    def denominator(self, lam):
        """D at lam, or ErgodicityError where D vanishes to rounding."""
        den = chebyshev.chebval(-1.0 + 2.0 * np.asarray(lam), self.den)
        if np.any(np.abs(den) <= ZERO_DEN_TOL * np.max(np.abs(self.den))):
            raise ErgodicityError("stationary distribution is not unique where D vanishes")
        return den

    def slope_numerator(self) -> np.ndarray:
        """g = N'D - ND' (R' = g / D^2, degree <= 2k - 2), formed only here: Chebyshev
        coefficients on [0, 1] (d/dlam = 2 d/dx) trimmed of noise that sends roots to infinity.
        Formed on Python floats with the bits of numpy.polynomial's chebder, chebmul, chebsub
        and chebtrim; only the two products' z-series go through np.convolve."""
        num, den = self.num.tolist(), self.den.tolist()
        g = _cheb_sub(_cheb_mul(_cheb_der(num, 2.0), den), _cheb_mul(num, _cheb_der(den, 2.0)))
        peak = math.nan if any(v != v for v in g) else max(map(abs, g))  # np.max keeps a NaN
        return np.array(_cheb_trim(g, TRIM_TOL * peak))


# --------------------------------------------------------------------------
# Chebyshev series algebra of one line on Python floats
#
# numpy.polynomial.chebyshev's operations in numpy's order, so every result has numpy's
# bits, on lists of at most 2S - 1 coefficients, where numpy's argument checks and array
# set-up cost more than the arithmetic.  numpy keeps the convolution and the eigenvalues.


def _trimseq(c: list) -> list:
    """c without its trailing zeros, keeping the first coefficient (`polyutils.trimseq`)."""
    end = len(c)
    while end > 1 and c[end - 1] == 0.0:
        end -= 1
    return c[:end]


def _cheb_trim(c: list, tol: float) -> list:
    """c up to its last coefficient above tol in magnitude, or [c[0] * 0] (`chebtrim`); a NaN
    tol keeps nothing."""
    end = len(c)
    while end and not abs(c[end - 1]) > tol:
        end -= 1
    return c[:end] if end else [c[0] * 0.0]


def _cheb_der(c: list, scl: float) -> list:
    """The derivative of c times scl (`chebder(c, 1, scl)`)."""
    n = len(c) - 1
    if n < 1:
        return [c[0] * 0.0]
    c = [v * scl for v in c]
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return der


def _cheb_mul(c1: list, c2: list) -> list:
    """The product c1 c2 (`chebmul`): the convolution of the two z-series.  numpy adds a
    zero to each halved coefficient but the middle one; that only turns -0.0 into 0.0,
    which np.convolve's sums do already."""
    zs = []
    for c in (_trimseq(c1), _trimseq(c2)):
        half = [v / 2 for v in c]
        zs.append(half[:0:-1] + [half[0] + half[0]] + half[1:])
    prd = np.convolve(*zs).tolist()
    n = (len(prd) + 1) // 2
    return _trimseq([prd[n - 1]] + [2 * v for v in prd[n:]])


def _cheb_sub(c1: list, c2: list) -> list:
    """The difference c1 - c2 (`chebsub`)."""
    c1, c2 = _trimseq(c1), _trimseq(c2)
    if len(c1) > len(c2):
        return _trimseq([a - b for a, b in zip(c1, c2)] + c1[len(c2):])
    return _trimseq([-b + a for a, b in zip(c1, c2)] + [-b for b in c2[len(c1):]])


def _cheb_val(x: float, c: list) -> float:
    """c at the point x by Clenshaw's recurrence (`chebval`)."""
    if len(c) == 1:
        return c[0] + 0.0 * x
    if len(c) == 2:
        return c[0] + c[1] * x
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


_SQRT_HALF = math.sqrt(0.5)  # chebcompanion's np.sqrt(.5): both are correctly rounded


def _cheb_roots(c: list) -> np.ndarray:
    """The roots of c (`chebroots`): the sorted eigenvalues of its colleague matrix
    (`chebcompanion`) with rows and columns reversed, real unless one is not."""
    c = _trimseq(c)
    if len(c) < 2:
        return np.array([])
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    n = len(c) - 1
    mat = [[0.0] * n for _ in range(n)]
    for i in range(n - 1):
        mat[i][i + 1] = mat[i + 1][i] = _SQRT_HALF if i == 0 else 0.5
    for i in range(n):  # scl / scl[-1] of chebcompanion is 1 / sqrt(.5), then ones
        mat[i][-1] -= (c[i] / c[-1]) * (1.0 / _SQRT_HALF if i == 0 else 1.0) * 0.5
    roots = np.linalg.eigvals(np.array([row[::-1] for row in mat[::-1]]))
    roots.sort()
    return roots


def _unit_roots(g: list) -> list[float]:
    """The real roots of the series g in lam in (0, 1), lam = 0.5 + 0.5 x, in the order of
    `_cheb_roots`.  numpy maps a complex root x to 0.5 + 0.5 x with imaginary part
    0.5 x.imag + 0.0 x.real; where that is zero the real part is 0.5 + 0.5 x.real."""
    lams = (0.5 + 0.5 * x.real for x in _cheb_roots(g).tolist() if 0.5 * x.imag == 0.0)
    return [lam for lam in lams if 0.0 < lam < 1.0]


def _end_slopes(g: list, den: list) -> tuple[float, float]:
    """R' = g / D^2 at lam = 0 and lam = 1.  Where D^2 is zero the slope is numpy's
    quotient (an infinity or a NaN, with numpy's warning), not ZeroDivisionError."""
    slopes = []
    for x in (-1.0, 1.0):
        top, d = _cheb_val(x, g), _cheb_val(x, den)
        bottom = d * d
        slopes.append(top / bottom if bottom else float(np.divide(top, bottom)))
    return slopes[0], slopes[1]


@functools.lru_cache(maxsize=32)
def _interpolation_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k + 1 Chebyshev nodes of the first kind and the transposed degree-k Vandermonde
    matrix at them, read-only: `_line_form` reads them for every line of degree k."""
    x = chebyshev.chebpts1(k + 1)
    vander = chebyshev.chebvander(x, k)
    x.setflags(write=False)
    vander.setflags(write=False)
    return x, vander.T


def _line_form(model: PomdpModel, tau0: np.ndarray, tau1: np.ndarray) -> RewardLine:
    """The RewardLine tau0 -> tau1 (`reward_curve_on_line`) as arrays, `chebinterpolate` inlined."""
    k = len(_differing_rows(tau0, tau1))
    x, vander_t = _interpolation_nodes(k)
    coef = np.dot(vander_t, _reward_line_terms(model, _segment(tau0, tau1, 0.5 * (x + 1.0))))
    coef[0] /= k + 1
    coef[1:] /= 0.5 * (k + 1)
    coef = coef.T.copy()  # rows N and D, contiguous
    coef.setflags(write=False)
    return RewardLine(*coef)


def reward_curve_on_line(model: PomdpModel, pi0: Policy, pi1: Policy) -> RewardLine:
    """The exact RewardLine along pi0 -> pi1: the coefficient arrays of N and D, interpolated
    at k + 1 interior Chebyshev nodes from `freq._reward_line_terms`, one `batch_rewards`
    call (ErgodicityError at gamma = 1 when a node's stationary law is not unique) and one
    batched determinant; numpy's `Chebyshev` class on domain [0, 1] reads them bit for bit."""
    if pi0.kind != pi1.kind:
        raise InputError(f"policies must share a kind, got {pi0.kind!r} and {pi1.kind!r}")
    return _line_form(model, state_conditionals(model, pi0), state_conditionals(model, pi1))


def line_degree_certificate(model: PomdpModel, pi0: Policy, pi1: Policy) -> DegreeCertificate:
    """Certify the reward degree along the policy line from pi0 to pi1.

    Both must be observation policies; the varying observations are those
    where the two matrices differ.  The reward is interpolated exactly as
    N / D of degree k, the number of states whose conditionals differ, and
    checked at the k + 2 Chebyshev points interleaving the nodes against
    one batched certified solve; a miss above LINE_MISS_TOL (1e-7) of the
    reward scale raises DegreeFitError.  Valid for every gamma in (0, 1].
    """
    if pi0.kind != "observation" or pi1.kind != "observation":
        raise InputError("line_degree_certificate needs observation policies")
    differing = _differing_rows(pi0.matrix, pi1.matrix)
    tau0, tau1 = state_conditionals(model, pi0), state_conditionals(model, pi1)
    line = _line_form(model, tau0, tau1)
    fitted = len(line.den) - 1
    witness = chebyshev_grid(fitted + 2)
    etas = certified_etas(model, _segment(tau0, tau1, witness))
    miss = float(np.max(np.abs(line(witness) - np.sum(etas * model.reward, axis=(1, 2)))))
    tol = LINE_MISS_TOL * max(1.0, float(np.max(np.abs(model.reward))))
    if not miss <= tol:
        raise DegreeFitError(
            f"the degree-{fitted} N / D form misses direct solves by {miss:.3e} > {tol:.3e}")
    return DegreeCertificate(bound=degree_bound(model, differing), fitted_degree=fitted,
                             witness_grid=witness)


# --------------------------------------------------------------------------
# one-state lines


def interpolation_speed(model: PomdpModel, pi0: Policy, pi1: Policy, lam: float) -> float:
    """The frequency-space position c of the policy-space position lam.

    For state policies differing on at most one state, eta along the line
    moves as eta_lam = eta_0 + c(lam) (eta_1 - eta_0) with

        c(lam) = lam D(1) / D(lam),

    a degree-one rational reparametrization of [0, 1], where D is the
    denominator of the line's N / D form (any gamma in (0, 1]).  Where D(1)
    or D(lam) vanishes (gamma = 1, a chain that is not unichain there) it
    raises ErgodicityError, as `RewardLine` does.
    """
    if pi0.kind != "state" or pi1.kind != "state":
        raise InputError("interpolation_speed needs state policies")
    tau0, tau1 = state_conditionals(model, pi0), state_conditionals(model, pi1)
    differing = _differing_rows(tau0, tau1)
    if len(differing) > 1:
        raise InputError(
            f"policies differ on {len(differing)} states ({differing.tolist()}); "
            "the closed form needs at most one")
    line = _line_form(model, tau0, tau1)
    return float(lam * line.denominator(1.0) / line.denominator(lam))


# --------------------------------------------------------------------------
# vertex and edge sweeps, vertex improvement, improvement paths


def _blocks(items: Iterable, entries_per_item: int) -> Iterable[list]:
    """Consecutive items, as lists holding at most BLOCK_ENTRIES entries (at least one item)."""
    items = iter(items)
    step = _block_len(entries_per_item, BLOCK_ENTRIES)
    while block := list(itertools.islice(items, step)):
        yield block


def deterministic_policies(n_rows: int, n_actions: int,
                           kind: str = "state") -> Iterable[Policy]:
    """All |A|^rows deterministic policies, in lexicographic action order; the counts are
    checked (InputError) on the call, before the first policy is drawn."""
    n_rows, n_actions = _at_least(n_rows, "n_rows", 1), _at_least(n_actions, "n_actions", 1)
    return (Policy.deterministic(assignment, n_actions, kind)
            for assignment in itertools.product(range(n_actions), repeat=n_rows))


def best_deterministic(model: PomdpModel, kind: str = "state") -> tuple[Policy, float]:
    """Exhaustive search over deterministic policies; returns (argmax, reward).

    Ties keep the lexicographically first assignment.  Candidates are scored
    by `batch_rewards` in blocks of at most BLOCK_ENTRIES policy entries.
    """
    if kind not in ("observation", "state"):
        raise InputError(f"policy kind must be 'observation' or 'state', got {kind!r}")
    n_rows = model.n_states if kind == "state" else model.n_observations
    na = model.n_actions
    eye = np.eye(na)
    best, best_r = None, -np.inf
    for block in _blocks(itertools.product(range(na), repeat=n_rows), n_rows * na):
        pis = eye[np.array(block, dtype=int).reshape(len(block), n_rows)]
        rewards = batch_rewards(model, pis if kind == "state" else compose(model.beta, pis))
        i = int(np.argmax(rewards))  # the first of equal maxima
        if rewards[i] > best_r:
            best, best_r = block[i], float(rewards[i])
    return Policy.deterministic(best, na, kind), best_r


def _edge_count(n_rows: int, n_actions: int) -> int:
    """Edges of a product of n_rows simplices over n_actions: rows * C(A, 2) * A^(rows - 1)."""
    return n_rows * math.comb(n_actions, 2) * n_actions ** (n_rows - 1)


def _simplex_edges(n_rows: int, n_actions: int):
    """All 1-dimensional faces of a product of simplices, as the action assignments of
    their two end vertices (free row at action a, then at b > a; every other row at one
    action), in lexicographic (free row, a, b, other rows) order."""
    for free_row in range(n_rows):
        for a, b in itertools.combinations(range(n_actions), 2):
            for others in itertools.product(range(n_actions), repeat=n_rows - 1):
                head, tail = others[:free_row], others[free_row:]
                yield head + (a,) + tail, head + (b,) + tail


def _edge_blocks(n_rows: int, n_actions: int, ts: np.ndarray):
    """Policies at the points ts of every edge, in blocks of whole edges that hold
    at most BLOCK_ENTRIES policy entries (or one edge): yields (index of the
    block's first edge, (edges * len(ts), n_rows, n_actions)).  The free row
    holds exactly 1 - t and t, every other entry exactly 0 or 1."""
    eye = np.eye(n_actions)
    first = 0
    for block in _blocks(_simplex_edges(n_rows, n_actions), len(ts) * n_rows * n_actions):
        starts, ends = (eye[np.array(side)][:, None] for side in zip(*block))
        yield first, _segment(starts, ends, ts).reshape(-1, n_rows, n_actions)
        first += len(block)


def vertex_improvement(model: PomdpModel, pi: Policy, obs) -> Policy:
    """Push one observation's action distribution to its best vertex.

    Requires that the observation is compatible with at most one state
    (then the reward is degree <= 1 in that row for any gamma in (0, 1],
    the k = 1 case of `_line_form`, so some vertex is optimal).
    Returns pi with row obs replaced by the best deterministic action; ties
    take the lowest action index.  A best vertex that falls short of pi by
    more than 1e-12 of the reward scale raises ArithmeticError.
    """
    if pi.kind != "observation":
        raise InputError("vertex_improvement needs an observation policy")
    state_conditionals(model, pi)  # refuses a policy of the wrong shape
    o = model.observation_index(obs)
    compatible = degree_bound(model, [o])
    if compatible > 1:
        raise InputError(
            f"observation {model.observations[o]!r} is compatible with {compatible} "
            "states; the vertex argument needs at most one")
    # one row per vertex action, then pi itself
    pis = np.repeat(pi.matrix[None], model.n_actions + 1, axis=0)
    pis[:-1, o] = np.eye(model.n_actions)
    rewards = batch_rewards(model, compose(model.beta, pis))
    best = int(np.argmax(rewards[:-1]))  # ties take the lowest action index
    margin = 1e-12 * max(1.0, float(np.max(np.abs(model.reward))))
    if not rewards[best] >= rewards[-1] - margin:
        raise ArithmeticError(
            f"no vertex beats the interior point: {rewards[best]} < {rewards[-1]}")
    return Policy("observation", pis[best])


def improvement_path(model: PomdpModel, pi: Policy,
                     steps: int) -> list[tuple[Policy, float]]:
    """A reward-monotone path from pi to a globally optimal policy.

    Fully observable models only (beta must be the identity), and every
    policy must visit every state (strictly positive mu with gamma < 1, or
    strictly positive transitions).  The path has two stages: first a
    policy-space straight line onto the conditioning of eta(pi) (the
    frequency, hence the reward, is constant there), then the conditioning
    pullback of the frequency-space straight line to a global optimum
    (where the reward is linear in the parameter).  Returns `steps`
    (policy, reward) samples along the concatenation.
    """
    ns, na = model.n_states, model.n_actions
    if model.n_observations != ns or np.max(np.abs(model.beta - np.eye(ns))) > 1e-12:
        raise InputError("improvement_path needs a fully observable model (identity beta)")
    _check_visits(model, "improvement_path")
    steps = _at_least(steps, "steps", 2)
    if pi.kind == "observation":
        pi = Policy("state", pi.matrix)  # identity beta: same matrix

    start = state_action_frequency(model, pi)
    anchor, flagged = conditioning_inverse(model, start)
    assert not flagged, "positivity check should preclude unvisited states"
    best_pi, _ = best_deterministic(model, kind="state")
    target = state_action_frequency(model, best_pi)

    stage1 = max(1, steps // 4)
    blends = _segment(pi.matrix, anchor.matrix, np.linspace(0.0, 1.0, stage1 + 1)[:-1])
    etas = _segment(start.eta, target.eta, np.linspace(0.0, 1.0, steps - stage1))
    pulled = [conditioning_inverse(model, Frequency.from_eta(eta))[0].matrix for eta in etas]
    matrices = np.concatenate([blends, pulled])
    rewards = batch_rewards(model, matrices).tolist()
    return [(Policy("state", m), r) for m, r in zip(matrices, rewards)]
