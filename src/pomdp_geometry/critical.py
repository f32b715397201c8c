"""Critical-point enumeration and counting bounds for the reward landscape.

Partial observability can create several smooth local optimizers in the
interior of the policy polytope plus non-smooth ones on its boundary.  This
module locates and classifies them exactly for single-observation
two-action controllers, and computes combinatorial upper bounds on the
number of critical points per face of the policy polytope for the general
case.  A blind controller moves every state at once with p = pi(a1|o),
a policy line on which every state varies.  The reward is then
R(p) = N(p) / D(p), taken from the exact line form of
:mod:`pomdp_geometry.rational`: N and D are polynomials of degree at most
the number of states S, interpolated at S + 1 Chebyshev nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# reward_of is not used here; it stays bound as critical.reward_of because
# perfbench/test_smoke.py checks that the tracer wraps that binding site
from .freq import batch_rewards, policy_gradient, reward_of  # noqa: F401
from .geometry import RankError, _check_cap, _support, pseudoinverse
from .model import Policy, PomdpModel, _resolve, compose
from .rational import _line_form

# interior roots closer than this are reported once
MERGE_TOL = 1e-8

# reward ranges below 1e-12 of scale mean the landscape is flat
DEGENERATE_TOL = 1e-12

# trailing Chebyshev coefficients of N'D - ND' below this fraction of the
# largest are cancellation noise; left in, they send colleague-matrix roots
# off to infinity
TRIM_TOL = 1e-13

# one-sided slope threshold for boundary classification, relative to scale
BOUNDARY_SLOPE_TOL = 1e-7

# the cross-validation grid of blind_critical_points has at least this many cells
MIN_GRID_CELLS = 100

# kkt_residual counts a policy entry above this as carrying probability
ACTIVE_TOL = 1e-9

BOUNDARY_MAX = "strict local max"
BOUNDARY_MIN = "strict local min"
BOUNDARY_NEITHER = "neither"


# ---------------------------------------------------------------------------
# exact critical points of blind two-action controllers


@dataclass(frozen=True)
class CriticalSet:
    """Classified critical points of a reward curve over [0, 1].

    ``interior_roots`` holds (parameter, kind) pairs sorted by parameter,
    with kind one of ``"max"``, ``"min"``, ``"saddle/flat"``.  ``boundary``
    classifies the endpoints 0.0 and 1.0 by their one-sided slopes.
    ``degenerate`` flags an (up to tolerance) constant landscape, in which
    case no roots are reported.
    """

    interior_roots: tuple[tuple[float, str], ...]
    boundary: dict[float, str]
    degenerate: bool
    duplicates_merged: bool

    @property
    def n_interior(self) -> int:
        return len(self.interior_roots)

    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for _, kind in self.interior_roots)

    def to_dict(self) -> dict:
        return {
            "roots": [
                {"p": p, "kind": kind} for p, kind in self.interior_roots
            ],
            "boundary": {str(key): val for key, val in sorted(self.boundary.items())},
            "degenerate": self.degenerate,
            "duplicates_merged": self.duplicates_merged,
        }


def blind_critical_points(model: PomdpModel, grid: int = 10_000) -> CriticalSet:
    """Locate all critical points of a blind two-action reward curve.

    The reward is R = N / D with N and D polynomials of degree at most the
    number of states, the exact line form from p = 0 to p = 1.  The
    critical points are the real roots in (0, 1) of g = N'D - ND' (D > 0
    for every gamma in (0, 1] on unichain lines), found by colleague matrix
    and classified by the sign of g', which is that of R''.  The endpoints
    are classified by the exact one-sided slopes R' = g / D^2.
    At gamma = 1 R is the mean reward, the same for every mu on a unichain
    line; a point where the chain is not unichain raises ErgodicityError.
    A dense grid, the `landscape_scan` of pi(a1|o), cross-validates the
    result: every sign change of the grid increments must lie within two
    cells of a reported extremum and vice versa, otherwise an
    :class:`ArithmeticError` is raised rather than returning a suspect answer.
    """
    if model.n_observations != 1 or model.n_actions != 2:
        raise ValueError(
            "exact enumeration needs a single observation and two actions; "
            f"got {model.n_observations} observations, {model.n_actions} actions"
        )
    if grid < MIN_GRID_CELLS:
        raise ValueError(f"grid must have at least {MIN_GRID_CELLS} cells")

    scan = landscape_scan(model, [(0, 0)], resolution=grid + 1)
    ps, rewards = scan.coordinates[:, 0], scan.rewards
    scale = max(1.0, float(np.max(np.abs(rewards))))
    spread = float(np.max(rewards) - np.min(rewards))
    if spread <= DEGENERATE_TOL * scale:
        return CriticalSet(
            interior_roots=(),
            boundary={0.0: BOUNDARY_NEITHER, 1.0: BOUNDARY_NEITHER},
            degenerate=True,
            duplicates_merged=False,
        )

    # from the a2 vertex at p = 0 to the a1 vertex at p = 1
    num, den = _line_form(model, *compose(model.beta, np.eye(2)[[1, 0], None]))
    g = num.deriv() * den - num * den.deriv()
    g = g.trim(TRIM_TOL * float(np.max(np.abs(g.coef))))
    dg = g.deriv()
    candidates = g.roots()
    x = candidates[np.isreal(candidates)].real
    x = x[(x > 0.0) & (x < 1.0)]

    merged, duplicates_merged = _merge_close(x, MERGE_TOL)
    # at a root of g, R'' = g' / D^2 with D > 0
    curvatures = dg(np.array(merged))
    roots = [(p, "max" if bend < 0 else "min" if bend > 0 else "saddle/flat")
             for p, bend in zip(merged, curvatures)]

    _cross_validate(ps, rewards, roots, scale, grid)

    thr = BOUNDARY_SLOPE_TOL * scale
    ends = np.array([0.0, 1.0])
    slope0, slope1 = g(ends) / den(ends) ** 2
    return CriticalSet(
        interior_roots=tuple(roots),
        boundary={0.0: _boundary_class(-slope0, thr), 1.0: _boundary_class(slope1, thr)},
        degenerate=False,
        duplicates_merged=duplicates_merged,
    )


def _boundary_class(outward_slope: float, thr: float) -> str:
    """Class of an endpoint from the slope pointing out of [0, 1] there."""
    if outward_slope > thr:
        return BOUNDARY_MAX
    if outward_slope < -thr:
        return BOUNDARY_MIN
    return BOUNDARY_NEITHER


def _merge_close(points: np.ndarray, tol: float) -> tuple[list[float], bool]:
    """Means of the chains of sorted points whose neighbours lie within tol, and
    whether any chain held more than one point."""
    if not len(points):
        return [], False
    points = np.sort(points)
    clusters = np.split(points, np.flatnonzero(np.diff(points) > tol) + 1)
    return [float(np.mean(c)) for c in clusters], len(clusters) < len(points)


def _cross_validate(ps, rewards, roots, scale, grid):
    """Require agreement between reported extrema and grid sign changes."""
    diffs = np.diff(rewards)
    signs = np.sign(np.where(np.abs(diffs) <= 1e-13 * scale, 0.0, diffs))
    cells = np.flatnonzero(signs)
    flips = np.flatnonzero(signs[cells[1:]] != signs[cells[:-1]])
    # midpoint between the last cell of one sign and the first of the next
    changes = 0.5 * (ps[cells[flips] + 1] + ps[cells[flips + 1]])
    window = 2.0 / grid + 1e-12

    extrema = np.array([p for p, kind in roots if kind in ("max", "min")])
    unmatched = extrema[~_near(extrema, changes, window)]
    if unmatched.size:
        raise ArithmeticError(
            f"reported extremum at p={unmatched[0]:.12g} has no matching sign "
            "change of the grid increments within two cells"
        )
    unreported = changes[~_near(changes, np.array([p for p, _ in roots]), window)]
    if unreported.size:
        raise ArithmeticError(
            f"grid increments change sign near p={unreported[0]:.6g} but no "
            "critical point was reported there"
        )


def _near(points: np.ndarray, targets: np.ndarray, window: float) -> np.ndarray:
    """For each point, whether some target lies within the window."""
    return (np.abs(points[:, None] - targets[None, :]) <= window).any(axis=1)


# ---------------------------------------------------------------------------
# combinatorial upper bounds per face


@dataclass(frozen=True)
class BoundInput:
    """Inputs of the per-face critical-point bound.

    ``active_set`` lists the (action, observation) pairs pinned to zero on
    the face.  ``degrees`` holds, per active observation, the support size
    of the corresponding pseudo-inverse row (the degree of the matching
    constraint polynomial); ``multiplicities`` counts the pinned actions
    per active observation; ``m`` is the face codimension budget: ambient
    policy dimension minus the number of pinned entries.
    """

    active_set: tuple[tuple[str, str], ...]
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    m: int

    @classmethod
    def from_model(cls, model: PomdpModel, active_set) -> "BoundInput":
        if model.n_states != model.n_observations:
            raise RankError(
                "the per-face bound needs a square invertible observation "
                f"kernel; got {model.n_states} states and "
                f"{model.n_observations} observations"
            )
        pinv = pseudoinverse(model.beta)
        pairs = [(_resolve(model, "action", a), _resolve(model, "observation", o))
                 for a, o in active_set]
        if len(set(pairs)) != len(pairs):
            raise ValueError("active set contains repeated pairs")
        per_obs: dict[int, int] = {}
        for _, o_idx in pairs:
            per_obs[o_idx] = per_obs.get(o_idx, 0) + 1
        m = _face_budget(model.n_states, model.n_actions,
                         {model.observations[o]: count for o, count in per_obs.items()})
        active_obs = sorted(per_obs)
        degrees = tuple(len(_support(pinv[o])) for o in active_obs)
        multiplicities = tuple(per_obs[o] for o in active_obs)
        labels = tuple(
            (model.actions[a_idx], model.observations[o_idx])
            for a_idx, o_idx in sorted(pairs, key=lambda t: (t[1], t[0]))
        )
        return cls(
            active_set=labels,
            degrees=degrees,
            multiplicities=multiplicities,
            m=m,
        )


def _face_budget(n_states: int, n_actions: int, pinned: dict[str, int]) -> int:
    """The codimension budget m = S·(A − 1) − Σ k of the face that pins k actions
    of each observation in ``pinned``; ValueError if the face is empty."""
    for obs, count in pinned.items():
        if count >= n_actions:
            raise ValueError(
                f"all actions pinned to zero for observation {obs}: the face is empty"
            )
    m = n_states * (n_actions - 1) - sum(pinned.values())
    if m < 0:
        raise ValueError("more pinned entries than policy dimensions")
    return m


def critical_point_bound(inputs: BoundInput) -> int:
    """Upper bound on the critical points in the face interior.

    The bound is the product of constraint degrees raised to their
    multiplicities, times the sum over all ways of distributing the
    codimension budget ``m`` among the active observations of the products
    of (degree - 1) powers.  The sum is the coefficient of ``x^m`` in the
    product of the series 1 / (1 - (degree - 1) x), each factor applied up
    to ``x^m`` by one exact-integer recurrence.  An empty active set leaves
    no observations to absorb the budget: the bound is 1 when ``m`` is zero
    and 0 otherwise — no interior critical points exist.
    """
    if inputs.m < 0:
        return 0
    prefactor = 1
    for d, k in zip(inputs.degrees, inputs.multiplicities):
        prefactor *= d**k
    c = [1] + [0] * inputs.m
    for d in inputs.degrees:
        for j in range(1, inputs.m + 1):
            c[j] += (d - 1) * c[j - 1]
    return prefactor * c[inputs.m]


def face_critical_bound(model: PomdpModel, active_set) -> int:
    """Bound for a concrete model face given by pinned (action, obs) pairs."""
    return critical_point_bound(BoundInput.from_model(model, active_set))


def polar_degree_terms(k: int) -> tuple[int, int, int]:
    """The three alternating summands of the rank-one polar degree.

    Evaluated in closed polynomial form, which stays valid down to k = 1
    where the intermediate factorial expressions would be undefined.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    t0 = (k + 1) * k * k // 2
    t1 = k * k * (k - 1) + 2 * k
    t2 = 2 * k + k * (k - 1) * (k - 2) // 2
    return t0, t1, t2


def polar_degree_rank_one(k: int) -> int:
    """Polar degree of the rank-one locus of k x 2 matrices: equals k.

    This is the sharp count behind the interior bound for blind two-action
    controllers with k states.
    """
    t0, t1, t2 = polar_degree_terms(k)
    return t0 - t1 + t2


# ---------------------------------------------------------------------------
# reward landscape scans and stationarity diagnostics


@dataclass(frozen=True)
class ScanGrid:
    """Rewards tabulated over a 1- or 2-axis slice of the policy polytope."""

    axes: tuple[tuple[str, str], ...]  # (observation, action) label pairs
    coordinates: np.ndarray  # (N, len(axes))
    rewards: np.ndarray  # (N,)
    shape: tuple[int, ...]

    def to_csv(self) -> str:
        headers = [f"pi[{a}|{o}]" for o, a in self.axes] + ["reward"]
        table = np.column_stack([self.coordinates, self.rewards])
        row = ",".join(["%.17g"] * table.shape[1]) + "\n"
        return ",".join(headers) + "\n" + row * len(table) % tuple(table.ravel().tolist())


def _pinned_rows(base_row: np.ndarray, a_idx: int, values: np.ndarray) -> np.ndarray:
    """Policy rows with entry a_idx set to each value and the rest rescaled to fill 1 - value."""
    rest = np.delete(base_row, a_idx)
    total = rest.sum()
    if total <= 1e-15:
        rest, total = np.ones_like(rest), rest.size
    others = ((1.0 - values)[:, None] * rest) / total
    return np.insert(others, a_idx, values, axis=1)


def landscape_scan(
    model: PomdpModel,
    axes,
    resolution: int = 101,
    base_policy: Policy | None = None,
) -> ScanGrid:
    """Tabulate rewards while sweeping one or two policy entries over [0, 1].

    Each axis is an (observation, action) pair; the swept entry is set to
    the grid value and the remaining entries of its row are rescaled
    proportionally to the base policy (uniform by default).  Two axes must
    address distinct observations so the sweeps do not fight over a row.
    """
    pairs = [(_resolve(model, "observation", o), _resolve(model, "action", a)) for o, a in axes]
    if not 1 <= len(pairs) <= 2:
        raise ValueError("axes must contain one or two (observation, action) pairs")
    if len({o for o, _ in pairs}) != len(pairs):
        raise ValueError("axes must address distinct observations")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    _check_cap(resolution ** len(pairs), f"scanning {resolution}^{len(pairs)} points")
    if base_policy is None:
        base_policy = Policy.uniform(model.n_observations, model.n_actions)
    elif base_policy.kind != "observation" or base_policy.matrix.shape != (
        model.n_observations,
        model.n_actions,
    ):
        raise ValueError("base_policy must be an observation policy for this model")

    ticks = np.linspace(0.0, 1.0, resolution)
    grids = np.meshgrid(*([ticks] * len(pairs)), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    n = coords.shape[0]

    pis = np.repeat(base_policy.matrix[None], n, axis=0)
    for axis, (o_idx, a_idx) in enumerate(pairs):
        pis[:, o_idx] = _pinned_rows(base_policy.matrix[o_idx], a_idx, coords[:, axis])
    rewards = batch_rewards(model, compose(model.beta, pis))
    labels = tuple(
        (model.observations[o_idx], model.actions[a_idx]) for o_idx, a_idx in pairs
    )
    return ScanGrid(
        axes=labels,
        coordinates=coords,
        rewards=rewards,
        shape=(resolution,) * len(pairs),
    )


def kkt_residual(model: PomdpModel, pi: Policy) -> float:
    """First-order stationarity residual of a policy for reward maximization.

    Within each observation row the gradient is centered over the
    coordinates carrying probability (a common multiplier makes them
    stationary); entries at the simplex boundary only contribute when the
    gradient pushes into the feasible region.  Returns the Frobenius norm
    of the assembled residual, which vanishes exactly at KKT points.
    """
    grad = policy_gradient(model, pi).grad
    resid = np.zeros_like(grad)
    for o in range(grad.shape[0]):
        free = pi.matrix[o] > ACTIVE_TOL
        lam = grad[o][free].mean()
        centered = grad[o] - lam
        resid[o, free] = centered[free]
        resid[o, ~free] = np.maximum(centered[~free], 0.0)
    return float(np.linalg.norm(resid))
