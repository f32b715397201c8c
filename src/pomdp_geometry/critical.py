"""Critical-point enumeration and counting bounds for the reward landscape.

Partial observability can create several smooth local optimizers in the
interior of the policy polytope plus non-smooth ones on its boundary.  This
module locates and classifies them exactly for single-observation
two-action controllers, and computes combinatorial upper bounds on the
number of critical points per face of the policy polytope for the general
case.  A blind controller moves every state at once with p = pi(a1|o),
a policy line on which every state varies.  The reward is then
R(p) = N(p) / D(p), the exact `RewardLine` of :mod:`pomdp_geometry.rational`:
N and D are Chebyshev coefficient arrays of degree at most the number of
states S, interpolated at S + 1 Chebyshev nodes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev

# reward_of is not used here; it stays bound as critical.reward_of because
# perfbench/test_smoke.py checks that the tracer wraps that binding site
from .freq import batch_rewards, policy_gradient, reward_of  # noqa: F401
from .geometry import RankError, SizeCapError, _check_cap, _model_packed
from .model import InputError, Policy, PomdpModel, _at_least, _csv_field, compose
from .rational import _line_form

# interior roots closer than this are reported once
MERGE_TOL = 1e-8

# reward ranges below 1e-12 of scale mean the landscape is flat
DEGENERATE_TOL = 1e-12

# one-sided slope threshold for boundary classification, relative to scale
BOUNDARY_SLOPE_TOL = 1e-7

# the cross-validation grid of blind_critical_points has at least this many cells
MIN_GRID_CELLS = 100

# kkt_residual counts a policy entry above this as carrying probability
ACTIVE_TOL = 1e-9

# critical_point_bound refuses a bound that may have more decimal digits than this:
# CPython's default limit on int-to-text conversion, so every bound it returns prints
BOUND_DIGITS_CAP = 4300

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

    The reward is R = N / D, the exact reward line from p = 0 to p = 1, with N and D
    Chebyshev coefficient arrays of degree at most the number of states.  The critical
    points are the real roots in (0, 1) of its `slope_numerator()` g = N'D - ND'
    (D > 0 for every gamma in (0, 1] on unichain lines), found by colleague matrix and
    classified by the sign of g', which is that of R''.  The endpoints are classified
    by the exact one-sided slopes R' = g / D^2.
    At gamma = 1 R is the mean reward, the same for every mu on a unichain
    line; a point where the chain is not unichain raises ErgodicityError.
    A dense grid, the `landscape_scan` of pi(a1|o), cross-validates the
    result: every sign change of the grid increments must lie within two
    cells of a reported extremum and vice versa, otherwise an
    :class:`ArithmeticError` is raised rather than returning a suspect answer.
    """
    if model.n_observations != 1 or model.n_actions != 2:
        raise InputError(
            "exact enumeration needs a single observation and two actions; "
            f"got {model.n_observations} observations, {model.n_actions} actions"
        )
    grid = _at_least(grid, "grid", MIN_GRID_CELLS)

    scan = landscape_scan(model, [(0, 0)], resolution=grid + 1)
    ps, rewards = scan.coordinates[:, 0], scan.rewards
    top, bottom = float(np.max(rewards)), float(np.min(rewards))
    spread = top - bottom
    if not math.isfinite(spread):
        # a NaN or an infinite reward makes the spread non-finite, as finite ones may overflow it
        bad = np.flatnonzero(~np.isfinite(rewards))
        if bad.size:
            raise ArithmeticError(
                f"grid reward at p={ps[bad[0]]:.12g} is {rewards[bad[0]]}, not finite")
    scale = max(1.0, top, -bottom)
    if spread <= DEGENERATE_TOL * scale:
        return CriticalSet(
            interior_roots=(),
            boundary={0.0: BOUNDARY_NEITHER, 1.0: BOUNDARY_NEITHER},
            degenerate=True,
            duplicates_merged=False,
        )

    # from the a2 vertex at p = 0 to the a1 vertex at p = 1, p = 0.5 (x + 1) on the series' x
    line = _line_form(model, *compose(model.beta, np.array([[[0.0, 1.0]], [[1.0, 0.0]]])))
    g = line.slope_numerator()
    candidates = 0.5 + 0.5 * chebyshev.chebroots(g)
    x = candidates[np.isreal(candidates)].real
    x = x[(x > 0.0) & (x < 1.0)]

    merged, duplicates_merged = _merge_close(x, MERGE_TOL)
    # at a root of g, R'' = g' / D^2 with D > 0
    curvatures = chebyshev.chebval(-1.0 + 2.0 * np.array(merged), chebyshev.chebder(g, 1, 2.0))
    roots = [(p, "max" if bend < 0 else "min" if bend > 0 else "saddle/flat")
             for p, bend in zip(merged, curvatures)]

    _cross_validate(ps, rewards, roots, scale, grid)

    thr = BOUNDARY_SLOPE_TOL * scale
    # g and D as the columns of one series; trailing zeros leave Clenshaw's bits unchanged
    series = np.zeros((max(len(g), len(line.den)), 2))
    series[:len(g), 0], series[:len(line.den), 1] = g, line.den
    g_ends, den_ends = chebyshev.chebval(np.array([-1.0, 1.0]), series)  # p = 0 and p = 1
    slope0, slope1 = g_ends / den_ends ** 2
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
    diffs, tol = np.diff(rewards), 1e-13 * scale
    # an increment within tol of zero is flat, any other rises or falls; comparisons read a
    # NaN as flat, so blind_critical_points refuses a non-finite reward before this
    rising = diffs > tol
    cells = np.flatnonzero(rising | (diffs < -tol))
    rises = rising[cells]
    flips = np.flatnonzero(rises[1:] != rises[:-1])
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
    the face.  ``degrees`` holds, per active observation, the degree of its
    constraint polynomials, the support size of its row in the model's
    constraint table; ``multiplicities`` counts the pinned actions per
    active observation; ``m`` is the face codimension budget: ambient
    policy dimension minus the number of pinned entries.  `from_counts` builds
    them from counts alone, `from_model` from a face of a model with square β.
    """

    active_set: tuple[tuple[str, str], ...]
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    m: int

    @classmethod
    def from_counts(cls, n_states: int, n_actions: int, pinned: dict[str, int],
                    degrees) -> "BoundInput":
        """The face of an S-state, A-action model that pins ``pinned[o]`` actions of each
        active observation o (in observation order, with constraint ``degrees``), its
        pinned actions labelled (a*1, o), (a*2, o), ...; InputError if a count or degree
        is not an integer of at least 1 or the face is empty."""
        degrees = tuple(degrees)
        if len(degrees) != len(pinned):
            raise InputError(f"degrees has {len(degrees)} entries for {len(pinned)} "
                             "pinned observations")
        n_states = _at_least(n_states, "n_states", 1)
        n_actions = _at_least(n_actions, "n_actions", 1)
        pinned = {o: _at_least(k, f"pinned[{o!r}]", 1) for o, k in pinned.items()}
        degrees = tuple(_at_least(d, f"degrees[{i}]", 1) for i, d in enumerate(degrees))
        for obs, count in pinned.items():
            if count >= n_actions:
                raise InputError(f"all actions pinned to zero for observation {obs}: "
                                 "the face is empty")
        m = n_states * (n_actions - 1) - sum(pinned.values())
        if m < 0:
            raise InputError("more pinned entries than policy dimensions")
        labels = tuple((f"a*{j + 1}", obs) for obs, count in pinned.items() for j in range(count))
        return cls(labels, degrees, tuple(pinned.values()), m)

    @classmethod
    def from_model(cls, model: PomdpModel, active_set) -> "BoundInput":
        """The face pinning active_set's (action, observation) labels or indices; they are
        resolved (InputError) before the square-beta check (RankError)."""
        pairs = sorted((model.observation_index(o), model.action_index(a)) for a, o in active_set)
        if model.n_states != model.n_observations:
            raise RankError(
                "the per-face bound needs a square invertible observation "
                f"kernel; got {model.n_states} states and "
                f"{model.n_observations} observations"
            )
        degrees = _model_packed(model).kept[::model.n_actions].sum(axis=1).tolist()
        if len(set(pairs)) != len(pairs):
            raise InputError("active set contains repeated pairs")
        per_obs = Counter(o for o, _ in pairs)
        inputs = cls.from_counts(model.n_states, model.n_actions,
                                 {model.observations[o]: k for o, k in per_obs.items()},
                                 [degrees[o] for o in per_obs])
        return replace(inputs, active_set=tuple(
            (model.actions[a], model.observations[o]) for o, a in pairs))


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

    Before any arithmetic, a recurrence of more than ``MONOMIAL_CAP`` steps
    (degrees x ``m``) and a bound that may have more than ``BOUND_DIGITS_CAP``
    decimal digits are refused with :class:`SizeCapError`; the digits are
    estimated from above as those of prefactor x C(m + n - 1, n - 1) x
    (largest degree - 1)^m for n degrees.
    """
    m, degrees, n = inputs.m, inputs.degrees, len(inputs.degrees)
    if m < 0:
        return 0
    if not n:
        return int(m == 0)
    _check_cap(n * m, f"a bound recurrence over {n} degrees to m = {m}")
    digits = (sum(k * math.log10(d) for d, k in zip(degrees, inputs.multiplicities))
              + (math.lgamma(m + n) - math.lgamma(m + 1) - math.lgamma(n)) / math.log(10)
              + m * math.log10(max(max(degrees) - 1, 1)))
    if digits >= BOUND_DIGITS_CAP:
        raise SizeCapError(f"a bound of up to {math.floor(digits) + 1} decimal digits exceeds "
                           f"the cap of {BOUND_DIGITS_CAP}")
    prefactor = 1
    for d, k in zip(degrees, inputs.multiplicities):
        prefactor *= d**k
    c = [1] + [0] * m
    for d in degrees:
        for j in range(1, m + 1):
            c[j] += (d - 1) * c[j - 1]
    return prefactor * c[m]


def face_critical_bound(model: PomdpModel, active_set) -> int:
    """Bound for a concrete model face given by pinned (action, obs) pairs."""
    return critical_point_bound(BoundInput.from_model(model, active_set))


def polar_degree_terms(k: int) -> tuple[int, int, int]:
    """The three alternating summands of the rank-one polar degree.

    Evaluated in closed polynomial form, which stays valid down to k = 1
    where the intermediate factorial expressions would be undefined.
    """
    k = _at_least(k, "k", 1)
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


@dataclass(frozen=True, eq=False)
class ScanGrid:
    """Rewards tabulated over a 1- or 2-axis slice of the policy polytope."""

    axes: tuple[tuple[str, str], ...]  # (observation, action) label pairs
    coordinates: np.ndarray  # (N, len(axes))
    rewards: np.ndarray  # (N,)
    shape: tuple[int, ...]

    def to_csv(self) -> str:
        """One header row, then one row per point with every number as %.17g.  An axis
        holds few distinct values: each is formatted once, told apart by bit pattern so
        that -0.0 still prints -0, and every row comes from one template."""
        headers = [_csv_field(f"pi[{a}|{o}]") for o, a in self.axes] + ["reward"]
        cells = []
        for column in np.asarray(self.coordinates, dtype=float).T:
            bits, index = np.unique(column.view(np.int64), return_inverse=True)
            labels = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
            cells.append(labels[index].tolist())
        row = ",".join(["%s"] * len(cells) + ["%.17g"]) + "\n"
        cells.append(np.asarray(self.rewards, dtype=float).tolist())
        values = tuple(itertools.chain.from_iterable(zip(*cells)))
        return ",".join(headers) + "\n" + row * len(self.rewards) % values


def _pinned_rows(base_row: np.ndarray, a_idx: int, values: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Policy rows with entry a_idx set to each value and the rest rescaled to fill 1 - value,
    written into and returned as out (N, A)."""
    others = np.arange(base_row.size) != a_idx
    weights = base_row if base_row[others].sum() > 1e-15 else others.astype(float)
    total, rest = weights[others].sum(), 1.0 - values
    for j, weight in enumerate(weights.tolist()):  # by columns: an (N, 1) * (A,) broadcast is slow
        if j == a_idx:
            out[:, j] = values
        else:
            np.divide(rest * weight, total, out=out[:, j])
    return out


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
    pairs = [(model.observation_index(o), model.action_index(a)) for o, a in axes]
    if not 1 <= len(pairs) <= 2:
        raise InputError("axes must contain one or two (observation, action) pairs")
    if len({o for o, _ in pairs}) != len(pairs):
        raise InputError("axes must address distinct observations")
    resolution = _at_least(resolution, "resolution", 2)
    _check_cap(resolution ** len(pairs), f"scanning {resolution}^{len(pairs)} points")
    if base_policy is None:  # the entries of Policy.uniform, without building one
        base = np.full((model.n_observations, model.n_actions), 1.0 / model.n_actions)
    elif base_policy.kind != "observation" or base_policy.matrix.shape != (
        model.n_observations,
        model.n_actions,
    ):
        raise InputError("base_policy must be an observation policy for this model")
    else:
        base = base_policy.matrix

    ticks = np.linspace(0.0, 1.0, resolution)
    if len(pairs) == 1:
        coords = ticks[:, None]
    else:
        coords = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1).reshape(-1, 2)

    # every row of the stack is written once: the swept ones pinned, the others from base
    swept = {o_idx: (axis, a_idx) for axis, (o_idx, a_idx) in enumerate(pairs)}
    pis = np.empty((len(coords), *base.shape))
    for o_idx, row in enumerate(base):
        if o_idx in swept:
            axis, a_idx = swept[o_idx]
            _pinned_rows(row, a_idx, coords[:, axis], pis[:, o_idx])
        else:
            pis[:, o_idx] = row
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
