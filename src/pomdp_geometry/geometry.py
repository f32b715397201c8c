"""Polyhedral and polynomial descriptions of feasible state-action frequencies.

For a fully observable controller the feasible frequencies form a polytope
cut out by one linear equality per state (plus nonnegativity).  Partial
observability restricts the admissible conditionals to an affine slice of
the simplex product, and eliminating the visitation denominators turns the
slice conditions into polynomial inequalities in the frequency entries.
This module builds both descriptions, checks membership, and enumerates the
combinatorial face lattice of the constraint system together with a
numerical certificate that the polynomial description carves out each face.
Polynomials are stored in factored form; their A^|support|-term monomial
expansion is derived on demand, up to ``MONOMIAL_CAP`` terms.  Constraints are
evaluated together in one stacked pass over their factored forms.  The faces
themselves depend only on the observation and action labels and ``max_dim``: they
are built once per such shape and reused by every later lattice of it; the last
shape's tables are kept (up to ~118 MB at the largest shapes ``FACE_COORD_CAP``
admits).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .freq import BLOCK_ENTRIES, _block_len, _check_visits, certified_etas
from .model import PomdpModel, compose

# support cutoff for pseudo-inverse entries when building polynomial
# constraints; entries within NEAR_ZERO_FACTOR of the cutoff trigger a
# conditioning warning because the support set is then numerically fragile
SUPPORT_TOL = 1e-12
NEAR_ZERO_FACTOR = 100.0

# rank decision for the observation kernel, relative to the largest
# singular value
RANK_TOL = 1e-10

# certification tolerance on the policy scale: active constraints must
# vanish to this accuracy, inactive ones must clear it; a feasible frequency
# must also meet its flow equalities to it
CERT_TOL = 1e-8

# how negative an entry of a feasible frequency may be
ENTRY_TOL = 1e-10

# refuse to enumerate face lattices beyond this many policy coordinates
FACE_COORD_CAP = 16

# refuse to expand a constraint polynomial into more monomials than this, and
# to allocate a sweep of more points than this (scan grid, face samples,
# projected points)
MONOMIAL_CAP = 2**20


class RankError(ValueError):
    """Observation kernel does not have linearly independent columns."""


class SizeCapError(ValueError):
    """Requested enumeration exceeds the hard-coded size cap."""


class CertificationError(ArithmeticError):
    """A sampled interior point contradicts the claimed face structure."""


def _check_cap(count: int, what: str) -> None:
    """SizeCapError for a request of count items beyond MONOMIAL_CAP, before allocating."""
    if count > MONOMIAL_CAP:
        raise SizeCapError(f"{what} exceeds the cap of {MONOMIAL_CAP}")


# ---------------------------------------------------------------------------
# linear description (fully observable case)


@dataclass(frozen=True, eq=False)
class HalfspaceSystem:
    """Equality system ``<rows[i], eta> = rhs[i]`` plus optional ``eta >= 0``.

    ``rows`` is stacked as ``(m, n_states, n_actions)`` so each row is a
    weight matrix over state-action pairs.
    """

    rows: np.ndarray
    rhs: np.ndarray
    nonnegative: bool
    labels: tuple[str, ...]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.ndim != 3 or rhs.ndim != 1 or rows.shape[0] != rhs.shape[0]:
            raise ValueError("rows must be (m, S, A) with matching rhs (m,)")
        if len(self.labels) != rows.shape[0]:
            raise ValueError("one label per row required")
        rows.flags.writeable = False
        rhs.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def residuals(self, eta: np.ndarray) -> np.ndarray:
        """Signed residuals ``<row, eta> - rhs``, broadcastable over eta."""
        eta = np.asarray(eta, dtype=float)
        return np.einsum("msa,...sa->...m", self.rows, eta) - self.rhs

    def max_violation(self, eta: np.ndarray) -> float:
        """Worst constraint violation: equality residual or negative entry."""
        eta = np.asarray(eta, dtype=float)
        worst = float(np.max(np.abs(self.residuals(eta))))
        if self.nonnegative:
            worst = max(worst, float(np.max(np.maximum(-eta, 0.0))))
        return worst


def mdp_polytope(model: PomdpModel) -> HalfspaceSystem:
    """Linear equalities satisfied by every discounted state-action frequency.

    Row ``s`` pairs the indicator of state ``s`` against the discounted
    inflow into ``s``; the offsets are the scaled initial distribution.  The
    rows sum to the constant matrix ``(1 - gamma) * ones``, which forces the
    total mass of any solution to one.
    """
    # rows[s, t, a] = [s = t] - gamma alpha(s | t, a)
    rows = np.eye(model.n_states)[:, :, None] - model.gamma * model.alpha.transpose(2, 0, 1)
    rhs = (1.0 - model.gamma) * model.mu
    labels = tuple(f"flow[{name}]" for name in model.states)
    return HalfspaceSystem(rows=rows, rhs=rhs, nonnegative=True, labels=labels)


def kirchhoff_image(model: PomdpModel, eta: np.ndarray) -> np.ndarray:
    """Edge measure ``nu[s, t] = sum_a eta[s, a] * alpha(t | s, a)``."""
    eta = np.asarray(eta, dtype=float)
    return np.einsum("sa,sat->st", eta, model.alpha)

def kirchhoff_residual(model: PomdpModel, eta: np.ndarray) -> float:
    """Max-norm violation of discounted flow conservation for the edge measure.

    At every state the outgoing mass equals the discounted incoming mass plus
    the injected initial mass: ``nu @ 1 = gamma * nu.T @ 1 + (1-gamma) mu``,
    the equalities of `mdp_polytope`.
    """
    return float(np.max(np.abs(mdp_polytope(model).residuals(eta))))


# ---------------------------------------------------------------------------
# effective polytope of state conditionals


def pseudoinverse(beta: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of the observation kernel, shape ``(O, S)``.

    Raises :class:`RankError` when the kernel columns are linearly
    dependent (rank decided at ``RANK_TOL`` relative to the top singular value),
    since then observation policies cannot be recovered from their state
    conditionals.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        raise ValueError("beta must be a (states, observations) matrix")
    u, sigma, vt = np.linalg.svd(beta, full_matrices=False)
    if sigma[0] == 0.0 or np.min(sigma) <= RANK_TOL * sigma[0]:
        raise RankError(
            "observation kernel has linearly dependent columns "
            f"(singular values {np.array2string(sigma, precision=3)}); "
            "state conditionals do not determine the policy"
        )
    return (vt.T / sigma) @ u.T


@dataclass(frozen=True, eq=False)
class EffectivePolytope:
    """The set of state conditionals realizable by observation policies.

    A matrix ``tau`` is realizable iff its columns lie in the column space
    of ``beta`` (checked against an orthonormal basis of the cokernel), the
    recovered policy ``pinv @ tau`` is entrywise nonnegative, and its rows
    sum to one.  With row-stochastic ``beta`` the row-sum condition is
    implied by the other two, but it is reported separately for diagnosis.
    """

    beta: np.ndarray
    pinv: np.ndarray
    kernel_basis: np.ndarray  # (S, S - O), orthonormal, spans coker(beta)

    def policy_of(self, tau: np.ndarray) -> np.ndarray:
        return self.pinv @ np.asarray(tau, dtype=float)

    def membership(self, tau: np.ndarray) -> dict[str, float]:
        """Residuals of the three membership conditions, keyed U / C / D.

        ``U``: distance of the columns from the admissible subspace;
        ``C``: worst negative entry of the recovered policy;
        ``D``: worst row-sum defect of the recovered policy.
        """
        tau = np.asarray(tau, dtype=float)
        pi = self.pinv @ tau
        if self.kernel_basis.shape[1]:
            u_resid = float(np.max(np.abs(self.kernel_basis.T @ tau)))
        else:
            u_resid = 0.0
        c_resid = float(np.max(np.maximum(-pi, 0.0)))
        d_resid = float(np.max(np.abs(pi.sum(axis=1) - 1.0)))
        return {"U": u_resid, "C": c_resid, "D": d_resid}

    def contains(self, tau: np.ndarray) -> bool:
        return max(self.membership(tau).values()) <= CERT_TOL


def effective_polytope(beta: np.ndarray) -> EffectivePolytope:
    beta = np.asarray(beta, dtype=float)
    pinv = pseudoinverse(beta)
    _, sigma, vt = np.linalg.svd(beta.T, full_matrices=True)
    rank = beta.shape[1]  # full column rank guaranteed by pseudoinverse()
    kernel = vt[rank:].T.copy()
    beta = beta.copy()
    for arr in (beta, pinv, kernel):
        arr.flags.writeable = False
    return EffectivePolytope(beta=beta, pinv=pinv, kernel_basis=kernel)


# ---------------------------------------------------------------------------
# polynomial constraints on frequencies


@dataclass(frozen=True, eq=False)
class PolynomialConstraint:
    """A cleared-denominator inequality ``p(eta) >= 0`` on frequencies.

    The inequality starts life as a linear condition
    ``sum_{s,a} coeff[s, a] tau[s, a] >= offset`` on state conditionals.
    Multiplying by the product of state marginals ``rho_s`` over the support
    states clears every denominator of ``tau = eta / rho`` and yields a
    multihomogeneous polynomial of degree ``len(support_states)`` in the
    frequency entries.  Only this factored form is stored; ``terms``, the
    monomial expansion, is derived on first access and raises
    :class:`SizeCapError` beyond ``MONOMIAL_CAP`` monomials.
    """

    label: str
    n_states: int
    n_actions: int
    support_states: tuple[int, ...]
    coeff: np.ndarray  # (len(support_states), n_actions)
    offset: float
    observation: str | None = None
    action: str | None = None

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float)
        if coeff.shape != (len(self.support_states), self.n_actions):
            raise ValueError("coeff must be (len(support_states), n_actions)")
        coeff.flags.writeable = False
        object.__setattr__(self, "coeff", coeff)

    @property
    def degree(self) -> int:
        return len(self.support_states)

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Kept monomials in lexicographic order: action assignments (n, degree)
        and their merged coefficients ``sum_i coeff[i, f(i)] - offset`` (n,)."""
        _check_cap(self.n_actions**self.degree,
                   f"{self.label}: expansion into {self.n_actions}^{self.degree} monomials")
        scale = max(1.0, float(np.max(np.abs(self.coeff), initial=0.0)), abs(self.offset))
        # axis i holds the action of support state i
        merged = reduce(np.add.outer, self.coeff, np.zeros(())) - self.offset
        keep = np.abs(merged) > 1e-14 * scale
        return np.argwhere(keep), merged[keep]

    @cached_property
    def terms(self) -> dict[tuple[int, ...], float]:
        """Monomial expansion: one action f(i) per support state i -> merged
        coefficient ``sum_i coeff[i, f(i)] - offset``, dropped below 1e-14 of scale."""
        assignments, values = self._expansion
        return dict(zip(map(tuple, assignments.tolist()), values.tolist()))

    def coefficient(self, assignment) -> float:
        """Monomial coefficient for an action assignment (0.0 if absent)."""
        return self.terms.get(tuple(int(a) for a in assignment), 0.0)

    def evaluate(self, eta: np.ndarray) -> np.ndarray:
        """Evaluate via marginals, the one-constraint case of the stacked evaluation
        `_stacked_values`; broadcastable over leading axes of eta."""
        return _stacked_values([self], eta)[0][..., 0]

    def evaluate_monomials(self, eta: np.ndarray) -> float:
        """Evaluate from the stored monomial expansion (slow, exact form)."""
        eta = np.asarray(eta, dtype=float)
        total = 0.0
        for assignment, c in self.terms.items():
            mono = 1.0
            for s, a in zip(self.support_states, assignment):
                mono *= eta[s, a]
            total += c * mono
        return total

    def exponent_matrix(self, assignment) -> np.ndarray:
        """Dense (n_states, n_actions) exponent matrix of one monomial."""
        exps = np.zeros((self.n_states, self.n_actions), dtype=int)
        for s, a in zip(self.support_states, assignment):
            exps[s, a] += 1
        return exps

    def _header(self) -> dict:
        """The fields of `to_dict` that precede its "terms", in order."""
        return {
            "label": self.label,
            "observation": self.observation,
            "action": self.action,
            "support_states": list(self.support_states),
            "degree": self.degree,
        }

    def to_dict(self) -> dict:
        return {
            **self._header(),
            "terms": [
                {"exponents": self.exponent_matrix(a).tolist(), "coefficient": c}
                for a, c in self.terms.items()
            ],
        }

    def __str__(self) -> str:
        parts = []
        for i, s in enumerate(self.support_states):
            others = [t for t in self.support_states if t != s]
            rho_factors = "".join(f"*rho[{t}]" for t in others)
            for a in range(self.n_actions):
                w = self.coeff[i, a]
                if w != 0.0:
                    parts.append(f"{w:+.6g}*eta[{s},{a}]{rho_factors}")
        if self.offset != 0.0:
            all_rho = "*".join(f"rho[{t}]" for t in self.support_states)
            parts.append(f"{-self.offset:+.6g}*{all_rho}")
        body = " ".join(parts) if parts else "0"
        return f"{self.label}: {body} >= 0"


def _support(rows: np.ndarray) -> tuple[int, ...]:
    """Indices of the rows of a matrix, or the entries of a vector, with an entry above
    SUPPORT_TOL in magnitude: the support states of a constraint."""
    above = (np.abs(rows) > SUPPORT_TOL).reshape(len(rows), -1)
    return tuple(np.flatnonzero(above.any(axis=1)).tolist())


def transfer_inequality(
    b: np.ndarray,
    c: float,
    *,
    label: str | None = None,
    observation: str | None = None,
    action: str | None = None,
) -> PolynomialConstraint:
    """Clear denominators in ``sum_{s,a} b[s,a] tau[s,a] >= c``.

    The support is the set of states where ``b`` has any entry above
    ``SUPPORT_TOL`` in magnitude; the constraint keeps the support rows of
    ``b`` and the offset ``c`` (its factored form).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError("b must be a (states, actions) matrix")
    ns, na = b.shape
    support = _support(b)
    if label is None:
        label = f"transfer(c={c:g})"
    return PolynomialConstraint(label=label, n_states=ns, n_actions=na, support_states=support,
                                coeff=b[list(support)], offset=float(c),
                                observation=observation, action=action)


def constraint_polynomials(beta: np.ndarray, actions, obs_names=None) -> list[PolynomialConstraint]:
    """Polynomial inequalities equivalent to recoverability of the policy.

    One polynomial per (action, observation) pair: nonnegativity of the
    entry ``(pinv @ tau)[o, a]`` of the recovered policy, with denominators
    cleared over the support states of the corresponding pseudo-inverse
    row.  On the image of a policy ``pi`` the polynomial evaluates to
    ``pi[o, a]`` times the product of support-state marginals, so interior
    policies make every polynomial strictly positive.

    ``actions`` is the action count or a sequence of action labels; ``beta``
    alone does not determine how many frequency columns the polynomials act
    on.
    """
    beta = np.asarray(beta, dtype=float)
    ns, no = beta.shape
    if isinstance(actions, (int, np.integer)):
        action_labels = [f"a{i + 1}" for i in range(int(actions))]
    else:
        action_labels = [str(a) for a in actions]
    na = len(action_labels)
    if obs_names is None:
        obs_names = [f"o{i + 1}" for i in range(no)]
    pinv = pseudoinverse(beta)

    fragile = (np.abs(pinv) > SUPPORT_TOL) & (np.abs(pinv) <= NEAR_ZERO_FACTOR * SUPPORT_TOL)
    if np.any(fragile):
        warnings.warn(f"{int(np.count_nonzero(fragile))} pseudo-inverse entries sit within "
                      f"{NEAR_ZERO_FACTOR:g}x of the support cutoff {SUPPORT_TOL:g}; the "
                      "constraint supports are numerically fragile", RuntimeWarning, stacklevel=2)

    polys = []
    for o in range(no):
        for a, action in enumerate(action_labels):
            # pi[a|o] = sum_s pinv[o, s] tau[s, a] >= 0: pseudo-inverse row o in column a
            b = np.zeros((ns, na))
            b[:, a] = pinv[o]
            polys.append(transfer_inequality(b, 0.0, label=f"pi[{action}|{obs_names[o]}] >= 0",
                                             observation=obs_names[o], action=action))
    return polys


def model_constraint_polynomials(model: PomdpModel):
    return constraint_polynomials(model.beta, model.actions, obs_names=model.observations)


def _stacked_values(polys, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K constraints polys at frequencies eta (..., S, A) in one pass: their values
    (..., K) and their products of support marginals (..., K).

    Supports are padded to the longest, kmax, with marginals 1.0 and zero coefficients.
    A value is -offset * prod(rho), then + linear_i * prod_{j != i} rho_j for i = 0, 1,
    ... in support order, each product taken left to right: the padding multiplies by
    exact ones and adds nothing, so each value has the bits of its constraint alone."""
    eta = np.ascontiguousarray(eta, dtype=float)
    degrees = np.array([p.degree for p in polys], dtype=int)
    kept = np.arange(degrees.max(initial=0)) < degrees[:, None]  # (K, kmax)
    states = np.zeros(kept.shape, dtype=int)
    states[kept] = [s for p in polys for s in p.support_states]
    coeff = np.zeros(kept.shape + eta.shape[-1:])
    coeff[kept] = np.concatenate([p.coeff for p in polys])
    rho = np.take(eta.sum(axis=-1), states, axis=-1)  # (..., K, kmax)
    rho[..., ~kept] = 1.0
    linear = np.einsum("kia,...kia->...ki", coeff, np.take(eta, states, axis=-2))
    ones = np.ones(rho.shape[:-1])
    total = reduce(np.multiply, np.moveaxis(rho, -1, 0), ones)
    value = -np.array([p.offset for p in polys]) * total
    for i in range(kept.shape[1]):
        others = reduce(np.multiply, (rho[..., j] for j in range(kept.shape[1]) if j != i), ones)
        np.add(value, linear[..., i] * others, out=value, where=kept[:, i])
    return value, total


def _constraint_values(polys, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every constraint at frequencies etas (..., S, A) in one stacked evaluation: the
    raw values (..., K) and the policy-scale values, each raw value divided by the
    product of its support marginals.  At the frequency of a policy pi the
    policy-scale value is the recovered pi(a|o); where a support marginal is 0 it is 0."""
    raw, prods = _stacked_values(polys, etas)
    return raw, np.divide(raw, prods, out=np.zeros_like(raw), where=prods != 0.0)


# ---------------------------------------------------------------------------
# feasibility verdicts


@dataclass(frozen=True)
class FeasibilityReport:
    """Joint verdict of the linear and polynomial feasibility conditions."""

    equality_residual: float
    min_entry: float
    min_polynomial: float
    feasible: bool

    def to_dict(self) -> dict:
        return asdict(self)


def feasibility_report(
    model: PomdpModel,
    eta: np.ndarray,
    *,
    polys: list[PolynomialConstraint] | None = None,
) -> FeasibilityReport:
    """Check a candidate frequency against both constraint layers.

    The linear layer is the flow polytope (equalities within ``CERT_TOL``,
    entries above ``-ENTRY_TOL``); the polynomial layer requires every
    constraint's policy-scale value, the recovered pi(a|o), to clear
    ``-CERT_TOL``, as in face certification.  ``min_polynomial`` reports the
    smallest raw cleared-denominator value.
    """
    eta = np.asarray(eta, dtype=float)
    if polys is None:
        polys = model_constraint_polynomials(model)
    return _feasibility(model, eta, polys)[1]


def _feasibility(model, eta, polys) -> tuple[np.ndarray, FeasibilityReport]:
    """`feasibility_report` of a float array eta, with the raw constraint values
    (K,) it was judged from: one evaluation per constraint."""
    eq_resid = kirchhoff_residual(model, eta)
    min_entry = float(np.min(eta))
    raw, scaled = _constraint_values(polys, eta) if polys else (np.zeros(1), np.zeros(1))
    ok = eq_resid <= CERT_TOL and min_entry >= -ENTRY_TOL and np.min(scaled) >= -CERT_TOL
    return raw[:len(polys)], FeasibilityReport(
        equality_residual=eq_resid, min_entry=min_entry,
        min_polynomial=float(np.min(raw)), feasible=bool(ok))


# ---------------------------------------------------------------------------
# face lattice of the policy constraint system


@dataclass(frozen=True)
class FaceDescriptor:
    """One face of the product-of-simplices policy domain.

    ``free_actions`` lists, per observation, the actions allowed to carry
    probability; ``active_zeros`` is the complementary set of
    (action, observation) label pairs pinned to zero on the face.
    ``subfaces`` indexes the faces covered by this one (one dimension
    lower) inside the owning lattice.
    """

    free_actions: tuple[tuple[int, ...], ...]
    active_zeros: frozenset[tuple[str, str]]
    dimension: int
    subfaces: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[FaceDescriptor, ...]
    f_vector: tuple[int, ...]  # face counts by dimension, 0 .. dim
    certified: bool

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def face_lattice(
    model: PomdpModel,
    max_dim: int | None = None,
    samples: int = 3,
    seed: int = 0,
    tol: float = CERT_TOL,
) -> FaceLattice:
    """Enumerate and certify the face lattice of the policy domain.

    Faces of the simplex product are in bijection with choices of a
    nonempty free-action set per observation; the dimension is the sum of
    the per-observation free counts minus one each.  For each face (up to
    ``max_dim`` when given) interior policies are sampled and the
    polynomial constraints, divided by their products of support marginals
    (leaving the policy entries), are evaluated at the induced frequencies:
    the pinned entries must vanish within ``tol`` and the free entries must
    exceed it, otherwise a :class:`CertificationError` identifies the first
    offending face and constraint.

    The faces, their free-action masks and the f-vector come from
    `_face_tables`, built once per shape (labels and ``max_dim``) and reused.
    All faces x samples are certified in one batched pass, block by block:
    each block is one draw of its samples, one `certified_etas` solve and
    one stacked evaluation of all constraints, and holds at most
    ``freq.BLOCK_ENTRIES`` entries, both of the S x S systems and of the
    K x kmax x A frequency entries gathered for the evaluation.

    Requires every policy to visit every state (positive start and
    discounting, or a strictly positive transition kernel) and an
    observation kernel with independent columns.
    """
    no, na = model.n_observations, model.n_actions
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not tol > 0.0:  # pinned constraints evaluate to rounding noise, never to exactly 0
        raise ValueError(f"tol must be > 0, got {tol}")
    if no * na > FACE_COORD_CAP:
        raise SizeCapError(f"face lattice over {no * na} policy coordinates exceeds the "
                           f"cap of {FACE_COORD_CAP}")
    _check_visits(model, "certification")
    polys = model_constraint_polynomials(model)
    faces, free, f_vector = _face_tables(model.observations, model.actions, max_dim)
    _check_cap(len(faces) * samples, f"certifying {len(faces)} faces x {samples} samples")
    _certify_faces(model, faces, free, polys, np.random.default_rng(seed), samples, tol)
    return FaceLattice(faces=faces, f_vector=f_vector, certified=True)


@lru_cache(maxsize=1)
def _face_tables(observations: tuple[str, ...], actions: tuple[str, ...],
                 max_dim: int | None) -> tuple[tuple[FaceDescriptor, ...], np.ndarray,
                                               tuple[int, ...]]:
    """The model-free part of `face_lattice` for one shape: its faces, the read-only
    (faces, O, A) mask of their free actions, and its f-vector.

    The faces depend only on the labels and max_dim, so the tables of the last shape
    asked for are kept and shared by every lattice of that shape.  One shape is kept,
    and it holds on after its lattices are dropped: ~20 KB at 3 observations x 2
    actions, ~63 MB at 4 x 4 and ~81 MB at 2 x 8 (50 625 and 65 025 faces), ~118 MB at
    1 x 16 (65 535 faces), the largest FACE_COORD_CAP admits.
    """
    no, na = len(observations), len(actions)
    # tables over the 2^A - 1 free-action sets, in lexicographic order of their action
    # tuples; a face is its tuple of ranks, one per observation, numbered as base-n digits
    subsets = sorted(tuple(a for a in range(na) if mask >> a & 1) for mask in range(1, 1 << na))
    n = len(subsets)
    rank = {free: j for j, free in enumerate(subsets)}
    free_rows = np.array([[a in free for a in range(na)] for free in subsets])
    pinned = [[tuple((actions[a], name) for a in range(na) if a not in free)
               for free in subsets] for name in observations]
    # dropping one free action of one observation gives a covered face, one dimension
    # lower and so always inside the lattice: drops[j, i] is the rank of set j without
    # its i-th action, or j where there is none
    drops = np.array([[rank[free[:i] + free[i + 1:]] if len(free) > 1 and i < len(free) else j
                       for i in range(na)] for j, free in enumerate(subsets)])
    digits = np.indices((n,) * no).reshape(no, -1).T
    dims = (free_rows.sum(axis=1) - 1)[digits].sum(axis=1)
    order = np.argsort(dims, kind="stable")  # face numbers by dimension, then lexicographically
    if max_dim is not None:
        order = order[dims[order] <= max_dim]
    position = np.zeros(n**no, dtype=int)
    position[order] = np.arange(len(order))
    ranks = digits[order]
    shift = drops[ranks] - ranks[..., None]  # (faces, O, A), 0 where nothing is dropped
    covered = position[order[:, None, None] + shift * (n ** np.arange(no - 1, -1, -1))[:, None]]
    covered[shift == 0] = len(order)  # sorted last, then left out
    covered = np.sort(covered.reshape(len(order), -1))
    covers = iter(covered[covered < len(order)].tolist())
    combos = list(itertools.product(subsets, repeat=no))
    zeros = list(map(frozenset, map(itertools.chain.from_iterable, itertools.product(*pinned))))
    faces = tuple(FaceDescriptor(combos[k], zeros[k], dim, tuple(itertools.islice(covers, count)))
                  for k, dim, count in zip(order.tolist(), dims[order].tolist(),
                                           np.count_nonzero(shift, axis=(1, 2)).tolist()))
    free = free_rows[ranks]  # (faces, O, A)
    free.flags.writeable = False
    return faces, free, tuple(np.bincount(dims[order]).tolist())


def _certify_faces(model, faces, free, polys, rng, samples, tol):
    """Raise CertificationError at the first (face, sample, constraint) failure; free
    (faces, O, A) marks the free actions of each face.  polys are read by position: one
    constraint per (observation, action) in row-major order, as from
    `model_constraint_polynomials`."""
    pinned = ~free.reshape(len(free), -1)  # (faces, constraints)
    mix = 0.2 * free / free.sum(axis=-1, keepdims=True)  # (faces, O, A)

    # a block holds at most BLOCK_ENTRIES entries in the solve (S x S per point) and in
    # the stacked evaluation (K x kmax x A gathered frequency entries per point)
    gathered = len(polys) * max(p.degree for p in polys) * model.n_actions
    block = _block_len(max(model.n_states**2, gathered), BLOCK_ENTRIES)
    n_points = len(faces) * samples
    for start in range(0, n_points, block):
        face_of = np.arange(start, min(start + block, n_points)) // samples
        # normalised standard exponentials over a free set are Dirichlet(1, ..., 1) on it;
        # mixing in the face's barycentre keeps points off its edge.  Each block draws its
        # own points, the continuation of one draw over all faces x samples
        points = rng.standard_exponential((len(face_of),) + free.shape[1:])
        points *= free[face_of]
        total = points.sum(axis=-1, keepdims=True)
        points *= 0.8
        points /= total
        points += mix[face_of]
        etas = certified_etas(model, compose(model.beta, points))
        _, values = _constraint_values(polys, etas)
        on_face = pinned[face_of]
        bad = np.where(on_face, np.abs(values) > tol, values <= tol)
        if not bad.any():
            continue
        n, k = np.argwhere(bad)[0]
        kind, expected = (("pinned", f"0 within {tol:g}") if on_face[n, k]
                          else ("free", f"to exceed {tol:g}"))
        raise CertificationError(
            f"face {faces[face_of[n]].free_actions}: {kind} constraint "
            f"{polys[k].label} evaluates to {values[n, k]:.3e}, expected {expected}"
        )
