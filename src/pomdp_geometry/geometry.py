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
expansion is derived on demand, up to ``MONOMIAL_CAP`` terms.  A model's
constraints are built once, as one packed table of their factored forms taken
straight from the pseudo-inverse; the constraint objects, face certification and
feasibility verdicts all read that table, and constraints are evaluated together
in one stacked pass over it.  Faces are built on demand, from the product
structure of the policy domain, and never kept between calls.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property, reduce
from itertools import chain, compress, islice, product, repeat
from typing import NamedTuple

import numpy as np

from .freq import BLOCK_ENTRIES, _block_len, _check_tol, _check_visits, certified_etas
from .model import InputError, PomdpModel, compose

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

# refuse to expand a constraint polynomial into more monomials than this, to
# enumerate a face lattice of more faces, and to allocate a sweep of more points
# (scan grid, face samples, projected points)
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
            raise InputError("rows must be (m, S, A) with matching rhs (m,)")
        if len(self.labels) != rows.shape[0]:
            raise InputError("one label per row required")
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
    dependent (more observations than states, or rank decided at ``RANK_TOL``
    relative to the top singular value), since then observation policies cannot
    be recovered from their state conditionals.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2:
        raise InputError("beta must be a (states, observations) matrix")
    u, sigma, vt = np.linalg.svd(beta, full_matrices=False)
    full = np.append(sigma, np.zeros(beta.shape[1] - len(sigma)))  # O - S more zeros if O > S
    if full[0] == 0.0 or np.min(full) <= RANK_TOL * full[0]:
        raise RankError("observation kernel has linearly dependent columns (singular values "
                        f"{np.array2string(full, precision=3)}); state conditionals do not "
                        "determine the policy")
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
    pinv = pseudoinverse(beta)  # refuses O > S and rank below O, so rank(beta) = O
    kernel = np.linalg.svd(beta.T, full_matrices=True)[2][beta.shape[1]:].T.copy()
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
            raise InputError("coeff must be (len(support_states), n_actions)")
        coeff.flags.writeable = False
        object.__setattr__(self, "coeff", coeff)

    @property
    def degree(self) -> int:
        return len(self.support_states)

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Kept monomials in lexicographic order: action assignments (n, degree)
        and their merged coefficients ``sum_i coeff[i, f(i)] - offset`` (n,), the
        one-row case of `_expansions`."""
        (flat, values), = _expansions(_pack([self]))
        powers = self.n_actions ** np.arange(self.degree - 1, -1, -1)
        return flat[:, None] // powers % self.n_actions, values

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
        `_packed_values`; broadcastable over leading axes of eta."""
        return _packed_values(_pack([self]), eta)[0][..., 0]

    def exponent_matrix(self, assignment) -> np.ndarray:
        """Dense (n_states, n_actions) exponent matrix of one monomial."""
        exps = np.zeros((self.n_states, self.n_actions), dtype=int)
        for s, a in zip(self.support_states, assignment):
            exps[s, a] += 1
        return exps

    def to_dict(self) -> dict:
        return {
            **_header(self.label, self.observation, self.action, self.support_states),
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


def _header(label, observation, action, support_states) -> dict:
    """The fields of a constraint's `to_dict` that precede its "terms", in order."""
    return {
        "label": label,
        "observation": observation,
        "action": action,
        "support_states": list(support_states),
        "degree": len(support_states),
    }


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
    ``b`` and the offset ``c`` (its factored form).  This is the public
    one-constraint form: the constraint (o, a) of `constraint_polynomials` has the
    bits of this one with ``b`` holding pseudo-inverse row o in column a and ``c = 0``.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise InputError("b must be a (states, actions) matrix")
    ns, na = b.shape
    support = tuple(np.flatnonzero((np.abs(b) > SUPPORT_TOL).any(axis=1)).tolist())
    if label is None:
        label = f"transfer(c={c:g})"
    return PolynomialConstraint(label=label, n_states=ns, n_actions=na, support_states=support,
                                coeff=b[list(support)], offset=float(c),
                                observation=observation, action=action)


def constraint_polynomials(beta: np.ndarray, actions, obs_names=None) -> list[PolynomialConstraint]:
    """Polynomial inequalities for recoverability of the policy, equivalent to it only for
    square beta: for S > O the equations putting each column of tau in col(beta) are missing.

    One polynomial per (action, observation) pair: nonnegativity of the
    entry ``(pinv @ tau)[o, a]`` of the recovered policy, with denominators
    cleared over the support states of the corresponding pseudo-inverse
    row.  On the image of a policy ``pi`` the polynomial evaluates to
    ``pi[o, a]`` times the product of support-state marginals, so interior
    policies make every polynomial strictly positive.  The polynomials are the rows
    of the packed constraint table `_constraint_table`, in its order.

    ``actions`` is the action count or a sequence of action labels; ``beta``
    alone does not determine how many frequency columns the polynomials act
    on.
    """
    beta = np.asarray(beta, dtype=float)
    if isinstance(actions, (int, np.integer)):
        actions = [f"a{i + 1}" for i in range(int(actions))]
    actions = [str(a) for a in actions]
    if obs_names is None:  # the table refuses a beta that is not a matrix
        obs_names = [f"o{i + 1}" for i in range(beta.shape[1] if beta.ndim == 2 else 0)]
    return _unpack(_constraint_table(beta, obs_names, actions), len(beta), obs_names, actions)


def model_constraint_polynomials(model: PomdpModel):
    return _unpack(_model_packed(model), model.n_states, model.observations, model.actions)


class _Packed(NamedTuple):
    """K constraints as one table, supports padded to the longest, kmax: the support
    states (K, kmax), which of them are kept (K, kmax), the support rows of the
    coefficients (K, kmax, A) and the offsets (K,); padding holds state 0 and zeros."""

    labels: tuple[str, ...]
    states: np.ndarray
    kept: np.ndarray
    coeff: np.ndarray
    offsets: np.ndarray


def _stack_level() -> int:
    """The stacklevel at which `warnings.warn`, called from this package, names the first
    frame outside it, as pandas' find_stack_level does: the caller's line."""
    frame, level, package = sys._getframe(1), 1, os.path.dirname(__file__) + os.sep
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _constraint_table(beta, observations, actions) -> _Packed:
    """The packed table of the constraints pi[a|o] >= 0, one per (observation, action) in
    row-major order, built from the pseudo-inverse in one pass: the constraints of
    observation o share the support of pinv's row o, its entries above SUPPORT_TOL in
    magnitude, and constraint (o, a) holds that row's support entries in column a alone.

    Refuses observation labels that do not match beta's columns, and warns
    (RuntimeWarning, reported at the first frame outside this package) when a
    pseudo-inverse entry sits within NEAR_ZERO_FACTOR of the support cutoff."""
    pinv = pseudoinverse(beta)
    no, na = len(pinv), len(actions)
    if len(observations) != no:
        raise InputError(f"{len(observations)} observation labels for {no} observations")
    size = np.abs(pinv)
    above = size > SUPPORT_TOL  # (O, S): the support of each observation's row
    fragile = np.count_nonzero(above & (size <= NEAR_ZERO_FACTOR * SUPPORT_TOL))
    if fragile:
        warnings.warn(f"{fragile} pseudo-inverse entries sit within "
                      f"{NEAR_ZERO_FACTOR:g}x of the support cutoff {SUPPORT_TOL:g}; the "
                      "constraint supports are numerically fragile", RuntimeWarning,
                      stacklevel=_stack_level())
    degrees = above.sum(axis=1)
    kept = np.arange(degrees.max(initial=0)) < degrees[:, None]  # (O, kmax)
    states = np.zeros(kept.shape, dtype=int)
    states[kept] = np.nonzero(above)[1]
    entries = np.zeros(kept.shape)
    entries[kept] = pinv[above]
    coeff = np.zeros((no, na) + kept.shape[1:] + (na,))
    coeff[:, np.arange(na), :, np.arange(na)] = entries  # (A, O, kmax) on the diagonal
    labels = tuple(f"pi[{action}|{name}] >= 0" for name in observations for action in actions)
    return _Packed(labels, np.repeat(states, na, axis=0), np.repeat(kept, na, axis=0),
                   coeff.reshape(no * na, -1, na), np.zeros(no * na))


def _model_packed(model: PomdpModel) -> _Packed:
    """The model's packed constraint table, `_constraint_table` of its beta and labels."""
    return _constraint_table(model.beta, model.observations, model.actions)


def _table_rows(table: _Packed, observations, actions):
    """The rows of a `_constraint_table`, one per (observation, action) in row-major order:
    label, observation, action, kept support states (a tuple) and their coefficient rows."""
    for label, states, kept, coeff, (observation, action) in zip(
            table.labels, table.states, table.kept, table.coeff, product(observations, actions)):
        yield label, observation, action, tuple(states[kept].tolist()), coeff[kept]


def _unpack(table: _Packed, n_states: int, observations, actions) -> list[PolynomialConstraint]:
    """The constraint objects of the rows of a `_constraint_table` (`_table_rows`)."""
    return [PolynomialConstraint(label, n_states, len(actions), support, coeff, 0.0,
                                 observation, action)
            for label, observation, action, support, coeff
            in _table_rows(table, observations, actions)]


def _pack(polys) -> _Packed | None:
    """The packed table of constraints a caller holds as objects, in their order; None
    for no constraints.  The model's own table is `_model_packed`."""
    if not polys:
        return None
    degrees = np.array([p.degree for p in polys], dtype=int)
    kept = np.arange(degrees.max(initial=0)) < degrees[:, None]  # (K, kmax)
    states = np.zeros(kept.shape, dtype=int)
    states[kept] = [s for p in polys for s in p.support_states]
    coeff = np.zeros(kept.shape + (polys[0].n_actions,))
    coeff[kept] = np.concatenate([p.coeff for p in polys])
    return _Packed(tuple(p.label for p in polys), states, kept, coeff,
                   np.array([p.offset for p in polys], dtype=float))


def _expansions(packed: _Packed) -> list[tuple[np.ndarray, np.ndarray]]:
    """The kept monomials of each packed constraint, in lexicographic order of their action
    assignments f (the action of support state i on axis i): their flat indices in the
    row's A^degree table of assignments and their merged coefficients
    ``sum_i coeff[i, f(i)] - offset``, dropped at 1e-14 of max(1, |coeff|, |offset|).

    Refuses (SizeCapError) the first row in table order with more than MONOMIAL_CAP
    monomials before expanding any, then expands the rows of each degree in one pass,
    adding coefficient columns left to right as ``reduce(np.add.outer, coeff)`` does."""
    na = packed.coeff.shape[-1]
    degrees = packed.kept.sum(axis=1)
    for label, degree in zip(packed.labels, degrees.tolist()):
        _check_cap(na**degree, f"{label}: expansion into {na}^{degree} monomials")
    # Python's max(1.0, ...), which passes over a NaN, as fmax does
    scales = np.fmax(np.fmax(1.0, np.abs(packed.coeff).max(axis=(1, 2), initial=0.0)),
                     np.abs(packed.offsets))
    expansions = [None] * len(degrees)
    for degree in np.unique(degrees).tolist():
        rows = np.flatnonzero(degrees == degree)
        coeff = packed.coeff[rows][packed.kept[rows]].reshape(len(rows), degree, na)
        merged = np.zeros((len(rows), 1))
        for i in range(degree):
            merged = (merged[:, :, None] + coeff[:, i, None, :]).reshape(len(rows), -1)
        merged -= packed.offsets[rows, None]
        keep = np.abs(merged) > 1e-14 * scales[rows, None]
        for row, values, kept in zip(rows.tolist(), merged, keep):
            expansions[row] = np.flatnonzero(kept), values[kept]
    return expansions


def _packed_values(packed: _Packed, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The K packed constraints at frequencies eta (..., S, A): their values (..., K) and
    their products of support marginals (..., K).

    Padded support entries get marginals 1.0 and zero coefficients.  A value is
    -offset * prod(rho), then + linear_i * prod_{j != i} rho_j for i = 0, 1, ... in
    support order, each product taken left to right: the padding multiplies by exact ones
    and adds nothing, so each value has the bits of its constraint alone."""
    eta = np.ascontiguousarray(eta, dtype=float)
    states, kept = packed.states, packed.kept
    rho = np.take(eta.sum(axis=-1), states, axis=-1)  # (..., K, kmax)
    rho[..., ~kept] = 1.0
    linear = np.einsum("kia,...kia->...ki", packed.coeff, np.take(eta, states, axis=-2))
    ones = np.ones(rho.shape[:-1])
    total = reduce(np.multiply, np.moveaxis(rho, -1, 0), ones)
    value = -packed.offsets * total
    for i in range(kept.shape[1]):
        others = reduce(np.multiply, (rho[..., j] for j in range(kept.shape[1]) if j != i), ones)
        np.add(value, linear[..., i] * others, out=value, where=kept[:, i])
    return value, total


def _policy_scale(raw: np.ndarray, prods: np.ndarray) -> np.ndarray:
    """Each raw constraint value divided by the product of its support marginals: at the
    frequency of a policy pi the recovered pi(a|o); where a support marginal is 0 it is 0."""
    return np.divide(raw, prods, out=np.zeros_like(raw), where=prods != 0.0)


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
    smallest raw cleared-denominator value, 0.0 for no constraints.  The constraints
    are ``polys`` when given, else the model's own, read from its packed table.
    """
    eta = np.asarray(eta, dtype=float)
    return _feasibility(model, eta, _model_packed(model) if polys is None else _pack(polys))[1]


def _feasibility(model, eta, packed) -> tuple[np.ndarray, FeasibilityReport]:
    """`feasibility_report` of a float array eta against the packed constraints (None for
    none), with the raw constraint values (K,) it was judged from: one evaluation each."""
    eq_resid = kirchhoff_residual(model, eta)
    min_entry = float(np.min(eta))
    raw, prods = _packed_values(packed, eta) if packed else (np.zeros(0), np.zeros(0))
    ok = (eq_resid <= CERT_TOL and min_entry >= -ENTRY_TOL
          and np.all(_policy_scale(raw, prods) >= -CERT_TOL))
    return raw, FeasibilityReport(
        equality_residual=eq_resid, min_entry=min_entry,
        min_polynomial=float(np.min(raw)) if raw.size else 0.0, feasible=bool(ok))


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
    """The faces of dimension 0 .. ``len(f_vector) - 1`` of the policy domain over these
    observation and action labels.  ``faces`` is built from them on first read, in the
    order of `face_lattice`, and kept."""

    observations: tuple[str, ...]
    actions: tuple[str, ...]
    f_vector: tuple[int, ...]  # face counts by dimension, 0 .. dim
    certified: bool

    @property
    def n_faces(self) -> int:
        return sum(self.f_vector)

    @cached_property
    def faces(self) -> tuple[FaceDescriptor, ...]:
        rows, ranks, dims, covers, counts = self._graph()
        no, na = ranks.shape[1], rows.shape[1]
        sets = [tuple(compress(range(na), row)) for row in rows.tolist()]
        pinned = [[tuple(zip(compress(self.actions, row), repeat(name)))
                   for row in (~rows).tolist()] for name in self.observations]
        numbers = ranks @ len(rows) ** np.arange(no - 1, -1, -1)  # ranks as base-n digits
        combos = list(product(sets, repeat=no))
        zeros = list(map(frozenset, map(chain.from_iterable, product(*pinned))))
        covers = iter(covers)
        return tuple(FaceDescriptor(combos[k], zeros[k], dim, tuple(islice(covers, c)))
                     for k, dim, c in zip(numbers.tolist(), dims.tolist(), counts))

    def _graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]:
        """The faces as arrays, in the order of ``faces``: `_face_order`'s rows, ranks and
        dimensions, then the positions of the faces each face covers, ascending per face,
        as one flat list, and how many each face covers."""
        rows, ranks, dims = _face_order(len(self.observations), len(self.actions),
                                        len(self.f_vector) - 1)
        (count, no), (n, na) = ranks.shape, rows.shape
        # a covered face drops one free action, not the last, of one observation: set j
        # without action a has rank drops[j, a], which is j where nothing is dropped
        codes = rows @ (1 << np.arange(na))  # each set as a bit mask
        rank_of = np.zeros(1 << na, dtype=int)
        rank_of[codes] = np.arange(n)
        drops = np.where(rows.sum(axis=1, keepdims=True) > 1,
                         rank_of[codes[:, None] & ~(1 << np.arange(na))], np.arange(n)[:, None])
        weights = n ** np.arange(no - 1, -1, -1)
        numbers = ranks @ weights  # a face's ranks read as base-n digits
        position = np.zeros(n**no, dtype=int)
        position[numbers] = np.arange(count)
        shift = drops[ranks] - ranks[..., None]  # (faces, O, A), 0 where nothing is dropped
        covered = position[numbers[:, None, None] + shift * weights[:, None]]
        covered = np.sort(np.where(shift == 0, count, covered).reshape(count, -1))  # none last
        return (rows, ranks, dims, covered[covered < count].tolist(),
                np.count_nonzero(shift, axis=(1, 2)).tolist())


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

    Certification reads only the faces' free-action masks, from `_face_order` on every
    call, and the model's packed constraint table `_model_packed`, with no
    `PolynomialConstraint`; the lattice builds its descriptors when ``faces`` is first
    read.  All faces x samples are certified in one batched pass, block by block: each
    block is one draw of its samples, one `certified_etas` solve and one stacked
    evaluation of all constraints (`_packed_values`), and holds at most
    ``freq.BLOCK_ENTRIES`` entries, both of the S x S systems and of the K x kmax x A
    frequency entries gathered for the evaluation.

    Requires every policy to visit every state (positive start and
    discounting, or a strictly positive transition kernel) and an
    observation kernel with independent columns.  A lattice of more than
    ``MONOMIAL_CAP`` faces, (2^A - 1)^O of them, is refused (SizeCapError)
    before anything is built, and so are more faces x samples than that.
    """
    no, na = model.n_observations, model.n_actions
    if max_dim is not None and max_dim < 0:
        raise InputError(f"max_dim must be >= 0, got {max_dim}")
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    _check_tol(tol)  # pinned constraints evaluate to rounding noise, never to exactly 0
    _check_cap((2**na - 1) ** no, f"a face lattice of (2^{na} - 1)^{no} faces")
    _check_visits(model, "certification")
    packed = _model_packed(model)
    rows, ranks, dims = _face_order(no, na, max_dim)
    _check_cap(len(ranks) * samples, f"certifying {len(ranks)} faces x {samples} samples")
    _certify_faces(model, rows[ranks], packed, np.random.default_rng(seed), samples, tol)
    return FaceLattice(model.observations, model.actions, tuple(np.bincount(dims).tolist()), True)


def _face_order(n_observations: int, n_actions: int,
                max_dim: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The faces up to max_dim, by dimension and then lexicographically: the (2^A - 1, A)
    rows of the nonempty free-action sets in lexicographic order of their action tuples,
    the (faces, O) ranks of each face's sets among them, so that ``rows[ranks]`` is the
    (faces, O, A) mask of their free actions, and the faces' dimensions."""
    # each pass puts one more action j in front: the sets over actions j.. are {j}, then
    # {j} joined to each set over actions j+1.., then those sets alone
    rows = np.zeros((0, 0), dtype=bool)
    for k in range(n_actions):
        later, rows = rows, np.zeros((2 * len(rows) + 1, k + 1), dtype=bool)
        rows[:len(later) + 1, 0] = True
        rows[1:len(later) + 1, 1:] = rows[len(later) + 1:, 1:] = later
    ranks = np.indices((len(rows),) * n_observations).reshape(n_observations, -1).T
    dims = (rows.sum(axis=1) - 1)[ranks].sum(axis=1)
    order = np.argsort(dims, kind="stable")
    if max_dim is not None:
        order = order[dims[order] <= max_dim]
    return rows, ranks[order], dims[order]


def _certify_faces(model, free, packed, rng, samples, tol):
    """Raise CertificationError at the first (face, sample, constraint) failure; free
    (faces, O, A) marks the free actions of each face.  The packed constraints are read by
    position: one per (observation, action) in row-major order, as from `_model_packed`."""
    pinned = ~free.reshape(len(free), -1)  # (faces, constraints)
    mix = 0.2 * free / free.sum(axis=-1, keepdims=True)  # (faces, O, A)

    # a block holds at most BLOCK_ENTRIES entries in the solve (S x S per point) and in
    # the stacked evaluation (K x kmax x A gathered frequency entries per point)
    gathered = packed.coeff.size  # K x kmax x A
    block = _block_len(max(model.n_states**2, gathered), BLOCK_ENTRIES)
    n_points = len(free) * samples
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
        values = _policy_scale(*_packed_values(packed, etas))
        on_face = pinned[face_of]
        bad = np.where(on_face, np.abs(values) > tol, values <= tol)
        if not bad.any():
            continue
        n, k = np.argwhere(bad)[0]
        kind, expected = (("pinned", f"0 within {tol:g}") if on_face[n, k]
                          else ("free", f"to exceed {tol:g}"))
        face = tuple(tuple(np.flatnonzero(row).tolist()) for row in free[face_of[n]])
        raise CertificationError(f"face {face}: {kind} constraint {packed.labels[k]} evaluates "
                                 f"to {values[n, k]:.3e}, expected {expected}")
