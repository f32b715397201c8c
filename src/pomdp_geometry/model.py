"""Finite POMDP models, memoryless policies, state-action frequencies.

A model is the tuple (states, observations, actions, alpha, beta, reward,
gamma, mu): transition kernel alpha[s][a][s'], observation kernel
beta[s][o], instantaneous reward reward[s][a], discount factor
gamma in (0, 1] and initial distribution mu.  Policies are row-stochastic
matrices over actions, indexed either by observations (what an agent can
actually condition on) or by states (the fully observable relaxation).

Two text formats are read: a canonical JSON document and a compact
line-oriented "graph" format for deterministic transition kernels, which
parses straight into a model.  `serialize_model` writes the canonical
document for either.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

ROW_TOL = 1e-12       # allowed deviation of any probability row sum from 1
FREQ_SUM_TOL = 1e-10  # allowed deviation of a frequency's total mass from 1
FREQ_NEG_TOL = 1e-12  # how negative a frequency entry may be

_MODEL_KEYS = ("states", "observations", "actions", "alpha", "beta", "reward", "gamma", "mu")


class InputError(ValueError):
    """An argument outside what a function accepts (a kind, shape or range), or a model
    outside the function's documented domain.  Computational failures have their own
    types (`RankError`, `SizeCapError`, `ErgodicityError`, `ArithmeticError`)."""


class ModelFormatError(InputError):
    """A model document is structurally malformed (message names the offending path)."""


@dataclass(frozen=True, eq=False)
class PomdpModel:
    states: tuple[str, ...]
    observations: tuple[str, ...]
    actions: tuple[str, ...]
    alpha: np.ndarray   # (S, A, S')  transition kernel
    beta: np.ndarray    # (S, O)      observation kernel
    reward: np.ndarray  # (S, A)
    gamma: float
    mu: np.ndarray      # (S,)        initial distribution

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        object.__setattr__(self, "observations", tuple(str(o) for o in self.observations))
        object.__setattr__(self, "actions", tuple(str(a) for a in self.actions))
        ns, no, na = len(self.states), len(self.observations), len(self.actions)
        for name, value, shape in (
            ("alpha", self.alpha, (ns, na, ns)),
            ("beta", self.beta, (ns, no)),
            ("reward", self.reward, (ns, na)),
            ("mu", self.mu, (ns,)),
        ):
            arr = np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise InputError(f"{name}: expected shape {shape}, got {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_observations(self) -> int:
        return len(self.observations)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def state_index(self, key) -> int:
        return _resolve(self, "state", key)

    def observation_index(self, key) -> int:
        return _resolve(self, "observation", key)

    def action_index(self, key) -> int:
        return _resolve(self, "action", key)

    def replace(self, **changes) -> "PomdpModel":
        """A copy with some fields replaced (e.g. gamma or mu overrides)."""
        fields = {k: getattr(self, k) for k in _MODEL_KEYS}
        fields.update(changes)
        return PomdpModel(**fields)

    def to_dict(self) -> dict:
        return {
            "states": list(self.states),
            "observations": list(self.observations),
            "actions": list(self.actions),
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "reward": self.reward.tolist(),
            "gamma": self.gamma,
            "mu": self.mu.tolist(),
        }


def _in_range(key, n: int, kind: str) -> int:
    if not (isinstance(key, (int, np.integer)) and 0 <= key < n):
        raise InputError(f"unknown {kind} index {key!r}; known: 0 to {n - 1}")
    return int(key)


def _at_least(value, name: str, least: int) -> int:
    """A count argument as an int: InputError unless it is an integer (a numpy integer too,
    a bool not) and >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _resolve(model: PomdpModel, kind: str, key) -> int:
    """Index of a state, observation or action label, or of an int index in range; an
    unknown label or an index out of range raises InputError naming the known ones."""
    labels = getattr(model, kind + "s")
    if isinstance(key, (int, np.integer)):
        return _in_range(key, len(labels), kind)
    if str(key) not in labels:
        raise InputError(f"unknown {kind} label {key!r}; known: {list(labels)}")
    return labels.index(str(key))


def _csv_field(label: str) -> str:
    """A label as one RFC 4180 field: quoted, its quotes doubled, only when it holds a comma,
    a double quote, CR or LF, so plain labels keep their bytes."""
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


@dataclass(frozen=True, eq=False)
class Policy:
    """A row-stochastic decision rule.

    kind "observation": rows indexed by observations (matrix is O x A).
    kind "state": rows indexed by states (matrix is S x A), e.g. an
    effective policy obtained by composing an observation policy with beta.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in ("observation", "state"):
            raise InputError(f"policy kind must be 'observation' or 'state', got {self.kind!r}")
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or not mat.size:
            raise InputError(f"policy matrix must be 2-d and non-empty, got shape {mat.shape}")
        if not np.min(mat) >= -ROW_TOL:  # written so that NaN fails
            raise InputError(f"policy matrix has NaN or negative entry {np.min(mat)}")
        rowdev = np.max(np.abs(mat.sum(axis=1) - 1.0))
        if not rowdev <= ROW_TOL:
            raise InputError(f"policy rows must sum to 1 within {ROW_TOL}, worst deviation {rowdev}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def uniform(cls, n_rows: int, n_actions: int, kind: str = "observation") -> "Policy":
        return cls(kind, np.full((n_rows, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, action_indices, n_actions: int, kind: str = "observation") -> "Policy":
        """Row k plays action action_indices[k]; one outside 0 ... A - 1 is an InputError."""
        return cls(kind, np.eye(n_actions)[[_in_range(a, n_actions, "action")
                                            for a in action_indices]])


@dataclass(frozen=True, eq=False)
class Frequency:
    """A state-action frequency eta (S x A) and its state marginal rho, summed from eta."""

    eta: np.ndarray
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        if eta.ndim != 2 or not eta.size:
            raise InputError(f"eta must be 2-d and non-empty, got shape {eta.shape}")
        check_frequency(eta)
        rho = eta.sum(axis=1)
        eta.setflags(write=False)
        rho.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_eta(cls, eta: np.ndarray) -> "Frequency":
        """The frequency of eta (S, A), with its marginal rho summed from it."""
        return cls(eta)


def check_frequency(eta: np.ndarray) -> None:
    """Raise InputError unless each trailing (S, A) slice of eta is a distribution."""
    if not np.min(eta) >= -FREQ_NEG_TOL:  # written so that NaN fails
        raise InputError(f"eta has NaN or negative entry {np.min(eta)}")
    mass = eta.sum(axis=(-2, -1))
    worst = mass.flat[np.argmax(np.abs(mass - 1.0))]
    if not abs(worst - 1.0) <= FREQ_SUM_TOL:
        raise InputError(f"eta must sum to 1 within {FREQ_SUM_TOL}, got {worst}")


@dataclass(frozen=True)
class Violation:
    path: str
    message: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def worst(self) -> Violation | None:
        if not self.violations:
            return None
        return max(self.violations, key=lambda v: v.magnitude)


# --------------------------------------------------------------------------
# parsing / serialization


def parse_model(text: str) -> PomdpModel:
    """Parse a canonical JSON model document.

    Structural problems (missing keys, wrong shapes, non-numeric entries)
    raise ModelFormatError naming the offending path.  Value-level problems
    (rows not summing to one, gamma out of range, ...) are left to
    `validate`, which reports instead of throwing.
    """
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal past the digit limit
        raise ModelFormatError(f"document: not valid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise ModelFormatError(f"document: expected a JSON object, got {type(doc).__name__}")
    for key in _MODEL_KEYS:
        if key not in doc:
            raise ModelFormatError(f"{key}: missing required key")
    for key in doc:
        if key not in _MODEL_KEYS:
            raise ModelFormatError(f"{key}: unknown key")

    states = _parse_labels(doc["states"], "states")
    observations = _parse_labels(doc["observations"], "observations")
    actions = _parse_labels(doc["actions"], "actions")
    ns, no, na = len(states), len(observations), len(actions)

    alpha = _parse_block(doc["alpha"], "alpha", (ns, na, ns))
    beta = _parse_block(doc["beta"], "beta", (ns, no))
    reward = _parse_block(doc["reward"], "reward", (ns, na))
    gamma = _parse_number(doc["gamma"], "gamma")
    mu = _parse_block(doc["mu"], "mu", (ns,))

    return PomdpModel(states, observations, actions, alpha, beta, reward, gamma, mu)


def _parse_labels(value, path):
    if not isinstance(value, list) or not value:
        raise ModelFormatError(f"{path}: expected a non-empty list of labels")
    labels = []
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise ModelFormatError(f"{path}[{i}]: expected a string label, got {type(item).__name__}")
        labels.append(item)
    if len(set(labels)) != len(labels):
        raise ModelFormatError(f"{path}: labels must be unique")
    return tuple(labels)


def _expect_list(value, path, length):
    if not isinstance(value, list):
        raise ModelFormatError(f"{path}: expected a list, got {type(value).__name__}")
    if len(value) != length:
        raise ModelFormatError(f"{path}: expected {length} entries, got {len(value)}")
    return value


def _parse_number(item, path):
    if not isinstance(item, (int, float)) or isinstance(item, bool):
        raise ModelFormatError(f"{path}: expected a number, got {type(item).__name__}")
    try:
        return float(item)
    except OverflowError:
        raise ModelFormatError(f"{path}: integer is out of float range") from None


def _parse_block(value, path, shape):
    """Nested lists of numbers with the given shape as one float array.

    A well-formed block is one np.array call after one flat type check (bools
    are not numbers); anything else goes row by row to name the bad entry.
    """
    flat = value
    try:
        for _ in shape[1:]:
            flat = itertools.chain.from_iterable(flat)
        if type(value) is list and set(map(type, flat)) <= {int, float}:
            block = np.array(value, dtype=float)
            if block.shape == shape:
                return block
    except (TypeError, ValueError, OverflowError):
        pass
    value = _expect_list(value, path, shape[0])
    if len(shape) == 1:
        return np.array([_parse_number(item, f"{path}[{i}]") for i, item in enumerate(value)])
    return np.array([_parse_block(row, f"{path}[{i}]", shape[1:]) for i, row in enumerate(value)])


def serialize_model(model: PomdpModel) -> str:
    """Serialize to the canonical JSON document; parse(serialize(m)) is exact."""
    return json.dumps(model.to_dict(), indent=2) + "\n"


def validate(model: PomdpModel) -> ValidationReport:
    """Check all value-level invariants; reports violations, never throws."""
    out = []

    def path(name, idx):
        return name + "".join(f"[{i}]" for i in idx)

    for name in ("alpha", "beta", "mu"):
        mat = getattr(model, name)
        sums = mat.sum(axis=-1)
        dev = np.abs(sums - 1.0)
        for idx in map(tuple, np.argwhere(dev > ROW_TOL)):
            out.append(Violation(path(name, idx),
                                 f"row sums to {float(sums[idx])!r}, expected 1", dev[idx]))
        for idx in map(tuple, np.argwhere(mat < -ROW_TOL)):
            out.append(Violation(path(name, idx), f"negative entry {float(mat[idx])!r}",
                                 -mat[idx]))
    if not (0.0 < model.gamma <= 1.0):
        out.append(Violation("gamma", f"gamma must lie in (0, 1], got {model.gamma!r}",
                             abs(model.gamma - 1.0) if model.gamma > 1 else abs(model.gamma)))
    for name in ("alpha", "beta", "reward", "mu"):
        arr = getattr(model, name)
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            idx = tuple(bad[0])
            out.append(Violation(path(name, idx), f"non-finite entry {float(arr[idx])!r}",
                                 float("inf")))
    return ValidationReport(ok=not out, violations=tuple(out))


# --------------------------------------------------------------------------
# policy composition and kernels


def effective_policy(pi: Policy, beta: np.ndarray) -> Policy:
    """Compose an observation policy with the observation kernel.

    Returns the state policy tau with tau(a|s) = sum_o beta(o|s) pi(a|o).
    """
    if pi.kind != "observation":
        raise InputError(f"effective_policy needs an observation policy, got kind {pi.kind!r}")
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 2 or beta.shape[1] != pi.matrix.shape[0]:
        raise InputError(
            f"beta shape {beta.shape} is incompatible with a policy over "
            f"{pi.matrix.shape[0]} observations")
    return Policy("state", compose(beta, pi.matrix))


def compose(beta: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """tau(a|s) = sum_o beta(o|s) pi(a|o) for one observation-policy matrix (O, A) or a
    stack (N, O, A), the stack as one (S, O) @ (O, N*A) product instead of N tiny ones (at
    O = 1 a broadcast product: one term per entry, so the matmul's bits without its call).
    A stack's result is an (N, S, A) view of an (S, N, A) array.  A single matrix is the
    plain product; it comes here only so that beta o pi is composed in one place."""
    if pis.ndim == 2:
        return beta @ pis
    n, no, na = pis.shape
    cols = pis.transpose(1, 0, 2).reshape(no, n * na)
    flat = beta * cols if no == 1 else beta @ cols
    return flat.reshape(beta.shape[0], n, na).transpose(1, 0, 2)


def state_conditionals(model: PomdpModel, pi: Policy) -> np.ndarray:
    """The S x A action-conditional matrix tau induced by pi (composing with beta if needed)."""
    if pi.kind == "observation":
        if pi.matrix.shape != (model.n_observations, model.n_actions):
            raise InputError(
                f"observation policy shape {pi.matrix.shape} does not match "
                f"({model.n_observations}, {model.n_actions})")
        return compose(model.beta, pi.matrix)
    if pi.matrix.shape != (model.n_states, model.n_actions):
        raise InputError(
            f"state policy shape {pi.matrix.shape} does not match "
            f"({model.n_states}, {model.n_actions})")
    return pi.matrix


def kernels_for_tau(alpha: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State-action and state kernels for raw conditionals tau (no validation)."""
    ns, na, _ = alpha.shape
    flat = alpha.reshape(ns * na, ns)
    big = (flat[:, :, None] * tau[None, :, :]).reshape(ns * na, ns * na)
    small = np.einsum("sa,sat->st", tau, alpha)
    return big, small


def transition_kernels(model: PomdpModel, pi: Policy) -> tuple[np.ndarray, np.ndarray]:
    """The row-stochastic kernels induced by a policy.

    Returns (P, p): P is the (S*A) x (S*A) state-action kernel with
    P[(s,a),(s',a')] = alpha(s'|s,a) tau(a'|s'), row-major indexing
    (s,a) -> s*A + a, and p is the S x S state kernel
    p[s,s'] = sum_a tau(a|s) alpha(s'|s,a).
    """
    tau = state_conditionals(model, pi)
    return kernels_for_tau(model.alpha, tau)


# --------------------------------------------------------------------------
# graph format

_GRAPH_HEADER_KEYS = ("states", "actions", "observations", "beta", "gamma", "mu")


def parse_graph_model(text: str) -> PomdpModel:
    """Parse the line-oriented graph format straight into a model.

    Syntax (one item per line, '#' starts a comment):

        gamma: 0.5                    required
        states: s1 s2 s3              optional; inferred from edges otherwise
        actions: a1 a2                optional; inferred from edges otherwise
        observations: o1 o2           optional (see beta)
        beta: blind                   "blind" (default, single observation),
                                      "identity", or explicit rows separated
                                      by ';' e.g.  beta: 1 0; 0.5 0.5
        mu: uniform                   "uniform" (default), a state label, or
                                      explicit numbers
        s1 a1 -> s2  5.0              one edge per (state, action): the
                                      deterministic successor and a reward
                                      (reward defaults to 0)

    Every (state, action) pair must have exactly one edge, and state,
    observation and action labels must be unique.
    """
    headers: dict[str, str] = {}
    edges = []  # (src, action, dst, reward, line_no)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            lparts = left.split()
            rparts = right.split()
            if len(lparts) != 2 or len(rparts) not in (1, 2):
                raise ModelFormatError(
                    f"line {line_no}: edge must be 'state action -> state [reward]', got {raw!r}")
            reward = 0.0
            if len(rparts) == 2:
                try:
                    reward = float(rparts[1])
                except ValueError:
                    raise ModelFormatError(
                        f"line {line_no}: reward {rparts[1]!r} is not a number") from None
            edges.append((lparts[0], lparts[1], rparts[0], reward, line_no))
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip()
            if key not in _GRAPH_HEADER_KEYS:
                raise ModelFormatError(f"line {line_no}: unknown header {key!r}")
            if key in headers:
                raise ModelFormatError(f"line {line_no}: duplicate header {key!r}")
            headers[key] = value.strip()
        else:
            raise ModelFormatError(f"line {line_no}: expected 'key: value' or an edge, got {raw!r}")

    if not edges:
        raise ModelFormatError("document: no edges found")
    if "gamma" not in headers:
        raise ModelFormatError("gamma: missing required header")
    try:
        gamma = float(headers["gamma"])
    except ValueError:
        raise ModelFormatError(f"gamma: {headers['gamma']!r} is not a number") from None

    # labels not declared in a header are taken in order of first appearance in the edges
    states = (headers["states"].split() if "states" in headers
              else list(dict.fromkeys(label for edge in edges for label in (edge[0], edge[2]))))
    actions = (headers["actions"].split() if "actions" in headers
               else list(dict.fromkeys(edge[1] for edge in edges)))
    ns, na = len(states), len(actions)

    assigned: dict[tuple[str, str], tuple[str, float]] = {}
    for src, act, dst, reward, line_no in edges:
        for label, pool, what in ((src, states, "state"), (dst, states, "state"),
                                  (act, actions, "action")):
            if label not in pool:
                raise ModelFormatError(f"line {line_no}: undeclared {what} {label!r}")
        if (src, act) in assigned:
            raise ModelFormatError(f"line {line_no}: duplicate edge for ({src}, {act})")
        assigned[(src, act)] = (dst, reward)
    missing = [(s, a) for s in states for a in actions if (s, a) not in assigned]
    if missing:
        raise ModelFormatError(f"edges: missing edge for {missing}")

    beta_spec = headers.get("beta", "blind")
    if beta_spec == "blind":
        observations = headers["observations"].split() if "observations" in headers else ["o"]
        if len(observations) != 1:
            raise ModelFormatError("observations: 'beta: blind' needs exactly one observation")
        beta = [[1.0]] * ns
    elif beta_spec == "identity":
        observations = headers["observations"].split() if "observations" in headers else list(states)
        if len(observations) != ns:
            raise ModelFormatError(
                f"observations: 'beta: identity' needs {ns} observations, got {len(observations)}")
        beta = np.eye(ns)
    else:
        rows = [row.split() for row in beta_spec.split(";")]
        if len(rows) != ns:
            raise ModelFormatError(f"beta: expected {ns} rows separated by ';', got {len(rows)}")
        try:
            beta = [[float(x) for x in row] for row in rows]
        except ValueError:
            raise ModelFormatError("beta: rows must be numbers") from None
        widths = {len(row) for row in beta}
        if len(widths) != 1:
            raise ModelFormatError("beta: rows must all have the same number of entries")
        no = widths.pop()
        observations = (headers["observations"].split() if "observations" in headers
                        else [f"o{i + 1}" for i in range(no)])
        if len(observations) != no:
            raise ModelFormatError(
                f"observations: beta has {no} columns but {len(observations)} observations given")

    mu_spec = headers.get("mu", "uniform")
    if mu_spec == "uniform":
        mu = [1.0 / ns] * ns
    elif mu_spec in states:
        mu = [1.0 if s == mu_spec else 0.0 for s in states]
    else:
        parts = mu_spec.split()
        if len(parts) != ns:
            raise ModelFormatError(
                f"mu: expected 'uniform', a state label, or {ns} numbers, got {mu_spec!r}")
        try:
            mu = [float(x) for x in parts]
        except ValueError:
            raise ModelFormatError(f"mu: {mu_spec!r} is not a state label or numbers") from None

    alpha = np.zeros((ns, na, ns))
    reward = np.zeros((ns, na))
    for (src, act), (dst, rew) in assigned.items():
        i, j, k = states.index(src), actions.index(act), states.index(dst)
        alpha[i, j, k] = 1.0
        reward[i, j] = rew

    return PomdpModel(_parse_labels(states, "states"),
                      _parse_labels(observations, "observations"),
                      _parse_labels(actions, "actions"), alpha, beta, reward, gamma, mu)


def compile_graph_source(text: str) -> str:
    """The canonical JSON document of a graph-format model (see parse_graph_model)."""
    return serialize_model(parse_graph_model(text))


def load_model_text(text: str) -> PomdpModel:
    """Parse either format: canonical JSON if the document starts with '{', graph otherwise."""
    if text.lstrip().startswith("{"):
        return parse_model(text)
    return parse_graph_model(text)
