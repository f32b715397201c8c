"""Command-line interface for model inspection and landscape analysis.

Exit codes: 0 on success; 2 for input-side problems (unreadable files,
malformed models or flags, models that fail validation); 1 for
computational failures inside an analysis (rank deficiencies, ergodicity
problems, fits or certifications that do not converge).  Errors are
reported as a single JSON object on stdout so callers can parse them.
All floating-point output is rendered with 17 significant digits, which
makes repeated runs byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import critical as crit
from . import geometry as geom
from .freq import (
    ErgodicityError,
    batch_eta,
    fixed_point_residual,
    state_action_frequency,
    state_conditionals,
    truncated_series_oracle,
    truncation_length,
    value_bundle,
)
from .model import (
    ModelFormatError,
    Policy,
    PomdpModel,
    load_model_text,
    validate,
)


class CliInputError(ValueError):
    """Malformed command-line input (flags, inline matrices, labels)."""


INPUT_ERRORS = (
    ModelFormatError,
    CliInputError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    UnicodeDecodeError,
    json.JSONDecodeError,
)

# the typed errors (RankError, SizeCapError, CertificationError,
# DegreeFitError, LinAlgError) subclass ArithmeticError or ValueError
COMPUTE_ERRORS = (ErgodicityError, ArithmeticError, ValueError)


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _render(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = [f"{inner}{_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, np.ndarray):
        return _render(value.tolist(), indent)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return "null"
    return json.dumps(str(value))


def emit_json(obj) -> str:
    return _render(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# argument helpers


def _load_model(path: str, gamma: float | None, mu: str | None) -> PomdpModel:
    with open(path, "r", encoding="utf-8") as fh:
        model = load_model_text(fh.read())
    if gamma is not None:
        model = model.replace(gamma=float(gamma))
    if mu is not None:
        model = model.replace(mu=_parse_mu(mu, model))
    report = validate(model)
    if not report.ok:
        raise _ValidationFailure(report)
    return model


class _ValidationFailure(Exception):
    def __init__(self, report):
        super().__init__("model failed validation")
        self.report = report


def _parse_mu(text: str, model: PomdpModel) -> np.ndarray:
    if text == "uniform":
        return np.full(model.n_states, 1.0 / model.n_states)
    if text in model.states:
        mu = np.zeros(model.n_states)
        mu[model.state_index(text)] = 1.0
        return mu
    try:
        values = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise CliInputError(
            f"--mu must be 'uniform', a state label, or comma-separated "
            f"numbers; got {text!r}"
        ) from exc
    if values.shape != (model.n_states,):
        raise CliInputError(
            f"--mu has {values.size} entries but the model has "
            f"{model.n_states} states"
        )
    return values


def _parse_policy(text: str, model: PomdpModel) -> Policy:
    n_obs, n_act = model.n_observations, model.n_actions
    try:
        if text == "uniform":
            return Policy.uniform(n_obs, n_act)
        if text.startswith("det:"):
            labels = text[4:].split(",")
            if len(labels) != n_obs:
                raise CliInputError(
                    f"det: policy needs {n_obs} action labels, got {len(labels)}"
                )
            indices = [model.action_index(lbl.strip()) for lbl in labels]
            return Policy.deterministic(indices, n_act)
        if text.lstrip().startswith(("[", "{")):
            payload = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        if isinstance(payload, dict):
            kind = payload.get("kind", "observation")
            matrix = np.array(payload["matrix"], dtype=float)
        else:
            kind = "observation"
            matrix = np.array(payload, dtype=float)
        expected_rows = n_obs if kind == "observation" else model.n_states
        if matrix.shape != (expected_rows, n_act):
            raise CliInputError(
                f"policy matrix must be {expected_rows} x {n_act} for kind "
                f"{kind!r}; got {matrix.shape}"
            )
        return Policy(kind, matrix)
    except CliInputError:
        raise
    except FileNotFoundError:
        raise
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot parse policy {text!r}: {exc}") from exc


def _parse_axes(text: str, model: PomdpModel) -> list[tuple[str, str]]:
    axes = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise CliInputError(
                f"axis {chunk!r} must look like observation:action"
            )
        o, a = parts[0].strip(), parts[1].strip()
        try:
            model.observation_index(o)
            model.action_index(a)
        except KeyError as exc:
            raise CliInputError(str(exc)) from exc
        axes.append((o, a))
    return axes


def _parse_active_set(text: str, model: PomdpModel) -> list[tuple[str, str]]:
    if not text:
        return []
    pairs = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise CliInputError(f"active pair {chunk!r} must look like action:observation")
        a, o = parts[0].strip(), parts[1].strip()
        try:
            model.action_index(a)
            model.observation_index(o)
        except KeyError as exc:
            raise CliInputError(str(exc)) from exc
        pairs.append((a, o))
    return pairs


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"{flag} must be comma-separated integers") from exc


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_validate(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = load_model_text(fh.read())
    if args.gamma is not None:
        model = model.replace(gamma=float(args.gamma))
    if args.mu is not None:
        model = model.replace(mu=_parse_mu(args.mu, model))
    report = validate(model)
    payload = {
        "ok": report.ok,
        "violations": [
            {"path": v.path, "message": v.message, "magnitude": v.magnitude}
            for v in report.violations
        ],
    }
    sys.stdout.write(emit_json(payload))
    return 0 if report.ok else 2


def _cmd_freq(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    freq = state_action_frequency(model, pi)
    tau = state_conditionals(model, pi)
    reward = float(np.sum(model.reward * freq.eta))
    if args.csv:
        lines = ["state,action,eta,rho"]
        for s, state in enumerate(model.states):
            for a, action in enumerate(model.actions):
                lines.append(
                    f"{state},{action},{freq.eta[s, a]:.17g},{freq.rho[s]:.17g}"
                )
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    payload = {
        "eta": freq.eta,
        "rho": freq.rho,
        "reward": reward,
        "residual": fixed_point_residual(model, tau, freq.eta),
    }
    sys.stdout.write(emit_json(payload))
    return 0


def _cmd_reward(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    bundle = value_bundle(model, pi, normalized=not args.unnormalized)
    payload = {
        "reward": bundle.R,
        "state_values": bundle.V,
        "state_action_values": bundle.Q,
        "normalized": not args.unnormalized,
    }
    sys.stdout.write(emit_json(payload))
    return 0


def _cmd_scan(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    axes = _parse_axes(args.axes, model)
    base = _parse_policy(args.policy, model) if args.policy else None
    try:
        grid = crit.landscape_scan(
            model, axes, resolution=args.resolution, base_policy=base
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    sys.stdout.write(grid.to_csv())
    return 0


def _cmd_constraints(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    polys = geom.model_constraint_polynomials(model)
    payload = {"polynomials": [p.to_dict() for p in polys]}
    if args.policy:
        pi = _parse_policy(args.policy, model)
        freq = state_action_frequency(model, pi)
        payload["values_at_policy"] = {
            p.label: float(p.evaluate(freq.eta)) for p in polys
        }
        report = geom.feasibility_report(model, freq.eta, polys=polys)
        payload["feasibility"] = report.to_dict()
    sys.stdout.write(emit_json(payload))
    return 0


def _cmd_faces(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    lattice = geom.face_lattice(
        model,
        max_dim=args.max_dim,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )
    payload = {
        "f_vector": list(lattice.f_vector),
        "n_faces": lattice.n_faces,
        "certified": lattice.certified,
        "faces": [
            {
                "dimension": f.dimension,
                "free_actions": [list(k) for k in f.free_actions],
                "active_zeros": sorted(list(pair) for pair in f.active_zeros),
                "subfaces": list(f.subfaces),
            }
            for f in lattice.faces
        ],
    }
    sys.stdout.write(emit_json(payload))
    return 0


def _cmd_critical(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    result = crit.blind_critical_points(model, grid=args.grid)
    sys.stdout.write(emit_json(result.to_dict()))
    return 0


def _cmd_bounds(args) -> int:
    modes = sum(
        [args.rank_one is not None, args.model is not None, args.d is not None]
    )
    if modes != 1:
        raise CliInputError(
            "choose exactly one of --rank-one, --model with --active, or "
            "inline --states/--actions/--d/--k"
        )
    if args.rank_one is not None:
        k = args.rank_one
        t0, t1, t2 = crit.polar_degree_terms(k)
        payload = {
            "rank_one_k": k,
            "terms": [t0, t1, t2],
            "polar_degree": crit.polar_degree_rank_one(k),
        }
        sys.stdout.write(emit_json(payload))
        return 0
    if args.model is not None:
        model = _load_model(args.model, args.gamma, args.mu)
        active = _parse_active_set(args.active or "", model)
        inputs = crit.BoundInput.from_model(model, active)
    else:
        if args.states is None or args.actions is None or args.k is None:
            raise CliInputError(
                "inline mode needs --states, --actions, --d and --k"
            )
        degrees = _parse_int_list(args.d, "--d")
        mults = _parse_int_list(args.k, "--k")
        if len(degrees) != len(mults):
            raise CliInputError("--d and --k must have the same length")
        m = args.states * (args.actions - 1) - sum(mults)
        inputs = crit.BoundInput(
            active_set=tuple(
                (f"a*{j + 1}", f"o{i + 1}")
                for i, k_o in enumerate(mults)
                for j in range(k_o)
            ),
            degrees=degrees,
            multiplicities=mults,
            m=m,
        )
    payload = {
        "active_set": [list(pair) for pair in inputs.active_set],
        "degrees": list(inputs.degrees),
        "multiplicities": list(inputs.multiplicities),
        "m": inputs.m,
        "bound": crit.critical_point_bound(inputs),
    }
    sys.stdout.write(emit_json(payload))
    return 0


def _simplex_edges(n_rows: int, n_actions: int):
    """All 1-dimensional faces of a product of simplices, as sweep recipes."""
    for free_row in range(n_rows):
        for pair in itertools.combinations(range(n_actions), 2):
            other_rows = [r for r in range(n_rows) if r != free_row]
            for vertex in itertools.product(range(n_actions), repeat=len(other_rows)):
                yield free_row, pair, dict(zip(other_rows, vertex))


def _edge_policies(n_rows, n_actions, free_row, pair, pinned, ts):
    mats = np.zeros((len(ts), n_rows, n_actions))
    for row, action in pinned.items():
        mats[:, row, action] = 1.0
    a, b = pair
    mats[:, free_row, a] = 1.0 - ts
    mats[:, free_row, b] = ts
    return mats


def _cmd_project(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    ns, no, na = model.n_states, model.n_observations, model.n_actions
    dim = ns * na
    if dim < 3:
        raise CliInputError(
            "3-d projection needs at least 3 state-action pairs"
        )
    rng = np.random.default_rng(args.seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))

    lines = ["tag,index,t,x,y,z"]

    def add_rows(tag, index, ts, etas):
        coords = etas.reshape(len(etas), dim) @ basis
        for t, (x, y, z) in zip(ts, coords):
            t_txt = "" if t is None else f"{t:.17g}"
            lines.append(
                f"{tag},{index},{t_txt},{x:.17g},{y:.17g},{z:.17g}"
            )

    pis = rng.dirichlet(np.ones(na), size=(args.samples, no))
    taus = np.einsum("so,noa->nsa", model.beta, pis)
    etas = batch_eta(model, taus)
    add_rows("sample", 0, [None] * args.samples, etas)

    ts = np.linspace(0.0, 1.0, args.points)
    for idx, (row, pair, pinned) in enumerate(_simplex_edges(no, na)):
        pis = _edge_policies(no, na, row, pair, pinned, ts)
        taus = np.einsum("so,noa->nsa", model.beta, pis)
        add_rows("pomdp_edge", idx, ts, batch_eta(model, taus))
    for idx, (row, pair, pinned) in enumerate(_simplex_edges(ns, na)):
        taus = _edge_policies(ns, na, row, pair, pinned, ts)
        add_rows("mdp_edge", idx, ts, batch_eta(model, taus))

    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    freq = state_action_frequency(model, pi)
    approx = truncated_series_oracle(model, pi, tol=args.tol)
    diff = float(np.max(np.abs(freq.eta - approx.eta)))
    horizon = (
        truncation_length(model.gamma, args.tol) if model.gamma < 1.0 else None
    )
    payload = {
        "tol": args.tol,
        "horizon": horizon,
        "max_abs_diff": diff,
        "within_tol": diff <= args.tol,
    }
    sys.stdout.write(emit_json(payload))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomdpgeo",
        description=(
            "Geometric analysis of state-action frequencies and reward "
            "landscapes for memoryless stochastic control"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model_required=True):
        if model_required:
            p.add_argument("model", help="model file (canonical JSON or graph format)")
        p.add_argument("--gamma", type=float, default=None, help="override discount")
        p.add_argument(
            "--mu",
            default=None,
            help="override start: 'uniform', a state label, or comma-separated numbers",
        )

    p = sub.add_parser("validate", help="check a model file and report violations")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("freq", help="state-action frequency of a policy")
    common(p)
    p.add_argument("--policy", default="uniform")
    p.add_argument("--csv", action="store_true", help="tabular output")
    p.set_defaults(func=_cmd_freq)

    p = sub.add_parser("reward", help="value functions and expected reward")
    common(p)
    p.add_argument("--policy", default="uniform")
    p.add_argument(
        "--unnormalized",
        action="store_true",
        help="report cumulative values without the (1 - gamma) prefactor",
    )
    p.set_defaults(func=_cmd_reward)

    p = sub.add_parser("scan", help="sweep one or two policy entries, CSV out")
    common(p)
    p.add_argument(
        "--axes", required=True, help="observation:action[,observation:action]"
    )
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--policy", default=None, help="base policy (default uniform)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "constraints", help="polynomial constraints on feasible frequencies"
    )
    common(p)
    p.add_argument(
        "--policy",
        default=None,
        help="also evaluate the constraints at this policy's frequency",
    )
    p.set_defaults(func=_cmd_constraints)

    p = sub.add_parser("faces", help="enumerate and certify the face lattice")
    common(p)
    p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=geom.CERT_TOL)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser(
        "critical", help="exact critical points of a blind two-action model"
    )
    common(p)
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("bounds", help="critical-point bounds per face")
    p.add_argument("--model", default=None, help="model file for --active mode")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--mu", default=None)
    p.add_argument(
        "--active", default=None, help="pinned entries action:observation[,...]"
    )
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--actions", type=int, default=None)
    p.add_argument("--d", default=None, help="per-observation constraint degrees")
    p.add_argument("--k", default=None, help="per-observation pinned-action counts")
    p.add_argument(
        "--rank-one",
        type=int,
        default=None,
        dest="rank_one",
        help="polar degree of the rank-one locus of Kx2 matrices",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "project", help="3-d projection of frequencies and polytope edges, CSV out"
    )
    common(p)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--points", type=int, default=200, help="points per edge")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser(
        "oracle", help="cross-check the frequency solver against a truncated series"
    )
    common(p)
    p.add_argument("--policy", default="uniform")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ValidationFailure as exc:
        payload = {
            "error": {
                "kind": "validation",
                "violations": [
                    {
                        "path": v.path,
                        "message": v.message,
                        "magnitude": v.magnitude,
                    }
                    for v in exc.report.violations
                ],
            }
        }
        sys.stdout.write(emit_json(payload))
        return 2
    except INPUT_ERRORS as exc:
        payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(emit_json(payload))
        return 2
    except COMPUTE_ERRORS as exc:
        payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(emit_json(payload))
        return 1


if __name__ == "__main__":
    sys.exit(main())
