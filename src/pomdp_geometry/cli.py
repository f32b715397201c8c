"""Command-line interface for model inspection and landscape analysis.

Exit codes: 0 on success; 2 for input-side problems (unreadable files,
malformed models or flags, models that fail validation); 1 for
computational failures inside an analysis (rank deficiencies, ergodicity
problems, fits or certifications that do not converge).  Errors are
reported as a single JSON object on stdout so callers can parse them.
All floating-point output is rendered with 17 significant digits, which
makes repeated runs byte-identical for identical inputs and seeds; JSON
writes non-finite floats as NaN, Infinity and -Infinity.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict

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
    compose,
    load_model_text,
    validate,
)
from .rational import _edge_blocks, _edge_count


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


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    """17 significant digits; non-finite values as the tokens Python's json reads."""
    text = f"{value:.17g}"
    return _NON_FINITE.get(text, text)


def _join_scalars(texts, depth: int) -> str:
    inner = "  " * (depth + 1)
    return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + "  " * depth + "]"


class _Spliced:
    """A value emit_json does not walk: ``write(out, depth)`` appends to emit_json's
    output list the text of the value rendered at that nesting depth."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write


def emit_json(obj) -> str:
    """Indented JSON text of obj with 17-significant-digit floats (non-finite
    ones as NaN, Infinity, -Infinity).

    One walk appends chunks to a single list that is joined once.  A
    `_Spliced` value writes its own pieces into the list for the depth it
    sits at: that is how `constraints` writes its monomial terms, straight
    from each polynomial's factored expansion.
    """
    out = []
    put = out.append

    def walk(value, depth):
        kind = type(value)
        if kind is float:
            put(_float_text(value))
        elif kind is int:
            put(str(value))
        elif kind is str:
            put(json.dumps(value))
        elif kind is _Spliced:
            value.write(out, depth)
        elif isinstance(value, dict):
            if not value:
                put("{}")
                return
            inner = "  " * (depth + 1)
            sep, comma = "{\n" + inner, ",\n" + inner
            for key, item in value.items():
                put(sep)
                put(json.dumps(str(key)) + ": ")
                walk(item, depth + 1)
                sep = comma
            put("\n" + "  " * depth + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                put("[]")
                return
            inner = "  " * (depth + 1)
            sep, comma = "[\n" + inner, ",\n" + inner
            for item in value:
                put(sep)
                walk(item, depth + 1)
                sep = comma
            put("\n" + "  " * depth + "]")
        elif isinstance(value, np.ndarray):
            walk(value.tolist(), depth)
        elif isinstance(value, (bool, np.bool_)):
            put("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            put(str(int(value)))
        elif isinstance(value, (float, np.floating)):
            put(_float_text(float(value)))
        elif value is None:
            put("null")
        else:
            put(json.dumps(str(value)))

    walk(obj, 0)
    put("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# argument helpers


def _read_model(path: str, gamma: float | None, mu: str | None) -> PomdpModel:
    with open(path, "r", encoding="utf-8") as fh:
        model = load_model_text(fh.read())
    if gamma is not None:
        model = model.replace(gamma=float(gamma))
    if mu is not None:
        model = model.replace(mu=_parse_mu(mu, model))
    return model


def _load_model(path: str, gamma: float | None, mu: str | None) -> PomdpModel:
    model = _read_model(path, gamma, mu)
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
    except (CliInputError, FileNotFoundError):
        raise
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliInputError(f"cannot parse policy {text!r}: {exc}") from exc


def _parse_pairs(text: str, what: str, shape: str, first_index,
                 second_index) -> list[tuple[str, str]]:
    """Comma-separated label pairs, each label checked by its model index lookup."""
    pairs = []
    for chunk in text.split(","):
        parts = [part.strip() for part in chunk.strip().split(":")]
        if len(parts) != 2:
            raise CliInputError(f"{what} {chunk!r} must look like {shape}")
        try:
            first_index(parts[0])
            second_index(parts[1])
        except KeyError as exc:
            raise CliInputError(str(exc)) from exc
        pairs.append(tuple(parts))
    return pairs


def _at_least(*checks) -> None:
    """CliInputError for the first (flag, value, least) whose value is set and
    not >= least (NaN included)."""
    for flag, value, least in checks:
        if value is not None and not value >= least:
            raise CliInputError(f"{flag} must be >= {least}, got {value}")


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
    report = validate(_read_model(args.model, args.gamma, args.mu))
    violations = [asdict(v) for v in report.violations]
    sys.stdout.write(emit_json({"ok": report.ok, "violations": violations}))
    return 0 if report.ok else 2


def _cmd_freq(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    freq = state_action_frequency(model, pi)
    tau = state_conditionals(model, pi)
    reward = float(np.sum(model.reward * freq.eta))
    if args.csv:
        labels = [(s, a) for s in model.states for a in model.actions]
        values = zip(freq.eta.ravel().tolist(), np.repeat(freq.rho, model.n_actions).tolist())
        cells = tuple(itertools.chain.from_iterable(k + v for k, v in zip(labels, values)))
        template = "%s,%s,%.17g,%.17g\n" * (model.n_states * model.n_actions)
        sys.stdout.write("state,action,eta,rho\n" + template % cells)
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
    axes = _parse_pairs(args.axes, "axis", "observation:action",
                        model.observation_index, model.action_index)
    base = _parse_policy(args.policy, model) if args.policy else None
    try:
        grid = crit.landscape_scan(
            model, axes, resolution=args.resolution, base_policy=base
        )
    except geom.SizeCapError:
        raise
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    sys.stdout.write(grid.to_csv())
    return 0


def _spliced_terms(poly, matrices: dict) -> _Spliced:
    """The "terms" list of ``poly.to_dict()`` as emit_json writes it, written
    straight from the factored expansion (expanded here, so its size cap is
    checked now).  A term's code row holds, per state, its action on the
    support and A off it.  Each exponent row is then a unit row or zero, so a
    matrix text is joined once per (depth, code row) from A + 1 row texts and
    shared through ``matrices``."""
    assignments, values = poly._expansion

    def write(out, depth):
        if not len(values):
            out.append("[]")
            return
        na = poly.n_actions
        codes = np.full((len(values), poly.n_states), na)
        codes[:, list(poly.support_states)] = assignments
        rows = [_join_scalars(["1" if a == code else "0" for a in range(na)], depth + 3)
                for code in range(na + 1)]
        texts = []
        for code in map(tuple, codes.tolist()):
            text = matrices.get((depth, code))
            if text is None:
                text = matrices[depth, code] = _join_scalars([rows[c] for c in code], depth + 2)
            texts.append(text)
        pad, inner = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
        opening, middle = "," + pad + "{" + inner + '"exponents": ', "," + inner + '"coefficient": '
        closing = pad + "}"
        first = len(out) + 1
        out.append("[")
        out.extend(itertools.chain.from_iterable(zip(
            itertools.repeat(opening), texts, itertools.repeat(middle),
            map(_float_text, values.tolist()), itertools.repeat(closing))))
        out[first] = opening[1:]  # no comma before the first term
        out.append("\n" + "  " * depth + "]")

    return _Spliced(write)


def _cmd_constraints(args) -> int:
    model = _load_model(args.model, args.gamma, args.mu)
    polys = geom.model_constraint_polynomials(model)
    matrices = {}  # (depth, code row) -> exponent matrix text, shared by every term
    payload = {"polynomials": [{**p._header(), "terms": _spliced_terms(p, matrices)}
                               for p in polys]}
    if args.policy:
        pi = _parse_policy(args.policy, model)
        freq = state_action_frequency(model, pi)
        values, report = geom._feasibility(model, freq.eta, polys)
        payload["values_at_policy"] = dict(zip([p.label for p in polys], values.tolist()))
        payload["feasibility"] = report.to_dict()
    sys.stdout.write(emit_json(payload))
    return 0


def _cmd_faces(args) -> int:
    _at_least(("--max-dim", args.max_dim, 0), ("--samples", args.samples, 1))
    if not args.tol > 0.0:  # pinned constraints are rounding noise: 0 never certifies
        raise CliInputError(f"--tol must be > 0, got {args.tol}")
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
    _at_least(("--grid", args.grid, crit.MIN_GRID_CELLS))
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
        active = (_parse_pairs(args.active, "active pair", "action:observation",
                               model.action_index, model.observation_index)
                  if args.active else [])
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
        _at_least(("--states", args.states, 1), ("--actions", args.actions, 1),
                  *(("--d", d, 1) for d in degrees), *(("--k", k, 1) for k in mults))
        try:  # the rules BoundInput.from_model applies to a model's face
            m = crit._face_budget(args.states, args.actions,
                                  {f"o{i + 1}": k for i, k in enumerate(mults)})
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
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


def _cmd_project(args) -> int:
    _at_least(("--samples", args.samples, 0), ("--points", args.points, 1))
    model = _load_model(args.model, args.gamma, args.mu)
    ns, no, na = model.n_states, model.n_observations, model.n_actions
    dim = ns * na
    if dim < 3:
        raise CliInputError(
            "3-d projection needs at least 3 state-action pairs"
        )
    edge_rows = (_edge_count(no, na) + _edge_count(ns, na)) * args.points
    geom._check_cap(args.samples + edge_rows,
                    f"projecting {args.samples} samples and {edge_rows} edge points")
    rng = np.random.default_rng(args.seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))

    pis = rng.dirichlet(np.ones(na), size=(args.samples, no))
    table = batch_eta(model, compose(model.beta, pis)).reshape(args.samples, dim) @ basis
    chunks = ["tag,index,t,x,y,z\n",
              "sample,0,,%.17g,%.17g,%.17g\n" * len(table) % tuple(table.ravel().tolist())]
    ts = np.linspace(0.0, 1.0, args.points)
    for tag, n_rows, to_taus in (("pomdp_edge", no, lambda pis: compose(model.beta, pis)),
                                 ("mdp_edge", ns, lambda taus: taus)):
        row = tag + ",%d,%.17g,%.17g,%.17g,%.17g\n"
        for first, mats in _edge_blocks(n_rows, na, ts):
            n_edges = len(mats) // len(ts)
            # one (points, dim) @ (dim, 3) product per edge, as each edge alone would get
            etas = batch_eta(model, to_taus(mats)).reshape(n_edges, len(ts), dim)
            table = np.column_stack([np.repeat(np.arange(first, first + n_edges), len(ts)),
                                     np.tile(ts, n_edges), (etas @ basis).reshape(-1, 3)])
            chunks.append(row * len(table) % tuple(table.ravel().tolist()))
    sys.stdout.write("".join(chunks))
    return 0


def _cmd_oracle(args) -> int:
    if not args.tol > 0.0:
        raise CliInputError(f"--tol must be > 0, got {args.tol}")
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

    def common(p):
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _ValidationFailure as exc:
        violations = [asdict(v) for v in exc.report.violations]
        payload = {"error": {"kind": "validation", "violations": violations}}
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
