"""Command-line interface for model inspection and landscape analysis.

Each subcommand returns its document: a dict that `emit_json` renders, or the
CSV text of `freq --csv`, `scan` and `project`.  `main` alone writes stdout,
once per call, and maps exceptions to exit codes through one refusal map:
0 on success; 2 for input-side problems (`INPUT_ERRORS`: unreadable files, models
that fail validation, and every `InputError`: malformed models, flags or policies, and
arguments a library function refuses); 1 for computational failures inside an
analysis (`COMPUTE_ERRORS`: rank deficiencies, size caps, ergodicity problems, solver
failures, fits or certifications that do not converge).  Any other exception, an
untyped `ValueError` included, is a bug and propagates.  Warnings raised while a
command runs go to stderr as usual, reported against the model file it read.
Errors are reported as a single JSON object on stdout so callers can parse them.
All floating-point output is rendered with 17 significant digits, which
makes repeated runs byte-identical for identical inputs and seeds; JSON
writes non-finite floats as NaN, Infinity and -Infinity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
import warnings
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
    InputError,
    Policy,
    PomdpModel,
    _csv_field,
    compose,
    load_model_text,
    validate,
)
from .rational import _edge_blocks, _edge_count


class _Refused(Exception):
    """A refusal of the input that carries its own document: a model that failed
    validation."""

    def __init__(self, document):
        super().__init__("model failed validation")
        self.document = document


# the refusal map: main reports these with exit code 2 ...
INPUT_ERRORS = (
    _Refused,
    InputError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    UnicodeDecodeError,
)

# ... and these with exit code 1 (CertificationError and DegreeFitError are
# ArithmeticErrors); RankError, SizeCapError and LinAlgError are ValueErrors, named
# here so that no other ValueError passes for a refusal
COMPUTE_ERRORS = (ErgodicityError, ArithmeticError, geom.RankError, geom.SizeCapError,
                  np.linalg.LinAlgError)


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
    sits at: that is how `constraints` writes its monomial terms and `faces`
    its faces, from texts formatted once per document.
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
        violations = [asdict(v) for v in report.violations]
        raise _Refused({"error": {"kind": "validation", "violations": violations}})
    return model


def _parse_mu(text: str, model: PomdpModel) -> np.ndarray:
    """The start distribution a --mu value names; `PomdpModel.replace` checks its length."""
    if text == "uniform":
        return np.full(model.n_states, 1.0 / model.n_states)
    if text in model.states:
        return np.eye(model.n_states)[model.state_index(text)]
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise InputError(
            f"--mu must be 'uniform', a state label, or comma-separated "
            f"numbers; got {text!r}"
        ) from exc


def _parse_policy(text: str, model: PomdpModel) -> Policy:
    """The policy a --policy value names; its shape is checked by the library function
    that uses it (`state_conditionals`, or `landscape_scan` for a base policy)."""
    if text == "uniform":
        return Policy.uniform(model.n_observations, model.n_actions)
    # a failure to read, parse or build the policy is reported with its text
    try:
        if text.startswith("det:"):
            indices = [model.action_index(lbl.strip()) for lbl in text[4:].split(",")]
            return Policy.deterministic(indices, model.n_actions)
        if text.lstrip().startswith(("[", "{")):
            payload = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        if isinstance(payload, dict):
            return Policy(payload.get("kind", "observation"),
                          np.array(payload["matrix"], dtype=float))
        return Policy("observation", np.array(payload, dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot parse policy {text!r}: {exc}") from exc


def _parse_pairs(text: str, what: str, shape: str, labels) -> list[tuple[str, str]]:
    """Label pairs read as one CSV record, quoted as the CSV writers quote a label (`_csv_field`),
    so '"o1:a,1",o2:a2' names action 'a,1'; the library function that takes them resolves
    the labels.  A pair with one colon splits there; a pair with several splits at the one
    colon whose halves are both known, labels holding the known labels of each side."""
    try:
        chunks = next(csv.reader([text], skipinitialspace=True, strict=True)) or [""]
    except csv.Error as exc:
        raise InputError(f"cannot read {text!r} as one CSV record of {shape} pairs: {exc}") from exc
    pairs = []
    for chunk in chunks:
        splits = [(chunk[:i].strip(), chunk[i + 1:].strip())
                  for i, char in enumerate(chunk) if char == ":"]
        if len(splits) > 1:
            splits = [pair for pair in splits if pair[0] in labels[0] and pair[1] in labels[1]]
            if len(splits) > 1:
                raise InputError(f"{what} {chunk!r} is ambiguous: it splits into known labels as "
                                 + " and as ".join(map(repr, splits)))
        if len(splits) != 1:
            raise InputError(f"{what} {chunk!r} must look like {shape}")
        pairs.append(splits[0])
    return pairs


def _at_least(*checks) -> None:
    """InputError for the first (flag, value, least) whose value is not >= least."""
    for flag, value, least in checks:
        if not value >= least:
            raise InputError(f"{flag} must be >= {least}, got {value}")


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag} must be comma-separated integers") from exc


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_validate(args) -> dict:
    report = validate(_read_model(args.model, args.gamma, args.mu))
    document = {"ok": report.ok, "violations": [asdict(v) for v in report.violations]}
    if not report.ok:
        raise _Refused(document)
    return document


def _cmd_freq(args) -> dict | str:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    freq = state_action_frequency(model, pi)
    tau = state_conditionals(model, pi)
    reward = float(np.sum(model.reward * freq.eta))
    if args.csv:
        actions = [_csv_field(a) for a in model.actions]
        labels = [(s, a) for s in map(_csv_field, model.states) for a in actions]
        values = zip(freq.eta.ravel().tolist(), np.repeat(freq.rho, model.n_actions).tolist())
        cells = tuple(itertools.chain.from_iterable(k + v for k, v in zip(labels, values)))
        template = "%s,%s,%.17g,%.17g\n" * (model.n_states * model.n_actions)
        return "state,action,eta,rho\n" + template % cells
    return {
        "eta": freq.eta,
        "rho": freq.rho,
        "reward": reward,
        "residual": fixed_point_residual(model, tau, freq.eta),
    }


def _cmd_reward(args) -> dict:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    bundle = value_bundle(model, pi, normalized=not args.unnormalized)
    return {
        "reward": bundle.R,
        "state_values": bundle.V,
        "state_action_values": bundle.Q,
        "normalized": not args.unnormalized,
    }


def _cmd_scan(args) -> str:
    model = _load_model(args.model, args.gamma, args.mu)
    axes = _parse_pairs(args.axes, "axis", "observation:action",
                        (model.observations, model.actions))
    base = _parse_policy(args.policy, model) if args.policy else None
    return crit.landscape_scan(model, axes, args.resolution, base).to_csv()


def _term_prefixes(n_states: int, n_actions: int, support: tuple[int, ...],
                   depth: int) -> list[str]:
    """The text of each term of a constraint on an ascending support up to its coefficient,
    as emit_json writes a "terms" list at this depth, one per flat index of the A^degree
    table of action assignments, each with the comma that separates it from the term
    before.  An exponent row is the unit row of the action of a support state, or zero."""
    rows = [_join_scalars(["1" if a == code else "0" for a in range(n_actions)], depth + 3)
            for code in range(n_actions + 1)]  # code n_actions: the zero row
    inner = "\n" + "  " * (depth + 3)
    texts = [",\n" + "  " * (depth + 1) + "{\n" + "  " * (depth + 2) + '"exponents": [' + inner]
    for s in range(n_states):
        after = ("," + inner if s + 1 < n_states
                 else "\n" + "  " * (depth + 2) + "],\n" + "  " * (depth + 2) + '"coefficient": ')
        choices = [row + after for row in (rows[:-1] if s in support else rows[-1:])]
        texts = [text + choice for text in texts for choice in choices]
    return texts


def _coefficient_texts(expansions) -> list[list[str]]:
    """The coefficient texts of each expansion of `geometry._expansions`.  A constraint's
    coefficients are subset sums of one pseudo-inverse row, so few are distinct: each
    distinct one in the document is formatted once (kept coefficients exceed 1e-14 * scale
    in magnitude, so 0.0 and -0.0 never share a text)."""
    distinct, inverse = np.unique(np.concatenate([values for _, values in expansions]),
                                  return_inverse=True)
    texts = np.array([_float_text(v) for v in distinct.tolist()], dtype=object)[inverse]
    return [part.tolist() for part in
            np.split(texts, np.cumsum([len(values) for _, values in expansions])[:-1])]


def _spliced_terms(n_states: int, n_actions: int, support: tuple[int, ...], flat: np.ndarray,
                   coefficients: list[str], prefixes: dict) -> _Spliced:
    """The "terms" list of a constraint's ``to_dict()`` as emit_json writes it, from the
    flat indices of its kept monomials (`geometry._expansions`) and their coefficient
    texts.  The `_term_prefixes` of each (depth, support) are joined once per document and
    shared through ``prefixes``."""

    def write(out, depth):
        if not coefficients:
            out.append("[]")
            return
        texts = prefixes.get((depth, support))
        if texts is None:
            texts = prefixes[depth, support] = _term_prefixes(n_states, n_actions, support, depth)
        first = len(out) + 1
        out.append("[")
        out.extend(itertools.chain.from_iterable(zip(
            map(texts.__getitem__, flat.tolist()), coefficients,
            itertools.repeat("\n" + "  " * (depth + 1) + "}"))))
        out[first] = out[first][1:]  # no comma before the first term
        out.append("\n" + "  " * depth + "]")

    return _Spliced(write)


def _cmd_constraints(args) -> dict:
    model = _load_model(args.model, args.gamma, args.mu)
    table = geom._model_packed(model)
    expansions = geom._expansions(table)
    prefixes = {}  # (depth, support) -> the term texts up to each coefficient
    payload = {"polynomials": [
        {**geom._header(label, observation, action, support),
         "terms": _spliced_terms(model.n_states, model.n_actions, support, flat, coefficients,
                                 prefixes)}
        for (label, observation, action, support, _), (flat, _), coefficients
        in zip(geom._table_rows(table, model.observations, model.actions), expansions,
               _coefficient_texts(expansions))]}
    if args.policy:
        pi = _parse_policy(args.policy, model)
        freq = state_action_frequency(model, pi)
        values, report = geom._feasibility(model, freq.eta, table)
        payload["values_at_policy"] = dict(zip(table.labels, values.tolist()))
        payload["feasibility"] = report.to_dict()
    return payload


def _spliced_faces(lattice: geom.FaceLattice) -> _Spliced:
    """The "faces" list as emit_json writes the dicts of the lattice's descriptors (free
    actions, pinned (action, observation) pairs in sorted order, subfaces), written from
    its arrays (`FaceLattice._graph`).  Each free-action set and each pinned pair is
    formatted once per document, and the pairs are sorted once: by one rank over all O x A
    pairs, in which each face's pinned pairs are picked.  A model file has at least one
    observation and one action, so every face and every free set has an entry."""
    rows, ranks, dims, covers, counts = lattice._graph()
    no, na = ranks.shape[1], rows.shape[1]
    order = sorted(range(no * na),
                   key=lambda k: (lattice.actions[k % na], lattice.observations[k // na]))
    pinned = (~rows[ranks]).reshape(len(ranks), -1)[:, order]

    def write(out, depth):
        sets = [_join_scalars([str(a) for a in np.flatnonzero(row).tolist()], depth + 3)
                for row in rows]
        pairs = [_join_scalars([json.dumps(lattice.actions[k % na]),
                                json.dumps(lattice.observations[k // na])], depth + 3)
                 for k in order]
        key = ("\n" + "  " * (depth + 2) + '"{}": ').format
        opening, sep = "[\n" + "  " * (depth + 3), ",\n" + "  " * (depth + 3)
        closing = "\n" + "  " * (depth + 2) + "]"
        heads = [",\n" + "  " * (depth + 1) + "{" + key("dimension") + str(d) + ","
                 + key("free_actions") + opening for d in range(len(lattice.f_vector))]
        zeros, subfaces = closing + "," + key("active_zeros"), "," + key("subfaces")
        tail = "\n" + "  " * (depth + 1) + "}"
        covers_left = iter(map(str, covers))
        first = len(out)
        for dim, face_ranks, face_pinned, n_covers in zip(
                dims.tolist(), ranks.tolist(), pinned.tolist(), counts):
            pairs_pinned = list(itertools.compress(pairs, face_pinned))
            out += (heads[dim], sep.join([sets[r] for r in face_ranks]), zeros,
                    opening + sep.join(pairs_pinned) + closing if pairs_pinned else "[]",
                    subfaces,
                    opening + sep.join(itertools.islice(covers_left, n_covers)) + closing
                    if n_covers else "[]", tail)
        out[first] = "[" + out[first][1:]  # no comma before the first face
        out.append("\n" + "  " * depth + "]")

    return _Spliced(write)


def _cmd_faces(args) -> dict:
    model = _load_model(args.model, args.gamma, args.mu)
    lattice = geom.face_lattice(
        model,
        max_dim=args.max_dim,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
    )
    return {
        "f_vector": list(lattice.f_vector),
        "n_faces": lattice.n_faces,
        "certified": lattice.certified,
        "faces": _spliced_faces(lattice),
    }


def _cmd_critical(args) -> dict:
    model = _load_model(args.model, args.gamma, args.mu)
    return crit.blind_critical_points(model, grid=args.grid).to_dict()


def _cmd_bounds(args) -> dict:
    modes = sum(
        [args.rank_one is not None, args.model is not None, args.d is not None]
    )
    if modes != 1:
        raise InputError(
            "choose exactly one of --rank-one, --model with --active, or "
            "inline --states/--actions/--d/--k"
        )
    if args.rank_one is not None:
        k = args.rank_one
        t0, t1, t2 = crit.polar_degree_terms(k)
        return {
            "rank_one_k": k,
            "terms": [t0, t1, t2],
            "polar_degree": crit.polar_degree_rank_one(k),
        }
    if args.model is not None:
        model = _load_model(args.model, args.gamma, args.mu)
        active = (_parse_pairs(args.active, "active pair", "action:observation",
                               (model.actions, model.observations)) if args.active else [])
        inputs = crit.BoundInput.from_model(model, active)
    else:
        if args.states is None or args.actions is None or args.k is None:
            raise InputError(
                "inline mode needs --states, --actions, --d and --k"
            )
        degrees = _parse_int_list(args.d, "--d")
        mults = _parse_int_list(args.k, "--k")
        inputs = crit.BoundInput.from_counts(args.states, args.actions,
                                             {f"o{i + 1}": k for i, k in enumerate(mults)},
                                             degrees)
    return {
        "active_set": [list(pair) for pair in inputs.active_set],
        "degrees": list(inputs.degrees),
        "multiplicities": list(inputs.multiplicities),
        "m": inputs.m,
        "bound": crit.critical_point_bound(inputs),
    }


def _cmd_project(args) -> str:
    _at_least(("--samples", args.samples, 0), ("--points", args.points, 1),
              ("--seed", args.seed, 0))
    model = _load_model(args.model, args.gamma, args.mu)
    ns, no, na = model.n_states, model.n_observations, model.n_actions
    dim = ns * na
    if dim < 3:
        raise InputError(
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
    return "".join(chunks)


def _cmd_oracle(args) -> dict:
    model = _load_model(args.model, args.gamma, args.mu)
    pi = _parse_policy(args.policy, model)
    freq = state_action_frequency(model, pi)
    approx = truncated_series_oracle(model, pi, tol=args.tol)
    diff = float(np.max(np.abs(freq.eta - approx.eta)))
    horizon = (
        truncation_length(model.gamma, args.tol) if model.gamma < 1.0 else None
    )
    return {
        "tol": args.tol,
        "horizon": horizon,
        "max_abs_diff": diff,
        "within_tol": diff <= args.tol,
    }


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
        "--axes", required=True,
        help='observation:action[,observation:action]; quote a pair holding a comma: "o1:a,1"; '
             'a pair holding several colons splits where both sides are known labels'
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
        "--active", default=None,
        help='pinned entries action:observation[,...]; quote a pair holding a comma: "a,1:o1"; '
             'a pair holding several colons splits where both sides are known labels'
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
    """Run one subcommand and write its document, or the document of its refusal, to
    stdout once; returns the exit code."""
    args = _parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            document, code = args.func(args), 0
        except INPUT_ERRORS + COMPUTE_ERRORS as exc:
            document = exc.document if isinstance(exc, _Refused) else {
                "error": {"kind": type(exc).__name__, "message": str(exc)}}
            code = 2 if isinstance(exc, INPUT_ERRORS) else 1
    # a warning of the package names the first frame outside it, here the interpreter's or
    # the console script's: a command reports each warning against the model file it read
    for caught_warning in caught:
        where = ((args.model, 0) if args.model is not None
                 else (caught_warning.filename, caught_warning.lineno))
        warnings.warn_explicit(caught_warning.message, caught_warning.category, *where)
    sys.stdout.write(document if isinstance(document, str) else emit_json(document))
    return code


if __name__ == "__main__":
    sys.exit(main())
