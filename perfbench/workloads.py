"""The benchmark's workloads: inputs made from a seed, tasks, and output checks.

A task is one call of the analysis a workload names, made through the
public API of `pomdp_geometry`.  Each task carries a check that compares
its output against the reference code in `oracles.py`; a check returns
None when the output is correct and a short reason otherwise.  A failure
is either one of the defects known at the baseline, which a task declares,
or unexpected, which makes the run not verified.  Functions are looked up
on the package at call time, so a traced run sees the wrapped bindings.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles


@dataclass
class Task:
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # known defects: the task may raise, or its check may return this reason
    may_raise: bool = False
    known_miss: str | None = None


def interpreter_reference():
    """A 1000-step Python loop and ten 60x60 solves, like small-model work."""
    matrix = np.random.default_rng(0).random((60, 60)) + 60.0 * np.eye(60)
    rhs = np.ones(60)

    def reference():
        total = 0
        for i in range(1000):
            total += i * i
        for _ in range(10):
            np.linalg.solve(matrix, rhs)
        return total

    return reference


def dense_solve_reference(n):
    """One dense n x n solve, like large-model work."""
    matrix = np.random.default_rng(0).random((n, n)) + n * np.eye(n)
    rhs = np.ones(n)
    return lambda: np.linalg.solve(matrix, rhs)


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # bytes a task's output holds, for workloads that render output
    output_bytes: Callable[[object], int] | None = None
    # fixed work timed between tasks to track the host's speed; it calls
    # nothing in the package, and is of the kind that dominates the tasks
    reference: Callable[[], object] = field(default_factory=interpreter_reference)


def _labels(prefix, n):
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def random_arrays(rng, ns, no, na, *, positive_mu=False):
    """Dirichlet kernels, standard normal rewards, Dirichlet start."""
    alpha = rng.dirichlet(np.ones(ns), size=(ns, na))
    beta = rng.dirichlet(np.ones(no), size=ns)
    reward = rng.normal(0.0, 1.0, size=(ns, na))
    mu = rng.dirichlet(np.ones(ns))
    if positive_mu:
        mu = (mu + 0.05) / (mu + 0.05).sum()
    return {"alpha": alpha, "beta": beta, "reward": reward, "mu": mu}


def make_model(pg, arrays, gamma):
    ns, na, _ = arrays["alpha"].shape
    no = arrays["beta"].shape[1]
    return pg.PomdpModel(_labels("s", ns), _labels("o", no), _labels("a", na),
                         arrays["alpha"], arrays["beta"], arrays["reward"], gamma,
                         arrays["mu"])


# ---------------------------------------------------------------------------
# solve-large


SOLVE_SIZE = (60, 30, 8)
SOLVE_MODELS = 10
SOLVE_TASKS = 100
NEAR_ONE_GAMMAS = (1.0 - 1e-6, 1.0 - 1e-7)
RESIDUAL_TOL = 1e-10
REWARD_TOL = 1e-9
GRADIENT_TOL = 1e-5


def solve_large(pg, rng, root, workdir):
    """Frequency, values and gradient of one random policy on a 60x30x8 model.

    One task in ten runs at a discount within 1e-6 or 1e-7 of one, where
    frequency solves are known to raise today; those raises are counted,
    not filtered.  Any other failure is unexpected.
    """
    ns, no, na = SOLVE_SIZE
    bases = [random_arrays(rng, ns, no, na) for _ in range(SOLVE_MODELS)]
    tasks = []
    for k in range(SOLVE_TASKS):
        row, col = divmod(k, SOLVE_MODELS)
        arrays = bases[col]
        near_one = row == col  # ten near-one tasks, one per base model
        if near_one:
            gamma = NEAR_ONE_GAMMAS[row % 2]
        else:
            gamma = float(rng.uniform(0.5, 0.95))
        model = make_model(pg, arrays, gamma)
        matrix = rng.dirichlet(np.ones(na), size=no)
        direction = rng.normal(size=(no, na))
        direction -= direction.mean(axis=1, keepdims=True)
        direction /= np.linalg.norm(direction)
        pi = pg.Policy("observation", matrix)
        tasks.append(Task(
            call=lambda model=model, pi=pi: _solve_task(pg, model, pi),
            check=lambda out, a=arrays, g=gamma, m=matrix, d=direction:
                _check_solve(a, g, m, d, out),
            may_raise=near_one,
        ))
    # the tasks' time goes mostly to (S*A) x (S*A) solves
    return Workload("solve-large", tasks, reference=dense_solve_reference(ns * na))


def _solve_task(pg, model, pi):
    return (pg.state_action_frequency(model, pi), pg.value_bundle(model, pi),
            pg.policy_gradient(model, pi))


def _check_solve(arrays, gamma, matrix, direction, out):
    freq, bundle, gradient = out
    alpha, beta, reward, mu = (arrays[k] for k in ("alpha", "beta", "reward", "mu"))
    tau = beta @ matrix
    if not oracles.fixed_point_residual(alpha, mu, gamma, tau, freq.eta) <= RESIDUAL_TOL:
        return "eta misses the fixed-point equation"
    scale = max(1.0, float(np.max(np.abs(reward))))
    if not abs(bundle.R - float(np.sum(reward * freq.eta))) <= REWARD_TOL * scale:
        return "value_bundle R differs from <reward, eta>"
    analytic = float(np.sum(gradient.grad * direction))
    numeric = oracles.directional_derivative_fd(alpha, beta, reward, mu, gamma,
                                                matrix, direction)
    if not abs(analytic - numeric) <= GRADIENT_TOL * max(scale, abs(numeric)):
        return "gradient differs from a directional finite difference"
    return None


# ---------------------------------------------------------------------------
# blind-critical


BLIND_RANDOM = 285
BUNDLED_GAMMAS = (0.5, 0.7, 0.9, 0.95, 0.99)


def blind_critical(pg, rng, root, workdir):
    """All critical points of blind two-action reward curves.

    285 random models (95 each with S = 2, 3, 4, so every seed has the
    same size mix; gamma ~ U(0.3, 0.95)) plus the bundled blind three-state
    model at five discounts and three point-mass starts.  The check counts
    sign changes on an independent 10^4-point grid.  A real extremum the
    library labels `saddle/flat` is a known defect (its reward moves less
    than the classification margin); any other difference is unexpected.
    """
    models = []
    for i in range(BLIND_RANDOM):
        ns = 2 + i % 3
        gamma = float(rng.uniform(0.3, 0.95))
        arrays = random_arrays(rng, ns, 1, 2)
        models.append((make_model(pg, arrays, gamma), dict(arrays, gamma=gamma)))
    # the bundled model is parsed from its graph file; the reference reads
    # the JSON copy of the same model
    bundled = pg.load_model_text((root / "models" / "blind_three_state.graph").read_text())
    reference = _read_model(root / "models" / "blind_three_state.json")
    for gamma in BUNDLED_GAMMAS:
        for start in range(bundled.n_states):
            mu = np.eye(bundled.n_states)[start]
            models.append((bundled.replace(gamma=gamma, mu=mu),
                           dict(reference, gamma=gamma, mu=mu)))
    tasks = []
    for model, a in models:
        # computed on first use, outside the timed task, then reused
        expected = functools.cache(lambda a=a: oracles.blind_grid_extrema(
            a["alpha"], a["reward"], a["mu"], a["gamma"]))
        tasks.append(Task(call=lambda model=model: pg.blind_critical_points(model),
                          check=lambda out, e=expected: _check_extrema(out, e()),
                          known_miss=FLAT_EXTREMUM))
    return Workload("blind-critical", tasks)


FLAT_EXTREMUM = "a grid extremum labelled saddle/flat"


def _count_extrema(kinds):
    return sum(1 for kind in kinds if kind in ("max", "min"))


def _check_extrema(critical_set, expected):
    kinds = [kind for _, kind in critical_set.interior_roots]
    found = _count_extrema(kinds)
    if found == expected:
        return None
    if found < expected <= found + kinds.count("saddle/flat"):
        return FLAT_EXTREMUM
    return "extremum count differs from the grid sign-change count"


# ---------------------------------------------------------------------------
# face-lattice


FACE_MODELS = 240
FACE_SIZE = (3, 3, 2)


def face_lattice(pg, rng, root, workdir):
    """Certified face lattices of random 3x3x2 models (27 faces each)."""
    ns, no, na = FACE_SIZE
    expected = oracles.product_simplex_f_vector(no, na)
    tasks = []
    for _ in range(FACE_MODELS):
        arrays = random_arrays(rng, ns, no, na, positive_mu=True)
        model = make_model(pg, arrays, float(rng.uniform(0.5, 0.95)))
        tasks.append(Task(call=lambda model=model: pg.face_lattice(model, samples=3),
                          check=lambda out: _check_lattice(out, expected)))
    return Workload("face-lattice", tasks)


def _check_lattice(lattice, expected):
    if not lattice.certified:
        return "lattice not certified"
    if tuple(lattice.f_vector) != expected:
        return "f-vector differs from the product-of-simplices count"
    if lattice.n_faces != sum(expected):
        return "face count differs from the f-vector total"
    return None


# ---------------------------------------------------------------------------
# cli-mix


CLI_BIG = (40, 20, 6)
CLI_SQUARE = (5, 5, 3)
SCAN_RESOLUTION = 41
PROJECT_SAMPLES = 500
PROJECT_POINTS = 200

# Commands per pass of the mix (40 tasks).  Sorted by latency they form
# groups: ~3 ms (validate graph, bounds), 15-40 ms (freq, the other
# one-solve commands, critical, faces), 50-70 ms (project, scan) and ~170 ms
# (constraints, 1.6 MB of output).  The ten fast tasks take ranks 1-10, so
# the 14 `freq` tasks span ranks 11-17 to 24-30 however the six other
# 15-40 ms commands fall: rank 20 (p50) is always a `freq` task.  Rank 36
# (p90) is the middle of the eight `constraints` tasks (ranks 33-40).
CLI_WEIGHTS = {
    "validate-graph": 4,
    "bounds-rank-one": 3,
    "bounds-model": 3,
    "freq": 14,
    "validate-json": 1,
    "freq-csv": 1,
    "reward": 1,
    "oracle": 1,
    "critical": 1,
    "faces": 1,
    "project": 1,
    "scan": 1,
    "constraints": 8,
}


def cli_mix(pg, rng, root, workdir):
    """Every `pomdpgeo` subcommand through cli.main, stdout captured."""
    import pomdp_geometry.cli  # noqa: F401  (makes pg.cli available)

    models_dir = root / "models"
    big = random_arrays(rng, *CLI_BIG)
    big["gamma"] = float(rng.uniform(0.5, 0.95))
    square = random_arrays(rng, *CLI_SQUARE, positive_mu=True)
    square["gamma"] = float(rng.uniform(0.5, 0.95))
    big_path = workdir / "big.json"
    square_path = workdir / "square.json"
    _write_model(big_path, big)
    _write_model(square_path, square)
    graph = str(models_dir / "blind_three_state.graph")
    three = str(models_dir / "three_state.json")
    three_arrays = _read_model(models_dir / "three_state.json")
    # reference arrays come from the JSON copy of the graph model
    blind_half = _read_model(models_dir / "blind_three_state.json")
    blind_half["gamma"] = 0.5
    blind_half["mu"] = np.eye(len(blind_half["mu"]))[0]

    commands = {
        "validate-graph": (["validate", graph], _check_validate),
        "bounds-rank-one": (["bounds", "--rank-one", "5"],
                            lambda text: _check_rank_one(text, 5)),
        "bounds-model": (["bounds", "--model", three, "--active", "a1:o2"],
                         lambda text: _check_bound(text, three_arrays)),
        "freq": (["freq", str(big_path)], lambda text: _check_freq_json(text, big)),
        "validate-json": (["validate", str(big_path)], _check_validate),
        "freq-csv": (["freq", str(big_path), "--csv"], lambda text: _check_freq_csv(text, big)),
        "reward": (["reward", str(big_path)], lambda text: _check_reward(text, big)),
        "oracle": (["oracle", str(big_path)], _check_oracle),
        "critical": (["critical", graph, "--mu", "s1", "--gamma", "0.5"],
                     lambda text: _check_critical(text, blind_half)),
        "faces": (["faces", three], lambda text: _check_faces(text, three_arrays)),
        "project": (["project", three, "--samples", str(PROJECT_SAMPLES),
                     "--points", str(PROJECT_POINTS)],
                    lambda text: _check_project(text, three_arrays)),
        "scan": (["scan", three, "--axes", "o1:a1,o2:a1", "--resolution",
                  str(SCAN_RESOLUTION)], lambda text: _check_scan(text, three_arrays)),
        "constraints": (["constraints", str(square_path), "--policy", "uniform"],
                        lambda text: _check_constraints(text, square)),
    }
    tasks = []
    for name, weight in CLI_WEIGHTS.items():
        argv, check = commands[name]
        cached = _CachedCheck(check)
        for _ in range(weight):
            tasks.append(Task(call=lambda argv=argv: _run_cli(pg, argv), check=cached))
    return Workload("cli-mix", tasks, output_bytes=lambda out: len(out[1].encode("utf-8")))


def _run_cli(pg, argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = pg.cli.main(argv)
    return code, buffer.getvalue()


class _CachedCheck:
    """Checks one command's output; identical outputs are checked once.

    The cache key is the full output text, so every distinct output is
    parsed and compared against the reference.
    """

    def __init__(self, check):
        self._check = check
        self._passed = set()

    def __call__(self, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if text in self._passed:
            return None
        reason = self._check(text)
        if reason is None:
            self._passed.add(text)
        return reason


def _write_model(path, arrays):
    ns, na, _ = arrays["alpha"].shape
    no = arrays["beta"].shape[1]
    doc = {"states": list(_labels("s", ns)), "observations": list(_labels("o", no)),
           "actions": list(_labels("a", na)), "alpha": arrays["alpha"].tolist(),
           "beta": arrays["beta"].tolist(), "reward": arrays["reward"].tolist(),
           "gamma": arrays["gamma"], "mu": arrays["mu"].tolist()}
    path.write_text(json.dumps(doc))


def _read_model(path):
    doc = json.loads(path.read_text())
    out = {k: np.array(doc[k], dtype=float) for k in ("alpha", "beta", "reward", "mu")}
    out["gamma"] = float(doc["gamma"])
    return out


def _uniform_eta(arrays):
    ns, na, _ = arrays["alpha"].shape
    tau = np.full((ns, na), 1.0 / na)
    return oracles.frequencies(arrays["alpha"], arrays["mu"], arrays["gamma"], tau)


def _check_validate(text):
    doc = json.loads(text)
    return None if doc["ok"] is True and doc["violations"] == [] else "model reported invalid"


def _check_rank_one(text, k):
    return None if json.loads(text)["polar_degree"] == k else "polar degree differs from k"


def _check_bound(text, arrays):
    expected = oracles.single_pair_face_bound(arrays["beta"], arrays["alpha"].shape[1], 1)
    return None if json.loads(text)["bound"] == expected else "face bound differs"


def _check_freq_json(text, arrays):
    eta = np.array(json.loads(text)["eta"], dtype=float)
    return _compare_eta(eta, arrays)


def _check_freq_csv(text, arrays):
    rows = list(csv.DictReader(io.StringIO(text)))
    ns, na, _ = arrays["alpha"].shape
    if len(rows) != ns * na:
        return "freq --csv row count differs from S*A"
    eta = np.array([float(r["eta"]) for r in rows]).reshape(ns, na)
    return _compare_eta(eta, arrays)


def _compare_eta(eta, arrays):
    if not abs(eta.sum() - 1.0) <= 1e-9:
        return "eta does not sum to 1"
    if not float(np.max(np.abs(eta - _uniform_eta(arrays)))) <= 1e-9:
        return "eta differs from the reference solve"
    return None


def _check_reward(text, arrays):
    expected = float(np.sum(arrays["reward"] * _uniform_eta(arrays)))
    scale = max(1.0, float(np.max(np.abs(arrays["reward"]))))
    if not abs(json.loads(text)["reward"] - expected) <= 1e-9 * scale:
        return "reward differs from the reference solve"
    return None


def _check_oracle(text):
    return None if json.loads(text)["within_tol"] is True else "series oracle out of tolerance"


def _check_critical(text, arrays):
    kinds = [root["kind"] for root in json.loads(text)["roots"]]
    expected = oracles.blind_grid_extrema(arrays["alpha"], arrays["reward"], arrays["mu"],
                                          arrays["gamma"])
    if _count_extrema(kinds) != expected:
        return "extremum count differs from the grid sign-change count"
    return None


def _check_faces(text, arrays):
    doc = json.loads(text)
    ns, na, _ = arrays["alpha"].shape
    expected = oracles.product_simplex_f_vector(arrays["beta"].shape[1], na)
    if doc["certified"] is not True:
        return "lattice not certified"
    if tuple(doc["f_vector"]) != expected or doc["n_faces"] != sum(expected):
        return "f-vector differs from the product-of-simplices count"
    return None


def _check_project(text, arrays):
    ns, na, _ = arrays["alpha"].shape
    no = arrays["beta"].shape[1]
    edges = no * na * (na - 1) // 2 * na ** (no - 1) + ns * na * (na - 1) // 2 * na ** (ns - 1)
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["tag", "index", "t", "x", "y", "z"]:
        return "project header differs"
    if len(rows) != 1 + PROJECT_SAMPLES + edges * PROJECT_POINTS:
        return "project row count differs from samples + edges * points"
    coords = np.array([r[3:] for r in rows[1:]], dtype=float)
    return None if np.all(np.isfinite(coords)) else "project emitted non-finite coordinates"


def _check_scan(text, arrays):
    rows = list(csv.reader(io.StringIO(text)))
    table = np.array(rows[1:], dtype=float)
    if table.shape != (SCAN_RESOLUTION ** 2, 3):
        return "scan grid shape differs"
    ticks = np.linspace(0.0, 1.0, SCAN_RESOLUTION)
    x, y = (g.ravel() for g in np.meshgrid(ticks, ticks, indexing="ij"))
    if not (np.array_equal(table[:, 0], x) and np.array_equal(table[:, 1], y)):
        return "scan coordinates differ from the grid"
    ns, na, _ = arrays["alpha"].shape
    no = arrays["beta"].shape[1]
    pis = np.full((len(x), no, na), 1.0 / na)
    for obs, value in ((0, x), (1, y)):
        pis[:, obs, 0] = value
        pis[:, obs, 1:] = ((1.0 - value) / (na - 1))[:, None]
    taus = np.einsum("so,noa->nsa", arrays["beta"], pis)
    expected = oracles.rewards(arrays["alpha"], arrays["reward"], arrays["mu"],
                               arrays["gamma"], taus)
    scale = max(1.0, float(np.max(np.abs(arrays["reward"]))))
    if not float(np.max(np.abs(table[:, 2] - expected))) <= 1e-9 * scale:
        return "scan rewards differ from the reference solve"
    return None


def _check_constraints(text, arrays):
    doc = json.loads(text)
    ns, na, _ = arrays["alpha"].shape
    no = arrays["beta"].shape[1]
    polys = doc["polynomials"]
    if len(polys) != no * na:
        return "constraint count differs from O*A"
    for poly in polys:
        if poly["degree"] != len(poly["support_states"]):
            return "constraint degree differs from its support size"
        if any(int(np.sum(t["exponents"])) != poly["degree"] for t in poly["terms"]):
            return "monomial degree differs from the constraint degree"
    if doc["feasibility"]["feasible"] is not True:
        return "uniform policy reported infeasible"
    return None


WORKLOADS = {
    "solve-large": solve_large,
    "blind-critical": blind_critical,
    "face-lattice": face_lattice,
    "cli-mix": cli_mix,
}
