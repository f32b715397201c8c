"""Exit codes, output shapes, and byte-level determinism of the CLI."""

import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pomdp_geometry import critical, fixtures, geometry, rational
from pomdp_geometry.cli import emit_json, main
from pomdp_geometry.freq import SMALL_STATES, batch_eta, state_action_frequency
from pomdp_geometry.geometry import (
    MONOMIAL_CAP,
    PolynomialConstraint,
    feasibility_report,
    model_constraint_polynomials,
)
from pomdp_geometry.model import Policy, load_model_text, serialize_model
from pomdp_geometry.rational import _edge_blocks

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TWO_STATE = str(MODELS / "two_state.json")
THREE_STATE = str(MODELS / "three_state.json")
BLIND_GRAPH = str(MODELS / "blind_three_state.graph")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# --------------------------------------------------------------------------
# validate


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", TWO_STATE)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "violations": []}


def test_validate_graph_format(capsys):
    code, out = run(capsys, "validate", BLIND_GRAPH)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_flags_bad_rows(tmp_path, capsys):
    model = json.loads(pathlib.Path(TWO_STATE).read_text())
    model["alpha"][0][0] = [0.6, 0.3]  # row sums to 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("alpha[0][0]" in v["path"] for v in payload["violations"])


def test_invalid_model_rejected_by_other_commands(tmp_path, capsys):
    model = json.loads(pathlib.Path(TWO_STATE).read_text())
    model["mu"] = [0.7, 0.7]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(model))
    code, out = run(capsys, "freq", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_unparseable_model_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{ this is not json")
    code, out = run(capsys, "freq", str(bad))
    assert code == 2
    assert "error" in json.loads(out)


def test_missing_file_exits_two(capsys):
    code, out = run(capsys, "freq", "/nonexistent/model.json")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "FileNotFoundError"


@pytest.mark.parametrize("command", ["validate", "freq"])
@pytest.mark.parametrize("key, path", [("reward", "reward[1][1]"), ("gamma", "gamma")])
def test_out_of_range_integer_exits_two(tmp_path, capsys, command, key, path):
    doc = json.loads(pathlib.Path(TWO_STATE).read_text())
    if key == "gamma":
        doc["gamma"] = 10**400
    else:
        doc["reward"][1][1] = 10**400
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(bad))
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "ModelFormatError", "message": f"{path}: integer is out of float range"}


# --------------------------------------------------------------------------
# freq / reward / oracle


def test_freq_hand_values(capsys):
    code, out = run(capsys, "freq", TWO_STATE, "--policy", "det:a1,a1")
    assert code == 0
    payload = json.loads(out)
    assert_allclose(payload["eta"], [[0.75, 0.0], [0.25, 0.0]], atol=1e-12)
    assert_allclose(payload["rho"], [0.75, 0.25], atol=1e-12)
    assert payload["reward"] == pytest.approx(0.75)
    assert payload["residual"] <= 1e-12


def test_freq_csv(capsys):
    code, out = run(capsys, "freq", TWO_STATE, "--policy", "det:a1,a1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state,action,eta,rho"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "s1" and first[1] == "a1"
    assert float(first[2]) == pytest.approx(0.75)


def test_reward_normalization_flag(capsys):
    code, out = run(capsys, "reward", TWO_STATE, "--policy", "det:a1,a1")
    normalized = json.loads(out)
    assert code == 0
    assert_allclose(normalized["state_values"], [1.0, 0.5], atol=1e-12)
    assert_allclose(
        normalized["state_action_values"], [[2.0, 0.5], [1.0, 1.5]], atol=1e-12
    )
    code, out = run(
        capsys, "reward", TWO_STATE, "--policy", "det:a1,a1", "--unnormalized"
    )
    raw = json.loads(out)
    assert code == 0
    assert_allclose(raw["state_values"], [2.0, 1.0], atol=1e-12)
    assert raw["reward"] == pytest.approx(1.5)
    # Q never carries the prefactor
    assert raw["state_action_values"] == normalized["state_action_values"]


def test_policy_inline_and_file(tmp_path, capsys):
    inline = '[[1.0, 0.0], [1.0, 0.0]]'
    code, out = run(capsys, "freq", TWO_STATE, "--policy", inline)
    assert code == 0
    inline_payload = json.loads(out)
    pfile = tmp_path / "policy.json"
    pfile.write_text('{"kind": "observation", "matrix": [[1.0,0.0],[1.0,0.0]]}')
    code, out = run(capsys, "freq", TWO_STATE, "--policy", str(pfile))
    assert code == 0
    assert json.loads(out) == inline_payload


def test_bad_policy_exits_two(capsys):
    code, out = run(capsys, "freq", TWO_STATE, "--policy", "[[1.0, 0.0]]")
    assert code == 2
    assert "2 x 2" in json.loads(out)["error"]["message"]
    code, out = run(capsys, "freq", TWO_STATE, "--policy", "det:a1")
    assert code == 2


def test_mu_overrides(capsys):
    code, out = run(capsys, "freq", TWO_STATE, "--mu", "s2", "--policy", "det:a1,a1")
    assert code == 0
    payload = json.loads(out)
    # starting at s2 and always playing the first action
    assert_allclose(payload["eta"], [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)
    code, out = run(capsys, "freq", TWO_STATE, "--mu", "0.3,0.4")
    assert code == 2  # does not sum to one -> validation failure
    code, out = run(capsys, "freq", TWO_STATE, "--mu", "0.5,0.3,0.2")
    assert code == 2
    assert "2 states" in json.loads(out)["error"]["message"]


def test_oracle_beyond_the_step_cap_exits_one(capsys):
    code, out = run(capsys, "oracle", TWO_STATE, "--gamma", "0.9999999", "--tol", "1e-6")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "ArithmeticError"


def test_oracle_mean_reward_refuses_an_unreachable_tol_at_once(capsys):
    # Cesaro averages on this model change by ~0.25 / T: 1e-12 is out of reach
    start = time.perf_counter()
    code, out = run(capsys, "oracle", THREE_STATE, "--gamma", "1", "--tol", "1e-12")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "ArithmeticError"
    assert "cannot stabilize" in error["message"]


def test_oracle_cross_check(capsys):
    code, out = run(capsys, "oracle", TWO_STATE, "--tol", "1e-12")
    assert code == 0
    payload = json.loads(out)
    assert payload["horizon"] == 41
    assert payload["within_tol"] is True


# --------------------------------------------------------------------------
# scan / constraints / faces / critical / bounds


def test_scan_csv_shape(capsys):
    code, out = run(
        capsys, "scan", TWO_STATE, "--axes", "o1:a1,o2:a1", "--resolution", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "pi[a1|o1],pi[a1|o2],reward"
    assert len(lines) == 10
    corner = lines[-1].split(",")
    assert float(corner[2]) == pytest.approx(0.75)


def test_scan_bad_axes_exits_two(capsys):
    code, out = run(capsys, "scan", TWO_STATE, "--axes", "o1-a1")
    assert code == 2
    code, out = run(capsys, "scan", TWO_STATE, "--axes", "o9:a1")
    assert code == 2


def test_constraints_with_policy(capsys):
    code, out = run(capsys, "constraints", TWO_STATE, "--policy", "uniform")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["polynomials"]) == 4
    assert payload["feasibility"]["feasible"] is True
    assert all(v > 0 for v in payload["values_at_policy"].values())


def test_faces_output(capsys):
    code, out = run(capsys, "faces", TWO_STATE)
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [4, 4, 1]
    assert payload["n_faces"] == 9
    assert payload["certified"] is True
    dims = [f["dimension"] for f in payload["faces"]]
    assert dims == sorted(dims)


@pytest.mark.parametrize("flag, value, least", [
    ("--max-dim", "-1", 0),
    ("--samples", "0", 1),
    ("--samples", "-1", 1),
])
def test_faces_rejects_empty_requests(capsys, flag, value, least):
    code, out = run(capsys, "faces", TWO_STATE, flag, value)
    assert code == 2
    assert json.loads(out)["error"] == {
        "kind": "CliInputError", "message": f"{flag} must be >= {least}, got {value}"}


@pytest.mark.parametrize("argv, message", [
    (["project", THREE_STATE, "--samples", "-1"], "--samples must be >= 0, got -1"),
    (["project", THREE_STATE, "--points", "0"], "--points must be >= 1, got 0"),
    (["critical", BLIND_GRAPH, "--grid", "5"], "--grid must be >= 100, got 5"),
    (["oracle", THREE_STATE, "--tol", "0"], "--tol must be > 0, got 0.0"),
    (["oracle", THREE_STATE, "--tol", "-1"], "--tol must be > 0, got -1.0"),
    (["faces", THREE_STATE, "--tol", "-1"], "--tol must be > 0, got -1.0"),
    (["faces", THREE_STATE, "--tol", "nan"], "--tol must be > 0, got nan"),
    (["faces", THREE_STATE, "--tol", "0"], "--tol must be > 0, got 0.0"),
], ids=["project-samples", "project-points", "critical-grid", "oracle-tol-zero",
        "oracle-tol-negative", "faces-tol-negative", "faces-tol-nan", "faces-tol-zero"])
def test_flag_out_of_range_exits_two(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "CliInputError", "message": message}


def test_faces_positivity_failure_exits_one(capsys):
    code, out = run(capsys, "faces", TWO_STATE, "--mu", "s1")
    assert code == 1
    assert "visit every state" in json.loads(out)["error"]["message"]


def test_critical_blind_graph(capsys):
    code, out = run(
        capsys, "critical", BLIND_GRAPH, "--mu", "s1", "--gamma", "0.5"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["roots"]) == 1
    assert payload["roots"][0]["p"] == pytest.approx(0.424828801919103, abs=1e-9)
    assert payload["roots"][0]["kind"] == "min"
    assert payload["boundary"] == {
        "0.0": "strict local max",
        "1.0": "strict local max",
    }


def test_critical_mean_reward_does_not_depend_on_start(capsys):
    # at gamma = 1 the blind line is unichain for every p, and the mean
    # reward of a unichain chain is the same from every start
    roots = []
    for mu in ("s1", "s2", "s3", "uniform"):
        code, out = run(capsys, "critical", BLIND_GRAPH, "--gamma", "1", "--mu", mu)
        assert code == 0
        payload = json.loads(out)
        roots.append([r["p"] for r in payload["roots"]])
        assert [r["kind"] for r in payload["roots"]] == ["min"]
        assert payload["boundary"] == {"0.0": "strict local max", "1.0": "strict local max"}
    assert_allclose(roots, [roots[0]] * 4, atol=1e-12, rtol=0)


def test_critical_wrong_shape_exits_one(capsys):
    code, out = run(capsys, "critical", TWO_STATE)
    assert code == 1
    assert "single observation" in json.loads(out)["error"]["message"]


def test_bounds_three_modes(capsys):
    code, out = run(capsys, "bounds", "--rank-one", "5")
    assert code == 0
    assert json.loads(out)["polar_degree"] == 5
    code, out = run(capsys, "bounds", "--model", TWO_STATE, "--active", "a1:o2")
    assert code == 0
    assert json.loads(out)["bound"] == 2
    code, out = run(
        capsys,
        "bounds",
        "--states", "2", "--actions", "2", "--d", "2", "--k", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1
    assert payload["bound"] == 2


def test_bounds_mode_conflicts_exit_two(capsys):
    code, out = run(capsys, "bounds", "--rank-one", "3", "--d", "2")
    assert code == 2
    code, out = run(capsys, "bounds")
    assert code == 2
    code, out = run(capsys, "bounds", "--states", "2", "--actions", "2", "--d", "2")
    assert code == 2  # missing --k


@pytest.mark.parametrize("flags", [
    ["--states", "2", "--actions", "2", "--d", "-1", "--k", "1"],  # degree < 1
    ["--states", "2", "--actions", "2", "--d", "2", "--k", "0"],  # multiplicity < 1
    ["--states", "2", "--actions", "2", "--d", "2", "--k", "3"],  # pins 3 of 2 actions
    ["--states", "1", "--actions", "2", "--d", "2,2", "--k", "1,1"],  # m = -1
    ["--states", "0", "--actions", "2", "--d", "2", "--k", "1"],
    ["--states", "2", "--actions", "0", "--d", "", "--k", ""],
], ids=["degree", "multiplicity", "all-pinned", "over-pinned", "states", "actions"])
def test_bounds_inline_refuses_what_model_mode_refuses(capsys, flags):
    code, out = run(capsys, "bounds", *flags)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CliInputError"


@pytest.mark.parametrize("active", ["a1:o2,a2:o2", "a1:o2,a1:o2"],
                         ids=["empty-face", "repeated-pair"])
def test_bounds_model_mode_refusals_exit_two(capsys, active):
    code, out = run(capsys, "bounds", "--model", TWO_STATE, "--active", active)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "CliInputError"


def test_bounds_rank_error_exits_one(capsys):
    code, out = run(capsys, "bounds", "--model", BLIND_GRAPH, "--active", "a1:o")
    assert code == 1
    assert "square" in json.loads(out)["error"]["message"]


def test_bounds_model_mode_linalg_failure_exits_one(capsys, monkeypatch):
    # a solver failure is a computational error, not bad input, though it is a ValueError
    def no_convergence(beta):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(critical, "pseudoinverse", no_convergence)
    code, out = run(capsys, "bounds", "--model", TWO_STATE, "--active", "a1:o2")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "LinAlgError"


def test_scan_solver_failure_exits_one(capsys, monkeypatch):
    # as under bounds: a failed solve is a computational error, not bad input
    def singular(model, taus):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(critical, "batch_rewards", singular)
    code, out = run(capsys, "scan", TWO_STATE, "--axes", "o1:a1", "--resolution", "3")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "LinAlgError"


# --------------------------------------------------------------------------
# project


def test_project_edge_counts(capsys):
    code, out = run(
        capsys, "project", THREE_STATE, "--samples", "5", "--points", "7"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tag,index,t,x,y,z"
    tags = {}
    for line in lines[1:]:
        tag, index = line.split(",")[:2]
        tags.setdefault(tag, set()).add(int(index))
    assert len(tags["pomdp_edge"]) == 12
    assert len(tags["mdp_edge"]) == 12
    n_sample = sum(1 for line in lines[1:] if line.startswith("sample,"))
    assert n_sample == 5
    assert len(lines) == 1 + 5 + (12 + 12) * 7


def test_project_without_samples_prints_the_edges(capsys):
    code, out = run(capsys, "project", THREE_STATE, "--samples", "0", "--points", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tag,index,t,x,y,z"
    assert not any(line.startswith("sample,") for line in lines)
    assert len(lines) == 1 + (12 + 12) * 7
    _, whole = run(capsys, "project", THREE_STATE, "--samples", "5", "--points", "7")
    edges = [line for line in whole.strip().splitlines() if not line.startswith("sample,")]
    assert lines == edges


def test_project_mean_reward_frequencies(capsys):
    # every sampled and edge policy of the three-state model is unichain
    code, out = run(capsys, "project", THREE_STATE, "--gamma", "1", "--samples", "5",
                    "--points", "7")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5 + (12 + 12) * 7
    coords = np.array([[float(x) for x in row[3:]] for row in rows])
    assert np.all(np.linalg.norm(coords, axis=1) <= 1.0 + 1e-12)


def test_project_coordinates_are_unit_scale(capsys):
    # projection basis is orthonormal, frequencies sum to one: coordinates
    # stay within the unit ball
    code, out = run(capsys, "project", TWO_STATE, "--samples", "10", "--points", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    coords = np.array([[float(x) for x in row[3:]] for row in rows])
    assert np.all(np.linalg.norm(coords, axis=1) <= 1.0 + 1e-12)


def test_project_beyond_the_row_cap_exits_one_at_once(tmp_path, capsys):
    # 40 x 20 x 6 has ~1.8e17 observation-policy edges alone
    model = fixtures.random_model(np.random.default_rng(3), 40, 20, 6, 0.9)
    path = tmp_path / "wide.json"
    path.write_text(serialize_model(model))
    start = time.perf_counter()
    code, out = run(capsys, "project", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "SizeCapError"
    assert error["message"].endswith(f"exceeds the cap of {MONOMIAL_CAP}")


@pytest.mark.parametrize("argv", [
    ("scan", TWO_STATE, "--axes", "o1:a1,o2:a2", "--resolution", "1000000"),
    ("critical", BLIND_GRAPH, "--grid", "1000000000000"),
    ("project", TWO_STATE, "--samples", "1000000000000"),
    ("faces", TWO_STATE, "--samples", "1000000000000"),
], ids=["scan-resolution", "critical-grid", "project-samples", "faces-samples"])
def test_size_flags_beyond_the_cap_exit_one_before_allocating(capsys, argv):
    # each would ask numpy for 7-33 TiB
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "SizeCapError"
    assert error["message"].endswith(f"exceeds the cap of {MONOMIAL_CAP}")


@pytest.mark.parametrize("model", [
    fixtures.three_state_model(),
    fixtures.random_model(np.random.default_rng(7), 5, 5, 3, 0.8, positive_mu=True),
    # one state too many for the batched elimination: the LAPACK branch
    fixtures.random_model(np.random.default_rng(11), SMALL_STATES + 1, 2, 2, 0.8,
                          positive_mu=True),
], ids=["three_state", "random_5x5x3", "lapack_branch"])
def test_project_stacked_edge_solves_equal_per_edge_solves(model):
    ts = np.linspace(0.0, 1.0, 4)
    for n_rows, to_taus in ((model.n_observations, lambda pis: model.beta @ pis),
                            (model.n_states, lambda taus: taus)):
        for _, mats in _edge_blocks(n_rows, model.n_actions, ts):
            stacked = batch_eta(model, to_taus(mats))
            per_edge = [batch_eta(model, to_taus(mats[i:i + len(ts)]))
                        for i in range(0, len(mats), len(ts))]
            assert np.array_equal(stacked, np.concatenate(per_edge))


def test_project_across_edge_blocks_matches_one_block(capsys, monkeypatch):
    argv = ("project", THREE_STATE, "--samples", "3", "--points", "5")
    code, whole = run(capsys, *argv)
    assert code == 0
    # three edges of 5 points x 3 rows x 2 actions per block: 4 blocks per polytope
    monkeypatch.setattr(rational, "BLOCK_ENTRIES", 3 * 5 * 3 * 2)
    assert len(list(_edge_blocks(3, 2, np.linspace(0.0, 1.0, 5)))) == 4
    code, blocked = run(capsys, *argv)
    assert code == 0
    assert blocked == whole


# --------------------------------------------------------------------------
# determinism


def test_outputs_are_byte_identical_across_runs(capsys):
    for argv in (
        ["project", TWO_STATE, "--samples", "8", "--points", "6", "--seed", "3"],
        ["freq", THREE_STATE, "--policy", "uniform"],
        ["faces", TWO_STATE, "--seed", "1"],
        ["scan", TWO_STATE, "--axes", "o2:a2", "--resolution", "17"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_successive_calls_match_separate_runs(capsys):
    # one parser serves every call; nothing from an earlier call may leak
    argvs = [
        ["freq", TWO_STATE, "--csv"],
        ["freq", TWO_STATE],
        ["reward", TWO_STATE, "--unnormalized"],
        ["reward", TWO_STATE],
        ["faces", TWO_STATE, "--seed", "2", "--max-dim", "1"],
        ["faces", TWO_STATE],
        ["bounds", "--rank-one", "4"],
        ["bounds", "--model", THREE_STATE, "--active", "a1:o2"],
    ]
    in_process = [run(capsys, *argv) for argv in argvs]
    separate = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "pomdp_geometry.cli", *argv],
                              capture_output=True, check=False, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate


def test_constraints_wide_support_exits_one(tmp_path, capsys, wide_blind_model):
    path = tmp_path / "wide.json"
    path.write_text(serialize_model(wide_blind_model))
    code, out = run(capsys, "constraints", str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "SizeCapError"
    assert "exceeds the cap" in error["message"]


@pytest.mark.parametrize("command", ["faces", "constraints"])
def test_wide_observation_kernel_exits_one(tmp_path, capsys, command):
    # more observations than states: the columns of beta are dependent
    path = tmp_path / "wide.json"
    model = fixtures.random_model(np.random.default_rng(0), 2, 3, 2, 0.8, positive_mu=True)
    path.write_text(serialize_model(model))
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "RankError"


# --------------------------------------------------------------------------
# golden snapshots of the commands built on the constraint polynomials


GOLDEN_COMMANDS = [
    ("faces", []),
    ("constraints", ["--policy", "uniform"]),
]
GOLDEN_MODELS = ["two_state", "three_state"]


@pytest.mark.parametrize("command, argv", GOLDEN_COMMANDS)
@pytest.mark.parametrize("model", GOLDEN_MODELS)
def test_output_matches_golden_snapshot(capsys, command, argv, model):
    code, out = run(capsys, command, str(MODELS / f"{model}.json"), *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{command}_{model}.json").read_bytes()


# --------------------------------------------------------------------------
# golden snapshots of the other JSON commands, taken from the recursive
# renderer that emit_json replaced; validate_invalid has the messages'
# plain float repr


INVALID_MODEL = {
    "states": ["s1", "s2"], "observations": ["o1", "o2"], "actions": ["a1", "a2"],
    "alpha": [[[0.7, 0.2], [0.0, 1.0]], [[1.2, -0.2], [0.0, 1.0]]],
    "beta": [[1.0, 0.0], [0.5, 0.6]], "reward": [[1.0, math.nan], [0.0, 1.0]],
    "gamma": 1.5, "mu": [1.2, -0.1],
}


GOLDEN_JSON = [
    ("freq_three_state", 0, ["freq", THREE_STATE]),
    ("reward_three_state", 0, ["reward", THREE_STATE]),
    ("oracle_three_state", 0, ["oracle", THREE_STATE]),
    ("validate_two_state", 0, ["validate", TWO_STATE]),
    ("validate_invalid", 2, ["validate", "INVALID"]),
    ("bounds_three_state", 0, ["bounds", "--model", THREE_STATE, "--active", "a1:o2"]),
    ("critical_blind_three_state", 0, ["critical", BLIND_GRAPH, "--gamma", "0.5", "--mu", "s1"]),
    ("error_critical_two_state", 1, ["critical", TWO_STATE]),
    ("faces_max_dim_three_state", 0, ["faces", THREE_STATE, "--max-dim", "1"]),
]
GOLDEN_CSV = [
    ("freq_csv_three_state", ["freq", THREE_STATE, "--csv"]),
    ("scan_three_state", ["scan", THREE_STATE, "--axes", "o1:a1,o2:a2", "--resolution", "4"]),
    ("project_three_state", ["project", THREE_STATE, "--samples", "4", "--points", "3"]),
]


@pytest.mark.parametrize("name, code, argv", GOLDEN_JSON)
def test_json_commands_match_golden_snapshot(tmp_path, capsys, name, code, argv):
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(INVALID_MODEL))
    argv = [str(invalid) if a == "INVALID" else a for a in argv]
    got_code, out = run(capsys, *argv)
    assert got_code == code
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name, argv", GOLDEN_CSV)
def test_csv_commands_match_golden_snapshot(capsys, name, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_main_writes_each_golden_document_in_one_write(tmp_path, monkeypatch):
    # subcommands return their documents; main alone writes one, a refusal's included
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(INVALID_MODEL))
    argvs = ([[command, str(MODELS / f"{model}.json"), *flags]
              for command, flags in GOLDEN_COMMANDS for model in GOLDEN_MODELS]
             + [argv for _, _, argv in GOLDEN_JSON] + [argv for _, argv in GOLDEN_CSV])
    assert len(argvs) == len(list(GOLDEN.iterdir()))
    for argv in argvs:
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        main([str(invalid) if a == "INVALID" else a for a in argv])
        assert out.writes == 1, argv


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_snapshots_parse_as_json(path):
    json.loads(path.read_text())


JSON_COMMANDS = [
    ["validate"], ["freq"], ["reward"], ["oracle"], ["constraints", "--policy", "uniform"],
    ["faces"], ["critical"], ["freq", "--gamma", "1"], ["critical", "--gamma", "1"],
]


@pytest.mark.parametrize("path", sorted(MODELS.iterdir()), ids=lambda p: p.name)
def test_every_json_command_parses_as_json(capsys, path):
    for command, *flags in JSON_COMMANDS:
        _, out = run(capsys, command, str(path), *flags)
        json.loads(out)
    _, out = run(capsys, "bounds", "--model", str(path), "--active", "a1:o1")
    json.loads(out)


# --------------------------------------------------------------------------
# emit_json against the recursive renderer it replaced


def _render_reference(value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_render_reference(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        items = [f"{inner}{_render_reference(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, np.ndarray):
        return _render_reference(value.tolist(), indent)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return f"{value:.17g}" if math.isfinite(value) else json.dumps(value)
    if value is None:
        return "null"
    return json.dumps(str(value))


RENDER_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": [[], {}, ()], "e": [[[]]]},
    [np.bool_(True), np.bool_(False), np.int64(-7), np.float32(0.1), np.float64(1 / 3)],
    {"row": [1, True, 0, False], "bools": [True, False], "ints": (3, -2, 10**30)},
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308],
    [None, "null", 1.5, 2, "x"],
    {1: "int key", 2.5: "float key", None: "none key", False: "bool key", (1, 2): "tuple key"},
    [{1: "a"}, {True: "b"}, {1.0: "c"}, {"1": "d"}, {(True, 2): "e"}, {(1, 2): "f"}],
    {"ascii": "plain", "unicode": "η = ρ·τ, γ → 1", "escapes": "tab\tquote\"nl\n"},
    np.array(2.5),
    np.array(3),
    np.array(True),
    np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    np.linspace(0.0, 1.0, 7).reshape(7, 1),
    np.zeros((0, 3)),
    {"terms": [{"exponents": [[0, 1, 0], [1, 0, 0]], "coefficient": -0.5}] * 3
              + [{"exponents": [[0, 1, 0], [0, 0, 1]], "coefficient": 2}]},
    [[0, 1, 0], [[0, 1, 0]], {"deep": [[0, 1, 0]]}],
    [1, 2.0, 3],
    [1.0, np.float64(2.0)],
    [object(), b"bytes", 1 + 2j],
    [[1, 0], [True, 0]],
    [[1.0, 0]],
    [[[1, 0]], [[True, 0]], [[1.0, 0]], [[1, 0]], [[1], []], [[1, 2], [3]]],
    [{1: [[1, 0]]}, {True: [[True, 0]]}, {1.0: [[1.0, 0]]}, {"1": [[1, 0]]}, {"True": 1}],
]


@pytest.mark.parametrize("value", RENDER_CASES, ids=range(len(RENDER_CASES)))
def test_emit_json_matches_recursive_renderer(value):
    assert emit_json(value) == _render_reference(value, 0) + "\n"


def test_emit_json_matches_recursive_renderer_on_every_model_payload(capsys):
    for path in sorted(MODELS.iterdir()):
        model = load_model_text(path.read_text())
        payload = {"polynomials": [p.to_dict() for p in model_constraint_polynomials(model)],
                   "model": model.to_dict(), "alpha": model.alpha}
        assert emit_json(payload) == _render_reference(payload, 0) + "\n"


def test_constraints_on_a_full_support_model_match_the_recursive_renderer(tmp_path, capsys):
    # every state sees every observation: each constraint has support 5 and
    # 3^5 monomials, so the shared exponent-matrix texts carry the output
    model = fixtures.random_model(np.random.default_rng(11), 5, 5, 3, 0.8, positive_mu=True)
    path = tmp_path / "square.json"
    path.write_text(serialize_model(model))
    code, out = run(capsys, "constraints", str(path))
    assert code == 0
    polys = model_constraint_polynomials(model)
    assert {p.degree for p in polys} == {5}
    assert out == _render_reference({"polynomials": [p.to_dict() for p in polys]}, 0) + "\n"


# --------------------------------------------------------------------------
# constraints terms written straight from the factored expansion


def _block_model(seed, blocks, n_actions, gamma):
    """Random model whose beta is block sparse: block (k, m) has k states that see
    only its m <= k observations, densely.  Each constraint's support is then the
    k states of its observation's block.  States and observations are shuffled."""
    rng = np.random.default_rng(seed)
    ns, no = sum(k for k, _ in blocks), sum(m for _, m in blocks)
    beta = np.zeros((ns, no))
    s = o = 0
    for k, m in blocks:
        beta[s:s + k, o:o + m] = rng.dirichlet(np.ones(m), size=k)
        s, o = s + k, o + m
    beta = beta[rng.permutation(ns)][:, rng.permutation(no)]
    model = fixtures.random_model(rng, ns, no, n_actions, gamma, positive_mu=True)
    return model.replace(beta=beta)


BLOCK_CASES = [
    (0, [(1, 1), (2, 1), (3, 2)], 2, 0.9),
    (1, [(4, 2), (1, 1)], 3, 0.7),
    (2, [(5, 3)], 3, 0.5),
    (3, [(2, 1), (1, 1)], 4, 0.95),
    (4, [(3, 2)], 4, 0.6),
    (5, [(1, 1), (3, 1)], 3, 1.0),  # positive transitions: unichain, gamma = 1
]


def _constraints_reference(model, polys, policy):
    payload = {"polynomials": [p.to_dict() for p in polys]}
    if policy:
        eta = state_action_frequency(model, Policy.uniform(model.n_observations,
                                                           model.n_actions)).eta
        payload["values_at_policy"] = {p.label: float(p.evaluate(eta)) for p in polys}
        payload["feasibility"] = feasibility_report(model, eta, polys=polys).to_dict()
    return _render_reference(payload, 0) + "\n"


def test_constraints_match_the_recursive_renderer_on_sparse_models(tmp_path, capsys):
    sizes = set()
    for seed, blocks, n_actions, gamma in BLOCK_CASES:
        model = _block_model(seed, blocks, n_actions, gamma)
        path = tmp_path / f"block{seed}.json"
        path.write_text(serialize_model(model))
        polys = model_constraint_polynomials(model)
        assert sorted({p.degree for p in polys}) == sorted({k for k, _ in blocks})
        sizes |= {(p.degree, model.n_states) for p in polys}
        for policy in ([], ["--policy", "uniform"]):
            code, out = run(capsys, "constraints", str(path), *policy)
            assert code == 0
            assert out == _constraints_reference(model, polys, policy)
    # supports of every size from 1 to S, and of size S itself with 3 and 4 actions
    assert {k for k, _ in sizes} == {1, 2, 3, 4, 5}
    assert {(3, 3), (5, 5)} <= sizes


def test_constraints_never_build_the_monomial_dicts(tmp_path, capsys, monkeypatch):
    model = fixtures.random_model(np.random.default_rng(11), 5, 5, 3, 0.8, positive_mu=True)
    path = tmp_path / "square.json"
    path.write_text(serialize_model(model))
    expected = [run(capsys, "constraints", str(path), *policy)
                for policy in ([], ["--policy", "uniform"])]

    def refuse(self):
        raise AssertionError("constraints built the monomial dicts")

    monkeypatch.setattr(PolynomialConstraint, "to_dict", refuse)
    monkeypatch.setattr(PolynomialConstraint, "terms", property(refuse))
    got = [run(capsys, "constraints", str(path), *policy)
           for policy in ([], ["--policy", "uniform"])]
    assert got == expected
    assert [code for code, _ in got] == [0, 0]


def test_constraints_with_policy_evaluate_each_constraint_once(capsys, monkeypatch):
    calls = []
    stacked = geometry._stacked_values

    def counted(polys, eta):
        calls.append([p.label for p in polys])
        return stacked(polys, eta)

    monkeypatch.setattr(geometry, "_stacked_values", counted)
    code, out = run(capsys, "constraints", THREE_STATE, "--policy", "uniform")
    assert code == 0
    assert len(calls) == 1  # one stacked evaluation of all constraints
    assert len(calls[0]) == len(set(calls[0])) == 6
    assert out.encode() == (GOLDEN / "constraints_three_state.json").read_bytes()
