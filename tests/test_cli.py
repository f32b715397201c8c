"""Exit codes, output shapes, and byte-level determinism of the CLI."""

import csv
import io
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pomdp_geometry import cli, critical, fixtures, geometry, rational
from pomdp_geometry.cli import emit_json, main
from pomdp_geometry.freq import SMALL_STATES, batch_eta, state_action_frequency
from pomdp_geometry.geometry import (
    MONOMIAL_CAP,
    PolynomialConstraint,
    feasibility_report,
    model_constraint_polynomials,
)
from pomdp_geometry.model import InputError, Policy, _csv_field, load_model_text, serialize_model
from pomdp_geometry.rational import _edge_blocks

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TWO_STATE = str(MODELS / "two_state.json")
THREE_STATE = str(MODELS / "three_state.json")
BLIND_GRAPH = str(MODELS / "blind_three_state.graph")
BLIND_JSON = str(MODELS / "blind_three_state.json")
POMDPGEO = shutil.which("pomdpgeo")  # the installed console script, if any


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_module(*argv):
    """`python -m pomdp_geometry.cli` in a subprocess that imports src/."""
    return subprocess.run([sys.executable, "-m", "pomdp_geometry.cli", *argv], capture_output=True,
                          check=False, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})


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
    assert "does not match (2, 2)" in json.loads(out)["error"]["message"]
    code, out = run(capsys, "freq", TWO_STATE, "--policy", "det:a1")
    assert code == 2


@pytest.mark.parametrize("policy, message", [
    ("[[null, 1], [0, 1], [1, 0]]", "NaN or negative entry nan"),
    ('[[{"a": 1}, 0], [0, 1], [1, 0]]', "float() argument must be"),
], ids=["nan-entry", "dict-entry"])
def test_unreadable_policy_entries_exit_two(capsys, policy, message):
    # a null entry parses as NaN, a dict entry raises TypeError: both are the user's input
    code, out = run(capsys, "freq", THREE_STATE, "--policy", policy)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError"
    assert error["message"].startswith(f"cannot parse policy {policy!r}: ")
    assert message in error["message"]


def test_csv_labels_round_trip_through_a_csv_reader(tmp_path, capsys):
    # labels holding a comma, a double quote, CR or LF are quoted per RFC 4180, plain ones not
    assert [_csv_field(label) for label in ("s1", "a\rb", "a\nb", 'a"b')] == [
        "s1", '"a\rb"', '"a\nb"', '"a""b"']
    labels = {"states": ["s,1", 's"2'], "observations": ['o"1', "o2"], "actions": ["a,1", "a2"]}
    model = fixtures.two_state_model().replace(**labels)
    path = tmp_path / "labels.json"
    path.write_text(serialize_model(model))
    code, out = run(capsys, "freq", str(path), "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["state", "action", "eta", "rho"]
    assert {len(row) for row in rows} == {4}
    assert [row[:2] for row in rows[1:]] == [[s, a] for s in labels["states"]
                                             for a in labels["actions"]]
    code, out = run(capsys, "scan", str(path), "--axes", 'o"1:a2,o2:a2', "--resolution", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ['pi[a2|o"1]', "pi[a2|o2]", "reward"]
    assert {len(row) for row in rows} == {3} and len(rows) == 5


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
    assert json.loads(out)["error"]["message"] == "mu: expected shape (2,), got (3,)"


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


def test_pair_flags_name_a_comma_label_by_quoting_its_pair(tmp_path, capsys):
    # --axes and --active are one CSV record, quoted as the writers quote labels
    model = fixtures.two_state_model().replace(actions=("a,1", "a2"))
    path = tmp_path / "comma.json"
    path.write_text(serialize_model(model))
    code, out = run(capsys, "scan", str(path), "--axes", '"o1:a,1", o2:a2', "--resolution", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    _, plain = run(capsys, "scan", TWO_STATE, "--axes", "o1:a1,o2:a2", "--resolution", "3")
    assert rows[0] == ["pi[a,1|o1]", "pi[a2|o2]", "reward"]
    assert out.split("\n", 1)[1] == plain.split("\n", 1)[1]
    code, out = run(capsys, "bounds", "--model", str(path), "--active", '"a,1:o2"')
    assert code == 0
    _, plain = run(capsys, "bounds", "--model", TWO_STATE, "--active", "a1:o2")
    assert json.loads(out) == dict(json.loads(plain), active_set=[["a,1", "o2"]])
    code, out = run(capsys, "scan", str(path), "--axes", "o1:a,1")
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "axis '1' must look like observation:action")


def test_pair_flags_name_a_colon_label(tmp_path, capsys):
    # a pair with several colons splits at the one colon that leaves two known labels
    model = fixtures.two_state_model().replace(actions=("a:1", "a2"))
    path = tmp_path / "colon.json"
    path.write_text(serialize_model(model))
    for axes in ("o1:a:1, o2:a2", '"o1 : a:1",o2:a2'):
        code, out = run(capsys, "scan", str(path), "--axes", axes, "--resolution", "3")
        assert code == 0
        _, plain = run(capsys, "scan", TWO_STATE, "--axes", "o1:a1,o2:a2", "--resolution", "3")
        assert out.split("\n", 1) == ["pi[a:1|o1],pi[a2|o2],reward", plain.split("\n", 1)[1]]
    code, out = run(capsys, "bounds", "--model", str(path), "--active", "a:1:o2")
    assert code == 0
    _, plain = run(capsys, "bounds", "--model", TWO_STATE, "--active", "a1:o2")
    assert json.loads(out) == dict(json.loads(plain), active_set=[["a:1", "o2"]])
    # one colon splits as before, and the library refuses the unknown label
    for flag, pair, message in [
            ("--axes", "o1:a1", "unknown action label 'a1'; known: ['a:1', 'a2']"),
            ("--active", "a:1", "unknown observation label '1'; known: ['o1', 'o2']"),
            ("--axes", "o1:a:9", "axis 'o1:a:9' must look like observation:action"),
            ("--active", "a:1:o9", "active pair 'a:1:o9' must look like action:observation")]:
        args = (["scan", str(path), "--axes", pair] if flag == "--axes"
                else ["bounds", "--model", str(path), "--active", pair])
        code, out = run(capsys, *args)
        assert (code, json.loads(out)["error"]["message"]) == (2, message)


@pytest.mark.parametrize("text, labels, result", [
    ("o1:a:1", (("o1",), ("a:1",)), [("o1", "a:1")]),
    ("o:1:a", (("o:1",), ("a",)), [("o:1", "a")]),
    (" o:1 : a:1 ,o2:a2", (("o:1", "o2"), ("a:1", "a2")), [("o:1", "a:1"), ("o2", "a2")]),
    ("o1:a9", (("o1",), ("a1",)), [("o1", "a9")]),  # one colon: the library checks labels
    ("o1:a:9", (("o1",), ("a:1",)), "axis 'o1:a:9' must look like observation:action"),
    ("o1:a:1", ((), ()), "axis 'o1:a:1' must look like observation:action"),
    ("o:x:a", (("o", "o:x"), ("x:a", "a")),
     "axis 'o:x:a' is ambiguous: it splits into known labels as ('o', 'x:a') and as ('o:x', 'a')"),
])
def test_parse_pairs_splits_at_the_colon_between_known_labels(text, labels, result):
    if isinstance(result, list):
        assert cli._parse_pairs(text, "axis", "observation:action", labels) == result
    else:
        with pytest.raises(InputError, match="^" + re.escape(result) + "$"):
            cli._parse_pairs(text, "axis", "observation:action", labels)


@pytest.mark.parametrize("text, pairs", [
    ("o1:a1", [("o1", "a1")]),
    (" o1 : a1 , o2:a2", [("o1", "a1"), ("o2", "a2")]),
    ('o1:a"b', [("o1", 'a"b')]),
    ('"o1:a,1",o2:a2', [("o1", "a,1"), ("o2", "a2")]),
    ('"o1:a""1", "o2:a,2"', [("o1", 'a"1'), ("o2", "a,2")]),
])
def test_parse_pairs_reads_one_csv_record(text, pairs):
    assert cli._parse_pairs(text, "axis", "observation:action", ((), ())) == pairs


@pytest.mark.parametrize("text, message", [
    ("", "axis '' must look like observation:action"),
    ("o1:a1,", "axis '' must look like observation:action"),
    ("o1-a1", "axis 'o1-a1' must look like observation:action"),
    ('"o1:a1', "cannot read '\"o1:a1' as one CSV record of observation:action pairs"),
    ('"o1:a,1" x', "cannot read '\"o1:a,1\" x' as one CSV record of observation:action pairs"),
])
def test_parse_pairs_refuses_what_is_not_one_record_of_pairs(text, message):
    with pytest.raises(InputError, match="^" + re.escape(message)):
        cli._parse_pairs(text, "axis", "observation:action", ((), ()))


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
        "kind": "InputError",
        "message": f"{flag[2:].replace('-', '_')} must be >= {least}, got {value}"}


@pytest.mark.parametrize("argv, message", [
    (["project", THREE_STATE, "--samples", "-1"], "--samples must be >= 0, got -1"),
    (["project", THREE_STATE, "--points", "0"], "--points must be >= 1, got 0"),
    (["critical", BLIND_GRAPH, "--grid", "5"], "grid must be >= 100, got 5"),
    (["oracle", THREE_STATE, "--tol", "0"], "tol must be > 0, got 0.0"),
    (["oracle", THREE_STATE, "--tol", "-1"], "tol must be > 0, got -1.0"),
    (["oracle", THREE_STATE, "--tol", "nan"], "tol must be > 0, got nan"),
    (["faces", THREE_STATE, "--tol", "-1"], "tol must be > 0, got -1.0"),
    (["faces", THREE_STATE, "--tol", "nan"], "tol must be > 0, got nan"),
    (["faces", THREE_STATE, "--tol", "0"], "tol must be > 0, got 0.0"),
    (["oracle", THREE_STATE, "--tol", "inf"], "tol must be finite, got inf"),
    (["faces", THREE_STATE, "--tol", "inf"], "tol must be finite, got inf"),
    (["faces", THREE_STATE, "--seed", "-1"], "seed must be >= 0, got -1"),
    (["project", THREE_STATE, "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["bounds", "--rank-one", "0"], "k must be >= 1, got 0"),
], ids=["project-samples", "project-points", "critical-grid", "oracle-tol-zero",
        "oracle-tol-negative", "oracle-tol-nan", "faces-tol-negative", "faces-tol-nan", "faces-tol-zero",
        "oracle-tol-inf", "faces-tol-inf",
        "faces-seed", "project-seed", "bounds-rank-one"])
def test_flag_out_of_range_exits_two(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "InputError", "message": message}


def test_faces_positivity_failure_exits_two(capsys):
    code, out = run(capsys, "faces", TWO_STATE, "--mu", "s1")
    assert code == 2
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


def test_critical_wrong_shape_exits_two(capsys):
    code, out = run(capsys, "critical", TWO_STATE)
    assert code == 2
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
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("active", ["a1:o2,a2:o2", "a1:o2,a1:o2"],
                         ids=["empty-face", "repeated-pair"])
def test_bounds_model_mode_refusals_exit_two(capsys, active):
    code, out = run(capsys, "bounds", "--model", TWO_STATE, "--active", active)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--states", "3", "--actions", "2", "--d", "2,2", "--k", "1"],
     "degrees has 2 entries for 1 pinned observations"),
    (["bounds", "--states", "3", "--actions", "2", "--d", "2.5", "--k", "1"],
     "--d must be comma-separated integers"),
    (["freq", THREE_STATE, "--mu", "abc"],
     "--mu must be 'uniform', a state label, or comma-separated numbers; got 'abc'"),
    (["freq", THREE_STATE, "--policy", "[1,"],
     "cannot parse policy '[1,': Expecting value: line 1 column 4 (char 3)"),
    (["project", "ONE_STATE"], "3-d projection needs at least 3 state-action pairs"),
    (["scan", THREE_STATE, "--axes", "o1:a9"], "unknown action label 'a9'; known: ['a1', 'a2']"),
    (["freq", THREE_STATE, "--policy", "det:a9,a1,a1"],
     "cannot parse policy 'det:a9,a1,a1': unknown action label 'a9'; known: ['a1', 'a2']"),
    # the label is resolved before the square-beta check, which would exit 1
    (["bounds", "--model", BLIND_GRAPH, "--active", "a9:o"],
     "unknown action label 'a9'; known: ['a1', 'a2']"),
], ids=["bounds-lengths", "bounds-degree-text", "mu-text", "policy-text", "project-pairs",
        "scan-label", "policy-label", "bounds-label-nonsquare"])
def test_input_refusals_name_the_fault(tmp_path, capsys, argv, message):
    one_state = tmp_path / "one_state.json"
    model = fixtures.random_model(np.random.default_rng(0), 1, 1, 2, 0.5)  # 2 pairs
    one_state.write_text(serialize_model(model))
    code, out = run(capsys, *[str(one_state) if a == "ONE_STATE" else a for a in argv])
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "InputError", "message": message}


@pytest.mark.parametrize("flags, message", [
    (["--states", "20000", "--actions", "2", "--d", "3", "--k", "1"],
     "a bound of up to 6021 decimal digits exceeds the cap of 4300"),  # 3 * 2^19999
    (["--states", "100000", "--actions", "100000", "--d", "2", "--k", "1"],
     "a bound recurrence over 1 degrees to m = 9999899999 exceeds the cap of 1048576"),
], ids=["digits", "steps"])
def test_bounds_refuse_a_large_budget_at_once(capsys, flags, message):
    start = time.perf_counter()
    code, out = run(capsys, "bounds", *flags)
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out)["error"]) == (1, {"kind": "SizeCapError", "message": message})


def test_bounds_rank_error_exits_one(capsys):
    code, out = run(capsys, "bounds", "--model", BLIND_GRAPH, "--active", "a1:o")
    assert code == 1
    assert "square" in json.loads(out)["error"]["message"]


def test_bounds_model_mode_linalg_failure_exits_one(capsys, monkeypatch):
    # a solver failure is a computational error, not bad input, though it is a ValueError
    def no_convergence(beta):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(geometry, "pseudoinverse", no_convergence)
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


@pytest.mark.parametrize("argv", [
    ["scan", TWO_STATE, "--axes", "o1:a1", "--resolution", "3"],
    ["critical", BLIND_GRAPH],
], ids=["scan", "critical"])
def test_untyped_value_error_is_not_a_refusal(capsys, monkeypatch, argv):
    # only InputError and the named computational errors are refusals: any other
    # ValueError is a bug, and main lets it propagate instead of printing it as one
    assert ValueError not in cli.INPUT_ERRORS + cli.COMPUTE_ERRORS

    def untyped(model, taus):
        raise ValueError("untyped")

    monkeypatch.setattr(critical, "batch_rewards", untyped)
    with pytest.raises(ValueError, match="^untyped$"):
        main(argv)
    assert capsys.readouterr().out == ""


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
    separate = [(proc.returncode, proc.stdout) for proc in (run_module(*argv) for argv in argvs)]
    assert in_process == separate


def test_fragile_support_warning_names_the_model_file(tmp_path):
    # under python -m the first frame outside the package is runpy's
    eps = 5e-11
    path = tmp_path / "fragile.json"
    path.write_text(serialize_model(fixtures.two_state_model().replace(
        beta=np.array([[1.0, 0.0], [eps, 1.0 - eps]]))))
    for argv in (["constraints", str(path)], ["faces", str(path)],
                 ["bounds", "--model", str(path), "--active", "a1:o2"]):
        proc = run_module(*argv)
        assert (proc.returncode, proc.stderr) == (0, (
            f"{path}:0: RuntimeWarning: 1 pseudo-inverse entries sit within 100x of the "
            "support cutoff 1e-12; the constraint supports are numerically fragile\n"))


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
# golden runs: (file, exit code, argv), one per file under tests/golden, run in-process
# and through an installed pomdpgeo.  Documents of commands other than faces and
# constraints came from the recursive renderer emit_json replaced; validate_invalid has
# the messages' plain float repr


INVALID_MODEL = {
    "states": ["s1", "s2"], "observations": ["o1", "o2"], "actions": ["a1", "a2"],
    "alpha": [[[0.7, 0.2], [0.0, 1.0]], [[1.2, -0.2], [0.0, 1.0]]],
    "beta": [[1.0, 0.0], [0.5, 0.6]], "reward": [[1.0, math.nan], [0.0, 1.0]],
    "gamma": 1.5, "mu": [1.2, -0.1],
}

GOLDEN_RUNS = [
    ("faces_two_state.json", 0, ["faces", TWO_STATE]),
    ("faces_three_state.json", 0, ["faces", THREE_STATE]),
    ("constraints_two_state.json", 0, ["constraints", TWO_STATE, "--policy", "uniform"]),
    ("constraints_three_state.json", 0, ["constraints", THREE_STATE, "--policy", "uniform"]),
    ("freq_three_state.json", 0, ["freq", THREE_STATE]),
    ("reward_three_state.json", 0, ["reward", THREE_STATE]),
    ("oracle_three_state.json", 0, ["oracle", THREE_STATE]),
    ("validate_two_state.json", 0, ["validate", TWO_STATE]),
    ("validate_invalid.json", 2, ["validate", "INVALID"]),
    ("bounds_three_state.json", 0, ["bounds", "--model", THREE_STATE, "--active", "a1:o2"]),
    ("critical_blind_three_state.json", 0,
     ["critical", BLIND_GRAPH, "--gamma", "0.5", "--mu", "s1"]),
    ("error_critical_two_state.json", 2, ["critical", TWO_STATE]),
    ("faces_max_dim_three_state.json", 0, ["faces", THREE_STATE, "--max-dim", "1"]),
    ("bounds_inline.json", 0, ["bounds", "--states", "3", "--actions", "2",
                               "--d", "2,3", "--k", "1,1"]),
    ("error_bounds_inline.json", 2, ["bounds", "--states", "3", "--actions", "2",
                                     "--d", "2", "--k", "2"]),
    ("critical_blind_three_state_default.json", 0, ["critical", BLIND_JSON]),
    ("error_freq_nan_policy.json", 2,
     ["freq", THREE_STATE, "--policy", "[[null, 1], [0, 1], [1, 0]]"]),
    ("error_faces_unvisited.json", 2, ["faces", BLIND_JSON, "--mu", "s1"]),
    ("error_freq_det_label.json", 2, ["freq", THREE_STATE, "--policy", "det:a9,a1,a1"]),
    ("error_scan_label.json", 2, ["scan", THREE_STATE, "--axes", "o9:a1"]),
    ("constraints_blind_three_state.json", 0, ["constraints", BLIND_JSON, "--policy", "uniform"]),
    ("bounds_two_state.json", 0, ["bounds", "--model", TWO_STATE, "--active", "a1:o1,a2:o2"]),
    ("freq_csv_three_state.csv", 0, ["freq", THREE_STATE, "--csv"]),
    ("scan_three_state.csv", 0,
     ["scan", THREE_STATE, "--axes", "o1:a1,o2:a2", "--resolution", "4"]),
    ("project_three_state.csv", 0, ["project", THREE_STATE, "--samples", "4", "--points", "3"]),
]
golden_runs = pytest.mark.parametrize("name, code, argv", GOLDEN_RUNS,
                                      ids=[name for name, _, _ in GOLDEN_RUNS])


@pytest.fixture
def invalid_model(tmp_path):
    """argv with its INVALID placeholder replaced by the path of INVALID_MODEL's file."""
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(INVALID_MODEL))
    return lambda argv: [str(path) if a == "INVALID" else a for a in argv]


@golden_runs
def test_golden_run_matches_its_file(capsys, invalid_model, name, code, argv):
    got_code, out = run(capsys, *invalid_model(argv))
    assert (got_code, out.encode()) == (code, (GOLDEN / name).read_bytes())


@golden_runs
@pytest.mark.skipif(POMDPGEO is None, reason="no pomdpgeo console script on PATH")
def test_installed_script_matches_each_golden_run(invalid_model, name, code, argv):
    # without PYTHONPATH the script imports the installed package, not src/
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([POMDPGEO, *invalid_model(argv)],
                          capture_output=True, check=False, env=env)
    assert (proc.returncode, proc.stdout) == (code, (GOLDEN / name).read_bytes())


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_main_writes_each_golden_document_in_one_write(invalid_model, monkeypatch):
    # subcommands return their documents; main alone writes one, a refusal's included
    assert sorted(name for name, _, _ in GOLDEN_RUNS) == sorted(p.name for p in GOLDEN.iterdir())
    for _, _, argv in GOLDEN_RUNS:
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        main(invalid_model(argv))
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


def test_constraints_format_each_distinct_coefficient_once(tmp_path, capsys, monkeypatch):
    # the 3^5 coefficients of each constraint are subset sums of one pseudo-inverse
    # row, so far fewer are distinct; each distinct one is formatted once
    model = fixtures.random_model(np.random.default_rng(11), 5, 5, 3, 0.8, positive_mu=True)
    path = tmp_path / "square.json"
    path.write_text(serialize_model(model))
    formatted = []
    float_text = cli._float_text
    monkeypatch.setattr(cli, "_float_text", lambda value: formatted.append(value)
                        or float_text(value))
    code, _ = run(capsys, "constraints", str(path))
    assert code == 0
    kept = [v for p in model_constraint_polynomials(model) for v in p._expansion[1].tolist()]
    assert len(formatted) == len(set(kept)) < len(kept)


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


def test_constraints_build_no_constraint_objects(capsys, monkeypatch):
    # headers, terms and values all come from the model's packed table
    def refuse(self):
        raise AssertionError("constraints built a PolynomialConstraint")

    monkeypatch.setattr(PolynomialConstraint, "__post_init__", refuse)
    for name, path in (("constraints_three_state.json", THREE_STATE),
                       ("constraints_blind_three_state.json", BLIND_JSON)):
        code, out = run(capsys, "constraints", path, "--policy", "uniform")
        assert (code, out.encode()) == (0, (GOLDEN / name).read_bytes())


def test_constraints_with_policy_evaluate_each_constraint_once(capsys, monkeypatch):
    calls = []
    stacked = geometry._packed_values

    def counted(packed, eta):
        calls.append(list(packed.labels))
        return stacked(packed, eta)

    monkeypatch.setattr(geometry, "_packed_values", counted)
    code, out = run(capsys, "constraints", THREE_STATE, "--policy", "uniform")
    assert code == 0
    assert len(calls) == 1  # one stacked evaluation of all constraints
    assert len(calls[0]) == len(set(calls[0])) == 6
    assert out.encode() == (GOLDEN / "constraints_three_state.json").read_bytes()


def test_constraints_with_policy_read_the_one_table_they_built(capsys, monkeypatch):
    # the table the polynomials come from is the one their values are taken from
    builds = []
    build = geometry._constraint_table

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def refuse(polys):
        raise AssertionError("constraint objects packed again")

    monkeypatch.setattr(geometry, "_constraint_table", counted)
    monkeypatch.setattr(geometry, "_pack", refuse)
    code, out = run(capsys, "constraints", THREE_STATE, "--policy", "uniform")
    assert code == 0
    assert len(builds) == 1
    assert out.encode() == (GOLDEN / "constraints_three_state.json").read_bytes()


# --------------------------------------------------------------------------
# faces written from the lattice's arrays


FACE_ACTION_LABELS = ['a"1', "a\\2", "é,3", "a:4", "A", "b"]
FACE_OBSERVATION_LABELS = ["o:1", 'o"2', "ö", "o,3", "\\o"]


def _faces_reference(lattice):
    """The faces document as the dicts of the lattice's descriptors, active zeros sorted,
    rendered by the recursive renderer."""
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
    return _render_reference(payload, 0) + "\n"


def test_faces_match_the_recursive_renderer_on_random_models(tmp_path, capsys):
    rng = np.random.default_rng(34)
    shapes, escaped = set(), 0
    for trial in range(32):
        ns = int(rng.integers(2, 5))
        no, na = int(rng.integers(1, min(ns, 3) + 1)), int(rng.integers(1, 4))
        model = fixtures.random_model(rng, ns, no, na, 0.8, positive_mu=True)
        if trial % 2:  # labels that need JSON escapes or hold a comma or a colon, unsorted
            model = model.replace(
                actions=tuple(rng.permutation(FACE_ACTION_LABELS)[:na].tolist()),
                observations=tuple(rng.permutation(FACE_OBSERVATION_LABELS)[:no].tolist()))
            escaped += 1
        path = tmp_path / f"faces{trial}.json"
        path.write_text(serialize_model(model))
        for max_dim in (None, 1):
            flags = [] if max_dim is None else ["--max-dim", str(max_dim)]
            code, out = run(capsys, "faces", str(path), *flags)
            assert code == 0
            assert out == _faces_reference(geometry.face_lattice(model, max_dim=max_dim))
        shapes.add((ns, no, na))
    assert escaped == 16 and len(shapes) >= 15
    assert {na for _, _, na in shapes} == {1, 2, 3} and {no for _, no, _ in shapes} == {1, 2, 3}
