"""Domain types, validation and both file formats."""

import json
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pomdp_geometry import fixtures
from pomdp_geometry import model as model_module
from pomdp_geometry.model import (
    Frequency,
    ModelFormatError,
    PomdpModel,
    Policy,
    compile_graph_source,
    compose,
    effective_policy,
    load_model_text,
    parse_graph_model,
    parse_model,
    serialize_model,
    transition_kernels,
    validate,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def test_two_state_fixture_shapes():
    m = fixtures.two_state_model()
    assert m.states == ("s1", "s2")
    assert m.alpha.shape == (2, 2, 2)
    assert validate(m).ok


def test_round_trip_is_bit_exact():
    m = fixtures.three_state_model()
    again = parse_model(serialize_model(m))
    assert again.states == m.states
    assert again.gamma == m.gamma
    for name in ("alpha", "beta", "reward", "mu"):
        assert_array_equal(getattr(again, name), getattr(m, name))


def test_parse_rejects_bad_shapes_with_path():
    doc = fixtures.two_state_model().to_dict()
    doc["alpha"][1][0] = [0.5, 0.25, 0.25]
    with pytest.raises(ModelFormatError, match=r"alpha\[1\]\[0\]"):
        parse_model(json.dumps(doc))


def test_parse_rejects_missing_key():
    doc = fixtures.two_state_model().to_dict()
    del doc["beta"]
    with pytest.raises(ModelFormatError, match="beta"):
        parse_model(json.dumps(doc))


def test_parse_rejects_non_numeric_entry():
    doc = fixtures.two_state_model().to_dict()
    doc["mu"][1] = "almost half"
    with pytest.raises(ModelFormatError, match=r"mu\[1\]"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("key, index, entry, message", [
    ("alpha", (0, 1, 0), True, r"alpha\[0\]\[1\]\[0\]: expected a number, got bool"),
    ("beta", (1, 0), False, r"beta\[1\]\[0\]: expected a number, got bool"),
    ("reward", (0, 1), True, r"reward\[0\]\[1\]: expected a number, got bool"),
    ("mu", (1,), True, r"mu\[1\]: expected a number, got bool"),
    ("alpha", (1, 0), 0.5, r"alpha\[1\]\[0\]: expected a list, got float"),
    ("alpha", (1,), {"a": [1, 0]}, r"alpha\[1\]: expected a list, got dict"),
    ("alpha", (0, 0, 1), [0.5], r"alpha\[0\]\[0\]\[1\]: expected a number, got list"),
    ("beta", (0,), "10", r"beta\[0\]: expected a list, got str"),
    ("reward", (1,), [1.0], r"reward\[1\]: expected 2 entries, got 1"),
    ("mu", (), [0.5, 0.25, 0.25], r"mu: expected 2 entries, got 3"),
])
def test_parse_names_the_bad_entry_of_each_block(key, index, entry, message):
    # each block is one np.array call when well formed; the row-by-row
    # path must still name the first bad entry, bools included
    doc = fixtures.two_state_model().to_dict()
    if index:
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = entry
    else:
        doc[key] = entry
    with pytest.raises(ModelFormatError, match=f"^{message}$"):
        parse_model(json.dumps(doc))


def test_parse_converts_integers_like_float():
    # ties and wide integers round exactly as float() does
    row = [2**53 + 1, 2**53 + 3, -(2**64) - 1, 10**300, 3, 0.1]
    doc = fixtures.two_state_model().to_dict()
    doc["reward"][0] = row[:2]
    doc["reward"][1] = row[2:4]
    doc["mu"] = row[4:]
    m = parse_model(json.dumps(doc))
    assert m.reward.tolist() == [[float(x) for x in row[:2]], [float(x) for x in row[2:4]]]
    assert m.mu.tolist() == [3.0, 0.1]


@pytest.mark.parametrize("key, index, path", [
    ("reward", (1, 1), r"reward\[1\]\[1\]"),
    ("alpha", (0, 1, 0), r"alpha\[0\]\[1\]\[0\]"),
    ("mu", (0,), r"mu\[0\]"),
    ("gamma", (), "gamma"),
])
def test_parse_rejects_out_of_range_integers_with_path(key, index, path):
    doc = fixtures.two_state_model().to_dict()
    if index:
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = 10**400
    else:
        doc[key] = 10**400
    with pytest.raises(ModelFormatError, match=path + ": integer is out of float range"):
        parse_model(json.dumps(doc))


def test_parse_rejects_integer_literal_past_digit_limit():
    text = json.dumps(fixtures.two_state_model().to_dict()).replace(
        '"gamma": 0.5', '"gamma": 1' + "0" * 5000)
    with pytest.raises(ModelFormatError, match="document: not valid JSON"):
        parse_model(text)


def test_parse_accepts_but_validate_flags_bad_rows():
    doc = fixtures.two_state_model().to_dict()
    doc["alpha"][0][0] = [0.45, 0.45]  # sums to 0.9
    m = parse_model(json.dumps(doc))  # parse succeeds: structure is fine
    report = validate(m)
    assert not report.ok
    assert any(v.path == "alpha[0][0]" for v in report.violations)
    assert report.worst().magnitude == pytest.approx(0.1)


def test_validate_flags_gamma_and_negative_mu():
    m = fixtures.two_state_model()
    bad = m.replace(gamma=1.5)
    assert any(v.path == "gamma" for v in validate(bad).violations)
    bad = m.replace(mu=np.array([1.5, -0.5]))
    paths = {v.path for v in validate(bad).violations}
    assert "mu" in paths or "mu[1]" in paths


def test_validate_never_throws_on_nan():
    m = fixtures.two_state_model()
    bad = m.replace(reward=np.array([[np.nan, 0.0], [0.0, 1.0]]))
    report = validate(bad)
    assert not report.ok
    assert any(v.path == "reward[0][0]" for v in report.violations)


def test_validate_reports_every_violation_in_order():
    alpha = np.array([[[1.0, 0.0], [0.7, 0.2]], [[1.2, -0.2], [0.0, 1.0]]])
    beta = np.array([[1.0, 0.0], [0.5, 0.6]])
    reward = np.array([[0.0, np.nan], [1.0, 0.0]])
    m = PomdpModel(("s1", "s2"), ("o1", "o2"), ("a1", "a2"), alpha, beta, reward,
                   1.5, np.array([1.2, -0.1]))
    got = [(v.path, v.message, v.magnitude) for v in validate(m).violations]
    assert got == [
        ("alpha[0][1]", "row sums to 0.8999999999999999, expected 1",
         0.10000000000000009),
        ("alpha[1][0][1]", "negative entry -0.2", 0.2),
        ("beta[1]", "row sums to 1.1, expected 1", 0.10000000000000009),
        ("mu", "row sums to 1.0999999999999999, expected 1",
         0.09999999999999987),
        ("mu[1]", "negative entry -0.1", 0.1),
        ("gamma", "gamma must lie in (0, 1], got 1.5", 0.5),
        ("reward[0][1]", "non-finite entry nan", float("inf")),
    ]


def test_policy_constructors_and_row_checks():
    u = Policy.uniform(2, 3)
    assert_allclose(u.matrix.sum(axis=1), 1.0)
    d = Policy.deterministic([2, 0], 3)
    assert_array_equal(d.matrix, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError, match="sum to 1"):
        Policy("observation", np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError, match="negative"):
        Policy("observation", np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="kind"):
        Policy("belief", np.array([[1.0]]))


def test_frequency_invariants():
    f = Frequency.from_eta(np.array([[0.75, 0.0], [0.25, 0.0]]))
    assert_allclose(f.rho, [0.75, 0.25])
    with pytest.raises(ValueError, match="sum to 1"):
        Frequency.from_eta(np.array([[0.5, 0.0], [0.25, 0.0]]))
    with pytest.raises(ValueError, match="negative"):
        Frequency.from_eta(np.array([[1.1, -0.1], [0.0, 0.0]]))


def test_effective_policy_on_two_state_model():
    m = fixtures.two_state_model()
    # observe o1 -> play a1, observe o2 -> play a2
    pi = Policy.deterministic([0, 1], 2)
    tau = effective_policy(pi, m.beta)
    assert tau.kind == "state"
    # s1 always sees o1; s2 sees o1/o2 with probability 1/2 each
    assert_allclose(tau.matrix, [[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="observation policy"):
        effective_policy(tau, m.beta)


@pytest.mark.parametrize("ns, no, na, n", [
    (3, 1, 2, 10_000), (3, 2, 2, 1681), (5, 5, 3, 500), (3, 3, 2, 81), (40, 20, 6, 1),
    (3, 2, 2, 0)])
def test_compose_is_the_stacked_product(ns, no, na, n):
    # one (S, O) @ (O, N*A) product gives every entry the sum the N stacked products
    # give: bit for bit with one observation (one product per entry), and otherwise
    # within the rounding of two summation orders of O nonnegative terms, since BLAS
    # may add them in another order in a GEMM than in N small products
    rng = np.random.default_rng(ns * no * na)
    beta = rng.dirichlet(np.ones(no), size=ns)
    pis = rng.dirichlet(np.ones(na), size=(n, no))
    stacked = beta @ pis
    assert compose(beta, pis).shape == stacked.shape == (n, ns, na)
    if no == 1:
        assert_array_equal(compose(beta, pis), stacked, strict=True)
    rtol = 2 * no * np.finfo(float).eps
    assert_allclose(compose(beta, pis), stacked, rtol=rtol, atol=0)
    if n:
        assert_allclose(compose(beta, pis[-1]), beta @ pis[-1], rtol=rtol, atol=0)


def test_transition_kernels_are_row_stochastic():
    m = fixtures.three_state_model()
    pi = Policy.uniform(m.n_observations, m.n_actions)
    big, small = transition_kernels(m, pi)
    assert big.shape == (6, 6)
    assert small.shape == (3, 3)
    assert np.max(np.abs(big.sum(axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(small.sum(axis=1) - 1.0)) < 1e-12


def test_transition_kernel_entries_two_state():
    m = fixtures.two_state_model()
    pi = Policy.deterministic([0, 0], 2)  # always a1
    big, small = transition_kernels(m, pi)
    # tau: s1 plays a1 surely; s2 plays a1 with prob 1 as well (both rows of
    # pi are a1); alpha moves every state to s1 under a1.
    assert_allclose(small, [[1.0, 0.0], [1.0, 0.0]])
    # state-action row (s2, a1): lands in s1, then plays tau(.|s1) = (1, 0)
    assert_allclose(big[2], [1.0, 0.0, 0.0, 0.0])


def test_graph_format_compiles_to_canonical():
    text = fixtures.GRAPH_BLIND_THREE_STATE
    compiled = compile_graph_source(text)
    m = parse_model(compiled)
    expected = fixtures.blind_three_state_model()
    assert m.states == expected.states
    assert_array_equal(m.alpha, expected.alpha)
    assert_array_equal(m.reward, expected.reward)
    assert_array_equal(m.beta, expected.beta)
    assert m.gamma == expected.gamma
    assert_allclose(m.mu, expected.mu)
    # same document through the sniffing loader
    again = load_model_text(text)
    assert_array_equal(again.alpha, m.alpha)


def test_graph_format_identity_beta_and_mu_label():
    text = """
    gamma: 0.5
    beta: identity
    mu: s2
    s1 a1 -> s2 1
    s1 a2 -> s1 0
    s2 a1 -> s1 -1
    s2 a2 -> s2 0
    """
    m = parse_graph_model(text)
    assert m.observations == ("s1", "s2")
    assert_array_equal(m.beta, np.eye(2))
    assert_allclose(m.mu, [0.0, 1.0])
    assert m.reward[0, 0] == 1.0 and m.reward[1, 0] == -1.0


def test_graph_format_explicit_beta_rows():
    text = """
    gamma: 0.5
    states: s1 s2
    actions: a1 a2
    beta: 1 0; 0.5 0.5
    s1 a1 -> s1 1
    s1 a2 -> s2
    s2 a1 -> s1
    s2 a2 -> s2 1
    """
    m = parse_graph_model(text)
    assert m.observations == ("o1", "o2")
    assert_allclose(m.beta, [[1.0, 0.0], [0.5, 0.5]])


def test_graph_format_errors():
    with pytest.raises(ModelFormatError, match="gamma"):
        parse_graph_model("s1 a1 -> s1 1\ns1 a2 -> s1 0\n")
    with pytest.raises(ModelFormatError, match="missing edge"):
        parse_graph_model("gamma: 0.5\ns1 a1 -> s1 1\ns1 a2 -> s1\ns2 a1 -> s1\n")  # no (s2, a2)
    with pytest.raises(ModelFormatError, match="duplicate edge"):
        parse_graph_model("gamma: 0.5\ns1 a1 -> s1 1\ns1 a1 -> s1 2\n")
    with pytest.raises(ModelFormatError, match="line 2"):
        parse_graph_model("gamma: 0.5\nwhat is this\n")


GRAPH_CASES = {
    "bundled": fixtures.GRAPH_BLIND_THREE_STATE,
    "blind-inferred": "gamma: 0.9\ns1 a1 -> s2 1\ns1 a2 -> s1\ns2 a1 -> s1 -0.5\ns2 a2 -> s2 2\n",
    "identity-mu-label": """
    gamma: 1
    beta: identity
    mu: s2
    s1 a1 -> s2 1e999
    s1 a2 -> s1 -1e999
    s2 a1 -> s1 0.1
    s2 a2 -> s2 nan
    """,
    "explicit-mu-numbers": """
    gamma: 0.3333333333333333
    states: t1 t2 t3
    actions: b1 b2 b3
    observations: x y
    beta: 1 0; 0.25 0.75; 0.5 0.5
    mu: 0.2 0.3 0.5
    t1 b1 -> t2 1
    t1 b2 -> t3 -0.0
    t1 b3 -> t1
    t2 b1 -> t1 2.5
    t2 b2 -> t2
    t2 b3 -> t3 -7
    t3 b1 -> t3 inf
    t3 b2 -> t1
    t3 b3 -> t2 1e-300
    """,
}


@pytest.mark.parametrize("text", GRAPH_CASES.values(), ids=GRAPH_CASES.keys())
def test_graph_source_is_the_canonical_document_of_the_parsed_model(text):
    compiled = compile_graph_source(text)
    assert compiled == serialize_model(parse_graph_model(text))
    assert serialize_model(parse_model(compiled)) == compiled


def test_bundled_graph_compiles_to_the_bundled_document():
    expected = (MODELS / "blind_three_state.json").read_text(encoding="utf-8")
    assert compile_graph_source((MODELS / "blind_three_state.graph").read_text()) == expected


@pytest.mark.parametrize("text", GRAPH_CASES.values(), ids=GRAPH_CASES.keys())
def test_graph_models_parse_without_json(monkeypatch, text):
    expected = serialize_model(parse_graph_model(text))

    def refuse(*args, **kwargs):
        raise AssertionError("a graph model went through JSON")

    monkeypatch.setattr(model_module, "parse_model", refuse)
    monkeypatch.setattr(model_module, "_parse_block", refuse)
    monkeypatch.setattr(json, "loads", refuse)
    m = parse_graph_model(text)
    monkeypatch.undo()
    assert serialize_model(m) == expected


@pytest.mark.parametrize("header, what", [
    ("states: s1 s2 s1", "states"),
    ("actions: a1 a2 a1", "actions"),
    ("beta: identity\nobservations: o o", "observations"),
    ("beta: 1 0; 0 1\nobservations: x x", "observations"),
], ids=["states", "actions", "identity-observations", "explicit-observations"])
def test_graph_labels_must_be_unique(header, what):
    text = f"gamma: 0.5\n{header}\ns1 a1 -> s2\ns1 a2 -> s1\ns2 a1 -> s1\ns2 a2 -> s2\n"
    for load in (parse_graph_model, compile_graph_source, load_model_text):
        with pytest.raises(ModelFormatError, match=f"^{what}: labels must be unique$"):
            load(text)


def test_model_replace_and_indexing():
    m = fixtures.two_state_model()
    assert m.state_index("s2") == 1
    assert m.observation_index("o1") == 0
    assert m.action_index("a2") == 1
    with pytest.raises(KeyError, match="unknown state"):
        m.state_index("nope")
    changed = m.replace(gamma=0.25)
    assert changed.gamma == 0.25 and m.gamma == 0.5


def test_shape_mismatch_raises_at_construction():
    with pytest.raises(ValueError, match="beta"):
        PomdpModel(("s1",), ("o1", "o2"), ("a1",),
                   np.ones((1, 1, 1)), np.ones((1, 1)), np.zeros((1, 1)), 0.5, np.ones(1))
