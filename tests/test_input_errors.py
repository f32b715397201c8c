"""Every argument check of the public API raises InputError, a ValueError."""

import re
import time

import numpy as np
import pytest

import pomdp_geometry as pg
from pomdp_geometry import fixtures

TWO = fixtures.two_state_model()
THREE = fixtures.three_state_model()
BLIND = fixtures.blind_three_state_model()
TWO_MDP = TWO.replace(beta=np.eye(2))  # fully observable; a_k jumps to s_k
UNVISITED = TWO.replace(mu=np.array([1.0, 0.0]))  # s2 unreachable under "always a1"
THREE_MDP = THREE.replace(beta=np.eye(3))  # o_k is seen in s_k alone

UNIFORM = pg.Policy.uniform(2, 2)
STATE_UNIFORM = pg.Policy.uniform(2, 2, kind="state")
STATE_A1 = pg.Policy("state", [[1.0, 0.0], [1.0, 0.0]])
STATE_A2 = pg.Policy("state", [[0.0, 1.0], [0.0, 1.0]])
NAN = float("nan")
INF = float("inf")

# every solve refuses a discount outside (0, 1], the interval `validate` reports;
# policy_gradient refuses gamma >= 1 by its own check first
BAD_GAMMAS = (0.0, -0.5, 1.5, NAN, INF)
GAMMA_CALLS = (
    ("frequency", lambda m: pg.state_action_frequency(m, UNIFORM)),
    ("values", lambda m: pg.value_bundle(m, UNIFORM)),
    ("gradient", lambda m: pg.policy_gradient(m, UNIFORM)),
    ("reward", lambda m: pg.reward_of(m, UNIFORM)),
    ("oracle", lambda m: pg.truncated_series_oracle(m, UNIFORM, 1e-6)),
)


def _gamma_pattern(name, gamma):
    if name == "gradient" and gamma >= 1.0:
        return "policy_gradient requires gamma < 1"
    return re.escape(f"gamma must lie in (0, 1], got {gamma!r}") + "$"


# (id, call with one bad argument, pattern the message must match)
BAD_CALLS = [
    # model
    ("model-shape", lambda: TWO.replace(mu=np.ones(3) / 3), "mu: expected shape"),
    ("policy-kind", lambda: pg.Policy("joint", [[1.0]]), "policy kind"),
    ("policy-ndim", lambda: pg.Policy("observation", [1.0]), "2-d"),
    ("policy-empty", lambda: pg.Policy("observation", np.zeros((0, 2))),
     r"2-d and non-empty, got shape \(0, 2\)"),
    ("policy-negative", lambda: pg.Policy("observation", [[1.5, -0.5]]), "negative entry"),
    ("policy-nan", lambda: pg.Policy("observation", [[NAN, 1.0]]), "NaN"),
    ("policy-row-sum", lambda: pg.Policy("observation", [[0.5, 0.4]]), "sum to 1"),
    ("frequency-ndim", lambda: pg.Frequency(np.full(4, 0.25)), "2-d"),
    ("frequency-empty", lambda: pg.Frequency([[]]), r"2-d and non-empty, got shape \(1, 0\)"),
    ("frequency-negative", lambda: pg.Frequency([[1.5, -0.5]]), "negative entry"),
    ("frequency-mass", lambda: pg.Frequency([[0.5, 0.4]]), "sum to 1"),
    ("effective-policy-kind", lambda: pg.effective_policy(STATE_UNIFORM, TWO.beta),
     "observation policy"),
    ("effective-policy-beta", lambda: pg.effective_policy(UNIFORM, np.ones((2, 3)) / 3),
     "incompatible"),
    ("kernels-observation-shape", lambda: pg.transition_kernels(TWO, pg.Policy.uniform(3, 2)),
     "observation policy shape"),
    ("kernels-state-shape",
     lambda: pg.transition_kernels(TWO, pg.Policy.uniform(3, 2, kind="state")),
     "state policy shape"),
    ("state-label", lambda: TWO.state_index("s9"), r"unknown state label 's9'; known: \['s1', 's2'\]"),
    ("state-index", lambda: TWO.state_index(2), "unknown state index 2; known: 0 to 1"),
    ("observation-label", lambda: TWO.observation_index("o9"), "unknown observation label 'o9'"),
    ("observation-index", lambda: TWO.observation_index(-1), "unknown observation index -1"),
    ("action-label", lambda: TWO.action_index("a9"), "unknown action label 'a9'"),
    ("action-index", lambda: TWO.action_index(np.int64(2)), "unknown action index"),
    ("deterministic-negative", lambda: pg.Policy.deterministic([-1, 0], 2),
     "unknown action index -1; known: 0 to 1"),
    ("deterministic-past-end", lambda: pg.Policy.deterministic([2, 0], 2),
     "unknown action index 2; known: 0 to 1"),
    ("deterministic-float", lambda: pg.Policy.deterministic([0.5, 0], 2),
     "unknown action index 0.5; known: 0 to 1"),
    ("json-document", lambda: pg.parse_model("[]"), "expected a JSON object"),
    ("graph-document", lambda: pg.parse_graph_model("gamma: 0.5"), "no edges"),
    # freq
    ("frequency-policy-shape",
     lambda: pg.state_action_frequency(TWO, pg.Policy.uniform(3, 2)), "shape"),
    ("truncation-gamma", lambda: pg.truncation_length(1.0, 1e-6), "gamma"),
    ("truncation-tol", lambda: pg.truncation_length(0.9, 0.0), "tol must be > 0"),
    ("truncation-tol-nan", lambda: pg.truncation_length(0.9, NAN), "tol must be > 0, got nan"),
    ("oracle-tol", lambda: pg.truncated_series_oracle(TWO, UNIFORM, -1.0), "tol must be > 0"),
    ("truncation-tol-inf", lambda: pg.truncation_length(0.9, INF), "tol must be finite, got inf"),
    ("oracle-tol-inf", lambda: pg.truncated_series_oracle(TWO, UNIFORM, INF),
     "tol must be finite, got inf"),
    ("oracle-tol-inf-mean",
     lambda: pg.truncated_series_oracle(TWO.replace(gamma=1.0), UNIFORM, INF),
     "tol must be finite, got inf"),
    ("gradient-gamma", lambda: pg.policy_gradient(TWO.replace(gamma=1.0), UNIFORM),
     "gamma < 1"),
    ("gradient-kind", lambda: pg.policy_gradient(TWO, STATE_UNIFORM), "observation policy"),
    *[(f"{name}-gamma-{gamma}", lambda call=call, m=TWO.replace(gamma=gamma): call(m),
       _gamma_pattern(name, gamma))
      for gamma in BAD_GAMMAS for name, call in GAMMA_CALLS],
    # geometry
    ("halfspace-rows", lambda: pg.HalfspaceSystem(np.zeros((2, 2, 2)), np.zeros(3), True,
                                                  ("r1", "r2")), "matching rhs"),
    ("halfspace-labels", lambda: pg.HalfspaceSystem(np.zeros((2, 2, 2)), np.zeros(2), True,
                                                    ("r1",)), "one label per row"),
    ("pseudoinverse-ndim", lambda: pg.pseudoinverse(np.ones(3)), "beta must be"),
    ("effective-polytope-ndim", lambda: pg.effective_polytope(np.ones(3)), "beta must be"),
    ("constraints-ndim", lambda: pg.constraint_polynomials(np.ones(3), ("a1", "a2")),
     "beta must be"),
    ("constraints-observations", lambda: pg.constraint_polynomials(np.eye(2), 2, obs_names=["o"]),
     "1 observation labels for 2 observations"),
    ("polynomial-coeff", lambda: pg.PolynomialConstraint("p", 2, 2, (0,), np.zeros((2, 2)), 0.0),
     "coeff must be"),
    ("transfer-ndim", lambda: pg.transfer_inequality(np.ones(3), 0.0), "b must be"),
    ("faces-max-dim", lambda: pg.face_lattice(THREE, max_dim=-1), "max_dim must be >= 0, got -1"),
    ("faces-samples", lambda: pg.face_lattice(THREE, samples=0), "samples must be >= 1, got 0"),
    ("faces-tol", lambda: pg.face_lattice(THREE, tol=0.0), "tol must be > 0, got 0.0"),
    ("faces-tol-nan", lambda: pg.face_lattice(THREE, tol=NAN), "tol must be > 0, got nan"),
    ("faces-tol-inf", lambda: pg.face_lattice(THREE, tol=INF), "tol must be finite, got inf"),
    ("faces-seed", lambda: pg.face_lattice(THREE, seed=-1), "seed must be >= 0, got -1"),
    ("faces-max-dim-float", lambda: pg.face_lattice(THREE, max_dim=1.5),
     "max_dim must be an integer, got 1.5"),
    ("faces-samples-float", lambda: pg.face_lattice(THREE, samples=2.0),
     "samples must be an integer, got 2.0"),
    ("faces-seed-float", lambda: pg.face_lattice(THREE, seed=1.5),
     "seed must be an integer, got 1.5"),
    ("faces-unvisited", lambda: pg.face_lattice(UNVISITED), "visit every state"),
    # critical
    ("critical-not-blind", lambda: pg.blind_critical_points(TWO), "single observation"),
    ("critical-grid", lambda: pg.blind_critical_points(BLIND, grid=5),
     "grid must be >= 100, got 5"),
    ("critical-grid-float", lambda: pg.blind_critical_points(BLIND, grid=1e4),
     "grid must be an integer, got 10000.0"),
    ("counts-states", lambda: pg.BoundInput.from_counts(0, 2, {}, []),
     "n_states must be >= 1, got 0"),
    ("counts-states-float", lambda: pg.BoundInput.from_counts(3.0, 2, {}, []),
     "n_states must be an integer, got 3.0"),
    ("counts-actions", lambda: pg.BoundInput.from_counts(2, 0, {}, []),
     "n_actions must be >= 1, got 0"),
    ("counts-pinned", lambda: pg.BoundInput.from_counts(2, 2, {"o1": 0}, [2]),
     r"pinned\['o1'\] must be >= 1, got 0"),
    ("counts-degree", lambda: pg.BoundInput.from_counts(2, 2, {"o1": 1}, [0]),
     r"degrees\[0\] must be >= 1, got 0"),
    ("counts-lengths", lambda: pg.BoundInput.from_counts(2, 2, {"o1": 1}, [2, 3]),
     "degrees has 2 entries for 1 pinned observations"),
    ("counts-empty-face", lambda: pg.BoundInput.from_counts(2, 2, {"o1": 2}, [2]),
     "the face is empty"),
    ("counts-over-pinned", lambda: pg.BoundInput.from_counts(1, 2, {"o1": 1, "o2": 1}, [2, 2]),
     "more pinned entries"),
    ("face-bound-label", lambda: pg.face_critical_bound(TWO, [("a9", "o1")]),
     "unknown action label 'a9'"),
    ("face-bound-index", lambda: pg.face_critical_bound(TWO, [(0, 2)]),
     "unknown observation index 2"),
    # labels are resolved before the square-beta check, which raises RankError
    ("from-model-label", lambda: pg.BoundInput.from_model(BLIND, [("a1", "o9")]),
     "unknown observation label 'o9'"),
    ("from-model-index", lambda: pg.BoundInput.from_model(BLIND, [(2, 0)]),
     "unknown action index 2"),
    ("face-bound-repeated", lambda: pg.face_critical_bound(TWO, [("a1", "o2"), ("a1", "o2")]),
     "repeated pairs"),
    ("face-bound-empty", lambda: pg.face_critical_bound(TWO, [("a1", "o2"), ("a2", "o2")]),
     "the face is empty"),
    ("polar-terms", lambda: pg.polar_degree_terms(0), "k must be >= 1, got 0"),
    ("polar-terms-float", lambda: pg.polar_degree_terms(2.5), "k must be an integer, got 2.5"),
    ("polar-terms-bool", lambda: pg.polar_degree_terms(True), "k must be an integer, got True"),
    ("polar-degree", lambda: pg.polar_degree_rank_one(0), "k must be >= 1, got 0"),
    ("scan-label", lambda: pg.landscape_scan(TWO, [("o9", "a1")]), "unknown observation label"),
    ("scan-index", lambda: pg.landscape_scan(TWO, [(0, 2)]), "unknown action index 2"),
    ("scan-axes", lambda: pg.landscape_scan(TWO, [("o1", "a1"), ("o2", "a1"), ("o1", "a2")]),
     "one or two"),
    ("scan-distinct", lambda: pg.landscape_scan(TWO, [("o1", "a1"), ("o1", "a2")]), "distinct"),
    ("scan-resolution", lambda: pg.landscape_scan(TWO, [("o1", "a1")], resolution=1),
     "resolution"),
    ("scan-resolution-float", lambda: pg.landscape_scan(TWO, [("o1", "a1")], resolution=11.0),
     "resolution must be an integer, got 11.0"),
    ("scan-base", lambda: pg.landscape_scan(TWO, [("o1", "a1")], base_policy=STATE_UNIFORM),
     "base_policy"),
    # rational
    ("curve-denominator", lambda: pg.RationalCurve([1.0], [0.0], 0.0), "identically zero"),
    ("degree-bound-label", lambda: pg.degree_bound(TWO, ["o9"]), "unknown observation label"),
    ("degree-bound-index", lambda: pg.degree_bound(TWO, [2]), "unknown observation index 2"),
    ("certificate-degree", lambda: pg.DegreeCertificate(1, 2, np.zeros(3)), "exceeds the bound"),
    ("fit-degree", lambda: pg.fit_rational_curve(lambda x: x, -1), "max_degree must be >= 0"),
    ("fit-degree-float", lambda: pg.fit_rational_curve(lambda x: x, 1.5),
     "max_degree must be an integer, got 1.5"),
    ("deterministic-rows-float", lambda: pg.deterministic_policies(2.0, 2),
     "n_rows must be an integer, got 2.0"),
    ("deterministic-rows", lambda: pg.deterministic_policies(0, 2), "n_rows must be >= 1, got 0"),
    ("line-kinds", lambda: pg.reward_curve_on_line(TWO, UNIFORM, STATE_UNIFORM), "share a kind"),
    ("line-certificate-kind", lambda: pg.line_degree_certificate(TWO, STATE_A1, STATE_A2),
     "observation policies"),
    ("speed-kind", lambda: pg.interpolation_speed(TWO, UNIFORM, UNIFORM, 0.5), "state policies"),
    ("speed-shape", lambda: pg.interpolation_speed(THREE, STATE_UNIFORM, STATE_UNIFORM, 0.5),
     r"state policy shape \(2, 2\) does not match \(3, 2\)"),
    ("speed-rows", lambda: pg.interpolation_speed(TWO, STATE_A1, STATE_A2, 0.5),
     "differ on 2 states"),
    ("best-kind", lambda: pg.best_deterministic(TWO, kind="joint"), "policy kind"),
    ("vertex-kind", lambda: pg.vertex_improvement(TWO, STATE_UNIFORM, "o1"),
     "observation policy"),
    ("vertex-label", lambda: pg.vertex_improvement(TWO, UNIFORM, "o9"),
     "unknown observation label"),
    ("vertex-index", lambda: pg.vertex_improvement(TWO, UNIFORM, 2),
     "unknown observation index 2"),
    ("vertex-shape", lambda: pg.vertex_improvement(THREE_MDP, UNIFORM, "o1"),
     r"observation policy shape \(2, 2\) does not match \(3, 2\)"),
    ("vertex-observation", lambda: pg.vertex_improvement(TWO, UNIFORM, "o1"),
     "compatible with 2 states"),
    ("path-beta", lambda: pg.improvement_path(TWO, UNIFORM, 8), "identity beta"),
    ("path-unvisited",
     lambda: pg.improvement_path(TWO_MDP.replace(mu=np.array([1.0, 0.0])), STATE_UNIFORM, 8),
     "visit every state"),
    ("path-steps", lambda: pg.improvement_path(TWO_MDP, STATE_UNIFORM, 1),
     "steps must be >= 2, got 1"),
    ("path-steps-float", lambda: pg.improvement_path(TWO_MDP, STATE_UNIFORM, 4.5),
     "steps must be an integer, got 4.5"),
]


@pytest.mark.parametrize("call, pattern", [case[1:] for case in BAD_CALLS],
                         ids=[case[0] for case in BAD_CALLS])
def test_each_argument_check_raises_input_error(call, pattern):
    with pytest.raises(pg.InputError, match=pattern):
        call()


def test_input_error_is_a_value_error_and_covers_model_format_errors():
    assert issubclass(pg.InputError, ValueError)
    assert issubclass(pg.ModelFormatError, pg.InputError)
    # computational refusals are not input errors
    for kind in (pg.RankError, pg.SizeCapError, pg.CertificationError, pg.DegreeFitError,
                 pg.ErgodicityError):
        assert not issubclass(kind, pg.InputError)


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_series_oracle_refuses_a_nan_tol_at_once(gamma):
    # NaN <= 0 is false: a NaN tol once reached math.ceil (gamma < 1) or ran
    # every step of the cap before refusing (gamma = 1)
    start = time.perf_counter()
    with pytest.raises(pg.InputError, match="tol must be > 0, got nan"):
        pg.truncated_series_oracle(THREE.replace(gamma=gamma), pg.Policy.uniform(3, 2), NAN)
    assert time.perf_counter() - start < 1.0


def test_count_arguments_take_numpy_integers_as_ints():
    terms = pg.polar_degree_terms(np.int64(3))
    assert terms == (18, 24, 9) and all(type(t) is int for t in terms)
    assert len(list(pg.deterministic_policies(np.int32(2), np.int64(3)))) == 9
    assert pg.landscape_scan(TWO, [("o1", "a1")], resolution=np.int64(3)).shape == (3,)
