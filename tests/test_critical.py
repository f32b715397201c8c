"""Exact blind-controller critical points, face bounds, scans, KKT residuals."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pomdp_geometry import fixtures
from pomdp_geometry.critical import (
    BoundInput,
    CriticalSet,
    blind_critical_points,
    critical_point_bound,
    face_critical_bound,
    kkt_residual,
    landscape_scan,
    polar_degree_rank_one,
    polar_degree_terms,
)
from pomdp_geometry.freq import reward_of
from pomdp_geometry.geometry import RankError
from pomdp_geometry.model import Policy, PomdpModel
from pomdp_geometry.rational import best_deterministic

MAX = "strict local max"
MIN = "strict local min"


def dirac(i, n=3):
    mu = np.zeros(n)
    mu[i] = 1.0
    return mu


# --------------------------------------------------------------------------
# blind two-action controllers: exact enumeration


def test_blind_roots_frozen_gamma_half():
    # roots of the derivative of the fitted reward curve, polished to 1e-12
    # bracket width; reference values computed independently from the exact
    # rational form of the reward
    cases = [
        (0, [0.424828801919103], (MAX, MAX)),
        (1, [], (MAX, MIN)),
        (2, [0.596470923030663], (MAX, MAX)),
    ]
    for i, roots, (b0, b1) in cases:
        m = fixtures.blind_three_state_model(mu=dirac(i), gamma=0.5)
        cs = blind_critical_points(m)
        assert_allclose([p for p, _ in cs.interior_roots], roots, atol=1e-9)
        assert all(kind == "min" for _, kind in cs.interior_roots)
        assert cs.boundary[0.0] == b0
        assert cs.boundary[1.0] == b1
        assert not cs.degenerate
        assert not cs.duplicates_merged


def test_blind_roots_frozen_gamma_point_nine():
    roots = [0.556646929562159, 0.66018474159288, 0.581721145796043]
    for i, root in enumerate(roots):
        m = fixtures.blind_three_state_model(mu=dirac(i), gamma=0.9)
        cs = blind_critical_points(m)
        assert_allclose([p for p, _ in cs.interior_roots], [root], atol=1e-9)
        assert cs.kinds() == ("min",)
        assert cs.boundary == {0.0: MAX, 1.0: MAX}


def _exact_blind_landscape(model, gamma):
    """Interior critical points and endpoint classes of a blind two-action
    reward curve in exact rational arithmetic.

    R(p) = (1 - gamma) mu^T (I - gamma P_p)^-1 r_p with p = pi(a1); the
    interior critical points are the real roots in (0, 1) of the numerator
    of R', classified by the sign of R'' there, and the endpoints by the
    sign of R' at p = 0 and p = 1.
    """
    sp = pytest.importorskip("sympy")
    p = sp.Symbol("p")
    g = sp.Rational(str(gamma))
    alpha = [sp.Matrix(model.alpha[:, a, :].tolist()).applyfunc(sp.Rational)
             for a in range(2)]
    reward = [sp.Matrix(model.reward[:, a].tolist()).applyfunc(sp.Rational)
              for a in range(2)]
    mu = sp.Matrix([model.mu.tolist()]).applyfunc(sp.Rational)
    kernel = p * alpha[0] + (1 - p) * alpha[1]
    r_p = p * reward[0] + (1 - p) * reward[1]
    value = (sp.eye(model.n_states) - g * kernel).LUsolve(r_p)
    reward_curve = sp.cancel((1 - g) * (mu * value)[0])
    slope = sp.together(sp.diff(reward_curve, p))
    curvature = sp.diff(slope, p)
    numerator, _ = sp.fraction(slope)
    roots = []
    for root in sp.Poly(numerator, p).real_roots():
        if 0 < root < 1:
            bend = sp.sign(sp.N(curvature.subs(p, root), 30))
            assert bend != 0, f"degenerate critical point at p={root}"
            roots.append((float(root), "min" if bend > 0 else "max"))
    s0, s1 = sp.sign(slope.subs(p, 0)), sp.sign(slope.subs(p, 1))
    assert s0 != 0 and s1 != 0, "flat endpoint"
    return roots, (MAX if s0 < 0 else MIN, MAX if s1 > 0 else MIN)


@pytest.mark.parametrize("gamma", [0.5, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("start", [0, 1, 2])
def test_blind_landscape_matches_exact_rational_oracle(gamma, start):
    # the reference table of acceptance check 09 comes from this
    # computation, not from the library
    m = fixtures.blind_three_state_model(mu=dirac(start), gamma=gamma)
    roots, boundary = _exact_blind_landscape(m, gamma)
    cs = blind_critical_points(m)
    assert_allclose([x for x, _ in cs.interior_roots], [x for x, _ in roots],
                    atol=1e-9)
    assert cs.kinds() == tuple(kind for _, kind in roots)
    assert (cs.boundary[0.0], cs.boundary[1.0]) == boundary


def _mp_blind_landscape(model, digits=50):
    """Interior critical points and endpoint classes of a blind two-action
    reward curve in mpmath at the given precision.

    D(p) = det(I - gamma P_p) and N(p) = R(p) D(p) are polynomials of
    degree at most S, so their values at S + 1 points fix them; the
    critical points are the real roots in (0, 1) of g = N'D - ND', and
    since D > 0 the sign of g' is that of R'' and g(0), g(1) carry the
    signs of the end slopes.
    """
    mp = pytest.importorskip("mpmath")
    ns = model.n_states
    with mp.workdps(digits):
        gamma = mp.mpf(model.gamma)
        alpha = [mp.matrix(model.alpha[:, a, :].tolist()) for a in range(2)]
        reward = [mp.matrix(model.reward[:, a].tolist()) for a in range(2)]
        mu = mp.matrix(model.mu.tolist())

        def numerator_denominator(p):
            system = mp.eye(ns) - gamma * (p * alpha[0] + (1 - p) * alpha[1])
            value = mp.lu_solve(system, p * reward[0] + (1 - p) * reward[1])
            det = mp.det(system)
            return (1 - gamma) * (mu.T * value)[0] * det, det

        nodes = [mp.mpf(k) / ns for k in range(ns + 1)]
        vander = mp.matrix([[x**j for j in range(ns + 1)] for x in nodes])
        values = [numerator_denominator(x) for x in nodes]
        num = mp.lu_solve(vander, mp.matrix([n for n, _ in values]))
        den = mp.lu_solve(vander, mp.matrix([d for _, d in values]))
        g = [mp.mpf(0)] * (2 * ns)  # ascending coefficients
        for i in range(ns + 1):
            for j in range(ns + 1):
                if i + j > 0:
                    g[i + j - 1] += (i - j) * num[i] * den[j]
        while len(g) > 1 and g[-1] == 0:
            g.pop()
        dg = [k * g[k] for k in range(1, len(g))]
        roots = []
        for z in mp.polyroots(g[::-1], maxsteps=200, extraprec=2 * digits):
            x = mp.re(z)
            if abs(mp.im(z)) < mp.mpf(10) ** (-digits // 2) and 0 < x < 1:
                bend = mp.polyval(dg[::-1], x)
                roots.append((float(x), "min" if bend > 0 else "max"))
        s0, s1 = mp.polyval(g[::-1], 0), mp.polyval(g[::-1], 1)
    return sorted(roots), (MAX if s0 < 0 else MIN, MAX if s1 > 0 else MIN)


def test_blind_roots_match_mpmath_reference():
    rng = np.random.default_rng(59)
    n_roots = 0
    for i in range(120):
        m = fixtures.random_model(rng, 2 + i % 3, 1, 2, float(rng.uniform(0.3, 0.95)))
        roots, boundary = _mp_blind_landscape(m)
        cs = blind_critical_points(m)
        assert_allclose([x for x, _ in cs.interior_roots], [x for x, _ in roots],
                        atol=1e-9, rtol=0)
        assert cs.kinds() == tuple(kind for _, kind in roots)
        assert (cs.boundary[0.0], cs.boundary[1.0]) == boundary
        n_roots += len(roots)
    assert n_roots >= 25


def test_blind_shallow_minimum_is_strict():
    # R'' is about 0.015 at the minimum, so R rises by less than 1e-10
    # within 1e-4 of it; the minimum is still strict
    alpha = np.array([
        [[0.061988575475435445, 0.22116024475537982, 0.35404690143628226, 0.3628042783329025],
         [0.3420131521402391, 0.23054560117214062, 0.23466973791993934, 0.19277150876768082]],
        [[0.45406021653210304, 0.10567094689620588, 0.23231058850683836, 0.20795824806485272],
         [0.00995812996159559, 0.6587661906795529, 0.07704237578122178, 0.25423330357762963]],
        [[0.09849210709469239, 0.4145343586495225, 0.08106364871307163, 0.40590988554271357],
         [0.1517382300550668, 0.3686658040570995, 0.2028015773713988, 0.2767943885164349]],
        [[0.09466763410061509, 0.7196900742767464, 0.033245437055115755, 0.15239685456752255],
         [0.2852055484747322, 0.22698618553054858, 0.3363994430502855, 0.15140882294443372]],
    ])
    reward = np.array([
        [0.7729299490626244, -0.5782980546480669],
        [1.2901694540086888, 0.8027230567292316],
        [-0.5935561558895301, -0.35205825229529986],
        [-0.401609191355832, 0.22359659342864843],
    ])
    mu = np.array([0.03013895682221909, 0.14578099273146908, 0.33074635637482486,
                   0.49333369407148703])
    m = PomdpModel(("s1", "s2", "s3", "s4"), ("o1",), ("a1", "a2"), alpha,
                   np.ones((4, 1)), reward, 0.44389223877470124, mu)
    cs = blind_critical_points(m)
    assert_allclose([x for x, _ in cs.interior_roots], [0.27848657643475627],
                    atol=1e-9, rtol=0)
    assert cs.kinds() == ("min",)
    assert cs.boundary == {0.0: MAX, 1.0: MAX}


def test_blind_interior_count_within_state_bound():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = fixtures.random_model(rng, int(rng.integers(2, 5)), 1, 2, 0.85)
        cs = blind_critical_points(m)
        assert cs.n_interior <= m.n_states


def test_blind_detects_degenerate_landscape():
    m = fixtures.blind_three_state_model().replace(reward=np.full((3, 2), 2.5))
    cs = blind_critical_points(m)
    assert cs.degenerate
    assert cs.interior_roots == ()
    assert cs.boundary == {0.0: "neither", 1.0: "neither"}


def test_blind_reward_values_at_endpoints():
    # sanity anchor for the frozen cases: endpoint rewards of the
    # delta-start models at gamma = 0.5
    expected = {0: (6.25, 5.0), 1: (30.0, -12.5), 2: (12.5, 2.5)}
    for i, (r0, r1) in expected.items():
        m = fixtures.blind_three_state_model(mu=dirac(i), gamma=0.5)
        # p = 0 is the all-second-action policy, p = 1 the all-first-action
        assert reward_of(m, Policy("observation", np.array([[0.0, 1.0]]))) == (
            pytest.approx(r0, abs=1e-9)
        )
        assert reward_of(m, Policy("observation", np.array([[1.0, 0.0]]))) == (
            pytest.approx(r1, abs=1e-9)
        )


def test_blind_rejects_wrong_shape_or_gamma():
    m = fixtures.two_state_model()  # two observations
    with pytest.raises(ValueError, match="single observation"):
        blind_critical_points(m)
    blind = fixtures.blind_three_state_model().replace(gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        blind_critical_points(blind)
    with pytest.raises(ValueError, match="grid"):
        blind_critical_points(fixtures.blind_three_state_model(), grid=10)


def test_critical_set_serialization():
    cs = CriticalSet(
        interior_roots=((0.25, "min"), (0.75, "max")),
        boundary={0.0: MAX, 1.0: MIN},
        degenerate=False,
        duplicates_merged=False,
    )
    d = cs.to_dict()
    assert d["roots"] == [
        {"p": 0.25, "kind": "min"},
        {"p": 0.75, "kind": "max"},
    ]
    assert d["boundary"] == {"0.0": MAX, "1.0": MIN}
    assert cs.n_interior == 2


# --------------------------------------------------------------------------
# per-face bounds


def test_bound_input_two_state():
    m = fixtures.two_state_model()
    bi = BoundInput.from_model(m, [("a1", "o2")])
    assert bi.active_set == (("a1", "o2"),)
    assert bi.degrees == (2,)
    assert bi.multiplicities == (1,)
    assert bi.m == 1
    assert critical_point_bound(bi) == 2
    assert face_critical_bound(m, [("a1", "o2")]) == 2


def test_bound_empty_active_set_means_no_interior_critical_points():
    m = fixtures.two_state_model()
    bi = BoundInput.from_model(m, [])
    assert bi.m == 2
    assert critical_point_bound(bi) == 0


def test_bound_m_zero_gives_one():
    bi = BoundInput(active_set=(), degrees=(), multiplicities=(), m=0)
    assert critical_point_bound(bi) == 1


def test_bound_accepts_indices():
    m = fixtures.two_state_model()
    assert face_critical_bound(m, [(0, 1)]) == 2


def test_bound_matches_bruteforce_composition_sum():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n_obs = int(rng.integers(1, 4))
        degrees = tuple(int(d) for d in rng.integers(1, 5, size=n_obs))
        mults = tuple(int(k) for k in rng.integers(1, 3, size=n_obs))
        m = int(rng.integers(0, 7))
        bi = BoundInput(
            active_set=tuple((f"a{i}", f"o{i}") for i in range(n_obs)),
            degrees=degrees,
            multiplicities=mults,
            m=m,
        )
        prefactor = 1
        for d, k in zip(degrees, mults):
            prefactor *= d**k
        brute = 0
        for combo in itertools.product(range(m + 1), repeat=n_obs):
            if sum(combo) != m:
                continue
            term = 1
            for d, i in zip(degrees, combo):
                term *= (d - 1) ** i
            brute += term
        assert critical_point_bound(bi) == prefactor * brute


def test_bound_input_refuses_bad_shapes():
    m = fixtures.blind_three_state_model()  # 3 states, 1 observation
    with pytest.raises(RankError, match="square"):
        BoundInput.from_model(m, [])
    m2 = fixtures.two_state_model()
    with pytest.raises(ValueError, match="repeated"):
        BoundInput.from_model(m2, [("a1", "o2"), ("a1", "o2")])
    with pytest.raises(ValueError, match="empty"):
        BoundInput.from_model(m2, [("a1", "o2"), ("a2", "o2")])


def test_polar_degree_rank_one_collapses_to_k():
    for k in range(1, 13):
        assert polar_degree_rank_one(k) == k
    t0, t1, t2 = polar_degree_terms(1)
    assert (t0, t1, t2) == (1, 2, 2)
    assert polar_degree_terms(3) == (18, 24, 9)
    with pytest.raises(ValueError):
        polar_degree_rank_one(0)


# --------------------------------------------------------------------------
# landscape scans


def test_landscape_scan_matches_pointwise_rewards():
    m = fixtures.two_state_model()
    scan = landscape_scan(m, [("o1", "a1"), ("o2", "a1")], resolution=5)
    assert scan.shape == (5, 5)
    assert scan.axes == (("o1", "a1"), ("o2", "a1"))
    for coord, reward in zip(scan.coordinates, scan.rewards):
        pi = Policy(
            "observation",
            np.array([[coord[0], 1 - coord[0]], [coord[1], 1 - coord[1]]]),
        )
        assert reward == pytest.approx(reward_of(m, pi), abs=1e-12)


def test_landscape_scan_single_axis_respects_base_policy():
    m = fixtures.three_state_model()
    base = Policy("observation", np.array([[0.2, 0.8], [0.7, 0.3], [0.4, 0.6]]))
    scan = landscape_scan(m, [("o2", "a2")], resolution=3, base_policy=base)
    assert scan.shape == (3,)
    # swept row hits the prescribed values; other rows stay at the base
    mid = Policy(
        "observation", np.array([[0.2, 0.8], [0.5, 0.5], [0.4, 0.6]])
    )
    assert scan.rewards[1] == pytest.approx(reward_of(m, mid), abs=1e-12)


def test_landscape_scan_rescales_three_action_rows():
    # the swept row o1 is rescaled in proportion to the base row; row o2
    # puts all its mass on the swept action, so the rest is filled uniformly
    m = fixtures.random_model(np.random.default_rng(61), 3, 2, 3, 0.8)
    base = Policy("observation", np.array([[0.2, 0.5, 0.3], [0.0, 1.0, 0.0]]))
    scan = landscape_scan(m, [("o1", "a2"), ("o2", "a2")], resolution=5,
                          base_policy=base)
    for (x, y), reward in zip(scan.coordinates, scan.rewards):
        rows = np.array([[0.4 * (1 - x), x, 0.6 * (1 - x)],
                         [0.5 * (1 - y), y, 0.5 * (1 - y)]])
        assert reward == pytest.approx(reward_of(m, Policy("observation", rows)),
                                       abs=1e-12)


def test_landscape_scan_csv_round_trip():
    m = fixtures.two_state_model()
    scan = landscape_scan(m, [("o1", "a1")], resolution=3)
    lines = scan.to_csv().strip().splitlines()
    assert lines[0] == "pi[a1|o1],reward"
    assert len(lines) == 4
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert_allclose(values[:, 0], [0.0, 0.5, 1.0])
    assert_allclose(values[:, 1], scan.rewards, rtol=1e-15)


def test_landscape_scan_rejects_bad_axes():
    m = fixtures.two_state_model()
    with pytest.raises(ValueError, match="distinct"):
        landscape_scan(m, [("o1", "a1"), ("o1", "a2")], resolution=3)
    with pytest.raises(ValueError, match="one or two"):
        landscape_scan(m, [], resolution=3)
    with pytest.raises(ValueError, match="resolution"):
        landscape_scan(m, [("o1", "a1")], resolution=1)


# --------------------------------------------------------------------------
# stationarity residuals


def test_kkt_residual_zero_at_mdp_optimum():
    rng = np.random.default_rng(53)
    for _ in range(5):
        m = fixtures.random_mdp(rng, 3, 2, 0.8)
        best_pi, _ = best_deterministic(m, kind="state")
        pi = Policy("observation", best_pi.matrix)
        assert kkt_residual(m, pi) <= 1e-9


def test_kkt_residual_near_zero_at_interior_critical_point():
    m = fixtures.blind_three_state_model(mu=dirac(0), gamma=0.5)
    cs = blind_critical_points(m)
    (p, _), = cs.interior_roots
    pi = Policy("observation", np.array([[p, 1 - p]]))
    assert kkt_residual(m, pi) <= 1e-6


def test_kkt_residual_positive_at_suboptimal_vertex():
    # the all-first-action vertex of the two-state model is beaten by
    # switching the second observation's action, and the residual sees it
    m = fixtures.two_state_model()
    pi = Policy("observation", np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert kkt_residual(m, pi) == pytest.approx(0.0625, abs=1e-12)
