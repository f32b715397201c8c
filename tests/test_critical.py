"""Exact blind-controller critical points, face bounds, scans, KKT residuals."""

import dataclasses
import itertools
import pathlib

import numpy as np
import pytest
from numpy.polynomial import Chebyshev, chebyshev
from numpy.testing import assert_allclose

from pomdp_geometry import critical, fixtures
from pomdp_geometry.critical import (
    BoundInput,
    CriticalSet,
    ScanGrid,
    _merge_close,
    blind_critical_points,
    critical_point_bound,
    face_critical_bound,
    kkt_residual,
    landscape_scan,
    polar_degree_rank_one,
    polar_degree_terms,
)
from pomdp_geometry.freq import batch_rewards, reward_of
from pomdp_geometry.geometry import (
    MONOMIAL_CAP,
    RankError,
    SizeCapError,
    face_lattice,
    model_constraint_polynomials,
)
from pomdp_geometry.model import InputError, Policy, PomdpModel, compose, load_model_text
from pomdp_geometry.rational import (TRIM_TOL, RewardLine, best_deterministic,
                                     reward_curve_on_line)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
MAX = "strict local max"
MIN = "strict local min"


def dirac(i, n=3):
    mu = np.zeros(n)
    mu[i] = 1.0
    return mu


# --------------------------------------------------------------------------
# blind two-action controllers: exact enumeration


def test_blind_roots_frozen_gamma_half():
    # roots of N'D - ND' for the exactly interpolated reward R = N / D;
    # reference values computed independently from the exact rational form
    # of the reward
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

    D(p) = det(I - gamma P_p), or det(I - P_p + 1 mu^T) at gamma = 1, and
    N(p) = R(p) D(p) are polynomials of degree at most S, so their values
    at S + 1 points fix them; the critical points are the real roots in
    (0, 1) of g = N'D - ND', and since D > 0 the sign of g' is that of R''
    and g(0), g(1) carry the signs of the end slopes.  At gamma = 1, R is
    the mean reward rho^T r_p with rho the stationary law, which solves
    (I - P_p + 1 mu^T)^T rho = mu.
    """
    mp = pytest.importorskip("mpmath")
    ns = model.n_states
    with mp.workdps(digits):
        gamma = mp.mpf(model.gamma)
        alpha = [mp.matrix(model.alpha[:, a, :].tolist()) for a in range(2)]
        reward = [mp.matrix(model.reward[:, a].tolist()) for a in range(2)]
        mu = mp.matrix(model.mu.tolist())

        def numerator_denominator(p):
            kernel = p * alpha[0] + (1 - p) * alpha[1]
            r_p = p * reward[0] + (1 - p) * reward[1]
            if gamma == 1:
                system = mp.eye(ns) - kernel + mp.ones(ns, 1) * mu.T
                rho = mp.lu_solve(system.T, mu)
                det = mp.det(system)
                return (rho.T * r_p)[0] * det, det
            system = mp.eye(ns) - gamma * kernel
            value = mp.lu_solve(system, r_p)
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


def test_blind_mean_reward_roots_match_mpmath_reference():
    rng = np.random.default_rng(61)
    n_roots = 0
    for i in range(60):
        m = fixtures.random_model(rng, 2 + i % 3, 1, 2, 1.0)
        roots, boundary = _mp_blind_landscape(m)
        cs = blind_critical_points(m)
        assert_allclose([x for x, _ in cs.interior_roots], [x for x, _ in roots],
                        atol=1e-9, rtol=0)
        assert cs.kinds() == tuple(kind for _, kind in roots)
        assert (cs.boundary[0.0], cs.boundary[1.0]) == boundary
        n_roots += len(roots)
    assert n_roots >= 10


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
    with pytest.raises(ValueError, match="grid"):
        blind_critical_points(fixtures.blind_three_state_model(), grid=10)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [5_000, -1])
def test_a_non_finite_grid_reward_fails_the_cross_check(monkeypatch, value, where):
    # a NaN increment compares false both ways, so a sign test by comparisons alone would
    # read it as flat; an infinite reward once made the landscape read as degenerate
    scan = critical.landscape_scan

    def spoiled(*args, **kwargs):
        grid = scan(*args, **kwargs)
        rewards = grid.rewards.copy()
        rewards[where] = value
        return dataclasses.replace(grid, rewards=rewards)

    m = fixtures.blind_three_state_model()
    assert not blind_critical_points(m).degenerate
    monkeypatch.setattr(critical, "landscape_scan", spoiled)
    with pytest.raises(ArithmeticError, match=r"p=\d"):
        blind_critical_points(m)


def test_blind_scan_is_the_blind_line_bit_for_bit():
    # the grid of blind_critical_points: tau(.|s) = (p, 1 - p) in every state
    # (beta set to exact ones; normalised random columns can miss 1 by an ulp)
    rng = np.random.default_rng(43)
    for ns in (2, 4, 6):
        m = fixtures.random_model(rng, ns, 1, 2, 0.85).replace(beta=np.ones((ns, 1)))
        scan = landscape_scan(m, [(0, 0)], resolution=257)
        ps = np.linspace(0.0, 1.0, 257)
        taus = np.repeat(np.stack([ps, 1.0 - ps], axis=-1)[:, None], ns, axis=1)
        assert np.array_equal(scan.coordinates[:, 0], ps)
        assert np.array_equal(scan.rewards, batch_rewards(m, taus))


def _blind_by_class(m, grid=10_000):
    """The blind critical set of a non-flat model through numpy's Chebyshev class: two
    vertex Policy objects, `reward_curve_on_line`, its arrays and `slope_numerator` as
    series, `deriv` and `roots`, with the slope numerator checked against the class operators."""
    rewards = landscape_scan(m, [(0, 0)], resolution=grid + 1).rewards
    scale = max(1.0, float(np.max(np.abs(rewards))))
    line = reward_curve_on_line(m, Policy.deterministic([1], 2), Policy.deterministic([0], 2))
    g, num, den = (Chebyshev(c, domain=[0, 1]) for c in (line.slope_numerator(), *line))
    by_operators = num.deriv() * den - num * den.deriv()
    by_operators = by_operators.trim(TRIM_TOL * float(np.max(np.abs(by_operators.coef))))
    assert g.coef.tobytes() == by_operators.coef.tobytes()
    candidates = g.roots()
    x = candidates[np.isreal(candidates)].real
    merged, duplicates = _merge_close(x[(x > 0.0) & (x < 1.0)], critical.MERGE_TOL)
    roots = tuple((p, "max" if bend < 0 else "min" if bend > 0 else "saddle/flat")
                  for p, bend in zip(merged, g.deriv()(np.array(merged))))
    thr = critical.BOUNDARY_SLOPE_TOL * scale
    slope0, slope1 = g(np.array([0.0, 1.0])) / den(np.array([0.0, 1.0])) ** 2
    boundary = {0.0: critical._boundary_class(-slope0, thr),
                1.0: critical._boundary_class(slope1, thr)}
    return CriticalSet(roots, boundary, False, duplicates)


def test_blind_path_on_coefficient_arrays_is_the_class_path_bit_for_bit():
    rng = np.random.default_rng(53)
    gammas = [float(rng.uniform(0.3, 0.99)) for _ in range(105)] + [1.0] * 15
    n_roots = 0
    for i, gamma in enumerate(gammas):
        # dense alpha: every chain is unichain, also at gamma = 1
        m = fixtures.random_model(rng, 2 + i % 7, 1, 2, gamma)
        cs = blind_critical_points(m)
        assert cs == _blind_by_class(m)
        n_roots += cs.n_interior
    assert n_roots >= 20


def test_compose_of_a_one_observation_stack_is_the_matmul_bit_for_bit():
    rng = np.random.default_rng(59)
    for ns, na, n in itertools.product((1, 2, 4, 8), (2, 3), (1, 7, 1000)):
        beta = rng.random((ns, 1))
        pis = rng.dirichlet(np.ones(na), size=(n, 1))
        product = beta @ pis.transpose(1, 0, 2).reshape(1, n * na)
        tau = compose(beta, pis)
        assert tau.shape == (n, ns, na)
        assert tau.tobytes() == product.reshape(ns, n, na).transpose(1, 0, 2).tobytes()


def test_pinned_rows_are_the_delete_and_insert_rows_bit_for_bit():
    rng = np.random.default_rng(61)
    values = np.linspace(0.0, 1.0, 101)
    for na in range(2, 6):
        for a_idx in range(na):
            for base in (rng.dirichlet(np.ones(na)), np.eye(na)[a_idx]):
                rest = np.delete(base, a_idx)
                total = rest.sum()
                if total <= 1e-15:
                    rest, total = np.ones_like(rest), rest.size
                rows = np.insert(((1.0 - values)[:, None] * rest) / total, a_idx, values, axis=1)
                out = np.empty((len(values), base.size))
                assert critical._pinned_rows(base, a_idx, values, out).tobytes() == rows.tobytes()


def _merge_close_loop(points, tol):
    """Chains of sorted points whose neighbours lie within tol, one point at a time."""
    clusters = []
    for x in sorted(points):
        if clusters and x - clusters[-1][-1] <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return [float(np.mean(c)) for c in clusters], any(len(c) > 1 for c in clusters)


def test_merge_close_matches_the_chaining_loop():
    rng = np.random.default_rng(47)
    tol = 1e-8
    assert _merge_close(np.array([]), tol) == ([], False)
    for n in range(1, 12):
        # gaps just below and above tol chain and split clusters
        gaps = rng.choice([0.0, 0.5e-8, 0.999e-8, 1.001e-8, 0.1], size=n - 1)
        points = rng.permutation(np.concatenate([[rng.random()], rng.random() + np.cumsum(gaps)]))
        assert _merge_close(points, tol) == _merge_close_loop(points, tol)


@pytest.mark.parametrize("owner, name, patched, message", [
    # a root finder that loses the interior minimum at p = 0.4248
    (critical, "_merge_close", lambda points, tol: ([], False),
     "grid increments change sign near p=0.4248"),
    # a root finder that reports an extremum the grid does not show
    (critical, "_merge_close", lambda points, tol: ([0.05, *_merge_close(points, tol)[0]], False),
     "reported extremum at p=0.05 has no matching sign change"),
    # a slope numerator N'D - ND with D in place of D'; D is constant on this line, so
    # one with N' in place of N'D would be right here
    (RewardLine, "slope_numerator",
     lambda line: chebyshev.chebsub(chebyshev.chebmul(chebyshev.chebder(line.num, 1, 2.0),
                                                      line.den),
                                    chebyshev.chebmul(line.num, line.den)),
     "reported extremum at p=0.45827634659 has no matching sign change"),
], ids=["root-dropped", "root-added", "slope-numerator-wrong"])
def test_blind_grid_cross_check_refuses_a_wrong_root_set(monkeypatch, owner, name, patched,
                                                          message):
    m = fixtures.blind_three_state_model(mu=dirac(0), gamma=0.5)
    roots = blind_critical_points(m).interior_roots
    assert [p for p, _ in roots] == pytest.approx([0.4248], abs=1e-4)
    monkeypatch.setattr(owner, name, patched)
    with pytest.raises(ArithmeticError, match=message):
        blind_critical_points(m)


def test_cross_check_reads_the_sign_changes_of_the_sign_function():
    # flat stretches (increments within 1e-13 of the scale) separate cells of either sign
    rng = np.random.default_rng(71)
    grid = 400
    ps = np.linspace(0.0, 1.0, grid + 1)
    for _ in range(50):
        steps = rng.choice([-1.0, 0.0, 1.0], size=grid, p=[0.1, 0.3, 0.6]) * rng.random(grid)
        steps[rng.random(grid) < 0.2] *= 1e-14  # flat to tolerance
        rewards = np.concatenate([[0.0], np.cumsum(steps)])
        diffs = np.diff(rewards)
        signs = np.sign(np.where(np.abs(diffs) <= 1e-13, 0.0, diffs))
        cells = np.flatnonzero(signs)
        flips = np.flatnonzero(signs[cells[1:]] != signs[cells[:-1]])
        changes = 0.5 * (ps[cells[flips] + 1] + ps[cells[flips + 1]])
        roots = [(float(p), "max") for p in changes]
        critical._cross_validate(ps, rewards, roots, 1.0, grid)
        # a change more than two cells from every other one is missed when its root is dropped
        gaps = np.abs(changes[:, None] - changes[None, :]) + np.eye(len(changes))
        for i in np.flatnonzero(gaps.min(axis=1, initial=1.0) > 2.0 / grid + 1e-9)[:3]:
            with pytest.raises(ArithmeticError, match=f"change sign near p={changes[i]:.6g} "):
                critical._cross_validate(ps, rewards, roots[:i] + roots[i + 1:], 1.0, grid)


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


def test_bound_is_exact_up_to_its_caps():
    # the digit estimate is exact for one degree: 3 * 2^13999 has 4215 digits, the cap 4300
    assert critical_point_bound(BoundInput.from_counts(14000, 2, {"o1": 1}, [3])) == 3 * 2**13999
    assert critical_point_bound(BoundInput((("a1", "o1"),), (2,), (1,), MONOMIAL_CAP)) == 2
    # no degree, no recurrence: m = 10^10 allocates nothing
    assert critical_point_bound(BoundInput((), (), (), 10**10)) == 0
    with pytest.raises(SizeCapError, match="4300"):
        critical_point_bound(BoundInput.from_counts(14300, 2, {"o1": 1}, [3]))
    with pytest.raises(SizeCapError, match="1048576"):
        critical_point_bound(BoundInput((("a1", "o1"),), (2,), (1,), MONOMIAL_CAP + 1))


def test_bound_accepts_indices():
    m = fixtures.two_state_model()
    assert face_critical_bound(m, [(0, 1)]) == 2


def test_bound_degrees_are_the_constraint_degrees():
    # lower-triangular kernels give pseudo-inverse rows of every support size; dense and
    # 0/1 kernels give rows of full and of single-state support
    for kind in ("triangular", "dense", "0/1"):
        rng = np.random.default_rng(53)
        for _ in range(30):
            ns, na = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            beta = np.tril(rng.random((ns, ns)) * (rng.random((ns, ns)) < 0.6)) + np.eye(ns)
            m = fixtures.random_model(rng, ns, ns, na, 0.9, deterministic_beta=kind == "0/1")
            if kind == "triangular":
                m = m.replace(beta=beta / beta.sum(axis=1, keepdims=True))
            polys = {(p.action, p.observation): p for p in model_constraint_polynomials(m)}
            pairs = [(m.actions[int(rng.integers(na))], o) for o in m.observations
                     if rng.random() < 0.7]
            bi = BoundInput.from_model(m, pairs)
            assert bi.degrees == tuple(polys[pair].degree
                                       for pair in sorted(pairs, key=lambda t: t[1]))


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


def test_bound_input_from_counts_labels_and_refusals():
    bi = BoundInput.from_counts(3, 2, {"o1": 1, "o3": 1}, [2, 3])
    assert bi == BoundInput(active_set=(("a*1", "o1"), ("a*1", "o3")), degrees=(2, 3),
                            multiplicities=(1, 1), m=1)
    assert critical_point_bound(bi) == 18
    assert BoundInput.from_counts(2, 3, {"o2": 2}, (1,)).active_set == (
        ("a*1", "o2"), ("a*2", "o2"))
    assert BoundInput.from_counts(2, 2, {}, ()) == BoundInput((), (), (), 2)
    with pytest.raises(ValueError, match="^all actions pinned to zero for observation o2: "
                                         "the face is empty$"):
        BoundInput.from_counts(3, 2, {"o1": 1, "o2": 2}, [1, 1])
    with pytest.raises(ValueError, match="^more pinned entries than policy dimensions$"):
        BoundInput.from_counts(1, 2, {"o1": 1, "o2": 1}, [2, 2])


def test_bound_input_from_model_is_from_counts_with_the_model_labels():
    rng = np.random.default_rng(59)
    for _ in range(40):
        ns, na = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        beta = np.tril(rng.random((ns, ns)) * (rng.random((ns, ns)) < 0.6)) + np.eye(ns)
        m = fixtures.random_model(rng, ns, ns, na, 0.9).replace(
            beta=beta / beta.sum(axis=1, keepdims=True))
        polys = {(p.action, p.observation): p for p in model_constraint_polynomials(m)}
        pinned = {o: int(rng.integers(1, na)) for o in m.observations if rng.random() < 0.6}
        labels = tuple((a, o) for o, k in pinned.items()
                       for a in sorted(rng.choice(m.actions, size=k, replace=False).tolist(),
                                       key=m.action_index))
        degrees = [polys[next(pair for pair in labels if pair[1] == o)].degree for o in pinned]
        expected = dataclasses.replace(
            BoundInput.from_counts(ns, na, pinned, degrees), active_set=labels)
        shuffled = [labels[i] for i in rng.permutation(len(labels))]
        assert BoundInput.from_model(m, shuffled) == expected


def test_face_bounds_on_the_three_state_lattice():
    # the bound on each of the 27 faces, in lattice order, as a fixed table: a change
    # in how BoundInput is built cannot move a face's bound unnoticed
    m = load_model_text((MODELS / "three_state.json").read_text())
    faces = face_lattice(m).faces
    assert [face_critical_bound(m, face.active_zeros) for face in faces] == (
        [4] * 8 + [2] * 4 + [8] * 4 + [2] * 4 + [0] + [2] * 4 + [0, 0])


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


@pytest.mark.parametrize("axes", [[("o2", "a1")], [("o1", "a2"), ("o3", "a1")]])
def test_landscape_scan_default_base_is_the_uniform_policy_bit_for_bit(axes):
    m = fixtures.random_model(np.random.default_rng(67), 4, 3, 3, 0.8)
    default = landscape_scan(m, axes, resolution=9)
    uniform = landscape_scan(m, axes, resolution=9, base_policy=Policy.uniform(3, 3))
    assert default.coordinates.tobytes() == uniform.coordinates.tobytes()
    assert default.rewards.tobytes() == uniform.rewards.tobytes()
    assert default.to_csv() == uniform.to_csv()


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


def _csv_every_value_formatted(scan):
    """The CSV writer that formats every value of the table in one template."""
    headers = [f"pi[{a}|{o}]" for o, a in scan.axes] + ["reward"]
    table = np.column_stack([scan.coordinates, scan.rewards])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return ",".join(headers) + "\n" + row * len(table) % tuple(table.ravel().tolist())


@pytest.mark.parametrize("n_axes", [1, 2])
def test_scan_csv_formats_distinct_coordinates_like_every_value(n_axes):
    rng = np.random.default_rng(70 + n_axes)
    axes = (("o1", "a1"), ("o2", "a2"))[:n_axes]
    for n in (0, 1, 7, 200):
        # few distinct coordinates per axis, -0.0 and 0.0 among them
        pool = np.array([0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, rng.random(), -rng.random()])
        coordinates = pool[rng.integers(len(pool), size=(n, n_axes))]
        rewards = rng.normal(size=n)
        rewards[::3] = -0.0
        scan = ScanGrid(axes, coordinates, rewards, (n,))
        assert scan.to_csv() == _csv_every_value_formatted(scan)
    scan = ScanGrid(axes, np.full((2, n_axes), -0.0), np.zeros(2), (2,))
    assert scan.to_csv().splitlines()[1] == ",".join(["-0"] * n_axes + ["0"])


@pytest.mark.parametrize("bad", [-1, 3, np.int64(-1)])
def test_indices_must_be_in_range(bad):
    # a negative index once aliased o3 / a2, an index past the end raised IndexError
    m = fixtures.three_state_model()
    with pytest.raises(InputError, match="unknown observation index"):
        face_critical_bound(m, [(0, bad)])
    with pytest.raises(InputError, match="unknown action index"):
        face_critical_bound(m, [(bad, 0)])
    with pytest.raises(InputError, match="unknown observation index"):
        landscape_scan(m, [(bad, 0)], resolution=3)
    with pytest.raises(InputError, match="unknown action index"):
        landscape_scan(m, [(0, bad)], resolution=3)
    assert face_critical_bound(m, [(np.int64(1), np.int64(2))]) == (
        face_critical_bound(m, [("a2", "o3")]))


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
