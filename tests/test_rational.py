"""Degree bounds, rational fits, one-state lines, vertex steps, improvement paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev, chebyshev
from numpy.testing import assert_allclose

from pomdp_geometry import fixtures, rational
from pomdp_geometry.freq import (ErgodicityError, batch_rewards, eta_for_tau, reward_of,
                                 state_action_frequency)
from pomdp_geometry.geometry import face_lattice
from pomdp_geometry.model import InputError, Policy, parse_graph_model, state_conditionals
from pomdp_geometry.rational import (
    DegreeCertificate,
    DegreeFitError,
    best_deterministic,
    chebyshev_grid,
    degree_bound,
    deterministic_policies,
    fit_rational_curve,
    improvement_path,
    interpolation_speed,
    line_degree_certificate,
    reward_curve_on_line,
    vertex_improvement,
)
from pomdp_geometry.rational import _line_form

# --------------------------------------------------------------------------
# degree bounds


def test_degree_bound_counts_compatible_states():
    m = fixtures.two_state_model()
    # o1 is seen from both states; o2 only from s2
    assert degree_bound(m, ["o1"]) == 2
    assert degree_bound(m, ["o2"]) == 1
    assert degree_bound(m, ["o1", "o2"]) == 2
    assert degree_bound(m, []) == 0
    assert degree_bound(m, [1]) == 1  # indices work too


def test_degree_bound_three_state():
    m = fixtures.three_state_model()
    assert degree_bound(m, ["o1"]) == 3
    assert degree_bound(m, ["o2"]) == 2
    assert degree_bound(m, ["o3"]) == 1


# --------------------------------------------------------------------------
# rational fitting


def test_fit_exact_rational():
    curve = fit_rational_curve(lambda x: x / (1.0 + x), max_degree=3)
    assert len(curve.num) - 1 == 1
    assert curve.fit_residual <= 1e-7
    # num/den is (0 + x) / (2/3 + 2/3 x) after den(1/2) = 1 normalization
    assert curve.num[0] == pytest.approx(0.0, abs=1e-9)
    assert_allclose(curve.num[1] / curve.den[1], 1.0, atol=1e-8)
    assert_allclose(curve.den[0], curve.den[1], atol=1e-8)
    xs = np.linspace(0, 1, 17)
    assert_allclose(curve(xs), xs / (1 + xs), atol=1e-9)


def test_fit_polynomial_and_constant():
    c = fit_rational_curve(lambda x: 3.0, max_degree=2)
    assert len(c.num) == 1 and c.num[0] == pytest.approx(3.0)
    q = fit_rational_curve(lambda x: (x - 0.3) ** 2, max_degree=4)
    assert len(q.num) - 1 == 2


def test_fit_degree_exceeded():
    with pytest.raises(DegreeFitError, match="degree <= 1"):
        fit_rational_curve(lambda x: x ** 3 + x, max_degree=1)


def test_fit_rejects_negative_max_degree():
    with pytest.raises(ValueError):
        fit_rational_curve(lambda x: 1.0, max_degree=-1)


def test_fit_calls_f_once_per_candidate_degree_on_arrays():
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 + x

    with pytest.raises(DegreeFitError):
        fit_rational_curve(f, max_degree=2)
    # degree k fits at 4(k + 1) nodes and is checked at the 4(k + 1) - 1 midpoints
    assert [type(x) for x in calls] == [np.ndarray] * 3
    assert [x.shape for x in calls] == [(7,), (15,), (23,)]


def test_chebyshev_grid_properties():
    g = chebyshev_grid(8)
    assert len(g) == 8
    assert np.all((g > 0) & (g < 1))
    assert np.all(np.diff(g) > 0)


def test_degree_certificate_rejects_excess():
    with pytest.raises(ValueError, match="exceeds"):
        DegreeCertificate(bound=1, fitted_degree=2, witness_grid=np.array([0.5]))


# --------------------------------------------------------------------------
# reward curves along policy lines


def test_reward_curve_degree_on_restricted_line():
    # vary only o2 in the two-state model: one compatible state -> degree <= 1
    m = fixtures.two_state_model()
    pi0 = Policy("observation", np.array([[1.0, 0.0], [1.0, 0.0]]))
    pi1 = Policy("observation", np.array([[1.0, 0.0], [0.0, 1.0]]))
    cert = line_degree_certificate(m, pi0, pi1)
    assert cert.bound == 1
    assert cert.fitted_degree <= 1


@pytest.mark.parametrize("gamma", [0.6, 1.0])
def test_line_degree_certificate_checks_exact_form(gamma):
    # N / D at the held-out witness points against direct solves; at gamma = 1
    # the line form must stay finite although det(I - p) vanishes
    rng = np.random.default_rng(41)
    for _ in range(40):
        ns = int(rng.integers(1, 6))
        no = int(rng.integers(1, ns + 1))
        m = fixtures.random_model(rng, ns, no, 2, gamma,
                                  deterministic_beta=bool(rng.integers(2)))
        base = rng.dirichlet(np.ones(2), size=no)
        other = base.copy()
        for o in rng.choice(no, size=int(rng.integers(1, no + 1)), replace=False):
            other[o] = rng.dirichlet(np.ones(2))
        pi0, pi1 = Policy("observation", base), Policy("observation", other)
        cert = line_degree_certificate(m, pi0, pi1)
        assert cert.fitted_degree <= cert.bound
        assert len(cert.witness_grid) == cert.fitted_degree + 2
        tau0, tau1 = state_conditionals(m, pi0), state_conditionals(m, pi1)
        num, den = (Chebyshev(c, domain=[0, 1]) for c in _line_form(m, tau0, tau1))
        for x in cert.witness_grid:
            direct = np.sum(m.reward * eta_for_tau(m, tau0 + x * (tau1 - tau0)))
            assert num(x) / den(x) == pytest.approx(direct, rel=0, abs=1e-9)
        # the public line, evaluated on a whole array, against one batched solve
        scale = max(1.0, float(np.max(np.abs(m.reward))))
        line = reward_curve_on_line(m, pi0, pi1)
        xs = np.linspace(0.0, 1.0, 33)
        direct = batch_rewards(m, rational._segment(tau0, tau1, xs))
        assert np.max(np.abs(line(xs) - direct)) <= 1e-12 * scale
        # g = N'D - ND' loses its leading term: degree at most 2k - 2
        g, den = (Chebyshev(c, domain=[0, 1]) for c in (line.slope_numerator(), line.den))
        assert g.degree() <= max(0, 2 * den.degree() - 2)
        # R' = g / D^2 against central differences of direct solves
        inner, h = np.linspace(0.05, 0.95, 7), 1e-5
        lo, hi = (batch_rewards(m, rational._segment(tau0, tau1, inner + d)) for d in (-h, h))
        central = (hi - lo) / (2 * h)
        assert np.max(np.abs(g(inner) / den(inner) ** 2 - central)) <= 1e-8 * scale


def test_line_degree_certificate_fails_when_direct_solves_disagree(monkeypatch):
    # frequencies off by 1e-5 of themselves put the exact line ~1e-6 away from the
    # solves, above the 1e-7 tolerance: a certificate that always passed would not see it
    m = fixtures.three_state_model()
    pi0 = Policy.uniform(m.n_observations, m.n_actions)
    pi1 = Policy.deterministic([0] * m.n_observations, m.n_actions)
    assert line_degree_certificate(m, pi0, pi1).fitted_degree == 3
    solve = rational.certified_etas
    monkeypatch.setattr(rational, "certified_etas",
                        lambda *args: solve(*args) * (1.0 + 1e-5))
    with pytest.raises(DegreeFitError, match="misses direct solves by 1.3.*e-06 > 1.3.*e-07"):
        line_degree_certificate(m, pi0, pi1)


def test_fitting_a_reward_line_solves_nothing(monkeypatch):
    # vary only o2 in the two-state model: a degree-1 line
    m = fixtures.two_state_model()
    pi0 = Policy("observation", np.array([[1.0, 0.0], [1.0, 0.0]]))
    pi1 = Policy("observation", np.array([[1.0, 0.0], [0.0, 1.0]]))
    line = reward_curve_on_line(m, pi0, pi1)
    solves, solve = [], rational.batch_rewards
    monkeypatch.setattr(rational, "batch_rewards", lambda *args: solves.append(args) or solve(*args))
    curve = fit_rational_curve(line, 3)
    assert solves == []
    assert len(curve.num) - 1 == 1


def test_line_degree_certificate_rejects_multichain_gamma_one():
    # states {0, 1} and {2, 3} are closed classes: no unique stationary law
    rng = np.random.default_rng(31)
    m = fixtures.random_model(rng, 4, 2, 2, 1.0)
    alpha = np.zeros((4, 2, 4))
    alpha[:2, :, :2] = rng.dirichlet(np.ones(2), size=(2, 2))
    alpha[2:, :, 2:] = rng.dirichlet(np.ones(2), size=(2, 2))
    m = m.replace(alpha=alpha)
    pi0 = Policy("observation", rng.dirichlet(np.ones(2), size=2))
    pi1 = Policy("observation", rng.dirichlet(np.ones(2), size=2))
    with pytest.raises(ErgodicityError, match="not unique"):
        line_degree_certificate(m, pi0, pi1)


def test_reward_curve_full_line_fits_within_state_count():
    m = fixtures.three_state_model()
    rng = np.random.default_rng(2)
    pi0 = Policy("observation", rng.dirichlet(np.ones(2), size=3))
    pi1 = Policy("observation", rng.dirichlet(np.ones(2), size=3))
    tau0, tau1 = state_conditionals(m, pi0), state_conditionals(m, pi1)

    def direct(xs):
        return batch_rewards(m, rational._segment(tau0, tau1, xs))

    curve = fit_rational_curve(direct, max_degree=m.n_states)
    xs = np.linspace(0, 1, 33)
    assert np.max(np.abs(curve(xs) - direct(xs))) < 1e-6


def test_reward_line_refuses_a_multichain_endpoint_at_gamma_one():
    # action a1 keeps the state, a2 mixes both: the a1 vertex has two closed classes,
    # every interior point of the line to the a2 vertex is unichain
    alpha = np.zeros((2, 2, 2))
    alpha[:, 0] = np.eye(2)
    alpha[:, 1] = 0.5
    m = fixtures.two_state_model().replace(alpha=alpha, gamma=1.0)
    pi0, pi1 = (Policy.deterministic([a, a], 2, "state") for a in (0, 1))
    line = reward_curve_on_line(m, pi0, pi1)
    with pytest.raises(ErgodicityError, match="not unique"):
        batch_rewards(m, pi0.matrix[None])
    for ends in (0.0, np.array([0.0, 0.5])):
        with pytest.raises(ErgodicityError, match="not unique"):
            line(ends)
    xs = np.linspace(0.01, 1.0, 9)
    assert_allclose(line(xs), batch_rewards(m, rational._segment(pi0.matrix, pi1.matrix, xs)),
                    rtol=0, atol=1e-12)


def _same_bits(a, b) -> bool:
    """One dtype, one shape and the same bits, where any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    return np.where(np.isnan(a), 0.0, a).tobytes() == np.where(np.isnan(b), 0.0, b).tobytes()


def _edge_lines():
    """Reward lines the float algebra must read as numpy does: random series of S + 1
    coefficients (S = 1-8), the lines of random blind models, then degree 0 and 1,
    trailing zeros, signed zeros, a constant N and a zero N (g is all zeros), NaN and
    infinite coefficients, also beside a constant D, where g keeps finite coefficients."""
    rng = np.random.default_rng(101)
    for s in range(1, 9):
        for _ in range(12):
            yield rational.RewardLine(*rng.normal(size=(2, s + 1)) * 10.0 ** rng.integers(-3, 4))
        m = fixtures.random_model(rng, s, 1, 2, float(rng.uniform(0.3, 0.999)))
        yield _line_form(m, *(np.full((s, 2), [p, 1.0 - p]) for p in (0.0, 1.0)))
    yield rational.RewardLine(np.array([2.5]), np.array([-1.5]))
    yield rational.RewardLine(np.array([0.5, -2.0]), np.array([1.0, 0.25]))
    yield rational.RewardLine(np.array([1.0, 2.0, 0.0, 0.0]), np.array([3.0, 1.0, -0.0, 0.0]))
    yield rational.RewardLine(np.array([1.0, 2.0, 3.0, 1e-30]), np.array([3.0, 1.0, 0.5, 0.0]))
    yield rational.RewardLine(np.array([-0.0, 0.0, -0.0]), np.array([-2.0, 1.0, 0.5]))
    yield rational.RewardLine(np.array([1.0, -0.0, 2.0]), np.array([3.0, -0.0, -0.5]))
    yield rational.RewardLine(np.array([2.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0]))
    yield rational.RewardLine(np.zeros(4), np.array([3.0, 1.0, 0.5, 0.25]))
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(4):
            num = np.array([1.0, -2.0, 0.5, 0.25])
            num[i] = bad
            for den in ([3.0, 1.0, 0.5, 0.125], [2.0, 0.0, 0.0, 0.0]):
                yield rational.RewardLine(num, np.array(den))
                yield rational.RewardLine(np.array(den), num)


def _numpy_slope_numerator(line):
    dnum, dden = chebyshev.chebder(np.stack(line, axis=1), 1, 2.0).T
    g = chebyshev.chebsub(chebyshev.chebmul(dnum, line.den), chebyshev.chebmul(line.num, dden))
    return chebyshev.chebtrim(g, rational.TRIM_TOL * float(np.max(np.abs(g))))


def _numpy_unit_roots(g):
    candidates = 0.5 + 0.5 * chebyshev.chebroots(g)
    x = candidates[np.isreal(candidates)].real
    return x[(x > 0.0) & (x < 1.0)]


def test_reward_line_float_algebra_is_numpy_polynomial_bit_for_bit():
    xs = [-1.0, 1.0, -0.0, 0.25, -0.7, 3.5]
    n_complex = 0
    with np.errstate(all="ignore"):
        for line in _edge_lines():
            g = line.slope_numerator()
            assert _same_bits(g, _numpy_slope_numerator(line)), line
            series = [g.tolist(), line.num.tolist(), line.den.tolist()]
            for c in series + [rational._cheb_der(c, 2.0) for c in series]:
                assert _same_bits(rational._cheb_der(c, 2.0), chebyshev.chebder(c, 1, 2.0))
                assert _same_bits([rational._cheb_val(x, c) for x in xs],
                                  chebyshev.chebval(np.array(xs), c)), c
                try:
                    expected = chebyshev.chebroots(c)
                except np.linalg.LinAlgError:
                    # eigvals refuses a colleague matrix that is not finite
                    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
                        rational._cheb_roots(c)
                    continue
                roots = rational._cheb_roots(c)
                assert _same_bits(roots, expected), c
                assert _same_bits(rational._unit_roots(c), _numpy_unit_roots(c)), c
                n_complex += roots.dtype.kind == "c"
            # an all-zero g, as from N = 0, has no roots
            if not np.any(line.num):
                assert g.tolist() == [0.0] and rational._unit_roots(g.tolist()) == []
    assert n_complex >= 20


def test_reward_line_end_slopes_are_numpy_division_where_d_vanishes():
    # R' = g / D^2 at lam = 0 and 1; D = 1 + T1 is zero at lam = 0, where numpy's
    # division (with its warning) answers an infinity or a NaN, not ZeroDivisionError
    for g, den in (([2.0, -1.0, 0.5], [1.0, 1.0]), ([1.0, 1.0], [1.0, 1.0, 0.0]),
                   ([0.5, -0.5], [-1.0, 1.0]), ([3.0, 1.0, 0.25], [2.0, 0.5, 0.125])):
        with np.errstate(all="ignore"):
            ends = chebyshev.chebval(np.array([-1.0, 1.0]), g)
            expected = ends / chebyshev.chebval(np.array([-1.0, 1.0]), den) ** 2
        if np.all(np.isfinite(expected)):
            slopes = rational._end_slopes(g, den)
        else:
            with pytest.warns(RuntimeWarning, match="encountered in divide"):
                slopes = rational._end_slopes(g, den)
        assert _same_bits(np.array(slopes), expected), (g, den)


# --------------------------------------------------------------------------
# one-state lines: closed-form interpolation speed


def one_state_line_pair(model, rng, state):
    base = rng.dirichlet(np.ones(model.n_actions), size=model.n_states)
    other = base.copy()
    other[state] = rng.dirichlet(np.ones(model.n_actions))
    return Policy("state", base), Policy("state", other)


def test_interpolation_speed_matches_direct_solves():
    m = fixtures.three_state_model()
    rng = np.random.default_rng(9)
    for trial in range(5):
        s_hat = int(rng.integers(0, 3))
        pi0, pi1 = one_state_line_pair(m, rng, s_hat)
        eta0 = eta_for_tau(m, pi0.matrix)
        eta1 = eta_for_tau(m, pi1.matrix)
        for lam in np.linspace(0, 1, 11):
            c = interpolation_speed(m, pi0, pi1, lam)
            tau = (1 - lam) * pi0.matrix + lam * pi1.matrix
            direct = eta_for_tau(m, tau)
            assert_allclose(eta0 + c * (eta1 - eta0), direct, atol=1e-9)


def test_interpolation_speed_equals_marginal_ratio():
    # c(lam) = lam * rho_lam(s_hat) / rho_1(s_hat) whenever rho_1(s_hat) > 0
    m = fixtures.three_state_model()
    rng = np.random.default_rng(13)
    s_hat = 1
    pi0, pi1 = one_state_line_pair(m, rng, s_hat)
    rho1 = eta_for_tau(m, pi1.matrix).sum(axis=1)
    for lam in (0.25, 0.5, 0.8):
        tau = (1 - lam) * pi0.matrix + lam * pi1.matrix
        rho_lam = eta_for_tau(m, tau).sum(axis=1)
        c = interpolation_speed(m, pi0, pi1, lam)
        assert c == pytest.approx(lam * rho_lam[s_hat] / rho1[s_hat], abs=1e-10)


def test_interpolation_speed_monotone_and_shape():
    # c is strictly increasing; it is convex, concave or linear on [0, 1]
    # depending on the determinant ratio, so its second differences have a
    # constant sign
    m = fixtures.three_state_model()
    rng = np.random.default_rng(21)
    grid = np.linspace(0, 1, 101)
    for trial in range(5):
        pi0, pi1 = one_state_line_pair(m, rng, int(rng.integers(0, 3)))
        c = np.array([interpolation_speed(m, pi0, pi1, x) for x in grid])
        assert c[0] == pytest.approx(0.0, abs=1e-12)
        assert c[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(c) > 0)
        second = np.diff(c, 2)
        assert np.all(second >= -1e-9) or np.all(second <= 1e-9)


def test_interpolation_speed_at_gamma_one():
    # det(I - p) = 0 at gamma = 1; the line form's denominator stays exact
    rng = np.random.default_rng(17)
    for _ in range(20):
        ns = int(rng.integers(2, 6))
        na = int(rng.integers(2, 4))
        m = fixtures.random_model(rng, ns, int(rng.integers(1, 4)), na, 1.0)
        pi0, pi1 = one_state_line_pair(m, rng, int(rng.integers(0, ns)))
        eta0 = eta_for_tau(m, pi0.matrix)
        eta1 = eta_for_tau(m, pi1.matrix)
        for lam in np.linspace(0, 1, 11):
            c = interpolation_speed(m, pi0, pi1, lam)
            tau = (1 - lam) * pi0.matrix + lam * pi1.matrix
            assert_allclose(eta0 + c * (eta1 - eta0), eta_for_tau(m, tau), rtol=0, atol=1e-12)


def test_interpolation_speed_rejects_two_state_changes():
    m = fixtures.three_state_model()
    pi0 = Policy("state", np.array([[1.0, 0.0]] * 3))
    pi1 = Policy("state", np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="differ on 2 states"):
        interpolation_speed(m, pi0, pi1, 0.5)


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_interpolation_speed_refuses_where_the_line_is_not_unichain(lam):
    # a1 stays, a2 switches: at lam = 1 both states are absorbing, D(1) = 0
    m = parse_graph_model("gamma: 1\nbeta: identity\n"
                          "s1 a1 -> s1\ns1 a2 -> s2\ns2 a1 -> s2\ns2 a2 -> s1\n")
    pi0 = Policy("state", np.array([[0.0, 1.0], [1.0, 0.0]]))
    pi1 = Policy("state", np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ErgodicityError, match="not unique"):
        interpolation_speed(m, pi0, pi1, lam)


def test_one_state_line_values_are_collinear():
    # V along a one-state line is an affine function of c: check collinearity
    m = fixtures.three_state_model()
    rng = np.random.default_rng(31)
    pi0, pi1 = one_state_line_pair(m, rng, 2)
    r0 = reward_of(m, pi0)
    r1 = reward_of(m, pi1)
    for lam in (0.2, 0.7):
        c = interpolation_speed(m, pi0, pi1, lam)
        tau = (1 - lam) * pi0.matrix + lam * pi1.matrix
        r_lam = float(np.sum(m.reward * eta_for_tau(m, tau)))
        assert r_lam == pytest.approx(r0 + c * (r1 - r0), abs=1e-10)


# --------------------------------------------------------------------------
# vertex improvement


def test_vertex_improvement_two_state():
    m = fixtures.two_state_model()
    pi = Policy("observation", np.array([[1.0, 0.0], [0.5, 0.5]]))
    improved = vertex_improvement(m, pi, "o2")
    assert reward_of(m, improved) >= reward_of(m, pi) - 1e-12
    assert set(np.unique(improved.matrix[1])) <= {0.0, 1.0}
    # o1 is compatible with both states -> refused
    with pytest.raises(ValueError, match="compatible with 2"):
        vertex_improvement(m, pi, "o1")


def test_vertex_improvement_at_mean_reward():
    # at gamma = 1 every policy of the two-state model is unichain, and the
    # reward is still of degree <= 1 in the row of o2, seen only from s2
    m = fixtures.two_state_model().replace(gamma=1.0)
    pi = Policy("observation", np.array([[0.3, 0.7], [0.4, 0.6]]))
    improved = vertex_improvement(m, pi, "o2")
    vertices = [reward_of(m, Policy("observation", np.array([[0.3, 0.7], row])))
                for row in np.eye(2)]
    assert reward_of(m, improved) == max(vertices)
    assert max(vertices) >= reward_of(m, pi)


@pytest.mark.parametrize("bad", [-1, 2, np.int64(-2)])
def test_observation_indices_must_be_in_range(bad):
    m = fixtures.two_state_model()
    with pytest.raises(InputError, match="unknown observation index"):
        degree_bound(m, [bad])
    with pytest.raises(InputError, match="unknown observation index"):
        vertex_improvement(m, Policy.uniform(2, 2), bad)


def test_vertex_improvement_reaches_deterministic_optimum_on_mdp():
    # fully observable: improving state rows one at a time in sweeps must
    # reach the best deterministic policy for small models with positive mu
    rng = np.random.default_rng(17)
    m = fixtures.random_mdp(rng, 3, 2, 0.8)
    pi = Policy.uniform(3, 2)
    for _ in range(6):
        for o in range(3):
            pi = vertex_improvement(m, pi, o)
    _, best = best_deterministic(m, kind="state")
    assert reward_of(m, pi) == pytest.approx(best, abs=1e-9)


def test_vertex_improvement_tie_takes_lowest_action():
    # reward identical for both actions -> stays with a1
    m = fixtures.two_state_model()
    m = m.replace(reward=np.zeros((2, 2)))
    pi = Policy.uniform(2, 2)
    improved = vertex_improvement(m, pi, "o2")
    assert_allclose(improved.matrix[1], [1.0, 0.0])


def _tied(model):
    """Action a2 copies a1, so every candidate ties with its a1 <-> a2 swaps."""
    alpha, reward = model.alpha.copy(), model.reward.copy()
    alpha[:, 1], reward[:, 1] = alpha[:, 0], reward[:, 0]
    return model.replace(alpha=alpha, reward=reward)


def _scored_models():
    rng = np.random.default_rng(31)
    partial = fixtures.random_model(rng, 4, 3, 3, 0.8, deterministic_beta=True)
    mdp = fixtures.random_mdp(rng, 3, 3, 0.9)
    return [fixtures.two_state_model(), fixtures.three_state_model(), partial, mdp,
            _tied(partial), _tied(mdp), mdp.replace(gamma=1.0),
            mdp.replace(reward=np.zeros((3, 3)))]


def _first_best(candidates, model):
    """The first candidate policy within 1e-12 of the best, one reward_of per
    Policy: the loop that best_deterministic and vertex_improvement replaced,
    with ties (which that loop broke by rounding noise) going to the first."""
    rewards = [reward_of(model, pi) for pi in candidates]
    best = max(rewards)
    return next(pi for pi, r in zip(candidates, rewards) if r >= best - 1e-12), best


@pytest.mark.parametrize("block_entries", [None, 5])
def test_best_deterministic_matches_the_policy_loop(monkeypatch, block_entries):
    # with 5 entries per block every candidate is its own block
    if block_entries is not None:
        monkeypatch.setattr(rational, "BLOCK_ENTRIES", block_entries)
    for m in _scored_models():
        for kind in ("state", "observation"):
            n_rows = m.n_states if kind == "state" else m.n_observations
            candidates = list(deterministic_policies(n_rows, m.n_actions, kind))
            want_pi, want_r = _first_best(candidates, m)
            got_pi, got_r = best_deterministic(m, kind=kind)
            assert got_pi.kind == kind
            assert np.array_equal(got_pi.matrix, want_pi.matrix)
            assert got_r == pytest.approx(want_r, abs=1e-12)


def test_vertex_improvement_matches_the_policy_loop():
    rng = np.random.default_rng(37)
    for m in _scored_models():
        # observations seen from at most one state
        for o in np.flatnonzero(np.sum(m.beta > 0.0, axis=0) <= 1):
            pi = Policy("observation", rng.dirichlet(np.ones(m.n_actions), size=m.n_observations))
            vertices = []
            for row in np.eye(m.n_actions):
                matrix = pi.matrix.copy()
                matrix[o] = row
                vertices.append(Policy("observation", matrix))
            want, _ = _first_best(vertices, m)
            assert np.array_equal(vertex_improvement(m, pi, int(o)).matrix, want.matrix)


def _flat_row_mdp(rng, scale):
    """A random 4 x 4 x 3 MDP whose state s1 ignores the action: every vertex of
    its row earns exactly the reward of any mixture, up to rounding."""
    m = fixtures.random_mdp(rng, 4, 3, 0.9)
    alpha, reward = m.alpha.copy(), m.reward.copy()
    alpha[0] = alpha[0, 0]
    reward[0] = reward[0, 0]
    return m.replace(alpha=alpha, reward=scale * reward)


def test_vertex_improvement_on_a_flat_row_at_large_reward_scale():
    # rounding in rewards near 1e5 exceeds an absolute 1e-12 margin
    for seed in range(300):
        rng = np.random.default_rng(seed)
        m = _flat_row_mdp(rng, 1e5)
        pi = Policy("observation", rng.dirichlet(np.ones(3), size=4))
        improved = vertex_improvement(m, pi, "s1")
        assert np.array_equal(improved.matrix[1:], pi.matrix[1:])
        assert sorted(improved.matrix[0]) == [0.0, 0.0, 1.0]


def test_vertex_improvement_raises_arithmetic_error_when_the_interior_wins(monkeypatch):
    m = _flat_row_mdp(np.random.default_rng(0), 1.0)
    # rewards of the three vertices, then of pi: pi beats every vertex
    monkeypatch.setattr(rational, "batch_rewards", lambda model, taus: np.array([0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ArithmeticError, match="no vertex beats the interior point"):
        vertex_improvement(m, Policy.uniform(4, 3), "s1")


# --------------------------------------------------------------------------
# improvement paths


def path_rewards(path):
    return np.array([r for _, r in path])


def test_improvement_path_is_monotone_and_reaches_optimum():
    rng = np.random.default_rng(23)
    m = fixtures.random_mdp(rng, 3, 2, 0.7)
    pi = Policy("state", rng.dirichlet(np.ones(2), size=3))
    path = improvement_path(m, pi, steps=60)
    assert len(path) == 60
    rewards = path_rewards(path)
    assert np.all(np.diff(rewards) >= -1e-10)
    _, best = best_deterministic(m, kind="state")
    assert rewards[-1] == pytest.approx(best, abs=1e-10)
    assert rewards[0] == pytest.approx(reward_of(m, pi), abs=1e-12)


def test_improvement_path_stage_two_is_linear():
    rng = np.random.default_rng(29)
    m = fixtures.random_mdp(rng, 2, 3, 0.6)
    pi = Policy("state", rng.dirichlet(np.ones(3), size=2))
    steps = 40
    path = improvement_path(m, pi, steps=steps)
    rewards = path_rewards(path)
    stage1 = max(1, steps // 4)
    tail = rewards[stage1:]
    ts = np.linspace(0, 1, len(tail))
    # linear in the stage-two parameter
    assert_allclose(tail, tail[0] + (tail[-1] - tail[0]) * ts, atol=1e-9)
    # stage one leaves the reward unchanged
    assert_allclose(rewards[:stage1], rewards[0], atol=1e-9)


def test_improvement_path_rewards_are_the_rewards_of_its_policies():
    rng = np.random.default_rng(31)
    for ns, na, steps in ((3, 2, 60), (2, 3, 9), (4, 3, 2)):
        m = fixtures.random_mdp(rng, ns, na, 0.7)
        pi = Policy("state", rng.dirichlet(np.ones(na), size=ns))
        for policy, reward in improvement_path(m, pi, steps=steps):
            assert abs(reward - reward_of(m, policy)) <= 1e-12


def test_improvement_path_requires_identity_beta_and_positivity():
    m = fixtures.two_state_model()  # beta is not the identity
    with pytest.raises(ValueError, match="identity"):
        improvement_path(m, Policy.uniform(2, 2), steps=10)
    rng = np.random.default_rng(1)
    m = fixtures.random_mdp(rng, 2, 2, 0.5)
    # mu concentrated on s1 plus a kernel with a zero entry: neither
    # positivity route applies
    blocked = np.zeros((2, 2, 2))
    blocked[:, 0, 0] = 1.0
    blocked[:, 1, 1] = 1.0
    m = m.replace(mu=np.array([1.0, 0.0]), alpha=blocked)
    with pytest.raises(ValueError, match="visit"):
        improvement_path(m, Policy.uniform(2, 2), steps=10)


def test_improvement_path_and_face_lattice_share_the_visit_rule():
    m = fixtures.random_mdp(np.random.default_rng(5), 2, 2, 0.5)
    blocked = m.alpha.copy()
    blocked[1, 1] = [0.0, 1.0]  # a zero in alpha
    pi = Policy.uniform(2, 2)
    for mu, alpha, visits in (([1.0, 0.0], blocked, False), ([1.0, 0.0], m.alpha, True),
                              ([0.5, 0.5], blocked, True)):
        m2 = m.replace(mu=np.array(mu), alpha=alpha)
        if visits:
            assert len(improvement_path(m2, pi, steps=4)) == 4
            assert face_lattice(m2).certified
            continue
        for call in (lambda: improvement_path(m2, pi, steps=4), lambda: face_lattice(m2)):
            with pytest.raises(ValueError, match="requires every policy to visit every state: "
                               "need gamma < 1 with positive mu, or a positive transition kernel"):
                call()


@pytest.mark.parametrize("entries_per_item, sizes", [(3, [2, 2, 2, 1]), (7, [1] * 7), (8, [1] * 7)])
def test_blocks_hold_at_most_block_entries_and_at_least_one_item(
        monkeypatch, entries_per_item, sizes):
    monkeypatch.setattr(rational, "BLOCK_ENTRIES", 7)
    blocks = list(rational._blocks(iter(range(7)), entries_per_item))
    assert [len(b) for b in blocks] == sizes
    assert sum(blocks, []) == list(range(7))


def test_edge_blocks_sweep_every_edge_with_exact_entries():
    ts = np.linspace(0.0, 1.0, 6)
    for n_rows, na in ((1, 2), (2, 3), (3, 2)):
        mats = np.concatenate([m for _, m in rational._edge_blocks(n_rows, na, ts)])
        n_edges = rational._edge_count(n_rows, na)
        assert mats.shape == (n_edges * len(ts), n_rows, na)
        edges = mats.reshape(n_edges, len(ts), n_rows, na)
        moving = np.any(edges[:, 0] != edges[:, -1], axis=-1)  # (edges, rows)
        assert np.all(moving.sum(axis=1) == 1)
        for edge, row in zip(edges, moving):
            ends = edge[[0, -1]][:, row][:, 0]  # the free row at t = 0 and t = 1
            a, b = np.argmax(ends, axis=1)
            assert a < b and np.array_equal(ends, np.eye(na)[[a, b]])
            free = edge[:, row][:, 0]  # (points, actions)
            assert np.array_equal(free[:, a], 1.0 - ts) and np.array_equal(free[:, b], ts)
            assert np.all(np.delete(free, [a, b], axis=1) == 0.0)
            assert np.all(np.isin(edge[:, ~row], (0.0, 1.0)))
            assert np.all(edge[:, ~row] == edge[0, ~row])
        # every edge once: distinct (free row, a, b, other rows) recipes
        assert len({edge[[0, -1]].tobytes() for edge in edges}) == n_edges


def test_deterministic_policy_enumeration():
    pols = list(deterministic_policies(2, 3))
    assert len(pols) == 9
    assert_allclose(pols[0].matrix, [[1, 0, 0], [1, 0, 0]])
    assert_allclose(pols[-1].matrix, [[0, 0, 1], [0, 0, 1]])
