"""Acceptance gate: fifteen checks covering the full analysis pipeline.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` and in
failure reports).  Check 09 compares the critical points of the bundled
blind three-state model with a reference table computed in exact rational
arithmetic (the same table is rederived with sympy in
``test_critical.py``); its failure message tabulates the observed counts.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from pomdp_geometry import fixtures
from pomdp_geometry.critical import (
    BoundInput,
    blind_critical_points,
    critical_point_bound,
    polar_degree_rank_one,
)
from pomdp_geometry.freq import (
    batch_eta,
    batch_rewards,
    conditioning_inverse,
    eta_for_tau,
    fixed_point_residual,
    policy_gradient,
    reward_of,
    state_action_frequency,
    truncated_series_oracle,
)
from pomdp_geometry.geometry import face_lattice, model_constraint_polynomials
from pomdp_geometry.model import Policy, state_conditionals
from pomdp_geometry.rational import (
    best_deterministic,
    degree_bound,
    improvement_path,
    interpolation_speed,
    line_degree_certificate,
)

MAX = "strict local max"
MIN = "strict local min"


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {description}")
                raise
            print(f"[PASS] criterion {num:02d}: {description}")

        return wrapper

    return decorate


def random_observation_policy(rng, model):
    return Policy(
        "observation",
        rng.dirichlet(np.ones(model.n_actions), size=model.n_observations),
    )


def interior_policy(rng, model):
    """Random policy with entries bounded away from the simplex boundary."""
    raw = rng.dirichlet(np.ones(model.n_actions), size=model.n_observations)
    matrix = 0.8 * raw + 0.2 / model.n_actions
    return Policy("observation", matrix)


# --------------------------------------------------------------------------


@criterion(1, "closed-form frequencies match the truncated series oracle")
def test_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(100):
        ns = int(rng.integers(2, 5))
        no = int(rng.integers(1, 5))
        na = int(rng.integers(2, 5))
        gamma = 0.3 if trial % 2 == 0 else 0.9
        model = fixtures.random_model(rng, ns, no, na, gamma)
        pi = random_observation_policy(rng, model)
        exact = state_action_frequency(model, pi)
        series = truncated_series_oracle(model, pi, tol=1e-12)
        assert np.max(np.abs(exact.eta - series.eta)) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s"


@criterion(2, "every solver output satisfies the fixed-point equation to 1e-10")
def test_02_stationarity_residual():
    rng = np.random.default_rng(202)
    for _ in range(60):
        ns = int(rng.integers(2, 5))
        no = int(rng.integers(1, 5))
        na = int(rng.integers(2, 5))
        gamma = float(rng.choice([0.3, 0.5, 0.9, 0.99]))
        model = fixtures.random_model(rng, ns, no, na, gamma)
        pi = random_observation_policy(rng, model)
        freq = state_action_frequency(model, pi)
        tau = state_conditionals(model, pi)
        assert fixed_point_residual(model, tau, freq.eta) <= 1e-10
    # mean-reward case: positive kernels are ergodic under any policy
    for _ in range(10):
        model = fixtures.random_model(rng, 3, 2, 2, 1.0)
        pi = random_observation_policy(rng, model)
        freq = state_action_frequency(model, pi)
        tau = state_conditionals(model, pi)
        assert fixed_point_residual(model, tau, freq.eta) <= 1e-10


@criterion(3, "policies are recovered from frequencies by conditioning")
def test_03_conditioning_round_trip():
    rng = np.random.default_rng(303)
    for _ in range(100):
        ns = int(rng.integers(2, 5))
        na = int(rng.integers(2, 5))
        gamma = float(rng.choice([0.5, 0.9]))
        model = fixtures.random_model(
            rng, ns, int(rng.integers(1, 4)), na, gamma, positive_mu=True
        )
        tau = Policy("state", rng.dirichlet(np.ones(na), size=ns))
        freq = state_action_frequency(model, tau)
        recovered, flagged = conditioning_inverse(model, freq)
        for s in range(ns):
            if freq.rho[s] > 1e-6:
                assert s not in flagged
                assert np.max(np.abs(recovered.matrix[s] - tau.matrix[s])) <= 1e-9


@criterion(4, "fitted rational degrees respect the observability bound")
def test_04_degree_bounds():
    rng = np.random.default_rng(404)
    for trial in range(50):
        ns = int(rng.integers(2, 4))
        no = int(rng.integers(2, ns + 1))
        model = fixtures.random_model(
            rng, ns, no, 2, 0.6, deterministic_beta=bool(trial % 2)
        )
        n_vary = int(rng.integers(1, no + 1))
        varying = sorted(rng.choice(no, size=n_vary, replace=False).tolist())
        base = rng.dirichlet(np.ones(2), size=no)
        other = base.copy()
        for o in varying:
            other[o] = rng.dirichlet(np.ones(2))
        pi0 = Policy("observation", base)
        pi1 = Policy("observation", other)
        cert = line_degree_certificate(model, pi0, pi1)
        assert cert.fitted_degree <= cert.bound
    # fully observable one-state lines are degree <= 1 in the mixture weight
    for _ in range(10):
        model = fixtures.random_mdp(rng, 3, 2, 0.7)
        base = rng.dirichlet(np.ones(2), size=3)
        other = base.copy()
        other[int(rng.integers(0, 3))] = rng.dirichlet(np.ones(2))
        # the exact line, checked against direct solves at its k + 2 witness points
        cert = line_degree_certificate(
            model, Policy("observation", base), Policy("observation", other))
        assert cert.fitted_degree <= cert.bound == 1


@criterion(5, "one-state lines interpolate frequencies with a monotone speed")
def test_05_one_state_line_interpolation():
    rng = np.random.default_rng(505)
    lam_grid = np.linspace(0.0, 1.0, 11)
    mono_grid = np.linspace(0.0, 1.0, 101)
    for _ in range(50):
        ns = int(rng.integers(2, 5))
        na = int(rng.integers(2, 4))
        model = fixtures.random_model(rng, ns, int(rng.integers(1, 4)), na, 0.8)
        base = rng.dirichlet(np.ones(na), size=ns)
        other = base.copy()
        other[int(rng.integers(0, ns))] = rng.dirichlet(np.ones(na))
        pi0, pi1 = Policy("state", base), Policy("state", other)
        eta0 = eta_for_tau(model, pi0.matrix)
        eta1 = eta_for_tau(model, pi1.matrix)
        for lam in lam_grid:
            c = interpolation_speed(model, pi0, pi1, lam)
            tau = (1 - lam) * pi0.matrix + lam * pi1.matrix
            assert np.max(
                np.abs(eta0 + c * (eta1 - eta0) - eta_for_tau(model, tau))
            ) <= 1e-9
        speeds = np.array(
            [interpolation_speed(model, pi0, pi1, x) for x in mono_grid]
        )
        assert np.all(np.diff(speeds) > 0)


@criterion(6, "constraint polynomials are nonnegative on frequencies and "
              "vanish exactly on pinned entries")
def test_06_constraint_soundness():
    rng = np.random.default_rng(606)
    models = [fixtures.two_state_model(), fixtures.three_state_model()]
    for _ in range(3):
        mu = 0.5 * rng.dirichlet(np.ones(3)) + 0.5 / 3
        m = fixtures.random_model(rng, 3, 3, 2, 0.8)
        models.append(m.replace(mu=mu))
    for model in models:
        polys = model_constraint_polynomials(model)
        pis = rng.dirichlet(
            np.ones(model.n_actions), size=(1000, model.n_observations)
        )
        taus = np.einsum("so,noa->nsa", model.beta, pis)
        etas = batch_eta(model, taus)
        for p in polys:
            assert float(np.min(p.evaluate(etas))) >= -1e-10
        # active-set equivalence on randomly pinned faces
        for _ in range(20):
            pi = _face_policy(rng, model)
            freq = state_action_frequency(model, pi)
            for p in polys:
                o = model.observation_index(p.observation)
                a = model.action_index(p.action)
                value = float(p.evaluate(freq.eta))
                if pi.matrix[o, a] == 0.0:
                    assert abs(value) <= 1e-8
                else:
                    assert value > 1e-8


def _face_policy(rng, model):
    matrix = np.zeros((model.n_observations, model.n_actions))
    for o in range(model.n_observations):
        size = int(rng.integers(1, model.n_actions + 1))
        support = rng.choice(model.n_actions, size=size, replace=False)
        raw = rng.dirichlet(np.ones(size))
        matrix[o, support] = 0.8 * raw + 0.2 / size
    return Policy("observation", matrix)


@criterion(7, "blind-controller frequencies are rank one")
def test_07_blind_minors():
    rng = np.random.default_rng(707)
    for _ in range(100):
        ns = int(rng.integers(2, 5))
        na = int(rng.integers(2, 4))
        model = fixtures.random_model(rng, ns, 1, na, 0.85)
        pi = random_observation_policy(rng, model)
        eta = state_action_frequency(model, pi).eta
        for (s1, s2) in itertools.combinations(range(ns), 2):
            for (a1, a2) in itertools.combinations(range(na), 2):
                minor = eta[s1, a1] * eta[s2, a2] - eta[s1, a2] * eta[s2, a1]
                assert abs(minor) <= 1e-12


@criterion(8, "face lattice counts match the square and cube references")
def test_08_face_lattice_fixtures():
    square = face_lattice(fixtures.two_state_model(), samples=2, seed=8)
    assert square.f_vector == (4, 4, 1)
    cube = face_lattice(fixtures.three_state_model(), samples=2, seed=8)
    assert cube.f_vector == (8, 12, 6, 1)


# Exact reference for check 09: interior critical counts of the s1/s2/s3
# Dirac starts and the endpoint classes (p = 0, p = 1) of the middle start.
# Taken from the real roots in (0, 1) of the numerator of R'(p), with
# R(p) = (1 - gamma) [(I - gamma P_p)^-1 r_p]_i in exact rational arithmetic,
# and from the signs of R' at the ends.  Between gamma = 0.7 and 0.9 the
# middle start gains an interior minimum and a second, non-smooth local
# maximum at the vertex p = 1.
BLIND_LANDSCAPE = {
    0.5: ((1, 0, 1), (MAX, MIN)),
    0.7: ((1, 0, 1), (MAX, MIN)),
    0.9: ((1, 1, 1), (MAX, MAX)),
    0.95: ((1, 1, 1), (MAX, MAX)),
    0.99: ((1, 1, 1), (MAX, MAX)),
}


@criterion(9, "blind three-state landscape matches the exact critical-point "
              "table at every listed discount")
def test_09_blind_landscape_reproduction():
    start = time.monotonic()
    observed = {}
    for gamma in BLIND_LANDSCAPE:
        counts = []
        middle_boundary = None
        for i in range(3):
            mu = np.zeros(3)
            mu[i] = 1.0
            model = fixtures.blind_three_state_model(mu=mu, gamma=gamma)
            cs = blind_critical_points(model, grid=10_000)
            grid_count = _grid_extrema_count(model)
            assert cs.n_interior == grid_count, (
                f"root finder ({cs.n_interior}) and grid scan ({grid_count}) "
                f"disagree at gamma={gamma}, start s{i + 1}"
            )
            counts.append(cs.n_interior)
            if i == 1:
                middle_boundary = (cs.boundary[0.0], cs.boundary[1.0])
        observed[gamma] = (tuple(counts), middle_boundary)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"landscape reproduction took {elapsed:.2f}s"
    if observed != BLIND_LANDSCAPE:
        table = "; ".join(
            f"gamma={g}: counts={c}, middle-start endpoints={b}"
            for g, (c, b) in observed.items()
        )
        pytest.fail(
            "the blind three-state landscape differs from the exact "
            f"reference table ({table})"
        )


def _grid_extrema_count(model, grid=10_000):
    ps = np.linspace(0.0, 1.0, grid + 1)
    pis = np.stack([ps, 1.0 - ps], axis=1)[:, None, :]
    taus = np.einsum("so,noa->nsa", model.beta, pis)
    rewards = batch_rewards(model, taus)
    scale = max(1.0, float(np.max(np.abs(rewards))))
    diffs = np.diff(rewards)
    signs = np.sign(np.where(np.abs(diffs) <= 1e-13 * scale, 0.0, diffs))
    count = 0
    last = 0.0
    for s in signs:
        if s == 0.0:
            continue
        if last != 0.0 and s != last:
            count += 1
        last = s
    return count


@criterion(10, "interior critical counts of blind controllers stay within "
               "the state-count bound")
def test_10_blind_interior_bound():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        ns = int(rng.integers(2, 5))
        model = fixtures.random_model(rng, ns, 1, 2, float(rng.uniform(0.3, 0.95)))
        cs = blind_critical_points(model)
        assert cs.n_interior <= ns


@criterion(11, "per-face bound evaluator matches hand values and brute force")
def test_11_bound_evaluator():
    two = fixtures.two_state_model()
    empty = BoundInput.from_model(two, [])
    assert empty.m > 0 and critical_point_bound(empty) == 0
    assert critical_point_bound(BoundInput.from_model(two, [("a1", "o2")])) == 2
    rng = np.random.default_rng(1111)
    for _ in range(60):
        n_obs = int(rng.integers(1, 4))
        degrees = tuple(int(d) for d in rng.integers(1, 5, size=n_obs))
        mults = tuple(int(k) for k in rng.integers(1, 3, size=n_obs))
        m = int(rng.integers(0, 7))
        inputs = BoundInput(
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
            if sum(combo) == m:
                term = 1
                for d, i in zip(degrees, combo):
                    term *= (d - 1) ** i
                brute += term
        assert critical_point_bound(inputs) == prefactor * brute


@criterion(12, "rank-one polar degree collapses to k for k = 1..12")
def test_12_polar_degree():
    for k in range(1, 13):
        assert polar_degree_rank_one(k) == k


@criterion(13, "analytic policy gradients match central differences")
def test_13_gradient_check():
    rng = np.random.default_rng(1313)
    h = 1e-6
    for _ in range(20):
        ns = int(rng.integers(2, 4))
        no = int(rng.integers(1, 4))
        na = int(rng.integers(2, 4))
        model = fixtures.random_model(rng, ns, no, na, 0.8)
        pi = interior_policy(rng, model)
        grad = policy_gradient(model, pi).grad
        scale = max(1.0, float(np.max(np.abs(grad))))
        for o in range(no):
            for a in range(na):
                bumped = pi.matrix.copy()
                bumped[o, a] += h
                up = np.sum(model.reward * eta_for_tau(model, model.beta @ bumped))
                bumped[o, a] -= 2 * h
                down = np.sum(model.reward * eta_for_tau(model, model.beta @ bumped))
                fd = (up - down) / (2 * h)
                assert abs(fd - grad[o, a]) / scale <= 1e-5


@criterion(14, "no stochastic policy beats the best deterministic one on MDPs")
def test_14_deterministic_optimality():
    rng = np.random.default_rng(1414)
    for _ in range(20):
        ns = int(rng.integers(2, 4))
        na = int(rng.integers(2, 4))
        model = fixtures.random_mdp(rng, ns, na, 0.85)
        _, best = best_deterministic(model, kind="state")
        taus = rng.dirichlet(np.ones(na), size=(10_000, ns))
        rewards = batch_rewards(model, taus)
        assert float(np.max(rewards)) <= best + 1e-9


@criterion(15, "improvement paths climb monotonically to the optimum")
def test_15_improvement_paths():
    rng = np.random.default_rng(1515)
    for _ in range(50):
        ns = int(rng.integers(2, 4))
        na = int(rng.integers(2, 4))
        model = fixtures.random_mdp(rng, ns, na, 0.8)
        pi = Policy("state", rng.dirichlet(np.ones(na), size=ns))
        path = improvement_path(model, pi, steps=200)
        rewards = np.array([r for _, r in path])
        assert np.all(np.diff(rewards) >= -1e-10)
        _, best = best_deterministic(model, kind="state")
        assert abs(rewards[-1] - best) <= 1e-10
