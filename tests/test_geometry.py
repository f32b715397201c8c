"""Flow polytope, effective polytope, polynomial constraints, face lattice."""

import dataclasses
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pomdp_geometry import critical, fixtures, freq, geometry
from pomdp_geometry.freq import batch_eta, eta_for_tau, state_action_frequency, state_conditionals
from pomdp_geometry.geometry import (
    CertificationError,
    FaceDescriptor,
    FeasibilityReport,
    HalfspaceSystem,
    PolynomialConstraint,
    RankError,
    SizeCapError,
    constraint_polynomials,
    effective_polytope,
    face_lattice,
    feasibility_report,
    kirchhoff_image,
    kirchhoff_residual,
    mdp_polytope,
    model_constraint_polynomials,
    pseudoinverse,
    transfer_inequality,
)
from pomdp_geometry.model import Policy, compose

# --------------------------------------------------------------------------
# flow polytope


def test_mdp_polytope_rows_sum_to_constant():
    for m in (fixtures.two_state_model(), fixtures.three_state_model()):
        system = mdp_polytope(m)
        assert_allclose(
            system.rows.sum(axis=0),
            (1 - m.gamma) * np.ones((m.n_states, m.n_actions)),
            atol=1e-14,
        )
        assert_allclose(system.rhs.sum(), 1 - m.gamma, atol=1e-14)


def test_frequencies_satisfy_flow_equalities():
    m = fixtures.three_state_model()
    system = mdp_polytope(m)
    rng = np.random.default_rng(3)
    for _ in range(10):
        pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
        freq = state_action_frequency(m, pi)
        assert system.max_violation(freq.eta) <= 1e-10
    # a generic point of the simplex is not a frequency of this model
    bad = np.full((3, 2), 1 / 6)
    assert system.max_violation(bad) > 1e-3


def test_halfspace_system_validation():
    with pytest.raises(ValueError, match="matching rhs"):
        HalfspaceSystem(
            rows=np.zeros((2, 2, 2)), rhs=np.zeros(3), nonnegative=True,
            labels=("a", "b"),
        )
    with pytest.raises(ValueError, match="label"):
        HalfspaceSystem(
            rows=np.zeros((2, 2, 2)), rhs=np.zeros(2), nonnegative=True,
            labels=("a",),
        )


def test_max_violation_counts_negative_entries():
    system = HalfspaceSystem(
        rows=np.zeros((1, 2, 2)), rhs=np.zeros(1), nonnegative=True, labels=("z",)
    )
    eta = np.array([[0.5, -0.02], [0.3, 0.22]])
    assert system.max_violation(eta) == pytest.approx(0.02)


# --------------------------------------------------------------------------
# edge measure and flow conservation


def test_kirchhoff_image_hand_value():
    m = fixtures.two_state_model()
    pi = Policy("observation", np.array([[1.0, 0.0], [1.0, 0.0]]))
    freq = state_action_frequency(m, pi)
    nu = kirchhoff_image(m, freq.eta)
    assert_allclose(nu, [[0.75, 0.0], [0.25, 0.0]], atol=1e-12)
    assert kirchhoff_residual(m, freq.eta) <= 1e-12


def test_kirchhoff_residual_is_the_edge_measure_balance_off_the_polytope():
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = fixtures.random_model(rng, 4, 3, 3, 0.8)
        eta = rng.random((4, 3))  # no frequency: the balance misses
        nu = kirchhoff_image(m, eta)
        balance = nu.sum(axis=1) - m.gamma * nu.sum(axis=0) - (1 - m.gamma) * m.mu
        assert kirchhoff_residual(m, eta) == pytest.approx(np.max(np.abs(balance)), abs=1e-14)


def test_kirchhoff_orientation_is_out_equals_discounted_in():
    # swapping rows and columns in the balance equation does NOT hold;
    # this pins the orientation of the conservation law
    m = fixtures.two_state_model()
    pi = Policy("observation", np.array([[1.0, 0.0], [1.0, 0.0]]))
    freq = state_action_frequency(m, pi)
    nu = kirchhoff_image(m, freq.eta)
    flipped = nu.sum(axis=0) - m.gamma * nu.sum(axis=1) - (1 - m.gamma) * m.mu
    assert np.max(np.abs(flipped)) > 0.3


def test_kirchhoff_residual_random_policies():
    m = fixtures.three_state_model()
    rng = np.random.default_rng(11)
    for _ in range(10):
        pi = Policy("observation", rng.dirichlet(np.ones(2), size=3))
        freq = state_action_frequency(m, pi)
        assert kirchhoff_residual(m, freq.eta) <= 1e-12


# --------------------------------------------------------------------------
# pseudo-inverse and effective polytope


def test_pseudoinverse_two_state():
    m = fixtures.two_state_model()
    assert_allclose(pseudoinverse(m.beta), [[1, 0], [-1, 2]], atol=1e-12)


def test_pseudoinverse_blind_is_averaging():
    m = fixtures.blind_three_state_model()
    assert_allclose(pseudoinverse(m.beta), [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_pseudoinverse_rejects_dependent_columns():
    with pytest.raises(RankError, match="dependent"):
        pseudoinverse(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_wide_observation_kernel_is_refused():
    # with more observations than states the columns of beta are dependent, though a
    # thin SVD has only S singular values and here none of them is small
    m = fixtures.random_model(np.random.default_rng(0), 2, 3, 2, 0.8, positive_mu=True)
    assert np.min(np.linalg.svd(m.beta, compute_uv=False)) > 0.1
    calls = (pseudoinverse, effective_polytope, lambda beta: constraint_polynomials(beta, 2))
    for call in calls:
        with pytest.raises(RankError, match=r"dependent columns \(singular values \[.* 0\. *\]"):
            call(m.beta)
    with pytest.raises(RankError):
        face_lattice(m)


def test_effective_polytope_membership():
    m = fixtures.two_state_model()
    ep = effective_polytope(m.beta)
    pi = Policy("observation", np.array([[0.3, 0.7], [0.6, 0.4]]))
    tau = state_conditionals(m, pi)
    resid = ep.membership(tau)
    assert max(resid.values()) <= 1e-12
    assert ep.contains(tau)
    assert_allclose(ep.policy_of(tau), pi.matrix, atol=1e-12)
    # a state policy outside the image: recovered policy goes negative
    off = np.array([[1.0, 0.0], [0.0, 1.0]])
    resid = ep.membership(off)
    assert resid["C"] > 0.5
    assert not ep.contains(off)


def test_effective_polytope_rectangular_kernel():
    beta = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    ep = effective_polytope(beta)
    assert ep.kernel_basis.shape == (3, 1)
    # image columns are annihilated by the kernel basis
    assert_allclose(ep.kernel_basis.T @ beta, 0.0, atol=1e-12)
    pi = np.array([[0.2, 0.8], [0.9, 0.1]])
    tau = beta @ pi
    resid = ep.membership(tau)
    assert max(resid.values()) <= 1e-12
    # push tau out of the column space
    tau_bad = tau.copy()
    tau_bad[2, 0] += 0.1
    tau_bad[2, 1] -= 0.1
    assert ep.membership(tau_bad)["U"] > 0.01


# --------------------------------------------------------------------------
# polynomial constraints


def test_constraint_polynomials_two_state_terms():
    m = fixtures.two_state_model()
    polys = model_constraint_polynomials(m)
    assert len(polys) == 4
    by_pair = {(p.action, p.observation): p for p in polys}
    # observation o1 is identified with state s1: linear constraints
    p = by_pair[("a1", "o1")]
    assert p.support_states == (0,)
    assert p.degree == 1
    assert p.terms == {(0,): pytest.approx(1.0)}
    # observation o2 mixes both states through the pseudo-inverse row (-1, 2)
    p = by_pair[("a1", "o2")]
    assert p.support_states == (0, 1)
    assert p.degree == 2
    assert p.coefficient((0, 0)) == pytest.approx(1.0)   # -1 + 2
    assert p.coefficient((0, 1)) == pytest.approx(-1.0)  # -1 + 0
    assert p.coefficient((1, 0)) == pytest.approx(2.0)   # 0 + 2
    assert p.coefficient((1, 1)) == 0.0                  # exact zero, dropped
    assert len(p.terms) == 3


def test_constraint_polynomial_exponent_matrices():
    m = fixtures.two_state_model()
    p = {(q.action, q.observation): q for q in model_constraint_polynomials(m)}[
        ("a1", "o2")
    ]
    assert p.exponent_matrix((0, 1)).tolist() == [[1, 0], [0, 1]]
    d = p.to_dict()
    assert d["degree"] == 2
    assert len(d["terms"]) == 3
    assert str(p).startswith("pi[a1|o2] >= 0:")


def test_constraint_polynomials_are_transfer_inequalities():
    # constraint (o, a) is the one-constraint form of pseudo-inverse row o in column a
    for _, m in _packing_models():
        pinv = pseudoinverse(m.beta)
        polys = model_constraint_polynomials(m)
        pairs = list(itertools.product(enumerate(m.observations), enumerate(m.actions)))
        assert len(polys) == len(pairs)
        for poly, ((o, name), (a, action)) in zip(polys, pairs):
            b = np.zeros((m.n_states, m.n_actions))
            b[:, a] = pinv[o]
            want = transfer_inequality(b, 0.0, label=f"pi[{action}|{name}] >= 0",
                                       observation=name, action=action)
            # to_dict is the header and the terms, with exponent matrices that the
            # support fixes; built in full only where the expansion is small
            assert (poly.label, poly.observation, poly.action) == (want.label, want.observation,
                                                                   want.action)
            assert poly.terms == want.terms
            assert poly.degree > 4 or poly.to_dict() == want.to_dict()
            assert (poly.n_states, poly.n_actions) == (want.n_states, want.n_actions)
            assert poly.support_states == want.support_states
            assert poly.coeff.shape == want.coeff.shape
            assert poly.coeff.tobytes() == want.coeff.tobytes()  # signed zeros included
            assert poly.offset == want.offset


def test_constraint_to_dict_builds_each_term_exponent_matrix():
    models = [fixtures.two_state_model(), fixtures.three_state_model(),
              fixtures.blind_three_state_model()]
    polys = [p for m in models for p in model_constraint_polynomials(m)]
    # a repeated support state counts twice; an empty support has one constant term
    polys += [
        PolynomialConstraint("repeat", 3, 2, (1, 1), np.array([[1.0, 2.0], [0.5, 0.0]]), 0.25),
        PolynomialConstraint("constant", 2, 2, (), np.zeros((0, 2)), -1.0),
    ]
    for p in polys:
        assert p.to_dict() == {
            "label": p.label,
            "observation": p.observation,
            "action": p.action,
            "support_states": list(p.support_states),
            "degree": p.degree,
            "terms": [{"exponents": p.exponent_matrix(a).tolist(), "coefficient": c}
                      for a, c in sorted(p.terms.items())],
        }


def test_on_image_identity():
    # at the frequency of a policy, each polynomial equals the policy entry
    # times the product of support-state marginals
    for m in (fixtures.two_state_model(), fixtures.three_state_model()):
        polys = model_constraint_polynomials(m)
        rng = np.random.default_rng(7)
        for _ in range(5):
            pi = Policy(
                "observation", rng.dirichlet(np.ones(m.n_actions), size=m.n_observations)
            )
            freq = state_action_frequency(m, pi)
            for p in polys:
                a = m.action_index(p.action)
                o = m.observation_index(p.observation)
                expected = pi.matrix[o, a] * np.prod(
                    [freq.rho[s] for s in p.support_states]
                )
                assert float(p.evaluate(freq.eta)) == pytest.approx(
                    expected, abs=1e-12
                )


def _evaluate_monomials(poly, eta):
    """Evaluate from the stored monomial expansion (slow, exact form)."""
    eta = np.asarray(eta, dtype=float)
    total = 0.0
    for assignment, c in poly.terms.items():
        mono = 1.0
        for s, a in zip(poly.support_states, assignment):
            mono *= eta[s, a]
        total += c * mono
    return total


def test_evaluate_matches_monomial_expansion():
    m = fixtures.three_state_model()
    polys = model_constraint_polynomials(m)
    rng = np.random.default_rng(19)
    for _ in range(5):
        eta = rng.normal(size=(3, 2))  # arbitrary, not a frequency
        for p in polys:
            assert float(p.evaluate(eta)) == pytest.approx(
                _evaluate_monomials(p, eta), abs=1e-10
            )


def test_evaluate_broadcasts():
    m = fixtures.two_state_model()
    p = model_constraint_polynomials(m)[2]
    rng = np.random.default_rng(23)
    stack = rng.dirichlet(np.ones(4), size=6).reshape(6, 2, 2)
    values = p.evaluate(stack)
    assert values.shape == (6,)
    for i in range(6):
        assert values[i] == pytest.approx(float(p.evaluate(stack[i])), abs=1e-14)


def _evaluate_each(poly, eta):
    """One constraint alone, support state by support state: the values the stacked
    evaluation must reproduce bit for bit."""
    support = list(poly.support_states)
    rho = eta[..., support, :].sum(axis=-1)
    value = -poly.offset * np.prod(rho, axis=-1)
    for i, s in enumerate(support):
        loo = np.prod(rho[..., [j for j in range(len(support)) if j != i]], axis=-1)
        value = value + np.einsum("a,...a->...", poly.coeff[i], eta[..., s, :]) * loo
    return value


@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
@settings(max_examples=40)
def test_stacked_values_match_each_constraint_bit_for_bit(seed, na):
    rng = np.random.default_rng(seed)
    ns = 6
    m = fixtures.random_model(rng, ns, 3, na, 0.8, positive_mu=True)
    # supports of 0 to 5 states, in random order, half of them with an offset
    polys = []
    for size in rng.permutation(6):
        b = rng.normal(size=(ns, na))
        b[rng.permutation(ns)[size:]] = 0.0
        polys.append(transfer_inequality(b, float(rng.normal()) * (size % 2)))
    # frequencies of six policies on leading axes (2, 3); the deterministic ones
    # put exact zeros in eta, and one point gets a zero marginal
    pis = rng.dirichlet(np.ones(na), size=(6, 3))
    pis[::2] = np.eye(na)[rng.integers(0, na, size=(3, 1))]
    etas = batch_eta(m, compose(m.beta, pis)).reshape(2, 3, ns, na)
    widest = next(p for p in polys if p.degree == 5)
    etas[1, 2, widest.support_states[0]] = 0.0

    raw, prods = geometry._packed_values(geometry._pack(polys), etas)
    expected = np.stack([_evaluate_each(p, etas) for p in polys], axis=-1)
    assert raw.shape == (2, 3, 6)
    assert raw.tobytes() == expected.tobytes()  # signed zeros included
    rho = etas.sum(axis=-1)
    assert prods.tobytes() == np.stack(
        [np.prod(rho[..., list(p.support_states)], axis=-1) for p in polys], axis=-1).tobytes()
    for k, p in enumerate(polys):
        assert p.evaluate(etas).tobytes() == expected[..., k].tobytes()
        scale = max(1.0, float(np.abs(p.coeff).sum()) + abs(p.offset))
        for point in ((0, 0), (1, 2)):
            assert abs(raw[point + (k,)] - _evaluate_monomials(p, etas[point])) <= 1e-12 * scale
    scaled = geometry._policy_scale(*geometry._packed_values(geometry._pack(polys), etas))
    assert prods[1, 2, polys.index(widest)] == 0.0
    assert np.all(scaled[prods == 0.0] == 0.0)


def test_transfer_inequality_general_linear_form():
    # clearing denominators of <b, tau> >= c multiplies the slack by the
    # product of support-state marginals
    rng = np.random.default_rng(29)
    b = rng.normal(size=(3, 2))
    b[1] = 0.0  # s2 outside the support
    c = 0.37
    poly = transfer_inequality(b, c)
    assert poly.support_states == (0, 2)
    assert poly.offset == pytest.approx(c)
    for _ in range(5):
        tau = rng.dirichlet(np.ones(2), size=3)
        rho = rng.dirichlet(np.ones(3))
        eta = rho[:, None] * tau
        slack = float(np.sum(b * tau)) - c
        assert float(poly.evaluate(eta)) == pytest.approx(
            slack * rho[0] * rho[2], abs=1e-12
        )


def test_transfer_inequality_merged_coefficients():
    b = np.array([[1.0, 2.0], [10.0, 20.0]])
    poly = transfer_inequality(b, 3.0)
    assert poly.coefficient((0, 0)) == pytest.approx(1 + 10 - 3)
    assert poly.coefficient((1, 1)) == pytest.approx(2 + 20 - 3)
    assert poly.coefficient((0, 1)) == pytest.approx(1 + 20 - 3)


def test_support_keeps_the_rows_whose_peak_exceeds_the_cutoff():
    # one comparison per entry gives the rows of the peak rule, at and around the cutoff
    above = np.nextafter(geometry.SUPPORT_TOL, 1.0)
    entries = np.array([0.0, geometry.SUPPORT_TOL, -geometry.SUPPORT_TOL, above, -above])
    rng = np.random.default_rng(29)
    for shape in [(1,), (6,), (1, 1), (4, 3), (5, 2)]:
        for _ in range(40):
            rows = rng.choice(entries, size=shape)
            peaks = np.abs(rows).reshape(len(rows), -1).max(axis=1)
            support = transfer_inequality(rows.reshape(len(rows), -1), 0.0).support_states
            assert support == tuple(np.flatnonzero(peaks > geometry.SUPPORT_TOL))


def test_constraint_polynomials_accepts_counts_and_labels():
    m = fixtures.two_state_model()
    a = constraint_polynomials(m.beta, 2)
    b = constraint_polynomials(m.beta, ["a1", "a2"], obs_names=["o1", "o2"])
    assert [p.terms for p in a] == [p.terms for p in b]
    assert a[0].action == "a1" and b[3].observation == "o2"


def test_near_threshold_entries_warn():
    eps = 5e-11
    beta = np.array([[1.0, 0.0], [eps, 1.0 - eps]])
    m = fixtures.two_state_model().replace(beta=beta)
    eta = state_action_frequency(m, Policy.uniform(2, 2)).eta
    # every entry point reports the warning at its caller's line, however deep the
    # table build sits below it
    for call in (lambda: constraint_polynomials(beta, 2),
                 lambda: model_constraint_polynomials(m),
                 lambda: feasibility_report(m, eta),
                 lambda: face_lattice(m),
                 lambda: critical.BoundInput.from_model(m, [("a1", "o2")]),
                 lambda: critical.face_critical_bound(m, [("a1", "o2")])):
        with pytest.warns(RuntimeWarning, match="support cutoff") as seen:
            call()
        assert [w.filename for w in seen] == [__file__]  # reported at the caller


def _packing_models():
    """240 random models (kind, model): S = 2-6, O = 1..S, A = 2-4; dense, 0/1 and blind
    beta in turn; every fourth model with other action labels."""
    rng = np.random.default_rng(30)
    for k in range(240):
        kind = ("dense", "0/1", "blind")[k % 3]
        ns, na = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        no = 1 if kind == "blind" else int(rng.integers(1, ns + 1))
        m = fixtures.random_model(rng, ns, no, na, 0.8, deterministic_beta=kind == "0/1")
        if k % 4 == 0:
            m = m.replace(actions=tuple(f"b:{na - a}" for a in range(na)))
        yield kind, m


def test_model_packed_is_the_packed_constraint_polynomials():
    uneven = 0
    for kind, m in _packing_models():
        packed, expected = geometry._model_packed(m), geometry._pack(model_constraint_polynomials(m))
        assert packed.labels == expected.labels
        for got, want in zip(packed[1:], expected[1:]):
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()  # signed zeros included
        degrees = packed.kept.sum(axis=1)
        uneven += kind == "0/1" and bool(np.any(degrees != degrees.max()))
    assert uneven >= 20  # 0/1 beta whose observations cover different numbers of states


# --------------------------------------------------------------------------
# feasibility verdicts


def test_feasibility_report_on_image():
    m = fixtures.two_state_model()
    pi = Policy("observation", np.array([[0.4, 0.6], [0.2, 0.8]]))
    freq = state_action_frequency(m, pi)
    rep = feasibility_report(m, freq.eta)
    assert isinstance(rep, FeasibilityReport)
    assert rep.feasible
    assert rep.equality_residual <= 1e-10
    assert rep.min_polynomial > 0


def test_feasibility_report_flags_linear_violation():
    m = fixtures.three_state_model()
    rep = feasibility_report(m, np.full((3, 2), 1 / 6))
    assert not rep.feasible
    assert rep.equality_residual > 1e-3


def test_feasibility_report_flags_polynomial_violation():
    # the frequency of an unobservable state policy satisfies the linear
    # layer but fails the polynomial layer
    m = fixtures.two_state_model()
    tau = np.array([[1.0, 0.0], [0.0, 1.0]])
    eta = eta_for_tau(m, tau)
    rep = feasibility_report(m, eta)
    assert rep.equality_residual <= 1e-10
    assert rep.min_polynomial < -0.2
    assert not rep.feasible


def _report_bits(report):
    return np.array(dataclasses.astuple(report)[:3]).tobytes(), report.feasible


def test_feasibility_report_reads_the_model_table_by_default(monkeypatch):
    # the default constraints are the model's own packed table: the bits of the
    # constraint objects, with no object built
    rng = np.random.default_rng(31)
    cases = []
    for _, m in _packing_models():
        # frequencies of an observation policy, then of a state policy, which the
        # polynomial layer may refuse
        for tau in (compose(m.beta, rng.dirichlet(np.ones(m.n_actions), m.n_observations)),
                    rng.dirichlet(np.ones(m.n_actions), m.n_states)):
            eta = eta_for_tau(m, tau)
            polys = model_constraint_polynomials(m)
            report = feasibility_report(m, eta)
            assert _report_bits(report) == _report_bits(feasibility_report(m, eta, polys=polys))
            raw = [geometry._feasibility(m, eta, table)[0].tobytes()
                   for table in (geometry._model_packed(m), geometry._pack(polys))]
            assert raw[0] == raw[1]
            cases.append((m, eta, report))
    assert 0 < sum(report.feasible for _, _, report in cases) < len(cases)

    def refuse(*args, **kwargs):
        raise AssertionError("the verdict built a constraint")

    monkeypatch.setattr(PolynomialConstraint, "__post_init__", refuse)
    for m, eta, report in cases:
        assert _report_bits(feasibility_report(m, eta)) == _report_bits(report)
    # no constraints: the linear layer alone decides
    m = fixtures.two_state_model()
    eta = eta_for_tau(m, np.eye(2))
    assert not feasibility_report(m, eta).feasible
    alone = feasibility_report(m, eta, polys=[])
    assert alone.min_polynomial == 0.0 and alone.feasible
    assert not feasibility_report(fixtures.three_state_model(), np.full((3, 2), 1 / 6),
                                  polys=[]).feasible


def test_feasibility_report_judges_wide_supports_on_the_policy_scale():
    # over 9 support states each raw value pi(a|o) * prod(rho) is below 9^-9,
    # so a recovered policy entry near -0.3 leaves a raw value above -1e-8
    rng = np.random.default_rng(0)
    m = fixtures.random_model(rng, 9, 9, 2, 0.9, positive_mu=True)
    m = m.replace(beta=0.7 * np.eye(9) + 0.3 * rng.dirichlet(np.ones(9), size=9))
    pi = Policy.deterministic([s % 2 for s in range(9)], 2, "state")
    eta = state_action_frequency(m, pi).eta
    assert np.min(pseudoinverse(m.beta) @ pi.matrix) < -0.05
    rep = feasibility_report(m, eta)
    assert rep.equality_residual <= 1e-10 and rep.min_entry >= 0.0
    assert -1e-8 < rep.min_polynomial < 0.0
    assert not rep.feasible
    # the frequency of an observation policy with a zero entry stays feasible
    obs_pi = Policy.deterministic([s % 2 for s in range(9)], 2)
    assert feasibility_report(m, state_action_frequency(m, obs_pi).eta).feasible


# --------------------------------------------------------------------------
# face lattice


def test_face_lattice_square():
    m = fixtures.two_state_model()
    lattice = face_lattice(m, samples=2, seed=0)
    assert lattice.f_vector == (4, 4, 1)
    assert lattice.n_faces == 9
    assert lattice.certified
    top = lattice.faces[-1]
    assert top.dimension == 2
    assert len(top.subfaces) == 4
    assert top.active_zeros == frozenset()
    for idx in top.subfaces:
        edge = lattice.faces[idx]
        assert edge.dimension == 1
        assert len(edge.subfaces) == 2
        assert len(edge.active_zeros) == 1
    vertex = lattice.faces[0]
    assert vertex.dimension == 0
    assert vertex.subfaces == ()
    assert len(vertex.active_zeros) == 2


def test_face_lattice_cube():
    rng = np.random.default_rng(5)
    m = fixtures.random_model(rng, 3, 3, 2, 0.8)
    lattice = face_lattice(m, samples=2, seed=2)
    assert lattice.f_vector == (8, 12, 6, 1)
    assert lattice.n_faces == 27


def test_face_lattice_max_dim():
    m = fixtures.two_state_model()
    lattice = face_lattice(m, max_dim=1, samples=1, seed=0)
    assert lattice.f_vector == (4, 4)
    assert lattice.n_faces == 8


def test_face_lattice_size_cap(monkeypatch):
    # (2^2 - 1)^13 = 1594323 faces, refused before anything is built
    m = fixtures.random_model(np.random.default_rng(1), 2, 13, 2, 0.5)
    monkeypatch.setattr(geometry, "_face_order", None)
    with pytest.raises(SizeCapError, match=r"a face lattice of \(2\^2 - 1\)\^13 faces exceeds "
                                           "the cap of 1048576"):
        face_lattice(m)


@pytest.mark.parametrize("shape, max_dim, f_vector", [
    ((2, 2, 9), 1, (81, 648)),  # O x A = 18 policy coordinates, 729 faces up to dimension 1
    ((20, 20, 1), None, (1,)),  # 20 coordinates, one face
], ids=["2x2x9-max-dim-1", "20x20x1"])
def test_face_lattice_is_sized_by_its_faces(shape, max_dim, f_vector):
    m = fixtures.random_model(np.random.default_rng(0), *shape, 0.8, positive_mu=True)
    lattice = face_lattice(m, max_dim=max_dim)
    assert lattice.certified and lattice.f_vector == f_vector


def reference_faces(observations, actions, max_dim=None):
    """The face lattice from its definition: one nonempty free-action set per
    observation, faces by dimension and then lexicographically, a subface for each
    free action dropped where another stays, and the (action, observation) label
    pairs left out pinned to zero."""
    def dimension(face):
        return sum(len(s) - 1 for s in face)

    na = len(actions)
    subsets = sorted(s for k in range(1, na + 1) for s in itertools.combinations(range(na), k))
    faces = sorted(itertools.product(subsets, repeat=len(observations)), key=dimension)
    faces = [face for face in faces if max_dim is None or dimension(face) <= max_dim]
    index = {face: i for i, face in enumerate(faces)}
    return tuple(FaceDescriptor(
        face,
        frozenset((actions[a], o) for o, s in zip(observations, face) for a in range(na)
                  if a not in s),
        dimension(face),
        tuple(sorted(index[face[:o] + (s[:i] + s[i + 1:],) + face[o + 1:]]
                     for o, s in enumerate(face) if len(s) > 1 for i in range(len(s)))),
    ) for face in faces)


def test_face_lattice_matches_a_brute_force_reference(monkeypatch):
    # faces are built from the labels and the f-vector when first read, not before,
    # and equal the definition's on every shape, labelling and max_dim
    built = []

    def counting(*fields):
        built.append(fields)
        return FaceDescriptor(*fields)

    monkeypatch.setattr(geometry, "FaceDescriptor", counting)
    rng = np.random.default_rng(12)
    for shape in [(3, 3, 2), (4, 2, 3), (3, 1, 4), (2, 2, 2), (5, 4, 2)]:
        model = fixtures.random_model(rng, *shape, 0.8, positive_mu=True)
        renamed = dataclasses.replace(model, actions=tuple(f"b{9 - a}" for a in range(shape[2])))
        for m, max_dim in itertools.product((model, renamed), (None, 0, 1, 2, 9)):
            built.clear()
            lattice = face_lattice(m, max_dim=max_dim, samples=2, seed=1)
            assert built == [] and "faces" not in vars(lattice)
            expected = reference_faces(m.observations, m.actions, max_dim)
            assert lattice.faces == expected
            assert len(built) == len(lattice.faces) == lattice.n_faces
            assert lattice.faces is lattice.faces and len(built) == lattice.n_faces  # kept
            assert lattice.f_vector == tuple(np.bincount([f.dimension for f in expected]))
    assert face_lattice(renamed).faces[0].active_zeros == {("b8", o) for o in model.observations}
    # a lattice is its labels and f-vector: equal whatever model, samples, seed or
    # max_dim beyond the top dimension gave it
    other = fixtures.random_model(rng, 5, 4, 2, 0.8, positive_mu=True)
    assert face_lattice(other, samples=1, seed=3) == face_lattice(model, max_dim=9)


def test_faces_under_max_dim_are_read_from_the_lattice_own_faces():
    # 729 faces of a (2^9 - 1)^2 = 261121-face product: the descriptors are read from the
    # faces' own ranks; picking them out of the whole product peaks near 200 MiB
    m = fixtures.random_model(np.random.default_rng(0), 2, 2, 9, 0.8, positive_mu=True)
    lattice = face_lattice(m, max_dim=1)
    tracemalloc.start()
    try:
        faces = lattice.faces
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert faces == reference_faces(m.observations, m.actions, max_dim=1)


def test_face_lattice_refuses_too_many_samples_before_drawing(monkeypatch):
    m = fixtures.random_model(np.random.default_rng(3), 3, 3, 2, 0.8, positive_mu=True)

    def refuse(*args):
        raise AssertionError("no sample may be drawn")

    monkeypatch.setattr(geometry, "_certify_faces", refuse)
    with pytest.raises(SizeCapError, match="certifying 27 faces x 38837 samples"):
        face_lattice(m, samples=geometry.MONOMIAL_CAP // 27 + 1)


def test_face_lattice_requires_positivity():
    m = fixtures.two_state_model(mu=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="visit every state"):
        face_lattice(m)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_face_lattice_rejects_a_tolerance_that_cannot_certify(tol):
    # pinned constraints evaluate to rounding noise, never to exactly 0
    with pytest.raises(ValueError, match="tol must be > 0"):
        face_lattice(fixtures.two_state_model(), tol=tol)


def test_face_lattice_builds_no_constraint_objects(monkeypatch):
    m = fixtures.random_model(np.random.default_rng(12), 4, 3, 2, 0.8, positive_mu=True)
    expected = face_lattice(m, samples=2, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("certification built a constraint")

    monkeypatch.setattr(geometry, "transfer_inequality", refuse)
    monkeypatch.setattr(PolynomialConstraint, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built a constraint"):
        model_constraint_polynomials(m)
    lattice = face_lattice(m, samples=2, seed=5)
    assert lattice.certified and lattice == expected


def test_face_lattice_warns_of_fragile_supports():
    # pinv[1, 0] = -eps / (1 - eps), just above the support cutoff in magnitude
    eps = 2 * geometry.SUPPORT_TOL
    m = fixtures.two_state_model().replace(beta=np.array([[1.0, 0.0], [eps, 1.0 - eps]]))
    assert geometry.SUPPORT_TOL < -pseudoinverse(m.beta)[1, 0] < 1.01 * eps
    with pytest.warns(RuntimeWarning, match="1 pseudo-inverse entries .* support cutoff") as seen:
        assert face_lattice(m).certified
    assert [w.filename for w in seen] == [__file__]  # reported at the caller


def test_certification_error_names_the_face():
    # certify against a model whose beta is swapped relative to the
    # constraints by monkeypatching the sampled policies is intrusive;
    # instead drive the certifier with an absurd tolerance so a genuine
    # interior point "fails" the strict-positivity requirement
    m = fixtures.two_state_model()
    with pytest.raises(CertificationError, match="free constraint"):
        face_lattice(m, samples=1, seed=0, tol=10.0)


def test_terms_match_brute_force_expansion():
    rng = np.random.default_rng(11)
    for trial in range(60):
        ns, na = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        # small integers plus perturbations of a few 1e-14 put many merged
        # coefficients on either side of the 1e-14 * scale drop threshold
        b = rng.integers(-2, 3, size=(ns, na)) + rng.choice(
            [0.0, 0.0, 5e-15, -5e-15, 1.5e-14, -3e-14], size=(ns, na))
        b[rng.random(ns) < 0.3] = 0.0  # zero rows leave the support
        if trial % 10 == 0:
            b[:] = 0.0
        c = float(rng.integers(-3, 4)) + (rng.normal() if trial % 3 == 0 else 0.0)
        poly = transfer_inequality(b, c)
        support = [s for s in range(ns) if np.max(np.abs(b[s])) > 1e-12]
        drop = 1e-14 * max(1.0, float(np.max(np.abs(b))), abs(c))
        expected = {}
        for assignment in itertools.product(range(na), repeat=len(support)):
            value = sum(b[s, a] for s, a in zip(support, assignment)) - c
            if abs(value) > drop:
                expected[assignment] = float(value)
        assert poly.support_states == tuple(support)
        assert list(poly.terms.items()) == list(expected.items())


def _per_constraint_expansion(poly):
    """The expansion of one constraint as it was built before the table-wide helper:
    kept assignments (n, degree) and merged coefficients, from one nd add.outer."""
    scale = max(1.0, float(np.max(np.abs(poly.coeff), initial=0.0)), abs(poly.offset))
    merged = functools.reduce(np.add.outer, poly.coeff, np.zeros(())) - poly.offset
    keep = np.abs(merged) > 1e-14 * scale
    return np.argwhere(keep), merged[keep]


def _random_held_constraints(rng, ns, na):
    """Caller-held constraints of mixed degree on ns states: small integer coefficients
    with perturbations near the drop threshold, nonzero offsets, zero rows off the support
    and, now and then, no support at all (degree 0)."""
    polys = []
    for k in range(int(rng.integers(1, 6))):
        b = rng.integers(-2, 3, size=(ns, na)) + rng.choice(
            [0.0, 0.0, 5e-15, -5e-15, 1.5e-14, -3e-14], size=(ns, na))
        b[rng.random(ns) < 0.3] = 0.0
        if rng.random() < 0.15:
            b[:] = 0.0
        c = float(rng.integers(-3, 4)) + rng.normal() * (rng.random() < 0.5)
        polys.append(transfer_inequality(b, c, label=f"held[{k}]"))
    return polys


def test_expansions_have_the_bits_of_each_constraint_expanded_alone():
    checked, degrees = 0, set()
    rng = np.random.default_rng(34)
    held = [_random_held_constraints(rng, int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            for _ in range(60)]
    models = [model_constraint_polynomials(m) for _, m in itertools.islice(_packing_models(), 60)]
    for polys in held + models:
        na = polys[0].n_actions
        for poly, (flat, values) in zip(polys, geometry._expansions(geometry._pack(polys))):
            assignments, merged = _per_constraint_expansion(poly)
            powers = na ** np.arange(poly.degree - 1, -1, -1)
            assert flat.tolist() == (assignments @ powers).tolist()
            assert values.tobytes() == merged.tobytes()
            got = poly._expansion
            assert (got[0].shape, got[0].dtype) == (assignments.shape, assignments.dtype)
            assert got[0].tobytes() == assignments.tobytes() and got[1].tobytes() == merged.tobytes()
            # brute force over every assignment, as test_terms_match_brute_force_expansion
            drop = 1e-14 * max(1.0, float(np.max(np.abs(poly.coeff), initial=0.0)),
                               abs(poly.offset))
            expected = {}
            for assignment in itertools.product(range(na), repeat=poly.degree):
                value = sum(poly.coeff[i, a] for i, a in enumerate(assignment)) - poly.offset
                if abs(value) > drop:
                    expected[assignment] = float(value)
            assert list(poly.terms.items()) == list(expected.items())
            checked, degrees = checked + 1, degrees | {poly.degree}
    assert checked > 300 and {0, 1, 2, 3, 4, 5} <= degrees


def test_expansions_refuse_the_first_row_over_the_cap(monkeypatch):
    monkeypatch.setattr(geometry, "MONOMIAL_CAP", 8)
    polys = [transfer_inequality(np.ones((s, 2)), 0.5, label=label)
             for s, label in ((3, "fits"), (4, "first over"), (5, "second over"), (1, "small"))]
    with pytest.raises(SizeCapError, match=r"^first over: expansion into 2\^4 monomials "
                                           r"exceeds the cap of 8$"):
        geometry._expansions(geometry._pack(polys))
    with pytest.raises(SizeCapError, match=r"^second over: expansion into 2\^5 monomials"):
        polys[2]._expansion
    assert len(polys[0].terms) == 8 and len(polys[3].terms) == 2


def test_face_lattice_is_one_solve_and_one_evaluation_per_constraint(monkeypatch):
    # each block of samples is one solve and one stacked evaluation of every
    # constraint, whether the lattice fits one block or is split into several
    solves, evaluations = [], []
    solve, stacked = freq._linsolve, geometry._packed_values

    def counting_solve(a, b):
        solves.append((a.shape[-1],) + a.shape[:-1])  # as (systems, S, S)
        return solve(a, b)

    def counting_stacked(packed, eta):
        evaluations.append((list(packed.labels), eta.shape[0]))
        return stacked(packed, eta)

    monkeypatch.setattr(freq, "_linsolve", counting_solve)
    monkeypatch.setattr(geometry, "_packed_values", counting_stacked)
    rng = np.random.default_rng(4)
    for shape, max_dim, samples in [((3, 3, 2), None, 3), ((4, 3, 3), None, 2),
                                    ((4, 3, 3), 1, 5), ((2, 2, 2), 0, 1)]:
        m = fixtures.random_model(rng, *shape, 0.8, positive_mu=True)
        labels = [p.label for p in model_constraint_polynomials(m)]
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", freq.BLOCK_ENTRIES)
        solves.clear()
        evaluations.clear()
        whole = face_lattice(m, max_dim=max_dim, samples=samples, seed=1)
        points = whole.n_faces * samples
        assert [s[0] for s in solves] == [points]
        assert evaluations == [(labels, points)]

        kmax = max(p.degree for p in model_constraint_polynomials(m))
        per_point = max(m.n_states**2, len(labels) * kmax * m.n_actions)
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", per_point * (points // 3))
        solves.clear()
        evaluations.clear()
        assert face_lattice(m, max_dim=max_dim, samples=samples, seed=1) == whole
        assert len(solves) == len(evaluations) >= 3
        assert [s[0] for s in solves] == [n for _, n in evaluations]
        assert sum(n for _, n in evaluations) == points
        assert all(block == labels for block, _ in evaluations)


def test_face_certification_blocks_bound_the_stacked_gather(monkeypatch):
    # the stacked evaluation gathers K x kmax x A frequency entries per point,
    # more than the S x S of the solve: blocks are sized by the larger
    m = fixtures.random_model(np.random.default_rng(9), 4, 3, 3, 0.8, positive_mu=True)
    whole = face_lattice(m, samples=2)
    gathers = []
    stacked = geometry._packed_values

    def recording(packed, eta):
        kmax = packed.kept.shape[1]
        gathers.append(eta.shape[0] * len(packed.labels) * kmax * eta.shape[-1])
        return stacked(packed, eta)

    budget = 5 * 9 * 4 * 3 + 7  # five points' gather: 9 constraints over 4 states, 3 actions
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", budget)
    monkeypatch.setattr(geometry, "_packed_values", recording)
    assert face_lattice(m, samples=2) == whole
    assert len(gathers) == -(-whole.n_faces * 2 // 5)
    assert max(gathers) <= budget


def test_face_samples_are_drawn_block_by_block(monkeypatch):
    # each block draws and normalises its own points in place; consecutive draws
    # continue one stream, so the blocks have the bits of the out-of-place mix
    # 0.8 raw / sum(raw) + 0.2 free / |free| over one draw for all faces x samples
    m = fixtures.random_model(np.random.default_rng(10), 4, 3, 3, 0.8, positive_mu=True)
    samples, seed = 40, 3
    drawn = []

    def recording(beta, pis):
        drawn.append(pis.copy())
        return compose(beta, pis)

    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2**14)
    monkeypatch.setattr(geometry, "compose", recording)
    whole = face_lattice(m, samples=samples, seed=seed)
    free = np.array([[[a in acts for a in range(3)] for acts in face.free_actions]
                     for face in whole.faces])
    mask = np.repeat(free, samples, axis=0)
    raw = np.random.default_rng(seed).standard_exponential(mask.shape) * mask
    expected = (0.8 * raw / raw.sum(axis=-1, keepdims=True)
                + 0.2 * mask / mask.sum(axis=-1, keepdims=True))
    assert len(drawn) >= 3
    assert np.concatenate(drawn).tobytes() == expected.tobytes()


@pytest.mark.parametrize("samples", [20, 120])
def test_face_certification_holds_a_few_blocks(monkeypatch, samples):
    # points are drawn per block, so certification holds a few blocks of
    # BLOCK_ENTRIES entries whatever faces x samples is (here 27 faces x 20 or 120)
    m = fixtures.random_model(np.random.default_rng(10), 4, 3, 3, 0.8, positive_mu=True)
    rows, ranks, _ = geometry._face_order(m.n_observations, m.n_actions, None)
    faces = rows[ranks]  # (faces, O, A) free-action masks
    packed = geometry._model_packed(m)
    budget = 2**14
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", budget)
    blocks = []
    certify = freq.certified_etas

    def counting(model, taus):
        blocks.append(len(taus))
        return certify(model, taus)

    monkeypatch.setattr(geometry, "certified_etas", counting)
    tracemalloc.start()
    try:
        geometry._certify_faces(m, faces, packed, np.random.default_rng(0), samples,
                                geometry.CERT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(blocks) >= 3 and sum(blocks) == len(faces) * samples
    assert peak <= 4 * budget * 8  # four blocks of float entries


def test_certification_error_names_a_pinned_constraint(monkeypatch):
    # shift pi[a2|o1] by 0.5 times its product of marginals: it no longer
    # vanishes on the faces that pin a2 at o1, the first being the vertex
    # with a1 at both observations
    packed_of = geometry._model_packed

    def shifted(model):
        packed = packed_of(model)
        offsets = packed.offsets.copy()
        offsets[packed.labels.index("pi[a2|o1] >= 0")] -= 0.5
        return packed._replace(offsets=offsets)

    monkeypatch.setattr(geometry, "_model_packed", shifted)
    m = fixtures.two_state_model()
    with pytest.raises(CertificationError) as info:
        face_lattice(m, samples=2, seed=0)
    message = str(info.value)
    assert message.startswith("face ((0,), (0,)): pinned constraint pi[a2|o1] >= 0 ")
    assert message.endswith(", expected 0 within 1e-08")


def test_wide_support_needs_no_expansion_until_terms_are_read(wide_blind_model):
    # 2^21 monomials per constraint, beyond MONOMIAL_CAP
    m = wide_blind_model
    polys = model_constraint_polynomials(m)
    assert [p.degree for p in polys] == [21, 21]
    eta = state_action_frequency(m, Policy.uniform(1, 2)).eta
    assert feasibility_report(m, eta, polys=polys).feasible
    assert [float(p.evaluate(eta)) > 0.0 for p in polys] == [True, True]
    assert str(polys[0]).startswith("pi[a1|o] >= 0: ")
    for p in polys:
        with pytest.raises(SizeCapError, match="cap"):
            p.terms


@pytest.mark.parametrize("ns", [8, 9])
def test_face_lattice_certifies_many_state_blind_models(blind_model, ns):
    # each constraint value is pi(a|o) times a product of ns marginals, below
    # CERT_TOL from ns = 8 on; certification compares pi(a|o) itself
    lattice = face_lattice(blind_model(ns))
    assert lattice.certified
    assert lattice.f_vector == (2, 1)


@pytest.mark.parametrize("kwargs, match", [
    ({"max_dim": -1}, "max_dim must be >= 0, got -1"),
    ({"samples": 0}, "samples must be >= 1, got 0"),
])
def test_face_lattice_rejects_empty_requests(kwargs, match):
    with pytest.raises(ValueError, match=match):
        face_lattice(fixtures.two_state_model(), **kwargs)
