"""Sign-reversal condition, paired modal masses, degeneracy trends."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foeslab import (
    DbmParams,
    GraphModelSpec,
    RbmParams,
    check_psr,
    complement_inclusion_holds,
    degeneracy_trend,
    make_bernoulli,
    make_dbm_marginal,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
    modal_set,
    sign_reversal_masses,
)
from foeslab.cli import main
from foeslab.core import FoesModel
from foeslab.metrics import MODAL_TIE_TOL, ParameterPath
from foeslab.psr import PSR_TOL


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def binomial_upper_mass(n, p, cut):
    """P(S > cut) for S ~ Binomial(n, p), ties at the cut included."""
    return sum(math.comb(n, s) * p**s * (1 - p) ** (n - s)
               for s in range(n + 1) if s > cut - 1e-9)


class TestCheckPsr:
    def test_bernoulli_exact(self):
        for theta in (-3.0, -0.5, 0.0, 1.0, 2.5):
            r = check_psr(lambda t: make_bernoulli(6, t), theta)
            assert r.holds and r.max_violation < 1e-12
            assert r.lrep_theta == pytest.approx(r.lrep_neg_theta, abs=1e-9)

    def test_multinomial_and_graph_exact(self):
        r = check_psr(lambda t: make_multinomial(3, t), np.array([0.5, -1.0, 2.0]))
        assert r.holds
        r = check_psr(
            lambda t: make_graph_model(GraphModelSpec(4, params=tuple(t))),
            (0.5, 1.0, -0.3))
        assert r.holds

    def test_rbm_joint_exact_on_random_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            params = RbmParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),
                               rng.uniform(-2, 2, (2, 3)))
            r = check_psr(lambda p: make_rbm_joint(p), params)
            assert r.holds and r.max_violation < 1e-12
            assert r.lrep_theta == pytest.approx(r.lrep_neg_theta, abs=1e-9)

    def test_rbm_marginal_violates_with_interactions(self):
        # negation flips the sign inside every cosh term, and cosh is even:
        # the product P_theta * P_-theta keeps an x-dependent cosh^2 factor,
        # so hidden-summed models fail the reversal condition outright
        rng = np.random.default_rng(42)
        violations = []
        for _ in range(10):
            params = RbmParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),
                               rng.uniform(-2, 2, (2, 3)))
            r = check_psr(lambda p: make_rbm_marginal(p), params)
            violations.append(r.max_violation)
            assert not r.holds
        assert min(violations) > 0.01

    def test_rbm_marginal_without_interactions_holds(self):
        rng = np.random.default_rng(43)
        params = RbmParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),
                           np.zeros((2, 3)))
        assert check_psr(lambda p: make_rbm_marginal(p), params).holds

    def test_dbm_marginal_violates_with_interactions(self):
        rng = np.random.default_rng(44)
        params = DbmParams(rng.uniform(-2, 2, 2),
                           (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1)),
                           (rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, (2, 1))))
        assert not check_psr(lambda p: make_dbm_marginal(p), params).holds

    def test_large_parameter_holds_within_the_checks_rounding(self, capsys):
        # one ulp of |log P| near 1.7e8 is 3e-8, above PSR_TOL; the check's
        # own rounding slack there is about 4.6e-7
        assert main(["psr", "--model", "bernoulli", "--n", "14", "--theta", "12345678.9"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1:3] == ["true", "2.9802322387695312e-08"]

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_one_score_shifted_by_a_millionth_fails(self, scale):
        # the -theta table with one entry moved by 1e-6 of its largest magnitude
        weights = 2 ** np.arange(14)

        def family(theta):
            model = make_bernoulli(14, theta)
            if theta > 0:
                return model
            table = model.scores().copy()
            table[5] += 1e-6 * np.abs(table).max()
            return FoesModel(model.space, lambda x: table[x @ weights])

        r = check_psr(family, 1.2345 * scale)
        assert not r.holds and r.max_violation > 1e-7 * scale

    def test_hidden_summed_families_still_fail_past_the_slack(self):
        # criterion 6's draws: violations of 6.67 and 2.28, far above any slack
        rng = np.random.default_rng(1066)
        rbm = RbmParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),
                        rng.uniform(-2, 2, (2, 3)))
        dbm = DbmParams(rng.uniform(-2, 2, 2),
                        (rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1)),
                        (rng.uniform(-2, 2, (2, 2)), rng.uniform(-2, 2, (2, 1))))
        for family, theta, violation in ((make_rbm_marginal, rbm, 6.675),
                                         (make_dbm_marginal, dbm, 2.28)):
            r = check_psr(family, theta)
            assert not r.holds and r.max_violation == pytest.approx(violation, abs=5e-3)

    def test_tolerance_matches_module_constant(self):
        r = check_psr(lambda t: make_bernoulli(4, t), 1.0)
        assert r.max_violation <= PSR_TOL


class TestSignReversalMasses:
    def test_bernoulli_strong_field_binomial_oracle(self):
        mass_pos, mass_neg_c = sign_reversal_masses(
            lambda t: make_bernoulli(10, t), 6.0, 0.1)
        p = logistic(6.0)
        # threshold sits on s = 9 exactly; near-threshold ties count as modal
        oracle = binomial_upper_mass(10, p, 9.0)
        assert mass_pos == pytest.approx(oracle, abs=1e-12)
        assert mass_pos > 0.99
        assert mass_neg_c > 0.99

    def test_zero_parameter_boundary(self):
        mass_pos, mass_neg_c = sign_reversal_masses(
            lambda t: make_bernoulli(6, t), 0.0, 0.1)
        assert mass_pos == pytest.approx(1.0, abs=1e-12)
        assert mass_neg_c == 0.0

    def test_two_star_concentration(self):
        family = lambda t: make_graph_model(GraphModelSpec(
            5, params=(0.0, float(t), 0.0), active_terms=("two_stars",)))
        mass_pos, mass_neg_c = sign_reversal_masses(family, 3.0, 0.1)
        assert mass_pos > 0.9
        assert mass_neg_c > 0.9

    def test_refuses_violating_family(self):
        rng = np.random.default_rng(45)
        params = RbmParams(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2),
                           rng.uniform(-2, 2, (2, 3)))
        with pytest.raises(ValueError, match="sign-reversal"):
            sign_reversal_masses(lambda p: make_rbm_marginal(p), params, 0.1)

    def test_sum_rule(self):
        # modal mass and the independently summed complement mass total 1
        model = make_bernoulli(8, 2.0)
        mset = modal_set(model, 0.2)
        mask = np.isin(np.arange(model.space.n_outcomes), mset.members)
        complement = float(np.exp(model.log_probs())[~mask].sum())
        assert mset.mass + complement == pytest.approx(1.0, abs=1e-12)

    def test_complement_mass_under_negated_parameter(self):
        # the reported complement mass equals 1 minus the negated model's
        # mass on the modal set, each side summed independently
        family = lambda t: make_bernoulli(9, t)
        _, mass_neg_c = sign_reversal_masses(family, 2.5, 0.2)
        neg = family(-2.5)
        mask = np.isin(np.arange(neg.space.n_outcomes), modal_set(family(2.5), 0.2).members)
        on_set = float(np.exp(neg.log_probs())[mask].sum())
        assert mass_neg_c == pytest.approx(1.0 - on_set, abs=1e-12)


class TestComplementInclusion:
    def test_holds_on_random_linear_families(self):
        # sizes avoid the structural tie lattice ((1-eps) N integer), where
        # the tie-inclusive membership would put one outcome in both sets
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(100):
            eps = float(rng.choice([0.1, 0.3]))
            kind = rng.integers(4)
            if kind == 0:
                n = int(rng.integers(2, 10))
                theta = float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
                holds = complement_inclusion_holds(
                    lambda t: make_bernoulli(n, t), theta, eps)
            elif kind == 1:
                n = int(rng.integers(2, 6))
                holds = complement_inclusion_holds(
                    lambda t: make_multinomial(n, t), rng.uniform(-2, 2, 3), eps)
            elif kind == 2:
                theta = tuple(rng.uniform(-1.5, 1.5, 3))
                holds = complement_inclusion_holds(
                    lambda t: make_graph_model(
                        GraphModelSpec(4, params=tuple(np.atleast_1d(t)))),
                    theta, eps)
            else:
                n = int(rng.integers(1, 5))
                nh = int(rng.integers(1, 4))
                params = RbmParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, nh),
                                   rng.uniform(-2, 2, (nh, n)))
                holds = complement_inclusion_holds(
                    lambda p: make_rbm_joint(p), params, eps)
            assert holds
            checked += 1
        assert checked == 100

    def test_structural_tie_is_the_known_exception(self):
        # at (1-eps) N integer the tied outcome joins both modal sets
        assert not complement_inclusion_holds(
            lambda t: make_bernoulli(10, t), 6.0, 0.1)


class TestDegeneracyTrend:
    def test_divergent_bernoulli_masses_increase(self):
        family = lambda n, p: make_bernoulli(n, float(p[0]))
        path = ParameterPath(family,
                             tuple((n, np.array([float(n)])) for n in (4, 8, 12)))
        masses = degeneracy_trend(path, 0.1)
        assert masses[0] < masses[1] < masses[2]
        assert masses[-1] > 0.999

    def test_log_growth_path_ends_higher_but_sawtooths(self):
        family = lambda n, p: make_bernoulli(n, float(p[0]))
        path = ParameterPath(
            family, tuple((n, np.array([math.log(n)])) for n in (4, 8, 12)))
        masses = degeneracy_trend(path, 0.1)
        # exact binomial values: the integer threshold makes the middle dip
        expected = []
        for n in (4, 8, 12):
            p = logistic(math.log(n))
            expected.append(binomial_upper_mass(n, p, 0.9 * n))
        np.testing.assert_allclose(masses, expected, atol=1e-12)
        assert masses[2] > masses[0]
        assert masses[1] < masses[0]

    def test_stable_path_reported_without_consensus(self):
        # fixed parameter, wide epsilon: masses stay away from 1
        family = lambda n, p: make_bernoulli(n, float(p[0]))
        path = ParameterPath(family,
                             tuple((n, np.array([1.0])) for n in (4, 6, 8)))
        masses = degeneracy_trend(path, 0.5)
        assert all(0.0 < m < 1.0 for m in masses)

    def test_two_star_masses_increase(self):
        family = lambda n, p: make_graph_model(GraphModelSpec(
            n, params=(0.0, float(p[0]), 0.0), active_terms=("two_stars",)))
        path = ParameterPath(family,
                             tuple((n, np.array([1.0])) for n in (4, 5, 6)))
        masses = degeneracy_trend(path, 0.1)
        assert masses[0] < masses[1] < masses[2]
        assert masses[-1] > 0.99


@st.composite
def zoo_families(draw):
    """(family, theta) of one zoo family; integer parameters tie many scores."""
    kind = draw(st.sampled_from(["uniform", "bernoulli", "multinomial", "graph",
                                 "rbm_marginal", "rbm_joint", "dbm_marginal"]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coef(*shape):
        return (rng.integers(-2, 3, shape).astype(np.float64) if integer
                else rng.standard_normal(shape))

    nodes, nv, nh = (int(rng.integers(3, 6)), int(rng.integers(1, 6)),
                     int(rng.integers(0, 4)))
    return {
        "uniform": lambda: (lambda theta: make_uniform(4), 0.0),
        "bernoulli": lambda: (lambda theta: make_bernoulli(6, theta), float(coef())),
        "multinomial": lambda: (lambda theta: make_multinomial(4, theta), coef(3)),
        "graph": lambda: (lambda theta: make_graph_model(
            GraphModelSpec(nodes, tuple(map(float, theta)))), coef(3)),
        "rbm_marginal": lambda: (make_rbm_marginal,
                                 RbmParams(coef(nv), coef(nh), coef(nh, nv))),
        "rbm_joint": lambda: (make_rbm_joint,
                              RbmParams(coef(nv), coef(nh), coef(nh, nv))),
        "dbm_marginal": lambda: (make_dbm_marginal, DbmParams(
            coef(3), (coef(2), coef(2)), (coef(2, 3), coef(2, 2)))),
    }[kind]()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=zoo_families(), epsilon=st.sampled_from([0.05, 0.3, 0.5, 0.9]))
def test_extremes_at_the_extreme_indices_are_the_scans(case, epsilon):
    # modal_set and check_psr read log_probs() at the model's extreme indices;
    # fl(s - log Z) is monotone in s, so the bits are those of the scans
    family, theta = case
    logp, logn = family(theta).log_probs(), family(-theta).log_probs()
    threshold = (1.0 - epsilon) * logp.max() + epsilon * logp.min()
    mass = float(np.exp(logp[logp > threshold - MODAL_TIE_TOL]).sum())
    violation = float(np.abs(logp + logn - (logp.max() + logn.min())).max())
    mset = modal_set(family(theta), epsilon)
    got = (mset.threshold, mset.mass, check_psr(family, theta).max_violation)
    assert np.array(got).tobytes() == np.array([threshold, mass, violation]).tobytes()
