"""Gibbs/MH machinery: conditional identities, stationarity, entrapment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import foeslab.samplers as samplers
from foeslab.core import _one_flip_shape, _philox
from foeslab.samplers import MixingReport
from foeslab import (
    ChainConfig,
    GraphModelSpec,
    RbmParams,
    UniformModelError,
    apply_gibbs_sweep,
    expected_standardized_log_prob,
    expected_statistic,
    gibbs_full_conditional,
    lrep,
    make_bernoulli,
    make_graph_model,
    make_multinomial,
    make_rbm_marginal,
    make_uniform,
    modal_set,
    normalized_score,
    run_gibbs,
    run_param_mh,
)


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestFullConditional:
    def test_uniform_model(self):
        probs = gibbs_full_conditional(make_uniform(3, 2), [0, 1, 0], 1)
        np.testing.assert_allclose(probs, 0.5, atol=1e-14)

    def test_bernoulli_independent_of_rest(self):
        model = make_bernoulli(4, 1.3)
        p = logistic(1.3)
        for rest in ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0]):
            probs = gibbs_full_conditional(model, rest, 2)
            assert probs[1] == pytest.approx(p, abs=1e-12)

    def test_conditional_ratio_equals_joint_ratio(self):
        # the defining identity, checked to 1e-12 across models and sites
        rng = np.random.default_rng(31)
        models = [
            make_multinomial(3, rng.normal(size=3)),
            make_rbm_marginal(RbmParams(rng.normal(size=3), rng.normal(size=2),
                                        rng.normal(size=(2, 3)))),
            make_graph_model(GraphModelSpec(4, params=tuple(rng.normal(size=3)))),
        ]
        for model in models:
            space = model.space
            for _ in range(20):
                x = space.decode(int(rng.integers(space.n_outcomes)))
                i = int(rng.integers(space.n_variables))
                probs = gibbs_full_conditional(model, x, i)
                a, b = rng.choice(space.alphabet_size, size=2, replace=False)
                xa, xb = x.copy(), x.copy()
                xa[i] = space.alphabet[a]
                xb[i] = space.alphabet[b]
                lhs = math.log(probs[a] / probs[b])
                rhs = model.log_prob(xa) - model.log_prob(xb)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            gibbs_full_conditional(make_bernoulli(3, 1.0), [0, 0, 0], 3)


class TestKernelStationarity:
    @pytest.mark.parametrize("model", [
        make_bernoulli(6, 0.8),
        make_multinomial(4, [1.0, 0.0, -0.5]),
        make_graph_model(GraphModelSpec(4, params=(0.2, 0.7, -0.3))),
        make_rbm_marginal(RbmParams([0.5, -1.0, 0.3], [0.7],
                                    [[0.4, -0.6, 0.2]])),
    ], ids=lambda m: m.family)
    def test_exact_distribution_is_invariant(self, model):
        exact = np.exp(model.log_probs())
        after = apply_gibbs_sweep(model, exact)
        assert 0.5 * np.abs(after - exact).sum() <= 1e-10

    def test_non_stationary_input_moves(self):
        model = make_bernoulli(4, 2.0)
        point = np.zeros(16)
        point[0] = 1.0
        after = apply_gibbs_sweep(model, point)
        assert 0.5 * np.abs(after - point).sum() > 0.5


class TestRunGibbs:
    def test_deterministic_given_seed(self):
        model = make_bernoulli(5, 0.7)
        cfg = ChainConfig(n_sweeps=200, burn_in=10, seed=123)
        a = run_gibbs(model, cfg, keep_trace=True)
        b = run_gibbs(model, cfg, keep_trace=True)
        np.testing.assert_array_equal(a.trace, b.trace)
        assert a.tv_distance == b.tv_distance
        c = run_gibbs(model, ChainConfig(n_sweeps=200, burn_in=10, seed=124),
                      keep_trace=True)
        assert not np.array_equal(a.trace, c.trace)

    def test_iid_chain_mixes(self):
        model = make_bernoulli(6, 0.5)
        report = run_gibbs(model, ChainConfig(n_sweeps=50000, burn_in=1000, seed=7))
        assert report.tv_distance < 0.02

    def test_strong_field_drawn_into_mode(self):
        # from the all-zeros corner the chain is pulled into the all-ones
        # mode and essentially never leaves
        model = make_bernoulli(10, 8.0)
        cfg = ChainConfig(n_sweeps=10000, burn_in=100, seed=3,
                          init_outcome=tuple([0] * 10))
        report = run_gibbs(model, cfg)
        assert report.modal_occupancy > 0.99
        assert report.mode_escape_time is None or report.mode_escape_time > 100

    def test_two_star_entrapment(self):
        spec = GraphModelSpec(5, params=(0.0, 2.0, 0.0),
                              active_terms=("two_stars",))
        model = make_graph_model(spec)
        cfg = ChainConfig(n_sweeps=10000, burn_in=500, seed=11,
                          init_outcome=tuple([0] * 10))
        report = run_gibbs(model, cfg)
        assert report.modal_occupancy > 0.95
        assert modal_set(model, 0.1).n_members / 1024 < 0.05
        # observed conditional spreads dominate the size-scaled range
        assert report.max_transition_log_ratio >= lrep(model).scaled_lrep

    def test_three_letter_alphabet_chain(self):
        # exercises the conditional index arithmetic beyond binary digits
        model = make_multinomial(4, [0.5, 0.0, -0.5])
        report = run_gibbs(model, ChainConfig(n_sweeps=30000, burn_in=500, seed=6))
        assert report.tv_distance < 0.05

    def test_random_scan_also_stationary(self):
        model = make_bernoulli(4, 0.6)
        report = run_gibbs(model, ChainConfig(n_sweeps=30000, burn_in=500, seed=5),
                           random_scan=True)
        assert report.tv_distance < 0.05

    def test_chain_average_matches_exact_expectation(self):
        # stable model: sample mean of the standardized position within 3
        # standard errors of the enumerated expectation (iid per sweep)
        model = make_bernoulli(6, 1.0)
        exact = expected_standardized_log_prob(model)
        report = run_gibbs(model, ChainConfig(n_sweeps=20000, burn_in=500, seed=13),
                           keep_trace=True)
        scores = model.scores()
        g = (scores - scores.min()) / (scores.max() - scores.min())
        samples = g[report.trace[500:]]
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - exact) <= 3 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_sweeps=10, burn_in=10)


class TestParamMh:
    def test_uniform_family_accepts_everything(self):
        family = lambda th: make_uniform(4, 2)
        res = run_param_mh(family, [0, 0, 0, 0],
                           ChainConfig(n_sweeps=500, seed=9), theta0=[0.0])
        assert res.acceptance_rate == 1.0

    def test_all_ones_data_drifts_upward(self):
        family = lambda th: make_bernoulli(8, float(np.atleast_1d(th)[0]))
        res = run_param_mh(family, [1] * 8, ChainConfig(n_sweeps=2000, seed=5),
                           theta0=[0.0], step_size=0.5)
        assert res.thetas[-200:, 0].mean() > 5.0

    def test_acceptance_ratio_self_consistency(self):
        # recompute each proposal's log ratio from scratch and compare
        family = lambda th: make_bernoulli(6, float(np.atleast_1d(th)[0]))
        data = [1, 1, 0, 1, 0, 1]
        res = run_param_mh(family, data, ChainConfig(n_sweeps=200, seed=17),
                           theta0=[0.3], step_size=0.8)

        def loglik(th):
            model = family(th)
            return model.log_probs()[model.space.encode(np.asarray(data))]

        for step in range(res.accepted.size):
            expected = loglik(res.proposals[step]) - loglik(res.thetas[step])
            assert res.log_alphas[step] == pytest.approx(expected, abs=1e-12)

    def test_prior_enters_ratio(self):
        family = lambda th: make_bernoulli(4, float(np.atleast_1d(th)[0]))
        tight_prior = lambda th: float(-0.5 * np.sum(np.asarray(th) ** 2) / 0.01)
        res = run_param_mh(family, [1, 1, 1, 1],
                           ChainConfig(n_sweeps=1000, seed=19),
                           theta0=[0.0], step_size=0.3, log_prior=tight_prior)
        assert np.abs(res.thetas[:, 0]).max() < 2.0

    @pytest.mark.parametrize("step_size", [0.0, -0.5, math.nan, math.inf])
    def test_step_size_must_be_positive_and_finite(self, step_size):
        def family(th):
            raise AssertionError("no model may be built")

        with pytest.raises(ValueError, match="step_size"):
            run_param_mh(family, [1], ChainConfig(n_sweeps=3), theta0=[0.0],
                         step_size=step_size)

    def test_step_size_collapse_on_degenerate_family(self):
        spec_family = lambda th: make_graph_model(GraphModelSpec(
            4, params=(0.0, float(np.atleast_1d(th)[0]), 0.0),
            active_terms=("two_stars",)))
        data = [1, 1, 1, 0, 0, 0]
        rates = []
        for step_size in (0.1, 1.0, 10.0):
            res = run_param_mh(spec_family, data,
                               ChainConfig(n_sweeps=2000, seed=21),
                               theta0=[0.0], step_size=step_size)
            rates.append(res.acceptance_rate)
        assert rates[0] > rates[1] > rates[2]
        assert rates[2] < 0.1


# name: (family over a parameter vector, vector length, data outcome); each
# family's params are the vector itself, so its ``at`` walks the same models
MH_FAMILIES = {
    "bernoulli": (lambda th: make_bernoulli(8, float(th[0])), 1,
                  [1, 1, 0, 1, 1, 1, 0, 1]),
    "multinomial": (lambda th: make_multinomial(4, th), 3, [1, 2, 3, 3]),
    "graph": (lambda th: make_graph_model(GraphModelSpec(5, params=tuple(th))), 3,
              [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]),
}


@pytest.mark.parametrize("prior", [None, lambda th: float(-0.5 * np.sum(th**2) / 4.0)],
                         ids=["flat", "normal"])
@pytest.mark.parametrize("name", MH_FAMILIES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1),
       step_size=st.floats(0.05, 3.0))
def test_param_mh_through_at_matches_fresh_models(name, prior, data, seed, step_size):
    family, k, outcome = MH_FAMILIES[name]
    theta0 = np.asarray(data.draw(st.lists(st.floats(-2, 2), min_size=k, max_size=k)))
    config = ChainConfig(n_sweeps=25, seed=seed)
    fresh, shared = (run_param_mh(f, outcome, config, theta0=theta0,
                                  step_size=step_size, log_prior=prior)
                     for f in (family, family(theta0).at))
    for field in ("thetas", "proposals", "accepted", "log_alphas"):
        assert getattr(fresh, field).tobytes() == getattr(shared, field).tobytes()


class TestExpectedStatistics:
    def test_standardized_position_bernoulli(self):
        model = make_bernoulli(10, 5.0)
        assert expected_standardized_log_prob(model) == pytest.approx(
            logistic(5.0), abs=1e-9)

    def test_sign_flip_symmetry(self):
        # under the negated parameter, the negated model's own statistic has
        # the same expectation: mass just sits at the opposite extreme
        pos = expected_standardized_log_prob(make_bernoulli(10, 5.0))
        neg = expected_standardized_log_prob(make_bernoulli(10, -5.0))
        assert neg == pytest.approx(pos, abs=1e-12)

    def test_argmax_position_is_one(self):
        model = make_bernoulli(6, 2.0)
        scores = model.scores()
        assert (scores.max() - scores.min()) > 0
        from foeslab import standardized_log_prob
        assert standardized_log_prob(model, lrep(model).argmax_outcome) == 1.0

    def test_uniform_rejected(self):
        with pytest.raises(UniformModelError):
            expected_standardized_log_prob(make_uniform(4, 2))

    def test_mean_statistic_bernoulli(self):
        mu = expected_statistic(make_bernoulli(6, 3.0))
        assert mu[0] == pytest.approx(6 * logistic(3.0), abs=1e-9)
        assert normalized_score(make_bernoulli(6, 3.0)) == pytest.approx(
            logistic(3.0), abs=1e-9)

    def test_zero_parameter_centered(self):
        assert normalized_score(make_bernoulli(5, 0.0)) == pytest.approx(
            0.5, abs=1e-12)

    def test_two_star_saturates(self):
        spec = GraphModelSpec(4, params=(0.0, 4.0, 0.0),
                              active_terms=("two_stars",))
        assert normalized_score(make_graph_model(spec)) > 0.99

    def test_monotone_in_theta(self):
        values = [normalized_score(make_bernoulli(5, th))
                  for th in np.linspace(-4, 4, 17)]
        assert np.all(np.diff(values) > 0)

    def test_multi_parameter_rejected(self):
        with pytest.raises(ValueError):
            normalized_score(make_multinomial(3, [1.0, 0.0, -1.0]))


# ---------------------------------------------------------------------------
# differential tests: the memoised kernel against the reference below, which
# normalises every site update afresh and draws one scalar uniform per update
# ---------------------------------------------------------------------------

def reference_run_gibbs(model, config, epsilon=0.1, random_scan=False,
                        keep_trace=False):
    scores = model.scores()
    logp = model.log_probs()
    mset = modal_set(model, epsilon)
    in_modal = np.isin(np.arange(model.space.n_outcomes), mset.members)
    k = model.space.alphabet_size
    n = model.n_variables
    strides = [k**i for i in range(n)]
    rng = _philox(config.seed)

    if config.init_outcome is None:
        idx = int(rng.integers(model.space.n_outcomes))
    else:
        idx = model.space.encode(np.asarray(config.init_outcome))

    trace = np.empty(config.n_sweeps, dtype=np.int64)
    max_ratio = 0.0
    entry_sweep = 0 if in_modal[idx] else None
    escape_time = None

    for sweep in range(1, config.n_sweeps + 1):
        order = rng.permutation(n) if random_scan else range(n)
        for i in order:
            stride = strides[i]
            digit = (idx // stride) % k
            base = idx - digit * stride
            cand = base + stride * np.arange(k)
            s = scores[cand]
            max_ratio = max(max_ratio, float(s.max() - s.min()))
            w = np.exp(s - s.max())
            w /= w.sum()
            digit = int(np.searchsorted(np.cumsum(w), rng.random(), side="right"))
            digit = min(digit, k - 1)
            idx = base + digit * stride
        trace[sweep - 1] = idx
        if entry_sweep is None and in_modal[idx]:
            entry_sweep = sweep
        elif entry_sweep is not None and escape_time is None and not in_modal[idx]:
            escape_time = sweep - entry_sweep

    kept = trace[config.burn_in:]
    occupancy = float(in_modal[kept].mean())
    counts = np.bincount(kept, minlength=model.space.n_outcomes)
    emp = counts / kept.size
    tv = 0.5 * float(np.abs(emp - np.exp(logp)).sum())

    return MixingReport(
        tv_distance=tv,
        max_transition_log_ratio=max_ratio,
        mode_escape_time=escape_time,
        modal_occupancy=occupancy,
        epsilon=epsilon,
        n_sweeps=config.n_sweeps,
        burn_in=config.burn_in,
        modal=mset,
        trace=trace if keep_trace else None,
    )


def reference_apply_gibbs_sweep(model, dist):
    scores = model.scores()
    k = model.space.alphabet_size
    n = model.n_variables
    dist = np.asarray(dist, dtype=np.float64).copy()
    for i in range(n):
        shape = _one_flip_shape(n, k, i)
        block = scores.reshape(shape)
        m = block.max(axis=1, keepdims=True)
        cond = np.exp(block - m)
        cond /= cond.sum(axis=1, keepdims=True)
        marg = dist.reshape(shape).sum(axis=1, keepdims=True)
        dist = (marg * cond).reshape(-1)
    return dist


def reference_full_conditional(model, outcome, index):
    outcome = np.asarray(outcome)
    k = model.space.alphabet_size
    completions = np.repeat(outcome[None, :], k, axis=0)
    completions[:, index] = model.space.alphabet
    scores = model.score(completions)
    m = scores.max()
    w = np.exp(scores - m)
    return w / w.sum()


def assert_same_chain(model, config, **kwargs):
    got = run_gibbs(model, config, keep_trace=True, **kwargs)
    want = reference_run_gibbs(model, config, keep_trace=True, **kwargs)
    assert got.trace.dtype == want.trace.dtype
    assert np.array_equal(got.trace, want.trace)
    for field in ("tv_distance", "max_transition_log_ratio", "mode_escape_time",
                  "modal_occupancy", "epsilon", "n_sweeps", "burn_in"):
        assert getattr(got, field) == getattr(want, field), field
    assert (got.modal.epsilon, got.modal.threshold, got.modal.mass) == \
        (want.modal.epsilon, want.modal.threshold, want.modal.mass)
    assert np.array_equal(got.modal.members, want.modal.members)


def two_star_model(theta2=2.0, active_terms=("two_stars",)):
    return make_graph_model(GraphModelSpec(5, params=(0.0, theta2, 0.0),
                                           active_terms=active_terms))


class TestMemoisedKernelMatchesReference:
    def test_readme_gibbs_example(self):
        model = make_graph_model(GraphModelSpec(5, params=(0.0, 2.0, 0.0)))
        assert_same_chain(model, ChainConfig(n_sweeps=10000, burn_in=500, seed=11,
                                             init_outcome=tuple([0] * 10)))

    def test_criterion_9_iid_chain(self):
        assert_same_chain(make_bernoulli(6, 0.5),
                          ChainConfig(n_sweeps=50000, burn_in=1000, seed=7))

    def test_criterion_9_trapped_chain(self):
        assert_same_chain(two_star_model(),
                          ChainConfig(n_sweeps=10000, burn_in=500, seed=11,
                                      init_outcome=tuple([0] * 10)), epsilon=0.1)

    def test_random_scan_three_letters(self):
        assert_same_chain(make_multinomial(3, [0.5, 0.0, -0.5]),
                          ChainConfig(n_sweeps=5000, seed=6), random_scan=True)

    @pytest.mark.parametrize("init", [None, (1, 3, 2, 1)])
    def test_random_and_given_start(self, init):
        assert_same_chain(make_multinomial(4, [1.0, 0.0, -0.5]),
                          ChainConfig(n_sweeps=2000, burn_in=300, seed=21,
                                      init_outcome=init))

    @pytest.mark.parametrize("limit", [0, 1])
    @pytest.mark.parametrize("random_scan", [False, True])
    def test_memo_limit_keeps_outputs(self, monkeypatch, limit, random_scan):
        monkeypatch.setattr(samplers, "_MEMO_LIMIT", limit)
        assert_same_chain(make_multinomial(3, [0.4, -0.2, 0.1]),
                          ChainConfig(n_sweeps=1500, burn_in=100, seed=8),
                          random_scan=random_scan)
        assert_same_chain(two_star_model(1.0, ("edges", "two_stars")),
                          ChainConfig(n_sweeps=500, seed=9,
                                      init_outcome=tuple([1] * 10)))

    def test_exact_sweep_and_full_conditional(self):
        rng = np.random.default_rng(5)
        models = [
            make_bernoulli(6, 0.8),
            make_multinomial(4, [1.0, 0.0, -0.5]),
            make_graph_model(GraphModelSpec(4, params=(0.2, 0.7, -0.3))),
            make_rbm_marginal(RbmParams([0.5, -1.0, 0.3, 0.9, -0.2], [0.7],
                                        [[0.4, -0.6, 0.2, 0.1, -0.8]])),
        ]
        for model in models:
            space = model.space
            for dist in (np.exp(model.log_probs()),
                         rng.dirichlet(np.ones(space.n_outcomes))):
                assert np.array_equal(apply_gibbs_sweep(model, dist),
                                      reference_apply_gibbs_sweep(model, dist))
            for _ in range(10):
                x = space.decode(int(rng.integers(space.n_outcomes)))
                i = int(rng.integers(space.n_variables))
                assert np.array_equal(gibbs_full_conditional(model, x, i),
                                      reference_full_conditional(model, x, i))


@st.composite
def small_models(draw):
    kind = draw(st.sampled_from(["bernoulli", "multinomial", "graph"]))
    param = st.floats(-4.0, 4.0, allow_nan=False)
    if kind == "bernoulli":
        return make_bernoulli(draw(st.integers(1, 6)), draw(param))
    if kind == "multinomial":
        k = draw(st.sampled_from([2, 3]))
        return make_multinomial(draw(st.integers(1, 4)),
                                draw(st.lists(param, min_size=k, max_size=k)))
    return make_graph_model(GraphModelSpec(
        draw(st.sampled_from([3, 4])),
        params=tuple(draw(st.lists(param, min_size=3, max_size=3)))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=small_models(), seed=st.integers(0, 2**64 - 1),
       n_sweeps=st.integers(1, 60), burn_frac=st.floats(0.0, 0.9),
       random_scan=st.booleans(), start=st.none() | st.integers(0, 2**63),
       epsilon=st.sampled_from([0.05, 0.1, 0.5]))
def test_memoised_kernel_matches_reference(model, seed, n_sweeps, burn_frac,
                                           random_scan, start, epsilon):
    space = model.space
    init = None if start is None else \
        tuple(int(v) for v in space.decode(start % space.n_outcomes))
    config = ChainConfig(n_sweeps=n_sweeps, burn_in=int(burn_frac * n_sweeps),
                         seed=seed, init_outcome=init)
    assert_same_chain(model, config, epsilon=epsilon, random_scan=random_scan)


def count_conditionals(monkeypatch):
    calls = []
    original = samplers._site_conditional
    monkeypatch.setattr(samplers, "_site_conditional",
                        lambda *args, **kwargs: calls.append(1)
                        or original(*args, **kwargs))
    return calls


def test_each_site_block_is_normalised_once(monkeypatch):
    # 4 sites x 8 blocks per site; a chain of 4,000 site updates visits all
    # 32 and must normalise each exactly once
    calls = count_conditionals(monkeypatch)
    run_gibbs(make_bernoulli(4, 0.0), ChainConfig(n_sweeps=1000, seed=3))
    assert len(calls) == 4 * 2**3
    # a chain shorter than the number of blocks normalises at most once per update
    calls.clear()
    run_gibbs(make_bernoulli(10, 0.3), ChainConfig(n_sweeps=3, seed=3))
    assert 0 < len(calls) <= 3 * 10


def test_past_the_memo_limit_every_update_is_computed(monkeypatch):
    monkeypatch.setattr(samplers, "_MEMO_LIMIT", 0)
    calls = count_conditionals(monkeypatch)
    run_gibbs(make_bernoulli(4, 0.0), ChainConfig(n_sweeps=100, seed=3))
    assert len(calls) == 4 * 100
