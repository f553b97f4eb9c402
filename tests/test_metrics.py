"""Extremal log-ratio, one-flip sensitivity, modal sets, path verdicts."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import foeslab.core
import foeslab.metrics
import foeslab.zoo
from foeslab import (
    GraphModelSpec,
    LinearExpFamily,
    OutcomeSpace,
    RbmParams,
    UniformModelError,
    check_prop1_condition,
    classify_path,
    delta_n,
    g_distance,
    graph_lower_bound,
    graph_statistic_extremes,
    graph_statistics,
    lrep,
    make_bernoulli,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
    modal_set,
    standardized_log_prob,
)
from foeslab.core import CertificateError, _chunk_digits, _float_above, _one_flip_shape
from foeslab.metrics import ParameterPath, PathThresholds, _line_aligned, _one_flip_range


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


def random_one_param_family(rng, n):
    """Linear family on {0,1}^n with a random per-outcome statistic table."""
    table = rng.uniform(-4.0, 4.0, size=2**n)
    weights = (2 ** np.arange(n)).astype(np.int64)

    def stat_fn(outcomes):
        return table[np.asarray(outcomes) @ weights]

    theta = float(rng.uniform(-3.0, 3.0))
    space = OutcomeSpace(n, (0, 1))
    return LinearExpFamily(space, stat_fn, [theta]), table, theta


def naive_delta(model):
    """Quadratic-loop oracle for the largest one-flip log-ratio."""
    space = model.space
    logp = model.log_probs()
    best = 0.0
    for i in range(space.n_outcomes):
        x = space.decode(i)
        for var in range(space.n_variables):
            for sym in space.alphabet:
                if sym == x[var]:
                    continue
                y = x.copy()
                y[var] = sym
                best = max(best, abs(logp[i] - logp[space.encode(y)]))
    return best


class TestLrep:
    def test_uniform_is_zero(self):
        r = lrep(make_uniform(4, 3))
        assert r.lrep == 0.0 and r.scaled_lrep == 0.0

    def test_bernoulli_value_and_argmax(self):
        r = lrep(make_bernoulli(5, 2.0))
        assert r.lrep == pytest.approx(10.0, abs=1e-12)
        assert r.scaled_lrep == pytest.approx(2.0, abs=1e-12)
        assert r.argmax_outcome == (1, 1, 1, 1, 1)
        assert r.argmin_outcome == (0, 0, 0, 0, 0)

    def test_ties_break_to_lowest_index(self):
        r = lrep(make_uniform(3, 2))
        assert r.argmax_index == 0 and r.argmin_index == 0

    def test_one_parameter_identity_random_statistics(self):
        # enumerated LREP equals |theta| (max g - min g) for any statistic
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            model, table, theta = random_one_param_family(rng, n)
            expected = abs(theta) * (table.max() - table.min())
            assert lrep(model).lrep == pytest.approx(expected, abs=1e-9)


class TestDeltaN:
    def test_uniform_is_zero(self):
        assert delta_n(make_uniform(3, 3)) == 0.0

    def test_bernoulli_equals_abs_theta(self):
        assert delta_n(make_bernoulli(5, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_independence_model_largest_field(self):
        params = RbmParams([1.0, -3.0], [], np.zeros((0, 2)))
        assert delta_n(make_rbm_marginal(params)) == pytest.approx(6.0, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(21)
        models = [
            make_bernoulli(4, float(rng.normal())),
            make_multinomial(3, rng.normal(size=3)),
            make_graph_model(GraphModelSpec(4, params=tuple(rng.normal(size=3)))),
            make_rbm_marginal(RbmParams(rng.normal(size=3), rng.normal(size=2),
                                        rng.normal(size=(2, 3)))),
        ]
        for model in models:
            assert delta_n(model) == pytest.approx(naive_delta(model), abs=1e-10)

    def test_dominates_scaled_lrep_on_random_zoo(self):
        # one-flip ratio bounds the size-scaled extremal range, any model
        rng = np.random.default_rng(22)
        for _ in range(100):
            kind = rng.integers(4)
            if kind == 0:
                model = make_bernoulli(int(rng.integers(1, 11)), float(rng.normal()))
            elif kind == 1:
                model = make_multinomial(int(rng.integers(1, 6)),
                                         rng.normal(size=int(rng.integers(2, 5))))
            elif kind == 2:
                model = make_graph_model(GraphModelSpec(
                    4, params=tuple(rng.normal(size=3))))
            else:
                n = int(rng.integers(1, 8))
                nh = int(rng.integers(0, min(5, 12 - n) + 1))
                model = make_rbm_marginal(RbmParams(
                    rng.uniform(-3, 3, n), rng.uniform(-3, 3, nh),
                    rng.uniform(-3, 3, (nh, n))))
            r = lrep(model)
            assert delta_n(model) >= r.scaled_lrep - 1e-12


class TestModalSet:
    def test_bernoulli_single_mode(self):
        mset = modal_set(make_bernoulli(5, 2.0), 0.1)
        assert list(mset.members) == [31]  # all-ones outcome
        assert mset.mass == pytest.approx(logistic(2.0) ** 5, abs=1e-12)

    def test_uniform_boundary_keeps_all_outcomes(self):
        mset = modal_set(make_uniform(3, 2), 0.4)
        assert mset.n_members == 8
        assert mset.mass == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(23)
        model = make_rbm_marginal(RbmParams(rng.normal(size=4), rng.normal(size=2),
                                            rng.normal(size=(2, 4))))
        previous = set()
        for eps in (0.05, 0.1, 0.3, 0.6, 0.9):
            members = set(modal_set(model, eps).members.tolist())
            assert previous <= members
            previous = members

    def test_epsilon_domain(self):
        model = make_bernoulli(2, 1.0)
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                modal_set(model, eps)

    def test_argmax_always_member(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            model = make_multinomial(3, rng.normal(size=3))
            mset = modal_set(model, float(rng.uniform(0.01, 0.99)))
            assert lrep(model).argmax_index in set(mset.members.tolist())

    def test_log_n_path_masses_match_binomial_oracle(self):
        # masses along theta = ln N sawtooth with the integer threshold;
        # the exact values come from an independent binomial computation
        masses = {}
        for n in range(4, 15):
            theta = math.log(n)
            masses[n] = modal_set(make_bernoulli(n, theta), 0.1).mass
            p = logistic(theta)
            cut = 0.9 * n  # statistic threshold: s strictly above, ties in
            oracle = sum(math.comb(n, s) * p**s * (1 - p) ** (n - s)
                         for s in range(n + 1) if s > cut - 1e-9)
            assert masses[n] == pytest.approx(oracle, abs=1e-12)
        # growth shows up end to end even though the path is not monotone
        assert masses[14] > masses[4]
        assert masses[8] < masses[4]  # the dip that breaks monotonicity


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=st.sampled_from([(10, 0.5), (12, 0.5), (10, 0.25), (12, 0.125)]),
       exponent=st.floats(0, 12), whole=st.booleans(), sign=st.sampled_from([1.0, -1.0]))
@example(case=(10, 0.5), exponent=7.0, whole=True, sign=1.0)
@example(case=(12, 0.5), exponent=12.0, whole=True, sign=-1.0)
def test_modal_ties_are_members_at_every_scale(case, exponent, whole, sign):
    # theta from 1 to 1e12, at whole powers of ten and between them. The
    # stored scores are fl(t theta), and fl(n theta) = 2 fl(n theta / 2), so
    # at eps = 0.5 the level t = n / 2 ties the threshold exactly; at the
    # other two the threshold lies half a level from the nearest. log Z
    # cancels from the comparison, so the members are the outcomes whose
    # stored score clears the threshold in exact rationals. At theta = 1e7
    # the 1e-9 tolerance alone was below an ulp of the threshold, and the
    # 252 tied outcomes of Bernoulli-10 fell out
    (n, epsilon), theta = case, sign * 10.0 ** (round(exponent) if whole else exponent)
    model = make_bernoulli(n, theta)
    scores = model.scores()
    lo, hi = Fraction(float(scores.min())), Fraction(float(scores.max()))
    cut = (1 - Fraction(epsilon)) * hi + Fraction(epsilon) * lo
    want = [i for i, s in enumerate(scores.tolist()) if Fraction(s) >= cut]
    assert modal_set(model, epsilon).members.tolist() == want


def test_modal_tie_tolerance_is_the_floor_at_ordinary_sizes():
    # gamma_8 M passes 1e-9 only once M = max |log P| passes about 1.1e6
    tol = foeslab.metrics.modal_tie_tol
    assert tol(-0.0, 0.0) == tol(-1.0, -1e6) == foeslab.metrics.MODAL_TIE_TOL
    assert tol(0.0, -1e7) > foeslab.metrics.MODAL_TIE_TOL
    assert tol(0.0, -1e7) == _float_above(foeslab.core._gamma(8) * Fraction(1e7))


def _edge_zero_twice(spec):
    # graph counts with edge 0 counted twice: no longer kept by relabelling
    return lambda x: graph_statistics(spec, x)[:, :2] + np.outer(x[:, 0], [1.0, 0.0])


@pytest.mark.parametrize("build", [
    lambda: LinearExpFamily(OutcomeSpace(10, (0, 1)), _edge_zero_twice(GraphModelSpec(5)),
                            [1.5, -0.25]),
    lambda: make_graph_model(GraphModelSpec(7, params=(-0.4, 0.3, -0.1))),
    lambda: make_graph_model(GraphModelSpec(6, params=(0.0, 1.0, 0.0))),
    lambda: make_graph_model(GraphModelSpec(7, params=(0.2, 0.3, 0.1))).at([-0.4, 0.3, -0.1]),
    lambda: make_bernoulli(12, -1.3),
    lambda: make_multinomial(7, [0.7, -1.1, 0.25]),
], ids=["custom-edge-zero", "graph-stats-first", "graph-stats-first-tie", "graph-at",
        "bernoulli", "multinomial"])
def test_delta_n_of_unkeyed_tables_is_the_full_scan(build):
    # only a table gathered by the graph's count keys reads one digit; a
    # statistic that singles out edge 0, tables made from the statistic
    # table (first, or shared by ``at``), and the other linear families
    # take the full scan. The custom family's top digit moves its score by
    # 1.5 at most where edge 0's flip moves it by 3, so one digit's read
    # would be wrong there
    model = build()
    if model.family == "graph" and model._stat_slot[0] is None:
        model.statistic_values()
    table = model.scores()
    assert not model.exchangeable()
    want = _one_flip_range(table, model.n_variables, model.space.alphabet_size)
    assert delta_n(model).hex() == float(want).hex()


class TestStandardizedLogProb:
    def test_extremes(self):
        model = make_bernoulli(4, 1.5)
        r = lrep(model)
        assert standardized_log_prob(model, r.argmax_outcome) == 1.0
        assert standardized_log_prob(model, r.argmin_outcome) == 0.0

    def test_bernoulli_linear_in_count(self):
        model = make_bernoulli(5, 2.0)
        for s in range(6):
            x = [1] * s + [0] * (5 - s)
            assert standardized_log_prob(model, x) == pytest.approx(s / 5, abs=1e-12)

    def test_uniform_rejected(self):
        with pytest.raises(UniformModelError):
            standardized_log_prob(make_uniform(3, 2), [0, 0, 0])

    @pytest.mark.parametrize("nv, nh, model_of", [
        (6, 10, make_rbm_joint), (12, 3, make_rbm_marginal),
    ], ids=["rbm_joint-6+10", "rbm_marginal-12+3"])
    def test_reads_the_table_entry(self, nv, nh, model_of):
        # g_distance's profile of the table, bit for bit: exactly 1 at the
        # argmax and 0 at the argmin with no clip
        rng = np.random.default_rng(nv + nh)
        model = model_of(RbmParams(rng.uniform(-2, 2, nv), rng.uniform(-2, 2, nh),
                                   rng.uniform(-2, 2, (nh, nv))))
        scores = model.scores()
        profile = (scores - scores.min()) / (scores.max() - scores.min())
        got = [standardized_log_prob(model, x) for x in model.space.all_outcomes()]
        assert np.array(got).tobytes() == profile.tobytes()
        r = lrep(model)
        assert standardized_log_prob(model, r.argmax_outcome) == 1.0
        assert standardized_log_prob(model, r.argmin_outcome) == 0.0
        with pytest.raises(ValueError, match="not in alphabet"):
            standardized_log_prob(model, [2] * model.n_variables)


class TestGDistance:
    def test_self_distance_zero(self):
        model = make_bernoulli(4, 1.0)
        assert g_distance(model, model) == 0.0

    def test_scale_invariance_same_sign(self):
        a = make_bernoulli(4, -1.0)
        b = make_bernoulli(4, -3.7)
        assert g_distance(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_reaches_one(self):
        a = make_bernoulli(4, 2.0)
        b = make_bernoulli(4, -2.0)
        assert g_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pseudometric_triangle(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            models = [make_multinomial(2, rng.normal(size=3)) for _ in range(3)]
            dab = g_distance(models[0], models[1])
            dbc = g_distance(models[1], models[2])
            dac = g_distance(models[0], models[2])
            assert dac <= dab + dbc + 1e-12
            assert dab == pytest.approx(g_distance(models[1], models[0]), abs=0)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            g_distance(make_bernoulli(3, 1.0), make_bernoulli(4, 1.0))
        with pytest.raises(UniformModelError):
            g_distance(make_bernoulli(3, 0.0), make_bernoulli(3, 1.0))


class TestProp1Condition:
    def test_multinomial_is_max_abs_theta(self):
        model = make_multinomial(3, [1.0, 0.0, -2.5])
        assert check_prop1_condition(model) == pytest.approx(2.5, abs=1e-12)

    def test_bernoulli_is_abs_theta(self):
        assert check_prop1_condition(make_bernoulli(6, -1.7)) == pytest.approx(
            1.7, abs=1e-12)

    def test_two_star_graph(self):
        spec = GraphModelSpec(4, params=(0.0, 1.0, 0.0))
        model = make_graph_model(spec)
        assert check_prop1_condition(model) == pytest.approx(2.0, abs=1e-12)

    def test_accepts_precomputed_extremes(self):
        spec = GraphModelSpec(4, params=(0.0, 1.0, 0.0))
        model = make_graph_model(spec)
        ext = graph_statistic_extremes(spec)
        u = np.array([ext[t][0] for t in spec.active_terms])
        l = np.array([ext[t][1] for t in spec.active_terms])
        assert check_prop1_condition(model, (u, l)) == pytest.approx(2.0, abs=1e-12)


class TestGraphLowerBound:
    def test_two_star_case(self):
        spec = GraphModelSpec(4, params=(0.0, 1.0, 0.0))
        bound = graph_lower_bound(spec)
        assert bound == pytest.approx(2.0, abs=1e-12)
        assert lrep(make_graph_model(spec)).scaled_lrep >= bound - 1e-12

    def test_zero_parameters(self):
        assert graph_lower_bound(GraphModelSpec(4)) == 0.0

    def test_balanced_two_star_triangle_cancellation(self):
        # theta2 = -theta3/3 zeroes the complete-graph branch; the
        # bipartite branch still certifies instability
        spec = GraphModelSpec(4, params=(0.0, -1.0, 3.0))
        bound = graph_lower_bound(spec)
        assert bound == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert bound > 0
        assert lrep(make_graph_model(spec)).scaled_lrep >= bound - 1e-12

    def test_is_a_lower_bound_with_edges_active(self):
        # the branch constants come from direct statistic evaluation, so the
        # bound can never exceed the enumerated scaled extremal range
        rng = np.random.default_rng(26)
        for n in (4, 6):
            for _ in range(10):
                spec = GraphModelSpec(n, params=tuple(rng.uniform(-2, 2, 3)))
                bound = graph_lower_bound(spec)
                scaled = lrep(make_graph_model(spec)).scaled_lrep
                assert scaled >= bound - 1e-10

    def test_odd_node_count_unsupported(self):
        with pytest.raises(ValueError):
            graph_lower_bound(GraphModelSpec(5, params=(0.0, 1.0, 0.0)))


class TestClassifyPath:
    def bernoulli_family(self):
        return lambda n, p: make_bernoulli(n, float(p[0]))

    def test_constant_parameter_reads_stable(self):
        path = ParameterPath(self.bernoulli_family(),
                             tuple((n, np.array([1.0])) for n in (4, 6, 8, 10)))
        verdict = classify_path(path)
        assert verdict.verdict == "empirically-stable"
        np.testing.assert_allclose(verdict.scaled_lreps, 1.0, atol=1e-12)

    def test_growing_parameter_reads_unstable(self):
        path = ParameterPath(self.bernoulli_family(),
                             tuple((n, np.array([float(n)])) for n in (4, 6, 8, 10)))
        verdict = classify_path(path)
        assert verdict.verdict == "empirically-unstable"
        assert verdict.trend_slope == pytest.approx(1.0, abs=1e-12)

    def test_two_star_path_with_configured_level(self):
        # scaled values are n-2 in {2,3,4}; the default level of 5 reads
        # inconclusive, a configured level of 3 flags the growth
        family = lambda n, p: make_graph_model(
            GraphModelSpec(n, params=(0.0, float(p[0]), 0.0),
                           active_terms=("two_stars",)))
        path = ParameterPath(family, tuple((n, np.array([1.0])) for n in (4, 5, 6)))
        assert classify_path(path).verdict == "inconclusive"
        verdict = classify_path(path, PathThresholds(level=3.0))
        assert verdict.verdict == "empirically-unstable"
        np.testing.assert_allclose(verdict.scaled_lreps, [2.0, 3.0, 4.0], atol=1e-9)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            ParameterPath(self.bernoulli_family(),
                          ((4, np.array([1.0])), (6, np.array([1.0]))))
        with pytest.raises(ValueError):
            ParameterPath(self.bernoulli_family(),
                          ((4, np.array([1.0])), (4, np.array([1.0])),
                           (6, np.array([1.0]))))

    @pytest.mark.parametrize("kwargs", [{"flatness": math.nan}, {"level": math.nan}])
    def test_nan_threshold_is_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must not be NaN"):
            PathThresholds(**kwargs)


def _max_minus_min_one_flip_range(table, n_variables, k):
    """The per-block max - min form that _one_flip_range replaced."""
    draws = table.shape[1:]
    best = np.zeros(draws)
    for i in range(n_variables):
        block = table.reshape(*_one_flip_shape(n_variables, k, i), *draws)
        spread = block.max(axis=1) - block.min(axis=1)
        np.maximum(best, spread.max(axis=(0, 1)), out=best)
    return best


def _brute_one_flip_range(table, n_variables, k):
    """Largest |difference| over every decoded pair of outcomes one flip apart."""
    space = OutcomeSpace(n_variables, tuple(range(k)))
    best = np.zeros(table.shape[1:])
    for a in range(space.n_outcomes):
        x = space.decode(a)
        for i in range(n_variables):
            for symbol in range(k):
                if symbol != x[i]:
                    y = x.copy()
                    y[i] = symbol
                    b = space.encode(y)
                    np.maximum(best, np.abs(table[a] - table[b]), out=best)
    return best


def _per_variable_one_flip_range(table, n_variables, k):
    """_one_flip_range before the piecewise scan, verbatim: a full-size
    temporary per variable and symbol pair."""
    draws = table.shape[1:]
    best = np.zeros(draws)
    for i in range(n_variables):
        block = table.reshape(*_one_flip_shape(n_variables, k, i), *draws)
        # the largest pairwise |difference| is max - min exactly: rounding
        # is monotone and fl(a - b) = -fl(b - a)
        for j in range(1, k):
            for jp in range(j):
                spread = block[:, j] - block[:, jp]
                np.abs(spread, out=spread)
                np.maximum(best, spread.max(axis=(0, 1)), out=best)
    return best


def _piecewise_one_flip_range(table, n_variables, k):
    """_one_flip_range before the cache-resident blocks, verbatim: aligned
    pieces for the low digits, and every higher digit streamed through the
    whole table once."""
    draws = table.shape[1:]
    rows = table.reshape(table.shape[0], -1)
    low = _chunk_digits(n_variables, k)
    piece = k**low
    buffer = np.empty(piece // k * rows.shape[1])
    best = np.zeros(rows.shape[1])

    def scan(block: np.ndarray) -> None:
        # block is (runs, k, run length, draws); axis 1 holds one flip.
        # The largest pairwise |difference| is max - min exactly: rounding
        # is monotone and fl(a - b) = -fl(b - a)
        spread = buffer[:block[:, 0].size].reshape(block[:, 0].shape)
        for j in range(1, k):
            for jp in range(j):
                np.subtract(block[:, j], block[:, jp], out=spread)
                np.abs(spread, out=spread)
                np.maximum(best, spread.max(axis=(0, 1)), out=best)

    for start in range(0, len(rows), piece):
        part = rows[start:start + piece]
        for i in range(low):
            scan(part.reshape(*_one_flip_shape(low, k, i), -1))
    for i in range(low, n_variables):
        block = rows.reshape(*_one_flip_shape(n_variables, k, i), -1)
        for run in range(len(block)):
            for start in range(0, block.shape[2], piece // k):
                scan(block[run:run + 1, :, start:start + piece // k])
    return best.reshape(draws)


@st.composite
def piecewise_tables(draw):
    """A table, its shape, and a chunk size (None: the default)."""
    k = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 10, 3: 6, 5: 4}[k]))
    draws = draw(st.sampled_from([(), (1,), (4,)]))
    # chunks of a few rows split the runs of every higher variable
    chunk = draw(st.sampled_from([None, k, k * k + 1, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (k**n, *draws)
    # half the entries from a small pool, so ties and repeated gaps are common
    pool = rng.choice([0.0, -0.0, 1.0, -2.5, 0.1, 0.2, 0.3], size=shape)
    table = np.where(rng.random(shape) < 0.5, pool, 10 * rng.standard_normal(shape))
    return table, n, k, chunk


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=piecewise_tables())
def test_piecewise_one_flip_range_is_the_per_variable_scan(case):
    table, n, k, chunk = case
    want = _per_variable_one_flip_range(table, n, k)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        got = _one_flip_range(table, n, k)
        parent = _piecewise_one_flip_range(table, n, k)
    assert got.shape == want.shape == table.shape[1:]
    assert got.tobytes() == want.tobytes() == parent.tobytes()


def _cache_resident_one_flip_range(table, n_variables, k):
    """_one_flip_range before its scan views were planned once per buffer,
    verbatim: views rebuilt for every digit of every block, and each scan's
    maximum folded in at once."""
    draws = table.shape[1:]
    rows = table.reshape(table.shape[0], -1)
    m, width = _chunk_digits(n_variables, k), rows.shape[1]
    half = sum(k**i * width < k ** (m // 2) for i in range(m // 2))
    copy = np.empty(k**m * width if half or m < n_variables else 0)
    buffer = np.empty(k ** (m - 1) * width)
    best = np.zeros(width)

    def scan(block: np.ndarray, upper: int) -> None:
        for i in range(m - upper, m):
            flip = block.reshape(*_one_flip_shape(m, k, i), width)
            spread = buffer.reshape(flip[:, 0].shape)
            for j in range(1, k):
                for jp in range(j):
                    np.subtract(flip[:, j], flip[:, jp], out=spread)
                    np.abs(spread, out=spread)
                    np.maximum(best, spread.max(axis=(0, 1)), out=best)

    for start in range(0, len(rows), k**m):
        part = rows[start:start + k**m]
        scan(part, m - half)
        if half:
            np.copyto(copy.reshape(k**half, -1, width),
                      part.reshape(-1, k**half, width).transpose(1, 0, 2))
            scan(copy, half)
    for low in range(m, n_variables, m - half):
        upper = min(m - half, n_variables - low)
        run = k ** (m - upper)
        slab = copy.reshape(k**upper, run, width)
        for group in rows.reshape(-1, k**upper, k**low, width):
            for start in range(0, k**low, run):
                np.copyto(slab, group[:, start:start + run])
                scan(slab, upper)
    return best.reshape(draws)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=piecewise_tables())
def test_planned_one_flip_range_is_the_cache_resident_scan(case):
    # k = 2, 3 and 5, with and without a draws axis, over chunk sizes that
    # leave one piece, transposed pieces, and several slab groups
    table, n, k, chunk = case
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        got = _one_flip_range(table, n, k)
        want = _cache_resident_one_flip_range(table, n, k)
    assert got.shape == want.shape == table.shape[1:]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, k, draws", [(21, 2, ()), (12, 3, ()), (9, 2, (100,))])
def test_planned_one_flip_range_is_the_cache_resident_scan_at_size(n, k, draws):
    # a multi-chunk graph table, a multinomial one, and one figure1 block
    table = np.random.default_rng(n).standard_normal((k**n, *draws))
    got = _one_flip_range(table, n, k)
    assert got.tobytes() == _cache_resident_one_flip_range(table, n, k).tobytes()


@st.composite
def one_flip_tables(draw):
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, {2: 6, 3: 4, 4: 3}[k]))
    draws = draw(st.sampled_from([(), (1,), (3,)]))
    size = k**n * int(np.prod(draws, dtype=np.int64))
    # a small value pool makes exact ties and repeated differences common
    pool = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 0.2, 0.3, 1e308, -1e308])
    values = draw(st.lists(st.one_of(pool, st.floats(allow_nan=False,
                                                     allow_infinity=False)),
                           min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(k**n, *draws), n, k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=one_flip_tables())
def test_one_flip_range_equals_max_minus_min_and_brute_force(case):
    table, n, k = case
    with np.errstate(over="ignore"):  # +-1e308 differences overflow to inf
        got = _one_flip_range(table, n, k)
        old = _max_minus_min_one_flip_range(table, n, k)
        brute = _brute_one_flip_range(table, n, k)
    assert got.shape == table.shape[1:]
    assert np.array_equal(got, old)
    assert np.array_equal(got, brute)


def _with_digit(index, n_variables, k, i, symbol):
    """``index`` with little-endian base-k digit i set to ``symbol``."""
    digits = [index // k**d % k for d in range(n_variables)]
    digits[i] = symbol
    return sum(v * k**d for d, v in enumerate(digits))


@pytest.mark.parametrize("k, n, chunk", [(2, 9, 2**4), (3, 7, 3**3)])
@pytest.mark.parametrize("draws", [(), (3,)])
def test_one_flip_range_finds_a_planted_largest_pair_on_every_digit(k, n, chunk,
                                                                    draws):
    # pieces of k^m rows (m = 4 and 3) leave 5 and 4 digits above a piece,
    # which take 2 or 3 groups; every other one-flip spread is below 11, so
    # a scan that misses the planted pair of spread 20 reads low
    m = {2: 4, 3: 3}[k]
    base = np.random.default_rng(k).random((k**n, *draws))
    # the rows on either side of one boundary of aligned runs of k^r rows,
    # for every r: piece ends, transposed-run ends and slab-run ends among them
    rng = np.random.default_rng(n)
    starts = [0, k**n - 1] + [s + d for r in range(1, n)
                              for s in [k**r * int(rng.integers(1, k ** (n - r)))]
                              for d in (-1, 0)]
    column = (1,) if draws else ()  # the draw that holds the pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        assert foeslab.core._chunk_digits(n, k) == m
        for i in range(n):
            for start in starts:
                lo, hi = sorted(rng.choice(k, size=2, replace=False))
                a = _with_digit(start, n, k, i, lo)
                b = _with_digit(start, n, k, i, hi)
                table = base.copy()
                table[(a, *column)], table[(b, *column)] = 10.0, -10.0
                got = _one_flip_range(table, n, k)
                want = _max_minus_min_one_flip_range(table, n, k)
                assert got.tobytes() == want.tobytes(), (i, a, b)
                assert got[column] == 20.0, (i, a, b)


def test_one_flip_range_allocates_one_and_a_half_chunks():
    # the transposed copy or slab (one chunk) and the spread buffer (half a
    # chunk at k = 2), plus the iterator buffers numpy allocates for a
    # strided subtract (two operands); the 8 MB table is never copied
    table = np.random.default_rng(0).standard_normal(2**20)
    chunk_bytes = foeslab.core._CHUNK_OUTCOMES * table.itemsize
    ufunc_bytes = 2 * np.getbufsize() * table.itemsize
    tracemalloc.start()
    try:
        _one_flip_range(table, 20, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * chunk_bytes + ufunc_bytes + 2**14


@st.composite
def bounded_joint_rbms(draw):
    """(params, chunk, line_digits) of joint RBMs of 1-10 visibles and 0-8
    hiddens, or of more hiddens than visibles (1-5 and up to 10), at scales
    1e-3 to 1e12: normal draws, exact ties, W = 0, scattered signed zeros,
    or every parameter a signed zero. Patched chunks of 4 and 16 run on at
    most 2^12 outcomes, where a scan's pieces stay few. ``line_digits`` None
    keeps the envelope's own threshold for bounding a side line by line; 1
    bounds every side so, 4 only sides of lines of 2^4 entries or more."""
    chunk = draw(st.sampled_from([None, 4, 16]))
    if draw(st.booleans()):
        nv = draw(st.integers(1, 5))
        nh = draw(st.integers(nv + 1, 10 if chunk is None else 12 - nv))
    else:
        nv = draw(st.integers(1, 10))
        nh = draw(st.integers(0, 8 if chunk is None else min(8, 12 - nv)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e12]))
    kind = draw(st.sampled_from(["normal", "ties", "uncoupled", "signed_zeros", "zero"]))
    line_digits = draw(st.sampled_from([None, 1, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, h, w = (rng.normal(size=size) * scale for size in (nv, nh, (nh, nv)))
    signs = lambda size: rng.choice([-1.0, 1.0], size=size)
    if kind == "ties":
        # equal |biases| and equal coupling columns: rows and columns tie in
        # pairs and runs
        v, h, w = v[0] * signs(nv), h[:1] * signs(nh), np.repeat(w[:, :1], nv, axis=1)
    elif kind == "uncoupled":
        w = 0.0 * signs((nh, nv))
    elif kind in ("signed_zeros", "zero"):
        p = 0.5 if kind == "signed_zeros" else 1.0
        v, h, w = (np.where(rng.random(np.shape(a)) < p, 0.0 * signs(np.shape(a)), a)
                   for a in (v, h, w))
    return RbmParams(v, h, w), chunk, line_digits


def digit_spreads(lines: np.ndarray, digit: int) -> np.ndarray:
    """Oracle: each line's largest max - min over pairs one flip of
    ``digit`` apart."""
    pair = lines.reshape(len(lines), -1, 2, 2**digit)
    return (pair.max(axis=2) - pair.min(axis=2)).max(axis=(1, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=bounded_joint_rbms())
@example(case=(RbmParams(-0.0 * np.ones(10), np.zeros(8), np.zeros((8, 10))), None, None))
@example(case=(RbmParams(np.full(10, 1e12), np.full(8, -1e12), np.full((8, 10), 3e11)),
               None, None))
@example(case=(RbmParams(np.full(2, 0.5), np.zeros(10), np.full((10, 2), 0.25)), None, None))
# both rows peak at 1.807 in exact arithmetic and in the table, but their
# bounds round an ulp apart, the higher in row 1: row 0 must still be read
@example(case=(RbmParams([0.903, 0.904], [0.0], [[-0.206, 0.206]]), None, 1))
def test_enveloped_reads_are_the_full_pass_and_each_bound_holds(case):
    # the envelope route reads only the rows, and the pieces (one digit's
    # flips in a row, a column or the whole grid), whose bound can reach the
    # answer, so it returns the full pass's extremes and delta_N bit for
    # bit; its first read is a piece of largest bound, no row or piece is
    # read twice, and every row or piece it leaves out is certified not to
    # hold the answer
    params, chunk, line_digits = case
    nv, nh = params.n_visible, params.n_hidden
    rows_read, pieces, cut = [], [], foeslab.core._batches

    def batches(lines, picked):
        rows_read.extend(picked.tolist())
        return cut(lines, picked)

    def counted(side, digit, picked, slack):
        s = int(side[2] is not envelope.row_flips)
        pieces.extend((s, digit, int(p)) for p in picked)
        return read(side, digit, picked, slack)

    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        if line_digits is not None:
            patch.setattr(foeslab.zoo, "_LINE_BOUND_DIGITS", line_digits)
        model = make_rbm_joint(params)
        patch.setattr(foeslab.core, "_batches", batches)
        table, n = model.scores(), model.n_variables
        assert model.extreme_indices() == (int(np.argmax(table)), int(np.argmin(table)))
        envelope, read = model.envelope(), foeslab.metrics._read_flips
        patch.setattr(foeslab.metrics, "_read_flips", counted)
        got = delta_n(model)
        assert got.hex() == float(_one_flip_range(table, n, 2)).hex()
    # a side is bounded line by line where its lines hold 2^line_digits
    # entries or more, else per digit over the whole grid
    threshold = foeslab.zoo._LINE_BOUND_DIGITS if line_digits is None else line_digits
    grid, slack = table.reshape(2**nh, -1), envelope.slack
    rows = (grid, 0) if nv >= threshold else (table.reshape(1, -1), 0)
    columns = (grid.T, 0) if nh >= threshold else (table.reshape(1, -1), nv)
    sides = [(*rows, envelope.row_flips), (*columns, envelope.column_flips)]
    # every row's max and min and every piece's spread lies within its envelope
    assert envelope.row_flips.shape == (nv, len(rows[0]))
    assert envelope.column_flips.shape == (nh, len(columns[0]))
    for lines, first, bounds in sides:
        for d, bound in enumerate(bounds):
            assert np.all(np.abs(digit_spreads(lines, first + d) - bound) <= slack)
    if nv < threshold:
        assert envelope.upper is None and envelope.lower is None and not rows_read
    else:
        upper, lower = envelope.upper, envelope.lower
        assert np.all(np.abs(grid.max(axis=1) - upper) <= slack)
        assert np.all(np.abs(grid.min(axis=1) - lower) <= slack)
        # a row left out has max + slack below max(upper) - slack, and min -
        # slack above min(lower) + slack, in exact rationals
        skipped = np.ones(len(grid), dtype=bool)
        skipped[rows_read] = False
        assert len(rows_read) == len(set(rows_read))
        top = _float_above(Fraction(float(upper.max())) - 2 * Fraction(slack))
        bottom = -_float_above(2 * Fraction(slack) - Fraction(float(lower.min())))
        assert np.all((upper[skipped] < top) & (lower[skipped] > bottom))
    largest = max(bounds.max() for _, _, bounds in sides if bounds.size)
    s, d, p = pieces[0]
    assert sides[s][2][d, p] == largest
    assert len(pieces) == len(set(pieces))
    # a piece left out has bound + slack <= delta_N, in exact rationals
    cap = -_float_above(Fraction(slack) - Fraction(got))
    for s, (_, _, bounds) in enumerate(sides):
        left = np.ones(bounds.shape, dtype=bool)
        for side, d, p in pieces:
            if side == s:
                left[d, p] = False
        assert np.all(bounds[left] <= cap)


@pytest.mark.parametrize("params", [
    RbmParams([1e308, 1e308], [0.5], [[0.25, -0.5]]),
    RbmParams([1e308], [-1e308], [[1e308]]),
])
def test_overflowing_joint_rbm_takes_the_full_pass(params):
    # 2(1 + gamma) T passes the largest float, so there is no envelope, and
    # the full argmax/argmin rejects the infinite scores as every model does
    model = make_rbm_joint(params)
    assert model.envelope() is None
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        model.scores()


@pytest.mark.parametrize("pieces", [[0], [3], [5, 1], [6, 7], [0, 4, 8, 15], range(16)])
@pytest.mark.parametrize("chunk", [2**4, 2**8])
def test_flip_spreads_are_the_max_over_each_line_and_digit(pieces, chunk):
    # a 16 x 32 grid: at chunks of 2^4 a row or column is read in parts of
    # half a chunk of pairs, at 2^8 rows go eight and columns sixteen to a
    # batch; rows in place, columns as a strided view, pieces in place
    # where they are consecutive and gathered where not, and the whole table
    # as one line
    grid = np.random.default_rng(len(pieces)).standard_normal((16, 32))
    pieces = np.array(pieces, dtype=np.intp)
    read = lambda lines, d: np.concatenate([foeslab.core._flip_spreads(block, d)
                                            for _, block in foeslab.core._batches(lines, pieces)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        rows = [read(grid, d) for d in range(5)]
        columns = [read(grid.T, d) for d in range(4)]
        whole = [foeslab.core._flip_spreads(grid.reshape(1, -1), d) for d in range(9)]
        with pytest.raises(ValueError):
            # a piece past the grid is no piece: read in place it is an empty slice
            foeslab.metrics._read_flips((grid, 0, np.zeros((5, 16))), 0, np.array([16]), 0.0)
    for d in range(5):
        assert rows[d].tobytes() == digit_spreads(grid, d)[pieces].tobytes()
    for d in range(4):
        assert columns[d].tobytes() == digit_spreads(grid.T, d)[pieces].tobytes()
    for d in range(9):
        assert whole[d].tobytes() == digit_spreads(grid.reshape(1, -1), d).tobytes()
    # every one-flip pair lies in one row or one column, and in the whole table
    every = [foeslab.core._flip_spreads(lines, d).max()
             for lines, digits in ((grid, 5), (grid.T, 4)) for d in range(digits)]
    assert max(every) == np.max(whole) == float(_one_flip_range(grid.ravel(), 9, 2))


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 2**15])
def test_scan_buffers_start_on_a_cache_line(n):
    # whatever the heap's layout, so a scan's speed does not depend on it
    for _ in range(8):
        buf = _line_aligned(n)
        assert buf.shape == (n,) and buf.dtype == np.float64
        assert buf.ctypes.data % 64 == 0


@pytest.mark.parametrize("values", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0] * 4, [0.0, -0.0, -0.0, 0.0] * 8,
    [-0.0] * 17 + [0.0] * 15, [0.0, -1.5, -0.0, 2.0], [-0.0, -1.5, 0.0, -0.0],
    [0.0, 3.0, -0.0, 0.0], [1e308, -1e308, 0.5, -0.0],
])
def test_lrep_is_max_minus_min_and_positive_zero_when_uniform(values):
    # the argmax entry minus the argmin entry: max - min bit for bit, and
    # +0.0 for a uniform table of mixed signed zeros (argmax = argmin = 0)
    n = int(np.log2(len(values)))
    table = np.array(values)
    weights = 2 ** np.arange(n)
    model = foeslab.core.FoesModel(OutcomeSpace(n, (0, 1)),
                                   lambda x: table[np.asarray(x) @ weights])
    with np.errstate(over="ignore"):
        want = table.max() - table.min() if table.max() != table.min() else 0.0
        got = lrep(model).lrep
    assert np.float64(got).tobytes() == np.float64(want).tobytes()

def test_graph_bound_with_finite_disagreement_is_a_certificate_error(monkeypatch):
    import foeslab.metrics

    monkeypatch.setattr(foeslab.metrics, "_graph_bound_branches",
                        lambda spec: (1.0, 2.0))
    with pytest.raises(CertificateError, match="disagrees"):
        graph_lower_bound(GraphModelSpec(4, params=(0.0, 1.0, 0.0)))


def test_graph_bound_overflow_is_bad_input():
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        graph_lower_bound(GraphModelSpec(4, params=(0.0, 1e308, 0.0)))
