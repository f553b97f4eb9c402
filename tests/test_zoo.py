"""Model-zoo constructors against closed forms and naive counters."""

import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import foeslab.core
import foeslab.metrics
import foeslab.zoo
from foeslab import (
    DbmParams,
    GraphModelSpec,
    RbmParams,
    graph_statistic_extremes,
    graph_statistics,
    log_sum_exp,
    make_bernoulli,
    make_dbm_marginal,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
)
from foeslab.core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    FoesModel,
    OutcomeSpace,
)
from foeslab.cli import main
from foeslab.metrics import delta_n, lrep
from foeslab.zoo import _first_layer, _log2cosh, rbm_joint_score
from conftest import child_peak_kb, child_stdout


def logistic(z):
    return 1.0 / (1.0 + math.exp(-z))


class TestBernoulli:
    def test_success_probability(self):
        model = make_bernoulli(1, 1.0)
        p1 = math.exp(model.log_prob([1]))
        assert p1 == pytest.approx(math.e / (1 + math.e), abs=1e-12)

    def test_iid_factorization(self):
        model = make_bernoulli(4, 0.8)
        p = logistic(0.8)
        for index in range(16):
            x = model.space.decode(index)
            expected = math.prod(p if v else 1 - p for v in x)
            assert math.exp(model.log_prob(x)) == pytest.approx(expected, abs=1e-12)

    def test_scaled_lrep_is_abs_theta(self):
        assert lrep(make_bernoulli(5, 2.0)).scaled_lrep == pytest.approx(2.0, abs=1e-12)
        assert lrep(make_bernoulli(7, -1.3)).scaled_lrep == pytest.approx(1.3, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_bernoulli(0, 1.0)
        with pytest.raises(ValueError):
            make_bernoulli(2, math.inf)


class TestMultinomial:
    def test_category_log_ratio(self):
        model = make_multinomial(1, [1.0, 0.0])
        ratio = math.exp(model.log_prob([1]) - model.log_prob([2]))
        assert ratio == pytest.approx(math.e, abs=1e-12)

    def test_shift_invariance_gives_uniform(self):
        for c in (-2.0, 0.0, 3.5):
            logp = make_multinomial(2, [c, c, c]).log_probs()
            np.testing.assert_allclose(logp, -math.log(9), atol=1e-12)

    def test_scaled_lrep_is_theta_range(self):
        model = make_multinomial(4, [1.0, 0.0, -1.0])
        assert lrep(model).scaled_lrep == pytest.approx(2.0, abs=1e-12)

    def test_needs_two_categories(self):
        with pytest.raises(ValueError):
            make_multinomial(3, [1.0])


def naive_graph_counts(spec, x):
    """Independent pair/triple loop counter for 2-stars and triangles."""
    x = np.asarray(x)
    pairs = spec.edge_index
    n_edges = len(pairs)
    two_stars = 0
    for i, j in itertools.combinations(range(n_edges), 2):
        if set(pairs[i]) & set(pairs[j]):
            two_stars += x[i] * x[j]
    triangles = 0
    for i, j, k in itertools.combinations(range(n_edges), 3):
        nodes = set(pairs[i]) | set(pairs[j]) | set(pairs[k])
        pairwise = (set(pairs[i]) & set(pairs[j]) and
                    set(pairs[i]) & set(pairs[k]) and
                    set(pairs[j]) & set(pairs[k]))
        if pairwise and len(nodes) == 3:
            triangles += x[i] * x[j] * x[k]
    return two_stars, triangles


def node_triple_counts(spec, x):
    """(edges, 2-stars, triangles) of one graph, node by node and triple by triple."""
    n = spec.n_nodes
    adjacent = {pair: bool(v) for pair, v in zip(spec.edge_index, x)}

    def edge(a, b):
        return adjacent[(min(a, b), max(a, b))]

    degrees = [sum(edge(v, u) for u in range(n) if u != v) for v in range(n)]
    triangles = sum(edge(a, b) and edge(a, c) and edge(b, c)
                    for a, b, c in itertools.combinations(range(n), 3))
    return sum(adjacent.values()), sum(d * (d - 1) // 2 for d in degrees), triangles


def parent_graph_statistics(spec, outcomes):
    """graph_statistics before the one triangle counter, verbatim but for
    GraphModelSpec.triangle_edges, which is inlined: a (triangles, m)
    boolean stack counted by np.count_nonzero."""
    edges = np.ascontiguousarray(np.asarray(outcomes).T, dtype=bool)
    deg = np.zeros((spec.n_nodes, edges.shape[1]),
                   dtype=np.min_scalar_type(spec.n_nodes - 1))
    for e, (a, b) in enumerate(spec.edge_index):
        deg[a] += edges[e]
        deg[b] += edges[e]
    n = spec.n_nodes
    a, b = np.triu_indices(n, 1)  # node pairs in edge order
    count = n - 1 - b  # the triples (a, b, c) that extend each pair
    a, b, first = (np.repeat(v, count) for v in (a, b, np.cumsum(count) - count))
    c = b + 1 + np.arange(len(b)) - first
    u, v = np.stack([a, a, b], axis=1), np.stack([b, c, c], axis=1)
    tri = (u * (2 * n - u - 1) // 2 + v - u - 1).astype(np.int64, copy=False)
    triangles = np.logical_and(edges[tri[:, 0]], edges[tri[:, 1]])
    triangles &= edges[tri[:, 2]]
    return np.stack([deg.sum(axis=0) / 2.0, (deg * (deg - 1.0) / 2.0).sum(axis=0),
                     np.count_nonzero(triangles, axis=0)], axis=1)


class TestGraphModel:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_counts_are_exact_against_a_node_triple_loop(self, n):
        spec = GraphModelSpec(n)
        half = set(range(n // 2))
        rows = np.vstack([
            np.zeros(spec.n_edges), np.ones(spec.n_edges),
            [float((a in half) != (b in half)) for a, b in spec.edge_index],
            np.random.default_rng(n).integers(0, 2, (64, spec.n_edges))])
        want = np.array([node_triple_counts(spec, x) for x in rows], dtype=np.float64)
        # model tables pass int8 outcomes; the graph bound passes floats
        for outcomes in (rows.astype(np.int8), rows):
            assert graph_statistics(spec, outcomes).tobytes() == want.tobytes()

    def test_complete_graph_counts(self):
        spec = GraphModelSpec(4)
        g = graph_statistics(spec, np.ones((1, 6)))[0]
        assert list(g) == [6.0, 12.0, 4.0]

    def test_complete_graph_counts_past_256_nodes(self):
        # every degree is n - 1 = 256, one more than a byte holds
        n = 257
        g = graph_statistics(GraphModelSpec(n), np.ones((1, n * (n - 1) // 2)))[0]
        assert list(g) == [math.comb(n, 2), n * math.comb(n - 1, 2), math.comb(n, 3)]

    @pytest.mark.parametrize("n", [*range(3, 13), 257])
    def test_triangle_counts_are_the_node_triple_loop(self, n):
        # each triple's three edge indices, triple by triple
        spec = GraphModelSpec(n)
        pos = {pair: e for e, pair in enumerate(spec.edge_index)}
        triples = np.asarray([(pos[(a, b)], pos[(a, c)], pos[(b, c)])
                              for a, b, c in itertools.combinations(range(n), 3)])
        rows = np.random.default_rng(n).random((4, spec.n_edges)) < 0.9
        want = rows[:, triples].all(axis=2).sum(axis=1)
        assert np.array_equal(graph_statistics(spec, rows)[:, 2], want)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_statistics_over_every_outcome_are_the_parent_route(self, n):
        spec = GraphModelSpec(n)

        def same(rows):
            got, want = graph_statistics(spec, rows), parent_graph_statistics(spec, rows)
            assert got.tobytes() == want.tobytes()
            return np.zeros(len(rows), dtype=bool)

        OutcomeSpace(spec.n_edges, (0, 1)).tabulate(same)

    @pytest.mark.parametrize("n", [*range(8, 14), 257])
    def test_statistics_on_random_rows_are_the_parent_route(self, n):
        spec = GraphModelSpec(n)
        rng = np.random.default_rng(n)
        rows = rng.random((4 if n > 13 else 512, spec.n_edges)) < rng.random()
        for outcomes in (rows.astype(np.int8), rows.astype(np.float64)):
            got, want = graph_statistics(spec, outcomes), parent_graph_statistics(spec, outcomes)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [12, 13])
    def test_complete_graph_triangles_past_a_byte(self, n):
        # C(12, 3) = 220 fits a byte and C(13, 3) = 286 does not
        spec = GraphModelSpec(n)
        rows = np.vstack([np.ones(spec.n_edges), np.zeros(spec.n_edges)])
        got = graph_statistics(spec, rows)
        assert got.tobytes() == parent_graph_statistics(spec, rows).tobytes()
        assert list(got[:, 2]) == [math.comb(n, 3), 0]

    def test_empty_graph_counts(self):
        spec = GraphModelSpec(4)
        g = graph_statistics(spec, np.zeros((1, 6)))[0]
        assert list(g) == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_match_naive_loops(self, n):
        spec = GraphModelSpec(n)
        model = make_graph_model(spec)
        outcomes = model.space.all_outcomes()
        stats = graph_statistics(spec, outcomes)
        rng = np.random.default_rng(n)
        some = rng.choice(outcomes.shape[0], size=min(64, outcomes.shape[0]),
                          replace=False)
        for idx in some:
            two_stars, triangles = naive_graph_counts(spec, outcomes[idx])
            assert stats[idx, 1] == two_stars
            assert stats[idx, 2] == triangles

    def test_two_star_only_scaled_lrep(self):
        for n in (4, 5):
            spec = GraphModelSpec(n, params=(0.0, 1.0, 0.0),
                                  active_terms=("two_stars",))
            assert lrep(make_graph_model(spec)).scaled_lrep == pytest.approx(
                n - 2, abs=1e-9)

    def test_statistic_extremes_by_enumeration(self):
        ext = graph_statistic_extremes(GraphModelSpec(4))
        assert ext["edges"] == (6.0, 0.0)
        assert ext["two_stars"] == (12.0, 0.0)   # N(n-2)
        assert ext["triangles"] == (4.0, 0.0)    # N(n-2)/3

    def test_log_ratio_identity(self):
        # for any linear family, log P(x1) - log P(x2) = theta . (g1 - g2)
        spec = GraphModelSpec(4, params=(0.7, -0.4, 1.1))
        model = make_graph_model(spec)
        g = model.statistic_values()
        logp = model.log_probs()
        rng = np.random.default_rng(11)
        for _ in range(50):
            i, j = rng.integers(model.space.n_outcomes, size=2)
            lhs = logp[i] - logp[j]
            rhs = model.params @ (g[i] - g[j])
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphModelSpec(2)
        with pytest.raises(ValueError):
            GraphModelSpec(4, params=(1.0, 0.5, 0.0), active_terms=("edges",))


@pytest.mark.parametrize("build", [
    lambda: make_bernoulli(7, -1.3),
    lambda: make_multinomial(4, [0.7, -1.1, 0.25]),
    lambda: make_graph_model(GraphModelSpec(5, params=(-0.4, 0.3, 0.9))),
    # spaces that take several chunks; the graph statistic table is
    # F-ordered, and a C-ordered copy would round some scores differently
    lambda: make_bernoulli(18, -1.3),
    lambda: make_multinomial(11, [0.7, -1.1, 0.25]),
    lambda: make_graph_model(GraphModelSpec(7, params=(-0.4, 0.3, 0.9))),
])
def test_score_table_from_statistics_is_bitwise_equal(build):
    # a linear family scores through score_fn until its statistic table is
    # enumerated, then reuses that table; both routes give the same bytes
    fresh, stats_first = build(), build()
    stats_first.statistic_values()
    assert stats_first.scores().tobytes() == fresh.scores().tobytes()


def _graph(nodes):
    return lambda th: make_graph_model(GraphModelSpec(nodes, params=tuple(th)))


# name: (family over a parameter vector, vector length, hypothesis examples);
# the last three spaces take several chunks, and a fresh 7-node graph takes
# about 2 s to score, so it gets the fewest examples
LINEAR_FAMILIES = {
    "bernoulli-7": (lambda th: make_bernoulli(7, th[0]), 1, 25),
    "multinomial-4x3": (lambda th: make_multinomial(4, th), 3, 25),
    "graph-5": (_graph(5), 3, 25),
    "bernoulli-18": (lambda th: make_bernoulli(18, th[0]), 1, 10),
    "multinomial-11x3": (lambda th: make_multinomial(11, th), 3, 10),
    "graph-7": (_graph(7), 3, 3),
}


@pytest.mark.parametrize("name", LINEAR_FAMILIES)
def test_at_matches_a_fresh_model_bitwise(name):
    build, k, examples = LINEAR_FAMILIES[name]
    base = build(np.full(k, 0.25))

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(theta=st.lists(st.floats(-4, 4), min_size=k, max_size=k))
    def check(theta):
        shared, fresh = base.at(theta), build(np.asarray(theta))
        assert shared.statistic_values() is base.statistic_values()
        assert shared.scores().tobytes() == fresh.scores().tobytes()
        assert shared.log_probs().tobytes() == fresh.log_probs().tobytes()
        assert (np.float64(shared.log_normalizer).tobytes()
                == np.float64(fresh.log_normalizer).tobytes())

    check()


GRAPH_TERM_SUBSETS = [terms for r in (1, 2, 3)
                      for terms in itertools.combinations(foeslab.zoo.GRAPH_TERMS, r)]


@pytest.fixture(scope="module")
def graph_row_statistics():
    """graph_statistics of every graph on ``nodes`` nodes, chunk by chunk
    over the outcome rows ``tabulate`` hands out, as (chunk rows, table)."""
    tables = {}

    def table(nodes):
        if nodes not in tables:
            spec = GraphModelSpec(nodes)
            chunk = 2 ** foeslab.core._chunk_digits(spec.n_edges, 2)
            tables[nodes] = chunk, OutcomeSpace(spec.n_edges, (0, 1)).tabulate(
                lambda rows: graph_statistics(spec, rows))
        return tables[nodes]

    return table


@pytest.mark.parametrize("nodes", [5, 7])  # one chunk; 2^5 chunks of 2^16 graphs
@pytest.mark.parametrize("terms", GRAPH_TERM_SUBSETS, ids="+".join)
def test_graph_tables_are_graph_statistics_of_every_row(graph_row_statistics, nodes, terms):
    # both the lone model's chunkwise scores and the statistic table that
    # ``at`` shares: the rows' counts in graph_statistics' Fortran order, and
    # the products a chunk at a time or over the whole table, bit for bit
    chunk, full = graph_row_statistics(nodes)
    cols = [foeslab.zoo.GRAPH_TERMS.index(t) for t in terms]
    want = full[:, cols]

    def spec(theta):
        params = dict(zip(terms, theta))
        return GraphModelSpec(nodes, params=tuple(params.get(t, 0.0) for t in
                                                  foeslab.zoo.GRAPH_TERMS),
                              active_terms=terms)

    base = make_graph_model(spec([1.0] * len(terms)))
    stats = base.statistic_values()
    assert stats.flags.f_contiguous and stats.tobytes() == want.tobytes()

    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(theta=st.lists(st.floats(-4, 4), min_size=len(terms), max_size=len(terms)))
    def check(theta):
        lone = make_graph_model(spec(theta)).scores()
        chunkwise = [full[s:s + chunk][:, cols] @ theta for s in range(0, len(full), chunk)]
        assert lone.tobytes() == np.concatenate(chunkwise).tobytes()
        assert base.at(theta).scores().tobytes() == (want @ theta).tobytes()

    check()


@pytest.mark.parametrize("nodes, chunk", [(4, 2**3), (5, 2**4), (6, 2**9), (6, 2**6)])
def test_graph_tables_from_smaller_low_blocks(monkeypatch, nodes, chunk):
    # more fixed high edges than a 7-node graph has at the budget, and low
    # blocks that end at other edges
    monkeypatch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
    spec = GraphModelSpec(nodes, params=(0.3, -0.2, 0.7))
    full = graph_statistics(spec, OutcomeSpace(spec.n_edges, (0, 1)).all_outcomes())
    params = np.array(spec.params)
    chunkwise = [full[s:s + chunk][:, [0, 1, 2]] @ params for s in range(0, len(full), chunk)]
    assert make_graph_model(spec).scores().tobytes() == np.concatenate(chunkwise).tobytes()
    assert make_graph_model(spec).statistic_values().tobytes() == full.tobytes()


def test_seven_node_tables_count_one_low_block_by_graph_statistics(monkeypatch):
    # the module attribute is looked up at call time, once per table
    calls = []
    original = foeslab.zoo.graph_statistics
    monkeypatch.setattr(foeslab.zoo, "graph_statistics",
                        lambda spec, rows: calls.append(len(rows)) or original(spec, rows))
    model = make_graph_model(GraphModelSpec(7, params=(0.2, -0.1, 0.3)))
    model.scores()
    model.at([0.1, 0.2, 0.3]).scores()
    model.score(np.ones(21))
    assert calls == [2**16, 2**16, 1]


def assert_keyed_table(model, full: np.ndarray, cols: list, theta) -> None:
    """A lone graph model's table against the chunk products of the graphs'
    statistic rows ``full[:, cols]``, each F-ordered, as they were scored
    before the keys; its delta_N against the full scan; and every digit's
    one-flip spread against the others, all bit for bit."""
    n = model.n_variables
    rows = 2 ** foeslab.core._chunk_digits(n, 2)
    chunkwise = [np.asfortranarray(full[s:s + rows][:, cols]) @ np.asarray(theta)
                 for s in range(0, len(full), rows)]
    table = model.scores()
    assert model.exchangeable()
    assert table.tobytes() == np.concatenate(chunkwise).tobytes()
    assert delta_n(model).hex() == float(foeslab.metrics._one_flip_range(table, n, 2)).hex()
    spreads = [foeslab.core._flip_spreads(table.reshape(1, -1), d) for d in range(n)]
    assert len({s.tobytes() for s in spreads}) == 1


def graph_spec(nodes: int, terms: tuple, theta) -> GraphModelSpec:
    """The graph model on ``terms`` with their parameters ``theta``."""
    params = dict(zip(terms, theta))
    return GraphModelSpec(nodes, params=tuple(params.get(t, 0.0) for t in foeslab.zoo.GRAPH_TERMS),
                          active_terms=terms)


# exact ties at round values and signed zeros, or any value, at scales from
# 1e-3 to 1e12
GRAPH_THETAS = st.tuples(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]) | st.floats(-4, 4),
             min_size=3, max_size=3),
    st.sampled_from([1e-3, 1.0, 3.7, 1e3, 1e8, 1e12]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nodes=st.integers(3, 6), terms=st.sampled_from(GRAPH_TERM_SUBSETS),
       chunk=st.sampled_from([None, 2**3, 2**6, 2**9]), theta=GRAPH_THETAS)
def test_keyed_graph_tables_are_the_chunk_products(nodes, terms, chunk, theta):
    # every graph of 3 to 6 nodes, in chunks of the default size or of 2^3
    # to 2^9 graphs, so one to 2^12 chunks and boxes of several blocks
    direction, scale = theta
    theta = [scale * d for d in direction[:len(terms)]]
    spec = graph_spec(nodes, terms, theta)
    cols = [foeslab.zoo.GRAPH_TERMS.index(t) for t in terms]
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        full = graph_statistics(spec, OutcomeSpace(spec.n_edges, (0, 1)).all_outcomes())
        assert_keyed_table(make_graph_model(spec), full, cols, theta)


@pytest.mark.parametrize("terms, theta", [
    (foeslab.zoo.GRAPH_TERMS, (-0.4e12, 0.3e12, -0.1e12)),
    (foeslab.zoo.GRAPH_TERMS, (0.0, 1.0, 0.0)),
    (foeslab.zoo.GRAPH_TERMS, (-0.0, 0.0, -0.0)),
    (("edges", "two_stars"), (2e8, -0.5e8)),
    (("triangles",), (-3e-3,)),
], ids=["scale-1e12", "tie", "signed-zeros", "edges+two_stars", "triangles"])
def test_seven_node_keyed_tables_are_the_chunk_products(graph_row_statistics, terms, theta):
    _, full = graph_row_statistics(7)
    cols = [foeslab.zoo.GRAPH_TERMS.index(t) for t in terms]
    assert_keyed_table(make_graph_model(graph_spec(7, terms, theta)), full, cols, theta)


def test_unused_keys_overflow_without_a_warning():
    # six edges and four triangles without a 2-star is no graph on 4 nodes,
    # and its key scores 1e308 + 1e308; every graph scores within 1e308
    spec = GraphModelSpec(4, params=(1e308 / 6, -1e307, 2.5e307))
    model = make_graph_model(spec)
    box, _ = model._stat_keys(model.budget)
    assert np.isinf(foeslab.zoo._box_scores(box, model.params, 64)).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = model.scores()
        assert lrep(model).lrep == table.max() - table.min()
    assert np.isfinite(table).all()
    # where a graph's own score overflows, the table is rejected as before
    overflowing = make_graph_model(GraphModelSpec(4, params=(1e308, 1e308, 0.0)))
    with pytest.raises(ValueError, match="non-finite"):
        overflowing.scores()


@pytest.mark.parametrize("factor", [[1.0, 1.0, 1.5], [1.0, 1.0, 2.0], [1.0, -1.0, 1.0]])
def test_counts_outside_the_key_box_are_an_error(monkeypatch, factor):
    # a statistic that is not a count below its radix would key another
    # graph's row, which the gather would read without a word: half
    # triangles, twice as many triangles as K4 has, negative 2-stars
    original = foeslab.zoo.graph_statistics
    monkeypatch.setattr(foeslab.zoo, "graph_statistics",
                        lambda spec, rows: original(spec, rows) * factor)
    model = make_graph_model(GraphModelSpec(4, params=(0.3, -0.2, 0.5)))
    with pytest.raises(ValueError, match="key radices"):
        model.scores()
    with pytest.raises(ValueError, match="key radices"):
        model.statistic_values()


def test_seven_node_tables_keep_the_budget():
    model = make_graph_model(GraphModelSpec(7, params=(0.2, -0.1, 0.3)), budget=2**20)
    with pytest.raises(BudgetExceededError):
        model.scores()
    with pytest.raises(BudgetExceededError):
        model.statistic_values()


def test_at_keeps_the_family_and_leaves_the_model_unchanged():
    model = make_graph_model(GraphModelSpec(4, params=(0.3, -0.2, 0.1)), budget=4096)
    before = (model.params.tobytes(), model.scores().tobytes(), model.log_normalizer)
    other = model.at([1.0, 0.5, -0.5])
    assert (other.space, other.stat_fn, other.family, other.budget) == (
        model.space, model.stat_fn, "graph", 4096)
    other.scores()
    for bad in ([1.0, 0.5], [1.0, 0.5, -0.5, 0.0], [math.nan, 0.0, 0.0],
                [0.0, math.inf, 0.0], []):
        with pytest.raises(ValueError):
            model.at(bad)
    assert (model.params.tobytes(), model.scores().tobytes(),
            model.log_normalizer) == before


def _log2cosh_formula(z):
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az))


LOG2COSH_SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0,
                             1e300, -1e300, np.inf, -np.inf])


@pytest.mark.parametrize("where", ["none", "separate", "in-place"])
@pytest.mark.parametrize("z", [
    LOG2COSH_SPECIAL,
    np.random.default_rng(60).normal(scale=3.0, size=(257, 5)),
    np.random.default_rng(61).uniform(-800, 800, size=(3, 4, 9)),
], ids=["special", "normal", "wide"])
def test_log2cosh_out_is_bitwise_the_formula(z, where):
    want = _log2cosh_formula(z)
    z = z.copy()
    out = {"none": None, "separate": np.empty_like(z), "in-place": z}[where]
    got = _log2cosh(z, out=out)
    if out is not None:
        assert got is out
    assert got.tobytes() == want.tobytes()


class TestRbm:
    def test_zero_params_uniform(self):
        params = RbmParams(np.zeros(2), np.zeros(1), np.zeros((1, 2)))
        logp = make_rbm_joint(params).log_probs()
        np.testing.assert_allclose(logp, -3 * math.log(2), atol=1e-12)

    def test_single_visible_log_ratio(self):
        params = RbmParams([1.0], [], np.zeros((0, 1)))
        model = make_rbm_joint(params)
        assert model.log_prob([1]) - model.log_prob([-1]) == pytest.approx(
            2.0, abs=1e-12)

    def test_joint_normalization_random(self):
        rng = np.random.default_rng(1)
        params = RbmParams(rng.normal(size=2), rng.normal(size=1),
                           rng.normal(size=(1, 2)))
        assert np.exp(make_rbm_joint(params).log_probs()).sum() == pytest.approx(
            1.0, abs=1e-10)

    def test_marginal_matches_hidden_sum(self):
        # analytic hidden sum vs brute force, across sizes up to 12 variables
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            nh = int(rng.integers(0, min(5, 13 - n)))
            params = RbmParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, nh),
                               rng.uniform(-2, 2, (nh, n)))
            marginal = make_rbm_marginal(params)
            xall = marginal.space.all_outcomes()
            if nh:
                hall = np.array(list(itertools.product([-1.0, 1.0], repeat=nh)))
                brute = np.array([
                    log_sum_exp(rbm_joint_score(
                        params, np.repeat(x[None, :], hall.shape[0], axis=0), hall))
                    for x in xall])
            else:
                brute = xall.astype(float) @ params.visible
            analytic = marginal.scores()
            diff = (analytic - analytic[0]) - (brute - brute[0])
            assert np.abs(diff).max() <= 1e-10

    def test_marginal_scores_bitwise_stable(self):
        # 17 visibles take several runs, each with a fixed high digit
        rng = np.random.default_rng(4)
        for n, nh in [(1, 1), (6, 3), (12, 4), (9, 0), (17, 2)]:
            params = RbmParams(rng.uniform(-2, 2, n), rng.uniform(-2, 2, nh),
                               rng.uniform(-2, 2, (nh, n)))
            assert_marginal_table(params)

    @pytest.mark.parametrize("nh", range(11))
    @pytest.mark.parametrize("nv", [5, 17])
    def test_marginal_is_the_rbm_scorer_bitwise(self, nv, nh):
        # from 8 hiddens on the parent's numpy sum added the log2cosh terms
        # pairwise; the table adds them in unit order at every size
        rng = np.random.default_rng(100 * nv + nh)
        assert_marginal_table(RbmParams(rng.uniform(-2, 2, nv), rng.uniform(-2, 2, nh),
                                        rng.uniform(-2, 2, (nh, nv))))

    @pytest.mark.parametrize("zero_visible", [False, True])
    @pytest.mark.parametrize("nh", [0, 1, 4, 9])
    def test_marginal_adds_log2cosh_as_numpy_sum_did(self, nh, zero_visible):
        # one hidden unit at a time is sum()'s order over the unit axis; with
        # no hiddens sum() added the int 0, which turns the -0.0 of x.theta_v
        # = 0 at x = (-1, ..., -1) into +0.0
        rng = np.random.default_rng(70 + nh)
        nv = 6
        params = RbmParams(np.zeros(nv) if zero_visible else rng.uniform(-2, 2, nv),
                           rng.uniform(-2, 2, nh), rng.uniform(-2, 2, (nh, nv)))
        first = _first_layer((params.visible, params.hidden), (params.interaction,),
                             slice(0, 2**nv))
        if zero_visible:
            assert first[0][0] == 0.0 and np.signbit(first[0][0])
        want = first[0] + sum(_log2cosh(first[1:], out=first[1:]))
        assert make_rbm_marginal(params).scores().tobytes() == want.tobytes()

    def test_no_hiddens_scaled_lrep(self):
        theta_v = np.array([0.5, -1.5, 2.0])
        params = RbmParams(theta_v, [], np.zeros((0, 3)))
        expected = 2.0 / 3 * np.abs(theta_v).sum()
        assert lrep(make_rbm_marginal(params)).scaled_lrep == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("rows", [[3], [1], [1, 3], [0, 1, 2, 3]])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_uncoupled_hiddens_keep_the_table_bytes(self, rows, zero):
        # hidden units with no visible coupling, last, in the middle or all
        rng = np.random.default_rng(len(rows))
        w = rng.uniform(-2, 2, (4, 6))
        w[rows] = zero
        assert_marginal_table(RbmParams(rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 4), w))

    def test_hidden_only_params_give_uniform_visibles(self):
        params = RbmParams(np.zeros(3), [5.0, -8.0], np.zeros((2, 3)))
        logp = make_rbm_marginal(params).log_probs()
        np.testing.assert_allclose(logp, -3 * math.log(2), atol=1e-12)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RbmParams([], [0.1], np.zeros((1, 0)))
        with pytest.raises(ValueError):
            RbmParams([math.nan], [], np.zeros((0, 1)))

    def test_transpose_swaps_roles(self):
        params = RbmParams([0.3, -0.7], [1.1], [[0.2, -0.9]])
        t = params.transpose()
        assert t.n_visible == 1 and t.n_hidden == 2
        assert t.interaction.shape == (2, 1)


def rbm_marginal_score(params, outcomes):
    """make_rbm_marginal's scorer before the shared scorer, verbatim: BLAS
    products and numpy's sum over the hidden units. The parent oracle."""
    x = outcomes.astype(np.float64)
    z = x @ params.interaction.T + params.hidden
    return x @ params.visible + _log2cosh(z, out=z).sum(axis=1)


def _marginal_table_in_order(params):
    """Every entry of the RBM marginal table summed in the documented order,
    one elementwise step at a time: x.theta_v from -0.0 and each field from
    theta_h_j, in visible order, then the log2cosh terms in unit order,
    added to x.theta_v last."""
    x = OutcomeSpace(params.n_visible, (-1, 1)).all_outcomes().astype(np.float64)
    visible = np.full(len(x), -0.0)
    for i in range(params.n_visible):
        visible = visible + x[:, i] * params.visible[i]
    hidden = 0.0
    for j in range(params.n_hidden):
        field = np.full(len(x), params.hidden[j])
        for i in range(params.n_visible):
            field = field + x[:, i] * params.interaction[j, i]
        hidden = hidden + _log2cosh_formula(field)
    return visible + hidden


def assert_marginal_table(params):
    """The marginal table is summed in the documented order, bit for bit. It
    follows the parent scorer to 1e-15 of its largest magnitude, and its
    extremes are the parent's up to that tolerance (near-ties may swap)."""
    got = make_rbm_marginal(params).scores()
    assert got.tobytes() == _marginal_table_in_order(params).tobytes()
    want = OutcomeSpace(params.n_visible, (-1, 1)).tabulate(
        lambda x: rbm_marginal_score(params, x))
    tol = 1e-15 * np.abs(want).max()
    assert np.abs(got - want).max() <= tol
    assert want[np.argmax(got)] >= want.max() - tol
    assert want[np.argmin(got)] <= want.min() + tol


def _paired_rbm_joint_score(params, x, h):
    """rbm_joint_score before its grid form, verbatim: paired rows only."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    return (x @ params.visible + h @ params.hidden
            + ((x @ params.interaction.T) * h).sum(axis=1))


def _chunked_joint_table(params):
    """The joint table before the grid: paired rows, one chunk at a time."""
    n = params.n_visible
    space = OutcomeSpace(n + params.n_hidden, (-1, 1))
    return space.tabulate(
        lambda outcomes: _paired_rbm_joint_score(params, outcomes[:, :n], outcomes[:, n:]))


def _joint_table_in_order(params):
    """Every row of the joint table summed in the documented order, one
    elementwise step at a time: x.theta_v from -0.0 and each field from
    theta_h_j, in visible order, then h_j times field j in unit order."""
    outcomes = OutcomeSpace(params.n_visible + params.n_hidden, (-1, 1)).all_outcomes()
    x = outcomes[:, :params.n_visible].astype(np.float64)
    h = outcomes[:, params.n_visible:].astype(np.float64)
    total = np.full(len(x), -0.0)
    for i in range(params.n_visible):
        total = total + x[:, i] * params.visible[i]
    for j in range(params.n_hidden):
        field = np.full(len(x), params.hidden[j])
        for i in range(params.n_visible):
            field = field + x[:, i] * params.interaction[j, i]
        total = total + h[:, j] * field
    return total


# a small pool makes exact ties and rounding near-ties (0.1 + 0.2) common
_RBM_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1, 0.2, 0.3, -0.3]),
                        st.floats(-2, 2))


@st.composite
def joint_rbms(draw):
    """RbmParams with nv + nh <= 13, and a table chunk size (None: the default)."""
    nv = draw(st.integers(1, 9))
    nh = draw(st.integers(0, 13 - nv))
    values = st.lists(_RBM_VALUES, min_size=nv + nh + nh * nv, max_size=nv + nh + nh * nv)
    v = np.array(draw(values))
    params = RbmParams(v[:nv], v[nv:nv + nh], v[nv + nh:].reshape(nh, nv))
    return params, draw(st.sampled_from([None, 4, 32]))


def _rbm_case(nv, nh, chunk=None, seed=0):
    rng = np.random.default_rng(seed)
    return RbmParams(rng.uniform(-1, 1, nv), rng.uniform(-1, 1, nh),
                     rng.uniform(-1, 1, (nh, nv))), chunk


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=joint_rbms())
@example(case=_rbm_case(1, 0))
@example(case=_rbm_case(1, 9))
@example(case=_rbm_case(3, 8, chunk=4))
@example(case=_rbm_case(2, 11, chunk=32))
@example(case=_rbm_case(6, 0, chunk=4))
@example(case=(RbmParams([0.1, 0.2, 0.3], [0.3, -0.3], [[0.1, 0.2, -0.3], [0.0, 0.5, 0.5]]),
               None))
def test_joint_table_is_the_chunked_paired_table(case):
    # the table is summed in the documented order, bit for bit; the parent
    # route (BLAS products, then numpy's sum over the hidden units) rounds
    # differently, so it is followed to 1e-15 of its largest magnitude
    params, chunk = case
    want = _chunked_joint_table(params)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            # small chunks split both sides into several blocks
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        model = make_rbm_joint(params)
        got = model.scores()
        report = lrep(model)
    assert got.tobytes() == _joint_table_in_order(params).tobytes()
    tol = 1e-15 * np.abs(want).max()
    assert np.abs(got - want).max() <= tol
    assert want[report.argmax_index] >= want.max() - tol
    assert want[report.argmin_index] <= want.min() + tol
    outcomes = model.space.all_outcomes()
    x, h = outcomes[:, :params.n_visible], outcomes[:, params.n_visible:]
    assert rbm_joint_score(params, x, h).tobytes() == got.tobytes()


@pytest.mark.parametrize("run", [
    slice(1, None, -1),
    slice(0, 3),
    slice(3, 5),
    slice(1, 3),
    slice(4, 6),
], ids=["out-of-order", "three-rows", "wraps-around", "unaligned", "past-the-end"])
def test_grid_rows_must_be_an_aligned_run(run):
    # the grid builds both sides' rows by doubling over the low digits of an
    # aligned run, so any other indices would be mis-summed
    params = RbmParams([0.3, -0.2], [0.5, 0.1], [[0.2, -0.4], [0.7, 0.1]])
    with pytest.raises(ValueError, match="one aligned run of the visible index"):
        rbm_joint_score(params, run, slice(0, 4))
    with pytest.raises(ValueError, match="one aligned run of the hidden index"):
        rbm_joint_score(params, slice(0, 4), run)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_first_layer_run_is_the_rows_form(data):
    # any aligned run, with and without a trailing axis of draws
    nv, n1 = data.draw(st.integers(1, 10)), data.draw(st.integers(0, 5))
    draws = data.draw(st.sampled_from([(), (1,), (3,)]))

    def values(*shape):
        size = math.prod(shape)
        return np.array(data.draw(st.lists(_RBM_VALUES, min_size=size, max_size=size)),
                        dtype=np.float64).reshape(shape)

    biases, weights = (values(nv, *draws), values(n1, *draws)), (values(n1, nv, *draws),)
    d = data.draw(st.integers(0, nv))
    start = data.draw(st.integers(0, 2 ** (nv - d) - 1)) * 2**d
    got = _first_layer(biases, weights, slice(start, start + 2**d))
    rows = OutcomeSpace(nv, (-1, 1)).all_outcomes()[start:start + 2**d]
    assert got.shape == (1 + n1, 2**d, *draws)
    assert got.tobytes() == _first_layer(biases, weights, rows).tobytes()
    for k in range(draws[0] if draws else 0):
        # each draw is summed as if alone
        alone = _first_layer((biases[0][:, k], biases[1][:, k]), (weights[0][..., k],),
                             rows)
        assert got[..., k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("draws", [(), (3,)])
def test_first_layer_with_no_visible_units_keeps_its_center_row(draws):
    # an empty layer 0, as on the transposed side of an RBM with no hiddens:
    # its one outcome has center -0.0 and each field equal to its bias
    biases = (np.zeros((0, *draws)), np.multiply.outer([1.5, -2.0], np.ones(draws)))
    weights = (np.zeros((2, 0, *draws)),)
    expected = np.concatenate((np.full((1, 1, *draws), -0.0), biases[1][:, None]))
    for x in (slice(0, 1), np.zeros((1, 0))):
        got = _first_layer(biases, weights, x)
        assert got.shape == (3, 1, *draws)
        assert got.tobytes() == expected.tobytes()


@st.composite
def boltzmann_models(draw):
    """An RBM marginal, a joint RBM or a DBM marginal of at most 2^13 outcomes."""
    kind = draw(st.sampled_from(["rbm_marginal", "rbm_joint", "dbm_marginal"]))
    if kind == "dbm_marginal":
        sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5).filter(
            lambda s: sum(s) <= 13))
        return make_dbm_marginal(dbm_params(np.random.default_rng(draw(st.integers(0, 99))),
                                            sizes))
    params, _ = draw(joint_rbms())
    return {"rbm_marginal": make_rbm_marginal, "rbm_joint": make_rbm_joint}[kind](params)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(model=boltzmann_models(), chunk=st.sampled_from([4, 32]))
def test_rows_score_as_the_table(model, chunk):
    # small chunks split the table into several aligned visible runs, and a
    # DBM's even layers into several blocks; one row takes a run's blocks
    with pytest.MonkeyPatch.context() as patch:
        for module in (foeslab.core, foeslab.zoo):
            patch.setattr(module, "_CHUNK_OUTCOMES", chunk)
        table = model.scores()
        outcomes = model.space.all_outcomes()
        rows = model.score(outcomes)
        picks = list(range(0, len(table), max(1, len(table) // 7)))
        one_by_one = np.array([model.score(outcomes[i]) for i in picks])
    assert rows.tobytes() == table.tobytes()
    assert one_by_one.tobytes() == table[picks].tobytes()


def test_joint_table_at_the_budget_cap_is_pinned():
    # 14 + 10 units: the 2^24-outcome table of the cap benchmark, summed in
    # the documented order. Its extremes are those of the parent route,
    # which it follows to 3.8e-16 of its largest magnitude
    params, _ = _rbm_case(14, 10, seed=1410)
    scores = make_rbm_joint(params).scores()
    assert hashlib.sha256(scores.tobytes()).hexdigest() == \
        "c423d2211f3aa70b3db5e10d23287316e6f6e98bd92abc61f2e33535ff197064"
    assert (scores.argmax(), scores.argmin()) == (15546342, 13436953)


def test_joint_delta_at_the_budget_cap_reads_at_most_two_pieces(monkeypatch):
    # the full scan's value, pinned before the scan was pruned; the envelope
    # leaves one or two pieces (one digit's flips in a row or a column of
    # the grid) to read, within the allocation bound of
    # tests/test_metrics.py::test_one_flip_range_allocates_one_and_a_half_chunks
    params, _ = _rbm_case(14, 10, seed=1410)
    model = make_rbm_joint(params)
    table = model.scores()
    read, pieces = [], foeslab.metrics._read_flips

    def counted(side, digit, picked, slack):
        read.extend((side[2] is model.envelope().row_flips, digit, int(p)) for p in picked)
        return pieces(side, digit, picked, slack)

    monkeypatch.setattr(foeslab.metrics, "_read_flips", counted)
    chunk_bytes = foeslab.core._CHUNK_OUTCOMES * table.itemsize
    ufunc_bytes = 2 * np.getbufsize() * table.itemsize
    tracemalloc.start()
    try:
        got = delta_n(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.hex() == "0x1.251bc825f96b7p+4"
    assert 1 <= len(read) <= 2
    assert peak <= 1.5 * chunk_bytes + ufunc_bytes + 2**14


@pytest.mark.parametrize("nv, nh, coupled", [(1, 23, False), (1, 23, True), (23, 1, True)])
def test_enveloped_reads_at_the_cap_keep_the_full_pass(nv, nh, coupled, monkeypatch):
    # theta_h = 0: at 1 + 23 without couplings all 2^23 rows tie; with
    # couplings the two columns of 2^23 tie. At 23 + 1 the two rows are
    # longer than a chunk. The side of lines of 2 entries is bounded per
    # digit, and read whole. Each case must give the full pass's indices and
    # delta_N, read in batches (never a Python step per row), and hold no
    # array of per-row or per-column bounds
    rng = np.random.default_rng(nv)
    params = RbmParams(rng.uniform(-1, 1, nv), np.zeros(nh),
                       rng.uniform(-1, 1, (nh, nv)) * coupled)
    model = make_rbm_joint(params)
    table = model._score_table()
    want = (int(np.argmax(table)), int(np.argmin(table)),
            float(foeslab.metrics._one_flip_range(table, 24, 2)).hex())
    model._score_table = lambda: table
    batches, cut = [], foeslab.core._batches

    def counted(lines, picked):
        for batch, block in cut(lines, picked):
            batches.append(len(batch))
            yield batch, block

    monkeypatch.setattr(foeslab.core, "_batches", counted)
    monkeypatch.setattr(foeslab.metrics, "_batches", counted)
    chunk_bytes = foeslab.core._CHUNK_OUTCOMES * table.itemsize
    tracemalloc.start()
    try:
        got = (*model.extreme_indices(), delta_n(model).hex())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # at most a chunk of entries a batch and one part batch per run of a
    # chunk, so two reads of the whole table take at most 2 * 2 * 2^24 /
    # chunk batches, plus the first piece
    assert len(batches) <= 2 * 2 * 2**24 // foeslab.core._CHUNK_OUTCOMES + 1
    # the long side's bounds, the candidate indices and a batch's
    # temporaries: at most about ten chunks, against 64 MB for one bound per
    # row or column
    assert peak <= 12 * chunk_bytes, peak / chunk_bytes


def test_joint_lrep_csv_at_the_budget_cap_is_pinned(capsys):
    # the CLI row of the pinned 14 + 10 table, as before the scan was pruned
    params, _ = _rbm_case(14, 10, seed=1410)
    values = lambda a: ",".join(repr(float(v)) for v in np.ravel(a))
    assert main(["lrep", "--model", "rbm_joint", "--n-visible", "14", "--n-hidden", "10",
                 "--theta-v=" + values(params.visible), "--theta-h=" + values(params.hidden),
                 "--theta-vh=" + values(params.interaction)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "75b62ab2c913251d619d6654e878fc207bdcf726233005f5ce1eade87cc00416"


class TestDbm:
    def test_single_layer_reduces_to_rbm_marginal(self):
        rng = np.random.default_rng(3)
        beta = rng.normal(size=3)
        alpha = rng.normal(size=2)
        gamma = rng.normal(size=(2, 3))
        dbm = make_dbm_marginal(DbmParams(beta, (alpha,), (gamma,)))
        rbm = make_rbm_marginal(RbmParams(beta, alpha, gamma))
        # one scorer: a one-layer DBM takes the RBM route, bit for bit
        assert dbm.scores().tobytes() == rbm.scores().tobytes()

    def test_all_zero_two_layers_uniform(self):
        params = DbmParams(np.zeros(2), (np.zeros(2), np.zeros(1)),
                           (np.zeros((2, 2)), np.zeros((2, 1))))
        logp = make_dbm_marginal(params).log_probs()
        np.testing.assert_allclose(logp, -2 * math.log(2), atol=1e-12)

    def test_random_normalization(self):
        rng = np.random.default_rng(4)
        params = DbmParams(rng.normal(size=2),
                           (rng.normal(size=2), rng.normal(size=2)),
                           (rng.normal(size=(2, 2)), rng.normal(size=(2, 2))))
        total = np.exp(make_dbm_marginal(params).log_probs()).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_marginal_matches_joint_enumeration(self):
        # hidden-summed joint probabilities equal the visible model's
        rng = np.random.default_rng(5)
        beta = rng.normal(size=2)
        alphas = (rng.normal(size=2), rng.normal(size=1))
        gammas = (rng.normal(size=(2, 2)), rng.normal(size=(2, 1)))
        params = DbmParams(beta, alphas, gammas)
        model = make_dbm_marginal(params)

        def joint_score(x, h1, h2):
            return (alphas[0] @ h1 + alphas[1] @ h2 + beta @ x
                    + h1 @ gammas[0] @ x + h1 @ gammas[1] @ h2)

        for index in range(4):
            x = model.space.decode(index).astype(float)
            terms = [joint_score(x, np.array(h1, dtype=float), np.array(h2, dtype=float))
                     for h1 in itertools.product([-1, 1], repeat=2)
                     for h2 in itertools.product([-1, 1], repeat=1)]
            assert model.score(x) == pytest.approx(log_sum_exp(terms), abs=1e-10)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DbmParams(np.zeros(2), (np.zeros(2),), (np.zeros((3, 2)),))
        with pytest.raises(ValueError):
            DbmParams(np.zeros(2), (), ())

    def test_empty_visible_layer_is_rejected(self):
        with pytest.raises(ValueError, match="at least one visible variable"):
            DbmParams([], (np.zeros(2),), (np.zeros((2, 0)),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["visible_bias", "hidden_biases", "couplings"])
    def test_non_finite_parameters_are_rejected(self, name, bad):
        fields = {"visible_bias": np.zeros(2),
                  "hidden_biases": (np.zeros(2), np.zeros(1)),
                  "couplings": (np.zeros((2, 2)), np.zeros((2, 1)))}
        # the first entry of the field, or of its last array
        (fields[name] if name == "visible_bias" else fields[name][-1]).flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} parameters must be finite$"):
            DbmParams(**fields)

    @pytest.mark.parametrize("sizes", [(2, 0), (2, 2, 0), (2, 0, 1)])
    def test_zero_unit_hidden_layer_is_rejected(self, sizes):
        with pytest.raises(ValueError, match="at least one unit"):
            dbm_params(np.random.default_rng(0), sizes)

    # sha256 of each score table's float64 bytes, as first computed with
    # the hidden-sum code before zero-unit layers were rejected; that code is
    # the full-enumeration oracle below, which the closed-form route follows
    # to within rounding
    @pytest.mark.parametrize("sizes, digest", [
        ((3, 1), "77a61a6e6b2c46066f9d6c90b17e94625a3b676acc4f447c673e1faaee23e412"),
        ((3, 2), "0f37aafa2fca793006160ea945537b3ee84c0f21afe43c607ed64057cbf595fd"),
        ((5, 2, 3), "b90686ee6cdd26b2bd3fdf7e3a4ce351630d2917efe893c0d76758edfb7675ef"),
        ((1, 1, 1, 1), "fbca1573b49f524dedb4c64fd3bdd8f3a03ddc83d871bf7043cce6d5969ad21b"),
        ((17, 2), "90a21d45aab84e452fd1a2a9178286313c02a2e059f9e96f5a390c2bbbd4cf1b"),
    ])
    def test_score_table_bytes_are_pinned(self, sizes, digest):
        params = dbm_params(np.random.default_rng(sum(sizes)), sizes)
        oracle = enumerated_dbm_marginal(params).scores()
        assert hashlib.sha256(oracle.tobytes()).hexdigest() == digest
        assert_close_to_oracle(make_dbm_marginal(params).scores(), oracle)

    # sha256 of score tables with 3 to 5 hidden layers, as computed before
    # the far odd layers' log(2 cosh) was shared across visible rows
    @pytest.mark.parametrize("sizes, chunk, digest", [
        ((14, 4, 4, 4), None, "226a2487fcd38f0b186211413bcc92e2f9278c4cc4df5a935408c7fe8c9badf1"),
        ((10, 4, 4, 4, 4), None,
         "a7361042dd987ba790e3a142cfee3fcd95a0d8b598c03215ff1d72fa424cda24"),
        ((3, 2, 3, 2), 4, "08d105792282461fa409a5528a86e4b3755144f980b7fdad6091796e900c0196"),
        ((4, 1, 2, 3, 2), 16, "82bf3d3495d2ec1d9129185cc352e21695bd2c546fcdc3336f265dc2729a90b2"),
        ((3, 2, 2, 2, 2, 2), 4,
         "97edfd2d8b293739d490b123c824987e20a3e19cdeb8083a61d97858d8e612f1"),
        ((2, 3, 1, 2), 1, "9e4946987367f80f46e2b12edeab34e316e6c81bb74070bf49bbd2fb0b5d88c0"),
    ])
    def test_deep_score_table_bytes_are_pinned(self, sizes, chunk, digest):
        params = dbm_params(np.random.default_rng(sum(sizes)), sizes)
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(foeslab.zoo, "_CHUNK_OUTCOMES", chunk)
            scores = make_dbm_marginal(params).scores()
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("chunk, digest", [
        (None, "32ac799f682b5bdd4da778f046d56fdaa60cb86ca2092ac331d1c4ad4bdc01dc"),
        (4, "8519774c429ed19a102ec544650eda8c6b663bc79f58155166e419501a098b50"),
    ])
    def test_signed_zero_fields_keep_their_bytes(self, chunk, digest):
        # h1 units 1 and 2 see no visible, so they and h3 take the shared
        # route; signed-zero biases and couplings leave fields of either sign
        params = dbm_params(np.random.default_rng(5), (4, 3, 2, 2, 2))
        biases = [a.copy() for a in params.hidden_biases]
        couplings = [g.copy() for g in params.couplings]
        couplings[0][1], couplings[0][2], couplings[2][0] = 0.0, -0.0, -0.0
        biases[0][1], biases[0][2], biases[2][0] = -0.0, 0.0, -0.0
        params = DbmParams(params.visible_bias, tuple(biases), tuple(couplings))
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(foeslab.zoo, "_CHUNK_OUTCOMES", chunk)
            scores = make_dbm_marginal(params).scores()
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=6).filter(
               lambda s: sum(s) <= 13),
           seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([None, 1, 16]))
    def test_closed_form_route_follows_full_enumeration(self, sizes, seed, chunk):
        # 1 to 5 hidden layers, every table small enough for the oracle
        params = dbm_params(np.random.default_rng(seed), sizes)
        oracle = enumerated_dbm_marginal(params)
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                # small chunks stream the log-sum-exp over many blocks
                patch.setattr(foeslab.zoo, "_CHUNK_OUTCOMES", chunk)
            model = make_dbm_marginal(params)
            assert_close_to_oracle(model.scores(), oracle.scores())
            x = model.space.all_outcomes()
            assert_close_to_oracle(model.score_fn(x[:1]), oracle.score_fn(x[:1]))

    def test_even_space_over_budget_raises(self):
        # the odd layer of 2 units is summed in closed form: the rule counts
        # the 3 visibles and the 2 even-layer units only
        params = dbm_params(np.random.default_rng(1), (3, 2, 2))
        with pytest.raises(BudgetExceededError, match="2\\^5"):
            make_dbm_marginal(params, budget=2**4)
        make_dbm_marginal(params, budget=2**5).scores()

    def test_joint_space_past_the_budget_scores(self):
        # 16 + 12 + 4 units: a 2^32 joint space, scored under the default
        # budget as 2^16 visibles against 2^4 even-layer configurations; the
        # oracle, let past the budget, sums 2^16 hidden states per row
        params = dbm_params(np.random.default_rng(7), (16, 12, 4))
        scores = make_dbm_marginal(params).scores()
        rows = [0, 1, 4097, int(scores.argmax()), int(scores.argmin()), 2**16 - 1]
        x = OutcomeSpace(16, (-1, 1)).all_outcomes()[rows]
        assert_close_to_oracle(scores[rows],
                               enumerated_dbm_marginal(params, budget=2**32).score_fn(x))

    def test_scoring_peak_memory_stays_near_one_chunk(self):
        # 2 + 2 + 22 units: 2^24 (visible, even-layer) pairs at the cap; the
        # full-enumeration route held 2^24-row float64 arrays (GBs)
        assert child_peak_kb(
            DBM_CHILD +
            "p = DbmParams(rng.normal(size=2), (rng.normal(size=2), rng.normal(size=22)),"
            " (rng.normal(size=(2, 2)), rng.normal(size=(2, 22))))\n"
            "assert np.isfinite(make_dbm_marginal(p).scores()).all()\n") < 512 * 1024

    def test_row_scoring_peak_memory_stays_near_one_chunk(self):
        # 2 + 2 + 14 units: each row pairs with 2^14 even-layer configurations,
        # so 1024 rows at once would hold 2^24 pairs, a 256 MB field
        assert child_peak_kb(
            DBM_CHILD +
            "p = DbmParams(rng.normal(size=2), (rng.normal(size=2), rng.normal(size=14)),"
            " (rng.normal(size=(2, 2)), rng.normal(size=(2, 14))))\n"
            "x = rng.choice([-1, 1], size=(1024, 4))\n"
            "assert np.isfinite(replicate(make_dbm_marginal(p), 2).score(x)).all()\n"
        ) < 256 * 1024

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 3), min_size=3, max_size=6).filter(
               lambda s: sum(s) <= 14),
           seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([None, 4]))
    def test_marginal_is_the_rbm_between_even_and_odd_layers(self, sizes, seed, chunk):
        # 2 to 5 hidden layers: an RBM with the visibles and even layers
        # visible and the odd layers hidden, its even units then summed out;
        # small chunks split them into several blocks
        params = dbm_params(np.random.default_rng(seed), sizes)
        layers = (params.visible_bias,) + params.hidden_biases
        even, odd = range(0, len(sizes), 2), range(1, len(sizes), 2)

        def coupling(i: int, j: int) -> np.ndarray:
            # odd layer i against even layer j, as (n_i, n_j)
            if j == i - 1:
                return params.couplings[0] if i == 1 else params.couplings[i - 1].T
            if j == i + 1:
                return params.couplings[i]
            return np.zeros((sizes[i], sizes[j]))

        bipartite = RbmParams(np.concatenate([layers[j] for j in even]),
                              np.concatenate([layers[i] for i in odd]),
                              np.block([[coupling(i, j) for j in even] for i in odd]))
        table = make_rbm_marginal(bipartite).scores().reshape(2 ** sum(sizes[2::2]),
                                                               2 ** sizes[0])
        want = np.array([log_sum_exp(column) for column in table.T])
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(foeslab.zoo, "_CHUNK_OUTCOMES", chunk)
            assert_close_to_oracle(make_dbm_marginal(params).scores(), want)

    def test_score_bytes_do_not_depend_on_the_blas_thread_count(self):
        # 16 + 12 + 4 units, 2^16 visibles against 2^4 even configurations
        code = DBM_CHILD + (
            "import hashlib\n"
            "p = DbmParams(rng.normal(size=16), (rng.normal(size=12), rng.normal(size=4)),"
            " (rng.normal(size=(12, 16)), rng.normal(size=(12, 4))))\n"
            "print(hashlib.sha256(make_dbm_marginal(p).scores().tobytes()).hexdigest())\n")
        single, double = (child_stdout(code, OPENBLAS_NUM_THREADS=threads)
                          for threads in ("1", "2"))
        assert single == double and len(single.split()) == 1


# a child's code starts with a DBM builder and a seeded ``rng``
DBM_CHILD = ("import numpy as np\n"
             "from foeslab import DbmParams, make_dbm_marginal, replicate\n"
             "rng = np.random.default_rng(22)\n")


def enumerated_dbm_marginal(params: DbmParams,
                            budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """make_dbm_marginal before the closed-form route, verbatim: every hidden
    layer enumerated. The oracle for the DBM tables."""
    sizes = params.layer_sizes
    n = sizes[0]
    OutcomeSpace(sum(sizes), (-1, 1)).check_budget(budget)
    hspace = OutcomeSpace(sum(sizes[1:]), (-1, 1))
    hall = hspace.all_outcomes(budget).astype(np.float64)
    # split the flat hidden enumeration into per-layer blocks
    splits = np.cumsum(sizes[1:])[:-1]
    layers = np.split(hall, splits, axis=1)

    # per-hidden-configuration constant: biases plus layer-to-layer terms
    const = np.zeros(hall.shape[0])
    for h, a in zip(layers, params.hidden_biases):
        const += h @ a
    for i in range(1, len(layers)):
        const += ((layers[i - 1] @ params.couplings[i]) * layers[i]).sum(axis=1)
    first = layers[0] @ params.couplings[0]  # (n_hidden_conf, n_visible)

    def score_fn(outcomes: np.ndarray) -> np.ndarray:
        x = outcomes.astype(np.float64)
        base = x @ params.visible_bias
        cross = first @ x.T  # (n_hidden_conf, m)
        joint = const[:, None] + cross
        m = joint.max(axis=0)
        return base + m + np.log(np.exp(joint - m[None, :]).sum(axis=0))

    space = OutcomeSpace(n, (-1, 1))
    return FoesModel(space, score_fn, family="dbm_marginal", budget=budget)


def assert_close_to_oracle(got, oracle):
    """Within 1e-12 of the oracle relative to its largest magnitude, with the
    same argmax and argmin (an entry near 0 has no relative precision)."""
    assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert (np.argmax(got), np.argmin(got)) == (np.argmax(oracle), np.argmin(oracle))


def dbm_params(rng, sizes):
    """Normal draws for a DBM with the given (visible, hidden...) layer sizes."""
    return DbmParams(
        rng.normal(size=sizes[0]),
        tuple(rng.normal(size=s) for s in sizes[1:]),
        tuple(rng.normal(size=(sizes[1], sizes[0])) if i == 0
              else rng.normal(size=(sizes[i], sizes[i + 1]))
              for i in range(len(sizes) - 1)))
