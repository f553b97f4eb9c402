"""Outcome-space encoding, normalization and replication invariants."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foeslab import (
    BudgetExceededError,
    DbmParams,
    FoesModel,
    OutcomeSpace,
    log_sum_exp,
    make_bernoulli,
    make_dbm_marginal,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
    replicate,
    GraphModelSpec,
    RbmParams,
)
import foeslab.core
from foeslab.core import (_CHUNK_OUTCOMES, _pairwise_sum, _philox, _philox_streams,
                          _signed_sums)
from foeslab.metrics import lrep
from foeslab.zoo import _statistic_matrix

ZOO_SMALL = [
    make_uniform(3, 2),
    make_bernoulli(2, 1.0),
    make_bernoulli(3, -2.7),
    make_multinomial(2, [1.0, 0.0, -1.0]),
    make_graph_model(GraphModelSpec(3, params=(0.5, 1.3, -0.2))),
    make_rbm_marginal(RbmParams([0.9, -1.1], [0.4], [[0.6, -0.3]])),
    make_rbm_joint(RbmParams([0.9], [0.4], [[0.6]])),
]


class TestLogSumExp:
    def test_singleton_exact(self):
        assert log_sum_exp([0.0]) == 0.0
        assert log_sum_exp([-17.25]) == -17.25

    def test_equal_terms(self):
        assert log_sum_exp([math.log(2), math.log(2)]) == pytest.approx(
            math.log(4), abs=1e-15)

    def test_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2), abs=1e-12)
        assert log_sum_exp([-1000.0, -1000.0]) == pytest.approx(
            -1000.0 + math.log(2), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    @pytest.mark.parametrize("values, expected", [
        ([-math.inf], -math.inf),
        ([-math.inf, -math.inf], -math.inf),
        ([-math.inf, 2.5], 2.5),
        ([math.inf], math.inf),
        ([1.0, math.inf, -math.inf], math.inf),
    ])
    def test_infinite_terms(self, values, expected):
        assert log_sum_exp(values) == expected

    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan], [math.inf, math.nan],
                                        [-math.inf, math.nan]])
    def test_nan_stays_nan(self, values):
        assert math.isnan(log_sum_exp(values))

    @pytest.mark.parametrize("n", [2, 129, 2**16 + 1, 3**12])
    def test_chunked_sum_has_the_bits_of_one_dense_pass(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 30.0
        m = float(values.max())
        dense = m + float(np.log(np.sum(np.exp(values - m))))
        assert np.float64(log_sum_exp(values)).tobytes() == np.float64(dense).tobytes()
        strided = np.repeat(values, 2)[::2]
        assert np.float64(log_sum_exp(strided)).tobytes() == np.float64(dense).tobytes()


PAIRWISE_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 8,
                    3**12, 5**10, 2**20 + 13, 2**24]


@pytest.mark.parametrize("chunk", [_CHUNK_OUTCOMES, 200, 8])
@pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
def test_pairwise_sum_is_numpys_sum_bit_for_bit(monkeypatch, n, chunk):
    # the leaf-and-split order is numpy's own; a numpy whose sum order
    # changes fails here first
    monkeypatch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * np.exp2(rng.integers(-40, 40, n))
    got = _pairwise_sum(lambda a, b: values[a:b].sum(), n)
    assert np.float64(got).tobytes() == np.sum(values).tobytes()


def _fresh_philox(seed, index):
    key = np.array([seed % 2**64, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(rng):
    # 32-bit draws first: a stale buffered half word shows in the first one
    return [rng.random(3, dtype=np.float32).tobytes(),
            rng.integers(0, 1000, size=4).tobytes(),
            rng.standard_normal(5).tobytes(), rng.uniform(size=3).tobytes()]


class TestPhiloxStreams:
    SEEDS = (0, -5, 2**64 + 3)
    INDICES = (0, 1, 2**40)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_stream_is_a_fresh_philox(self, seed):
        stream = _philox_streams(seed)
        for index in self.INDICES:
            want = _draws(_fresh_philox(seed, index))
            assert _draws(stream(index)) == want
            assert _draws(_philox(seed, index)) == want

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("leftover", [
        lambda rng: rng.random(3, dtype=np.float32),
        lambda rng: rng.integers(0, 7, size=1, dtype=np.uint32),
        lambda rng: rng.standard_normal(1),
    ], ids=["float32", "uint32", "one-double"])
    def test_reset_forgets_the_previous_stream(self, seed, leftover):
        # an odd count of 32-bit draws leaves a buffered half word
        # (has_uint32) and a partly used block of four (buffer_pos)
        stream = _philox_streams(seed)
        for previous, index in itertools.product(self.INDICES, repeat=2):
            leftover(stream(previous))
            assert _draws(stream(index)) == _draws(_fresh_philox(seed, index))

    def test_one_generator_serves_every_stream(self):
        stream = _philox_streams(7)
        assert stream(0) is stream(1)


def _dividing_all_outcomes(space: OutcomeSpace) -> np.ndarray:
    """OutcomeSpace.all_outcomes before broadcasting, verbatim: progressive
    division of an int64 copy of the index."""
    k = space.alphabet_size
    alpha = np.asarray(space.alphabet)
    if alpha.min() >= np.iinfo(np.int8).min and alpha.max() <= np.iinfo(np.int8).max:
        alpha = alpha.astype(np.int8)
    out = np.empty((space.n_outcomes, space.n_variables), dtype=alpha.dtype)
    scratch = np.arange(space.n_outcomes, dtype=np.int64)
    for i in range(space.n_variables):
        out[:, i] = alpha[scratch % k]
        np.floor_divide(scratch, k, out=scratch)
    return out


class TestOutcomeSpace:
    @pytest.mark.parametrize("alphabet", [(0, 1), (-1, 1), (1, 2, 3), (-128, 127),
                                          (0, 1000, -7), (0.5, -1.5)])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_all_outcomes_is_the_dividing_route(self, n, alphabet):
        # int8 symbols while the alphabet fits, numpy's default type otherwise
        space = OutcomeSpace(n, alphabet)
        got, want = space.all_outcomes(), _dividing_all_outcomes(space)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,alphabet", [
        (10, (0, 1)), (6, (1, 2, 3)), (4, (-1, 1)), (3, (0, 1, 2, 3)),
    ])
    def test_encode_decode_roundtrip_all_indices(self, n, alphabet):
        space = OutcomeSpace(n, alphabet)
        outcomes = space.all_outcomes()
        for index in range(space.n_outcomes):
            vec = space.decode(index)
            assert np.array_equal(vec, outcomes[index])
            assert space.encode(vec) == index

    def test_little_endian(self):
        # index 1 changes variable 0, the least significant digit
        space = OutcomeSpace(3, (0, 1))
        assert list(space.decode(0)) == [0, 0, 0]
        assert list(space.decode(1)) == [1, 0, 0]
        assert list(space.decode(2)) == [0, 1, 0]
        assert list(space.decode(4)) == [0, 0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            OutcomeSpace(0, (0, 1))
        with pytest.raises(ValueError):
            OutcomeSpace(2, ())
        with pytest.raises(ValueError):
            OutcomeSpace(2, (1, 1))

    def test_budget(self):
        space = OutcomeSpace(40, (0, 1))
        with pytest.raises(BudgetExceededError):
            space.check_budget()
        with pytest.raises(BudgetExceededError):
            OutcomeSpace(5, (0, 1)).check_budget(budget=2**4)
        OutcomeSpace(4, (0, 1)).check_budget(budget=2**4)


class TestEnumeration:
    def test_uniform_log_probs(self):
        logp = make_uniform(3, 2).log_probs()
        np.testing.assert_allclose(logp, -3 * math.log(2), atol=1e-12)

    def test_bernoulli_zero_parameter_is_uniform(self):
        logp = make_bernoulli(2, 0.0).log_probs()
        np.testing.assert_allclose(logp, -2 * math.log(2), atol=1e-12)

    def test_bernoulli_single_variable_closed_form(self):
        logp = make_bernoulli(1, 1.0).log_probs()
        expected = np.array([-math.log(1 + math.e), 1 - math.log(1 + math.e)])
        np.testing.assert_allclose(logp, expected, atol=1e-12)

    @pytest.mark.parametrize("model", ZOO_SMALL, ids=lambda m: m.family)
    def test_normalization(self, model):
        total = np.exp(model.log_probs()).sum()
        assert abs(total - 1.0) <= 1e-10

    def test_budget_exceeded_is_hard_error(self):
        with pytest.raises(BudgetExceededError):
            make_bernoulli(40, 1.0).scores()

    def test_nonfinite_score_rejected(self):
        space = OutcomeSpace(2, (0, 1))
        bad = FoesModel(space, lambda x: np.where(x.sum(1) > 1, -np.inf, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            bad.scores()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 5, 15])
    def test_nonfinite_score_rejected_at_any_index(self, bad, at):
        # the extremes found with the table catch what a full isfinite pass did
        table = np.linspace(-1.0, 1.0, 16)
        table[at] = bad
        model = FoesModel(OutcomeSpace(4, (0, 1)), lambda x: table[np.asarray(x) @ 2 ** np.arange(4)])
        with pytest.raises(ValueError, match="^model has a non-finite log-probability; "
                                             "FOES models must support every outcome$"):
            model.scores()

    def test_extreme_indices_are_the_lowest_argmax_and_argmin(self):
        table = np.array([1.0, 3.0, -2.0, 3.0, -2.0, 0.0, 3.0, -2.0])
        model = FoesModel(OutcomeSpace(3, (0, 1)), lambda x: table[np.asarray(x) @ [1, 2, 4]])
        assert model.extreme_indices() == (1, 2)
        assert model.scores().tobytes() == table.tobytes()

    def test_wrong_width_outcome_rejected(self):
        model = make_bernoulli(5, 1.0)
        with pytest.raises(ValueError, match="width"):
            model.score([1, 0, 1])
        with pytest.raises(ValueError):
            model.space.encode([0, 1, 2, 0, 0])


class TestConcurrentReads:
    def test_shared_model_lazy_caches_are_consistent(self):
        # models are immutable; lazy enumeration from many threads must
        # always land on the same table and normalizer
        from concurrent.futures import ThreadPoolExecutor

        for _ in range(5):
            model = make_rbm_marginal(
                RbmParams([0.9, -1.1, 0.4], [0.4, -0.2], np.ones((2, 3))))
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(
                    lambda _: (model.log_normalizer, model.log_probs()),
                    range(16)))
            base_psi, base_logp = results[0]
            for psi, logp in results[1:]:
                assert psi == base_psi
                np.testing.assert_array_equal(logp, base_logp)


class TestReplicate:
    def test_identity_replication(self):
        model = make_bernoulli(3, 0.7)
        rep = replicate(model, 1)
        np.testing.assert_array_equal(rep.log_probs(), model.log_probs())

    def test_uniform_stays_uniform(self):
        rep = replicate(make_uniform(2, 2), 2)
        np.testing.assert_allclose(rep.log_probs(), -4 * math.log(2), atol=1e-12)

    def test_block_additivity(self):
        model = make_multinomial(2, [0.4, -0.2])
        rep = replicate(model, 3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            blocks = [model.space.decode(rng.integers(model.space.n_outcomes))
                      for _ in range(3)]
            joint = np.concatenate(blocks)
            expected = sum(model.log_prob(b) for b in blocks)
            assert rep.log_prob(joint) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", ZOO_SMALL, ids=lambda m: m.family)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_scaled_lrep_invariant(self, model, m):
        if model.space.n_outcomes**m > 2**20:
            pytest.skip("replicated space too large for this sweep")
        base = lrep(model).scaled_lrep
        rep = lrep(replicate(model, m)).scaled_lrep
        if m <= 2:
            # doubling is exact in IEEE-754, so the ratio is bitwise equal
            assert rep == base
        else:
            # the threefold sum may round its last ulp
            assert rep == pytest.approx(base, abs=0, rel=1e-15)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            replicate(make_uniform(2, 2), 0)


def _rbm(seed, n_visible, n_hidden):
    rng = np.random.default_rng(seed)
    return RbmParams(rng.uniform(-2, 2, n_visible), rng.uniform(-2, 2, n_hidden),
                     rng.uniform(-2, 2, (n_hidden, n_visible)))


def _dbm(seed, *sizes):
    # couplings[0] is (n_h1, n_visible), couplings[i] is (n_hi, n_h(i+1))
    rng = np.random.default_rng(seed)
    shapes = [sizes[1::-1]] + [sizes[i:i + 2] for i in range(1, len(sizes) - 1)]
    return DbmParams(rng.uniform(-1, 1, sizes[0]),
                     tuple(rng.uniform(-1, 1, s) for s in sizes[1:]),
                     tuple(rng.uniform(-1, 1, s) for s in shapes))


# every zoo family on a space that takes several chunks
CHUNKED_ZOO = {
    "uniform-17": lambda: make_uniform(17, 2),
    "bernoulli-18": lambda: make_bernoulli(18, -0.6),
    "multinomial-3x11": lambda: make_multinomial(11, [0.3, -1.1, 2.0]),
    "multinomial-4x9": lambda: make_multinomial(9, [0.3, -1.1, 2.0, 0.7]),
    "graph-7": lambda: make_graph_model(GraphModelSpec(7, params=(0.3, -0.7, 1.1))),
    "rbm_joint-10+8": lambda: make_rbm_joint(_rbm(1, 10, 8)),
    "rbm_marginal-18": lambda: make_rbm_marginal(_rbm(2, 18, 4)),
    "dbm_marginal-17+1": lambda: make_dbm_marginal(_dbm(3, 17, 1)),
    # several chunks of visibles, each against blocks of even-layer configurations
    "dbm_marginal-17+2+2": lambda: make_dbm_marginal(_dbm(4, 17, 2, 2)),
    "replicate-multinomial": lambda: replicate(
        make_multinomial(6, [0.1, 0.2, -0.5]), 2),
}
LINEAR = ("bernoulli-18", "multinomial-3x11", "multinomial-4x9", "graph-7")


class TestLogProb:
    @pytest.mark.parametrize("model", [
        make_rbm_joint(_rbm(6, 6, 10)),
        make_rbm_marginal(_rbm(12, 12, 3)),
    ], ids=["rbm_joint-6+10", "rbm_marginal-12+3"])
    def test_log_prob_is_the_table_entry(self, model):
        # a one-row score can round differently from the table; log_prob
        # reads the table, so it agrees with log_probs() bit for bit
        got = [model.log_prob(x) for x in model.space.all_outcomes()]
        assert np.array(got).tobytes() == model.log_probs().tobytes()
        off = np.ones(model.n_variables)
        for bad in (0.0, 1.5, 2.0):
            off[-1] = bad
            with pytest.raises(ValueError, match="not in alphabet"):
                model.log_prob(off)
        off[-1] = -1.0  # a float that equals a symbol is that symbol
        assert model.log_prob(off) == model.log_prob(off.astype(int))


class TestTabulate:
    """Chunked tables against the dense route fn(space.all_outcomes())."""

    @pytest.mark.parametrize("name", [n for n in CHUNKED_ZOO if n not in LINEAR])
    def test_scores_match_dense_route(self, name):
        model = CHUNKED_ZOO[name]()
        assert model.space.n_outcomes > _CHUNK_OUTCOMES
        dense = np.asarray(model.score_fn(model.space.all_outcomes()),
                           dtype=np.float64)
        assert model.scores().tobytes() == dense.tobytes()

    @pytest.mark.parametrize("name", LINEAR)
    def test_linear_tables_match_dense_route(self, name):
        # one dense statistic pass serves both tables: a linear score_fn is
        # the statistic matrix times params
        model = CHUNKED_ZOO[name]()
        assert model.space.n_outcomes > _CHUNK_OUTCOMES
        dense = _statistic_matrix(model.stat_fn, model.space.all_outcomes(),
                                  model.n_params)
        assert model.scores().tobytes() == (dense @ model.params).tobytes()
        stats = model.statistic_values()
        assert stats.tobytes() == dense.tobytes()
        assert stats.flags.f_contiguous == dense.flags.f_contiguous
        assert stats.flags.c_contiguous == dense.flags.c_contiguous

    @pytest.mark.parametrize("model", ZOO_SMALL, ids=lambda m: m.family)
    def test_single_chunk_matches_dense_route(self, model):
        dense = np.asarray(model.score_fn(model.space.all_outcomes()),
                           dtype=np.float64)
        assert model.scores().tobytes() == dense.tobytes()

    def test_chunks_are_aligned_index_runs(self):
        # 3^11 outcomes: chunks of 3^10 with variable 10 held constant
        space = OutcomeSpace(11, (1, 2, 3))
        seen = []

        def fn(chunk):
            seen.append(chunk.copy())
            return chunk

        table = space.tabulate(fn)
        assert [c.shape for c in seen] == [(3**10, 11)] * 3
        assert [set(c[:, 10]) for c in seen] == [{1}, {2}, {3}]
        assert np.array_equal(table, space.all_outcomes())

    def test_over_budget_raises_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(OutcomeSpace, "all_outcomes",
                            lambda *args, **kwargs: calls.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                OutcomeSpace(30, (0, 1)).tabulate(calls.append, budget=2**29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 2**16

    @pytest.mark.parametrize("n", [3, 18])
    def test_wrong_row_count_keeps_the_shape_error(self, n):
        model = FoesModel(OutcomeSpace(n, (0, 1)),
                          lambda x: np.zeros(x.shape[0] - 1))
        with pytest.raises(ValueError, match=r"^score_fn returned shape \("):
            model.scores()

    def test_wrong_width_keeps_the_shape_error(self):
        model = FoesModel(OutcomeSpace(18, (0, 1)),
                          lambda x: np.zeros((x.shape[0], 2)))
        with pytest.raises(ValueError, match=r"^score_fn returned shape \(262144, 2\)"):
            model.scores()

    def test_peak_memory_is_the_table_plus_one_chunk(self):
        model = make_bernoulli(22, 0.4)
        table_bytes = model.space.n_outcomes * 8
        tracemalloc.start()
        try:
            model.scores()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table_bytes


@st.composite
def signed_weights(draw):
    """(n, base, weights): n from 1 to 12, trailing shape (), (3,) or (2, 5),
    base +0.0, -0.0 or an array of the trailing shape."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(), (3,), (2, 5)]))
    size = int(np.prod(shape, dtype=int))
    # signed zeros and exact ties alongside wide floats
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.2, 0.3, 1.0]),
                       st.floats(-1e3, 1e3, allow_nan=False))
    weights = np.array(draw(st.lists(values, min_size=n * size, max_size=n * size)))
    kind = draw(st.sampled_from(["+0", "-0", "array"]))
    base = {"+0": 0.0, "-0": -0.0}.get(kind)
    if base is None:
        base = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape)
    return n, base, weights.reshape(n, *shape)


class TestSignedSums:
    @settings(max_examples=120)
    @given(case=signed_weights())
    def test_each_row_is_summed_in_variable_order(self, case):
        n, base, weights = case
        space = OutcomeSpace(n, (-1, 1))
        out = _signed_sums(base, weights, np.empty((2**n, *weights.shape[1:])))
        want = np.empty_like(out)
        for r in range(2**n):
            acc = np.full(weights.shape[1:], base)
            for s, w in zip(space.decode(r), weights):
                acc = acc + s * w
            want[r] = acc
        assert out.tobytes() == want.tobytes()
        x = space.all_outcomes().astype(np.float64)
        dense = base + (x @ weights.reshape(n, -1)).reshape(out.shape)
        scale = np.abs(base).max(initial=0.0) + np.abs(weights).sum(axis=0).max(initial=0.0)
        assert np.abs(out - dense).max() <= 1e-12 * scale

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="8 rows for 2 signed weights"):
            _signed_sums(0.0, np.ones((2, 3)), np.empty((8, 3)))
