"""Sphere sampling and the magnitude grid experiment."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import foeslab.core
import foeslab.experiments
from foeslab import (
    GridExperimentConfig,
    RbmParams,
    delta_n,
    figure1_csv,
    lrep,
    make_rbm_marginal,
    run_figure1,
    sample_on_sphere,
)
from foeslab.core import (_CHUNK_OUTCOMES, DEFAULT_ENUMERATION_BUDGET, OutcomeSpace,
                          _check_finite, _one_flip_range, _philox, _philox_streams)
from foeslab.experiments import GRID_METRICS, GridCell
from foeslab.metrics import _extremal_range
from foeslab.zoo import _first_layer, _log2cosh
from conftest import CLI_CHILD, child_peak_kb


class TestSampleOnSphere:
    def test_one_dimension_is_sign_flip(self):
        rng = np.random.default_rng(50)
        draws = [float(sample_on_sphere(1, 2.0, rng)[0]) for _ in range(50)]
        assert {v > 0 for v in draws} == {True, False}
        for v in draws:
            assert abs(v) == pytest.approx(2.0, abs=1e-12)

    def test_norm_is_exact(self):
        rng = np.random.default_rng(51)
        for dim in (2, 5, 14, 45):
            radius = float(rng.uniform(0.01, 10))
            v = sample_on_sphere(dim, radius, rng)
            assert np.linalg.norm(v) == pytest.approx(radius, abs=1e-12)

    def test_coordinates_centered(self):
        rng = np.random.default_rng(52)
        draws = np.array([sample_on_sphere(3, 1.0, rng) for _ in range(100000)])
        assert np.abs(draws.mean(axis=0)).max() < 0.02

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_on_sphere(0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_on_sphere(3, -1.0, rng)
        for bad in (float("nan"), -float("inf")):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                sample_on_sphere(3, bad, rng)


SMALL = GridExperimentConfig(n_visible=5, n_hidden=2, n_breaks=4,
                             samples_per_point=3, seed=7)


class TestRunFigure1:
    def test_cell_count_and_layout(self):
        cells = run_figure1(SMALL)
        assert len(cells) == 16
        breaks = SMALL.breaks
        assert cells[0].main_magnitude == breaks[0]
        assert cells[0].interaction_magnitude == breaks[0]
        assert cells[1].interaction_magnitude == breaks[1]  # interaction inner
        assert cells[4].main_magnitude == breaks[1]

    def test_metrics_nonnegative(self):
        for c in run_figure1(SMALL):
            assert c.mean_scaled_lrep >= 0.0
            assert c.mean_delta_n >= 0.0
            assert c.n_samples == 3

    @pytest.mark.parametrize("config, cells", [
        (GridExperimentConfig(n_visible=5, n_hidden=2, n_breaks=3,
                              samples_per_point=1, seed=99), range(9)),
        (GridExperimentConfig(n_visible=9, n_hidden=5, n_breaks=20,
                              samples_per_point=6, seed=11), (0, 137, 399)),
        # n_hidden >= 8: the parent model summed its hidden terms pairwise
        (GridExperimentConfig(n_visible=7, n_hidden=9, n_breaks=3,
                              samples_per_point=7, seed=-3), (1, 4, 8)),
    ], ids=["5+2", "9+5", "7+9"])
    def test_matches_model_path_per_draw(self, monkeypatch, config, cells):
        # rebuild each draw from its stream and push it through the model
        # diagnostics, as the benchmark's figure1 oracle does; figure1's
        # per-draw values, recorded as it reduces them, are the model's bits
        recorded = {"lrep": [], "delta": []}

        def record(key, fn):
            def wrapper(*args):
                recorded[key].append(fn(*args).copy())
                return recorded[key][-1]
            return wrapper

        monkeypatch.setattr(foeslab.experiments, "_extremal_range",
                            record("lrep", _extremal_range))
        monkeypatch.setattr(foeslab.experiments, "_one_flip_range",
                            record("delta", _one_flip_range))
        nv, nh, spp = config.n_visible, config.n_hidden, config.samples_per_point
        got = run_figure1(config)
        per_draw = {key: np.concatenate(v).reshape(-1, spp) for key, v in recorded.items()}
        for cell in cells:
            main_mag = config.breaks[cell // config.n_breaks]
            int_mag = config.breaks[cell % config.n_breaks]
            lreps, deltas = [], []
            for s in range(spp):
                rng = _philox(config.seed, cell * spp + s)
                main = sample_on_sphere(nv + nh, main_mag * (nv + nh), rng)
                inter = sample_on_sphere(nv * nh, int_mag * (nv * nh), rng)
                model = make_rbm_marginal(RbmParams(main[:nv], main[nv:],
                                                    inter.reshape(nh, nv)))
                lreps.append(lrep(model).lrep)
                deltas.append(delta_n(model))
            assert per_draw["lrep"][cell].tobytes() == np.array(lreps).tobytes()
            assert per_draw["delta"][cell].tobytes() == np.array(deltas).tobytes()
            assert got[cell].mean_scaled_lrep == float(per_draw["lrep"][cell].mean() / nv)
            assert got[cell].mean_delta_n == float(per_draw["delta"][cell].mean())

    def test_deterministic_and_seed_sensitive(self):
        a = run_figure1(SMALL)
        b = run_figure1(SMALL)
        assert a == b
        c = run_figure1(GridExperimentConfig(n_visible=5, n_hidden=2, n_breaks=4,
                                             samples_per_point=3, seed=8))
        assert a != c

    def test_metric_subset(self):
        config = GridExperimentConfig(n_visible=4, n_hidden=1, n_breaks=2,
                                      samples_per_point=2, seed=1,
                                      metrics=("scaled_lrep",))
        cells = run_figure1(config)
        assert all(np.isnan(c.mean_delta_n) for c in cells)
        assert all(np.isfinite(c.mean_scaled_lrep) for c in cells)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GridExperimentConfig(n_breaks=1)
        with pytest.raises(ValueError):
            GridExperimentConfig(magnitude_min=3.0, magnitude_max=1.0)
        with pytest.raises(ValueError):
            GridExperimentConfig(metrics=("nope",))
        with pytest.raises(ValueError, match="at least one"):
            GridExperimentConfig(metrics=())
        for bad in (-1.0, -1e-300, -float("inf")):
            with pytest.raises(ValueError, match="magnitude_min must be >= 0"):
                GridExperimentConfig(magnitude_min=bad)
        with pytest.raises(ValueError, match="non-finite log-probability"):
            GridExperimentConfig(magnitude_max=float("inf"))
        for key in ("n_visible", "n_hidden"):
            for bad in (0, -1):
                with pytest.raises(ValueError, match=f"{key} must be >= 1"):
                    GridExperimentConfig(**{key: bad})


class TestFigure1Csv:
    def test_roundtrip_and_determinism(self):
        cells = run_figure1(SMALL)
        text = figure1_csv(cells, SMALL)
        assert text == figure1_csv(run_figure1(SMALL), SMALL)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        header, rows = lines[0], lines[1:]
        assert header == "main_mag,int_mag,mean_scaled_lrep,mean_delta_n,n_samples"
        assert len(rows) == 16
        for row, cell in zip(rows, cells):
            main, intm, ml, md, ns = row.split(",")
            assert float(main) == cell.main_magnitude
            assert float(intm) == cell.interaction_magnitude
            assert float(ml) == cell.mean_scaled_lrep
            assert float(md) == cell.mean_delta_n
            assert int(ns) == cell.n_samples

    def test_config_recorded_in_comments(self):
        text = figure1_csv(run_figure1(SMALL), SMALL)
        comments = [l for l in text.splitlines() if l.startswith("#")]
        joined = "\n".join(comments)
        assert "seed = 7" in joined
        assert "n_breaks = 4" in joined


def _parent_sample_on_sphere(dimension, radius, rng):
    # sample_on_sphere before math.sqrt(v.dot(v)) replaced np.linalg.norm
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    while True:
        v = rng.standard_normal(dimension)
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            return v * (radius / norm)


def _parent_log2cosh(z):
    az = np.abs(z)
    return az + np.log1p(np.exp(-2.0 * az))


def _parent_run_figure1(config, budget=2**24):
    """run_figure1 before the antipodal half, the reset stream and the
    signed sums.

    One freshly built Philox per draw, the einsum over the full visible
    space, the allocating log2cosh and numpy's hidden-axis sum: the oracle
    for the fast route.
    """
    nv, nh = config.n_visible, config.n_hidden
    outcomes = OutcomeSpace(nv, (-1, 1)).all_outcomes(budget).astype(np.float64)
    breaks = config.breaks
    main_dim, int_dim = nv + nh, nv * nh

    cells = []
    for i_main, mag_main in enumerate(breaks):
        for i_int, mag_int in enumerate(breaks):
            cell_index = i_main * config.n_breaks + i_int
            theta_v = np.empty((config.samples_per_point, nv))
            theta_h = np.empty((config.samples_per_point, nh))
            theta_vh = np.empty((config.samples_per_point, nh, nv))
            for s in range(config.samples_per_point):
                rng = _philox(config.seed,
                              cell_index * config.samples_per_point + s)
                main = _parent_sample_on_sphere(main_dim, mag_main * main_dim, rng)
                inter = _parent_sample_on_sphere(int_dim, mag_int * int_dim, rng)
                theta_v[s] = main[:nv]
                theta_h[s] = main[nv:]
                theta_vh[s] = inter.reshape(nh, nv)

            # scores for the whole batch: (n_outcomes, samples)
            z = (np.einsum("xi,sji->xsj", outcomes, theta_vh)
                 + theta_h[None, :, :])
            scores = _check_finite(outcomes @ theta_v.T
                                   + _parent_log2cosh(z).sum(axis=2))

            mean_lrep = mean_delta = float("nan")
            if "scaled_lrep" in config.metrics:
                mean_lrep = float(_extremal_range(scores).mean() / nv)
            if "delta_n" in config.metrics:
                mean_delta = float(_one_flip_range(scores, nv, 2).mean())

            cells.append(GridCell(
                main_magnitude=float(mag_main),
                interaction_magnitude=float(mag_int),
                mean_scaled_lrep=mean_lrep,
                mean_delta_n=mean_delta,
                n_samples=config.samples_per_point,
            ))
    return cells


METRIC_SUBSETS = [subset for r in (1, 2)
                  for subset in itertools.permutations(GRID_METRICS, r)]


class TestAgainstParentRoute:
    """The signed sums, the reset stream and in-place log2cosh follow the
    parent route: every cell within 1e-12 relative, or within 1e-12 of its
    draws' score scale.

    The einsum summed each field's products in numpy's own order and the
    hidden axis pairwise from 8 units on; the signed sums add in variable
    order, so cells move by ulps. Unrequested metrics stay NaN.
    """

    @settings(max_examples=80)
    @given(n_visible=st.integers(1, 9), n_hidden=st.integers(1, 9),
           n_breaks=st.integers(2, 3), samples=st.integers(1, 5),
           seed=st.one_of(st.integers(-2**70, -1), st.integers(2**64, 2**70),
                          st.integers(0, 2**64 - 1)),
           magnitude_max=st.sampled_from([3.0, 0.05, 40.0]),
           metrics=st.sampled_from(METRIC_SUBSETS))
    def test_csv_matches_parent(self, n_visible, n_hidden, n_breaks, samples,
                                seed, magnitude_max, metrics):
        config = GridExperimentConfig(
            n_visible=n_visible, n_hidden=n_hidden, n_breaks=n_breaks,
            samples_per_point=samples, seed=seed, magnitude_max=magnitude_max,
            metrics=metrics)
        got, want = cell_array(run_figure1(config)), cell_array(_parent_run_figure1(config))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert got[:, :2].tobytes() == want[:, :2].tobytes()
        # a metric is a difference of scores, so where it is small against
        # them only their scale bounds its rounding: |score| <= |theta|_1
        # + n_hidden log 2, and |v|_1 <= sqrt(dim) |v|_2 on each sphere
        nv, nh = n_visible, n_hidden
        scale = (np.sqrt(nv + nh) * (nv + nh) * got[:, 0]
                 + np.sqrt(nv * nh) * nv * nh * got[:, 1] + nh * np.log(2))
        for g, w, s in zip(np.nan_to_num(got[:, 2:4]), np.nan_to_num(want[:, 2:4]), scale):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12 * s)

    @pytest.mark.parametrize("config, digest", [
        (GridExperimentConfig(),
         "d5fad6efb468ffb0f612bf6ba457ff43d2c718df62e9e1dddca1b27be13d1d43"),
        # n_hidden >= 8: the hidden terms are still added in unit order
        (GridExperimentConfig(n_visible=7, n_hidden=9, n_breaks=3,
                              samples_per_point=7, seed=-3),
         "87401888155472195452a17f10176f8572168491c187d6b642755b36e0c29e77"),
    ], ids=["default-grid", "7+9-seed-minus-3"])
    def test_csv_bytes_are_pinned(self, config, digest):
        text = figure1_csv(run_figure1(config), config)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def cell_array(cells) -> np.ndarray:
    """One row per cell: magnitudes, the two metrics and the sample count."""
    return np.array([[c.main_magnitude, c.interaction_magnitude, c.mean_scaled_lrep,
                      c.mean_delta_n, c.n_samples] for c in cells])


class TestDrawBlocks:
    """Draws are taken in blocks of at most one chunk of (outcome, draw) pairs."""

    @pytest.mark.parametrize("chunk", [1, 3 * 2**5, 7 * 2**5 + 3, 2**30])
    @pytest.mark.parametrize("config", [
        GridExperimentConfig(n_visible=5, n_hidden=3, n_breaks=3,
                             samples_per_point=17, seed=4),
        GridExperimentConfig(n_visible=5, n_hidden=9, n_breaks=2,
                             samples_per_point=10, seed=-2, magnitude_max=40.0),
    ], ids=["5+3", "5+9"])
    def test_block_size_keeps_every_byte(self, monkeypatch, config, chunk):
        # one draw per block, blocks of 3 and 7 draws with a short last one,
        # and one block for all draws
        want = figure1_csv(run_figure1(config), config)
        monkeypatch.setattr(foeslab.experiments, "_CHUNK_OUTCOMES", chunk)
        assert figure1_csv(run_figure1(config), config) == want

    def test_sixteen_visibles_peak_near_one_chunk(self, tmp_path):
        # 2^16 visible outcomes take one draw per block; holding every draw's
        # fields at once took this run to about 216 MB
        argv = ["figure1", "--n-visible", "16", "--n-breaks", "2",
                "--samples-per-point", "25", "--out", str(tmp_path / "grid.csv")]
        assert child_peak_kb(CLI_CHILD, *argv) < 128 * 1024


def _per_draw_run_figure1(config, budget=DEFAULT_ENUMERATION_BUDGET):
    """run_figure1 before the one normal call per draw, verbatim: two
    sample_on_sphere calls per draw, each copied into ``draws``, and numpy's
    sum over the hidden units' log2cosh block. The oracle for the draw route."""
    nv, nh = config.n_visible, config.n_hidden
    samples = config.samples_per_point
    space = OutcomeSpace(nv, (-1, 1))
    space.check_budget(budget)
    rows = space.n_outcomes
    block = min(samples, max(1, _CHUNK_OUTCOMES // rows))
    breaks = config.breaks
    main_dim, int_dim = nv + nh, nv * nh
    stream = _philox_streams(config.seed)
    draws = np.empty((samples, main_dim + int_dim))
    lreps, deltas = np.empty(samples), np.empty(samples)

    cells = []
    for i_main, mag_main in enumerate(breaks):
        for i_int, mag_int in enumerate(breaks):
            cell_index = i_main * config.n_breaks + i_int
            for s in range(samples):
                rng = stream(cell_index * samples + s)
                draws[s, :main_dim] = sample_on_sphere(main_dim, mag_main * main_dim, rng)
                draws[s, main_dim:] = sample_on_sphere(int_dim, mag_int * int_dim, rng)
            # one row per coordinate, draws along the last axis
            cols = np.ascontiguousarray(draws.T)
            theta_v, theta_h = cols[:nv], cols[nv:main_dim]
            theta_vh = cols[main_dim:].reshape(nh, nv, samples)

            for s0 in range(0, samples, block):
                part = slice(s0, min(s0 + block, samples))
                first = _first_layer((theta_v[:, part], theta_h[:, part]),
                                     (theta_vh[..., part],), slice(0, rows))
                scores = _check_finite(first[0] + sum(_log2cosh(first[1:], out=first[1:])))
                if "scaled_lrep" in config.metrics:
                    lreps[part] = _extremal_range(scores)
                if "delta_n" in config.metrics:
                    deltas[part] = _one_flip_range(scores, nv, 2)

            mean_lrep = mean_delta = float("nan")
            if "scaled_lrep" in config.metrics:
                mean_lrep = float(lreps.mean() / nv)
            if "delta_n" in config.metrics:
                mean_delta = float(deltas.mean())

            cells.append(GridCell(
                main_magnitude=float(mag_main),
                interaction_magnitude=float(mag_int),
                mean_scaled_lrep=mean_lrep,
                mean_delta_n=mean_delta,
                n_samples=samples,
            ))
    return cells


class _Normals:
    """A stream's generator that counts its ``standard_normal`` calls and
    replaces the normals at stream positions [zero_from, zero_to) by 0.0."""

    def __init__(self, rng, calls, zero_from=0, zero_to=0):
        self.rng, self.calls = rng, calls
        self.zero_from, self.zero_to, self.position = zero_from, zero_to, 0

    def standard_normal(self, size=None, out=None):
        v = self.rng.standard_normal(size, out=out)
        flat = v.reshape(-1)
        flat[max(self.zero_from - self.position, 0):
             max(self.zero_to - self.position, 0)] = 0.0
        self.position += flat.size
        self.calls.append(flat.size)
        return v


def _planted_streams(calls, index=-1, zero_from=0, zero_to=0):
    """_philox_streams whose stream ``index`` has zeros planted in [zero_from,
    zero_to) after every reset; every stream counts its calls in ``calls``."""
    def streams(seed):
        stream = foeslab.core._philox_streams(seed)
        return lambda i: _Normals(stream(i), calls, *((zero_from, zero_to) if i == index
                                                        else ()))
    return streams


class TestOneNormalCallPerDraw:
    """A draw takes one standard_normal call for both parts, and equals the
    two sample_on_sphere calls per draw bit for bit."""

    @settings(max_examples=80)
    @given(n_visible=st.integers(1, 9), n_hidden=st.integers(1, 9),
           n_breaks=st.integers(2, 3), samples=st.integers(1, 5),
           seed=st.one_of(st.integers(-2**70, -1), st.integers(2**64, 2**70),
                          st.integers(0, 2**64 - 1)),
           magnitude_min=st.sampled_from([0.0, 0.001]),
           magnitude_max=st.sampled_from([3.0, 0.05, 40.0]),
           metrics=st.sampled_from(METRIC_SUBSETS))
    def test_csv_is_the_per_draw_route(self, n_visible, n_hidden, n_breaks, samples,
                                       seed, magnitude_min, magnitude_max, metrics):
        # a radius of 0 scales every normal to +0.0 or -0.0, as the per-draw
        # route does
        config = GridExperimentConfig(
            n_visible=n_visible, n_hidden=n_hidden, n_breaks=n_breaks,
            samples_per_point=samples, seed=seed, magnitude_min=magnitude_min,
            magnitude_max=magnitude_max, metrics=metrics)
        assert (figure1_csv(run_figure1(config), config)
                == figure1_csv(_per_draw_run_figure1(config), config))

    @pytest.mark.parametrize("dim", [1, 2, 5, 14, 31, 45, 64, 81])
    def test_stacked_norms_are_the_dot_product(self, dim):
        # run_figure1's squared norms are sample_on_sphere's v.dot(v), bit for
        # bit, on rows that are column slices of one draws buffer
        draws = np.random.default_rng(dim).standard_normal((300, dim + 7))
        for part in (draws[:, :dim], draws[:, 7:]):
            stacked = np.matmul(part[:, None, :], part[:, :, None]).reshape(-1)
            assert stacked.tobytes() == np.array([v.dot(v) for v in part]).tobytes()

    @pytest.mark.parametrize("config", [
        GridExperimentConfig(n_visible=3, n_hidden=2, n_breaks=2, samples_per_point=4,
                             seed=5),
        GridExperimentConfig(n_visible=7, n_hidden=9, n_breaks=3, samples_per_point=7,
                             seed=-3),
    ], ids=["3+2", "7+9"])
    def test_one_call_per_draw(self, monkeypatch, config):
        calls = []
        monkeypatch.setattr(foeslab.experiments, "_philox_streams", _planted_streams(calls))
        run_figure1(config)
        dim = config.n_visible + config.n_hidden + config.n_visible * config.n_hidden
        assert calls == [dim] * (config.n_breaks**2 * config.samples_per_point)

    @pytest.mark.parametrize("zeros", ["main", "interaction"])
    def test_zero_norm_part_is_redrawn_as_per_draw(self, monkeypatch, zeros):
        # draw 2 of cell 3 gets 0.0 for every normal of one part, a zero
        # norm that sample_on_sphere redraws from the same stream
        config = GridExperimentConfig(n_visible=4, n_hidden=3, n_breaks=2,
                                      samples_per_point=5, seed=9)
        main_dim, int_dim = 7, 12
        start = 0 if zeros == "main" else main_dim
        dim = main_dim if zeros == "main" else int_dim
        planted = _planted_streams([], 3 * 5 + 2, start, start + dim)
        monkeypatch.setattr(foeslab.experiments, "_philox_streams", planted)
        monkeypatch.setitem(globals(), "_philox_streams", planted)
        got, want = run_figure1(config), _per_draw_run_figure1(config)
        assert figure1_csv(got, config) == figure1_csv(want, config)
        monkeypatch.undo()
        assert cell_array(got)[3].tobytes() != cell_array(run_figure1(config))[3].tobytes()
        assert cell_array(got)[:3].tobytes() == cell_array(run_figure1(config))[:3].tobytes()
