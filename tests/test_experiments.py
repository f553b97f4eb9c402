"""Sphere sampling and the magnitude grid experiment."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from foeslab.core import OutcomeSpace, _check_finite, _philox
from foeslab.experiments import GRID_METRICS, GridCell
from foeslab.metrics import _extremal_range, _one_flip_range


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

    def test_matches_model_path_per_draw(self):
        # rebuild one draw from its stream and push it through the model
        # diagnostics; the grid's fast path must agree exactly
        config = GridExperimentConfig(n_visible=5, n_hidden=2, n_breaks=3,
                                      samples_per_point=1, seed=99)
        cells = run_figure1(config)
        nv, nh = config.n_visible, config.n_hidden
        breaks = config.breaks
        for i_main in range(3):
            for i_int in range(3):
                cell = cells[i_main * 3 + i_int]
                rng = _philox(config.seed, (i_main * 3 + i_int) * 1 + 0)
                main = sample_on_sphere(nv + nh, breaks[i_main] * (nv + nh), rng)
                inter = sample_on_sphere(nv * nh, breaks[i_int] * (nv * nh), rng)
                params = RbmParams(main[:nv], main[nv:], inter.reshape(nh, nv))
                model = make_rbm_marginal(params)
                # batched einsum and per-model matmul round differently in
                # the last ulp; agreement is at float-noise level
                assert cell.mean_scaled_lrep == pytest.approx(
                    lrep(model).scaled_lrep, rel=1e-12, abs=1e-12)
                assert cell.mean_delta_n == pytest.approx(
                    delta_n(model), rel=1e-12, abs=1e-12)

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
    """run_figure1 as it was before the antipodal half and the reset stream.

    One freshly built Philox per draw, the einsum over the full visible
    space and the allocating log2cosh: the oracle for the fast route.
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
    """The antipodal half, the reset stream and in-place log2cosh keep every byte.

    Compared as CSV text: cells hold NaN for unrequested metrics.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
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
        assert (figure1_csv(run_figure1(config), config)
                == figure1_csv(_parent_run_figure1(config), config))

    @pytest.mark.parametrize("config, digest", [
        (GridExperimentConfig(),
         "0c14a9c01fa0575a412d74dec0b29ae769f556ed41bad40b2ea8e567335bf29d"),
        # n_hidden >= 8: numpy sums the hidden axis pairwise
        (GridExperimentConfig(n_visible=7, n_hidden=9, n_breaks=3,
                              samples_per_point=7, seed=-3),
         "f8075973c1b4afe982d5a45f48d2f8bb6501bc309b190bdbd8379ba350ebde05"),
    ], ids=["default-grid", "7+9-seed-minus-3"])
    def test_csv_bytes_are_pinned(self, config, digest):
        text = figure1_csv(run_figure1(config), config)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
