"""Sphere sampling and the magnitude grid experiment."""

import numpy as np
import pytest

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
from foeslab.core import _philox


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
