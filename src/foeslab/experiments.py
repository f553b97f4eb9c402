"""Sphere-sampled magnitude grid experiment for RBM visible models.

Sweeps two average-magnitude axes — main effects (visible plus hidden
biases) and interactions — over a linear grid. At each grid point it draws
parameter vectors uniformly on spheres whose radii make the axis labels
read as average magnitudes (radius = average magnitude times coordinate
count), builds the analytic visible model, and records the mean size-scaled
extremal log-ratio and the mean one-flip log-ratio over the draws.

Every draw gets its own Philox stream keyed by (seed, cell, sample), so
results do not depend on evaluation order and rerunning any subset of the
grid reproduces the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_CHUNK_OUTCOMES, DEFAULT_ENUMERATION_BUDGET, OutcomeSpace,
                   _check_finite, _csv, _one_flip_range, _philox_streams)
from .metrics import _extremal_range
from .zoo import _first_layer, _log2cosh

GRID_METRICS = ("scaled_lrep", "delta_n")


@dataclass(frozen=True)
class GridExperimentConfig:
    """Grid layout, draw counts and seed for the magnitude sweep."""

    n_visible: int = 9
    n_hidden: int = 5
    magnitude_min: float = 0.001
    magnitude_max: float = 3.0
    n_breaks: int = 20
    samples_per_point: int = 100
    seed: int = 0
    metrics: tuple = GRID_METRICS

    def __post_init__(self):
        for key in ("n_visible", "n_hidden"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.n_breaks < 2:
            raise ValueError("need at least 2 breaks per axis")
        if not self.magnitude_min < self.magnitude_max:
            raise ValueError("magnitude_min must be below magnitude_max")
        if self.magnitude_min < 0:
            raise ValueError("magnitude_min must be >= 0")
        if math.isinf(self.magnitude_max):
            # every draw at an infinite radius has infinite parameters
            raise ValueError("magnitude_max = inf gives a non-finite "
                             "log-probability")
        if self.samples_per_point < 1:
            raise ValueError("need at least one sample per grid point")
        if not self.metrics:
            raise ValueError("metrics must name at least one of "
                             f"{', '.join(GRID_METRICS)}")
        unknown = set(self.metrics) - set(GRID_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics: {sorted(unknown)}")

    @property
    def breaks(self) -> np.ndarray:
        """Evenly spaced axis values, endpoints included."""
        return np.linspace(self.magnitude_min, self.magnitude_max, self.n_breaks)


@dataclass(frozen=True)
class GridCell:
    """Per-grid-point sample means of the instability metrics.

    ``main_magnitude`` is the drawn main-effect norm divided by
    (n_hidden + n_visible); ``interaction_magnitude`` the interaction norm
    divided by n_hidden * n_visible. Metrics not requested are NaN.
    """

    main_magnitude: float
    interaction_magnitude: float
    mean_scaled_lrep: float
    mean_delta_n: float
    n_samples: int


def sample_on_sphere(dimension: int, radius: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the sphere of the given radius in R^dimension.

    Draws a standard-normal vector and rescales it to Euclidean norm
    ``radius``; a zero-norm draw (probability zero) is redrawn.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not radius >= 0:
        raise ValueError("radius must be >= 0")
    while True:
        v = rng.standard_normal(dimension)
        norm = math.sqrt(v.dot(v))
        if norm > 0.0:
            return v * (radius / norm)


def run_figure1(config: GridExperimentConfig = GridExperimentConfig(),
                budget: int = DEFAULT_ENUMERATION_BUDGET) -> list[GridCell]:
    """Run the magnitude grid sweep; one GridCell per grid point.

    Cells are ordered with the main-effect axis outer and the interaction
    axis inner. Per draw, the visible model's unnormalized scores are
    evaluated on the whole visible space (hiddens summed analytically, as
    in make_rbm_marginal); a non-finite score raises ValueError.

    Each draw's scores are make_rbm_marginal's table, bit for bit, from
    ``_first_layer`` with the draws along a trailing axis. So the draws can
    be taken in blocks of at most one chunk of (outcome, draw) pairs with
    the same bits: memory stays near one chunk per hidden unit whatever
    n_visible. The draws take their streams from one reset Philox.

    A draw is the two ``sample_on_sphere`` calls on its stream, bit for bit,
    made as one ``standard_normal`` call for both parts (the same normals in
    the same order), with every draw's squared norms from one stacked dot
    product and each part scaled in place. A draw with a zero-norm part is
    remade by those two calls, which redraw it.
    """
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
    parts = draws[:, :main_dim], draws[:, main_dim:]
    norms = np.empty((2, samples, 1, 1))
    lreps, deltas = np.empty(samples), np.empty(samples)

    cells = []
    for i_main, mag_main in enumerate(breaks):
        for i_int, mag_int in enumerate(breaks):
            cell_index = i_main * config.n_breaks + i_int
            radii = mag_main * main_dim, mag_int * int_dim
            for s in range(samples):
                stream(cell_index * samples + s).standard_normal(out=draws[s])
            for part, norm in zip(parts, norms):
                np.sqrt(np.matmul(part[:, None, :], part[:, :, None], out=norm), out=norm)
            remade = np.flatnonzero((norms == 0.0).any(axis=0))
            norms[:, remade] = 1.0  # no division by zero; these rows are remade below
            for part, norm, radius in zip(parts, norms, radii):
                part *= radius / norm[:, 0]
            for s in remade:
                rng = stream(cell_index * samples + s)
                for part, radius in zip(parts, radii):
                    part[s] = sample_on_sphere(part.shape[1], radius, rng)
            # one row per coordinate, draws along the last axis
            cols = np.ascontiguousarray(draws.T)
            theta_v, theta_h = cols[:nv], cols[nv:main_dim]
            theta_vh = cols[main_dim:].reshape(nh, nv, samples)

            for s0 in range(0, samples, block):
                part = slice(s0, min(s0 + block, samples))
                first = _first_layer((theta_v[:, part], theta_h[:, part]),
                                     (theta_vh[..., part],), slice(0, rows))
                # log2cosh one hidden unit at a time, summed in unit order
                total = _log2cosh(first[1], out=first[1])
                for field in first[2:]:
                    total += _log2cosh(field, out=field)
                scores = _check_finite(first[0] + total)
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


def figure1_csv(cells: list[GridCell], config: GridExperimentConfig) -> str:
    """Render grid cells as CSV with the full config in comment lines.

    Floats are written with shortest round-trip repr, so parsing the file
    recovers every value bit for bit and reruns with the same config and
    seed produce byte-identical output.
    """
    comments = ["foeslab figure1 grid experiment"]
    for key in ("n_visible", "n_hidden", "magnitude_min", "magnitude_max",
                "n_breaks", "samples_per_point", "seed"):
        comments.append(f"{key} = {getattr(config, key)!r}")
    comments += [f"metrics = {','.join(config.metrics)}",
                 "grid_spacing = linear, endpoints included",
                 "radius_convention = average magnitude x coordinate count, L2 norm"]
    rows = [{"main_mag": c.main_magnitude, "int_mag": c.interaction_magnitude,
             "mean_scaled_lrep": c.mean_scaled_lrep,
             "mean_delta_n": c.mean_delta_n, "n_samples": c.n_samples}
            for c in cells]
    return _csv(rows, comments)
