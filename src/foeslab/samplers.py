"""Gibbs and Metropolis-Hastings machinery with mixing diagnostics.

Exactness is the point: the models are small enough to enumerate, so a
chain's empirical occupancy can be compared against the exact distribution
in total variation, full-conditional ratios can be checked against joint
ratios, and the one-sweep transition kernel can be applied to the exact
distribution analytically. Unstable models show up here as entrapment:
chains fall into a modal set and the conditional ratios observed along the
way grow with the model's size-scaled extremal log-ratio.

All randomness flows through numpy's Philox counter-based generator keyed
by the 64-bit config seed, so traces are reproducible across platforms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (FoesModel, UniformModelError, _chunks, _one_flip_shape, _pairwise_sum,
                   _philox)
from .metrics import ModalSet, _score_range, modal_set
from .zoo import LinearExpFamily


@dataclass(frozen=True)
class ChainConfig:
    """Length, burn-in, seed and start state of one chain.

    ``init_outcome`` is an outcome vector, or None for a uniform random
    start. ``n_sweeps`` must exceed ``burn_in``.
    """

    n_sweeps: int
    burn_in: int = 0
    seed: int = 0
    init_outcome: tuple | None = None

    def __post_init__(self):
        if not self.n_sweeps > self.burn_in >= 0:
            raise ValueError("need n_sweeps > burn_in >= 0")


@dataclass(frozen=True)
class MixingReport:
    """Summary of one Gibbs run against the exact distribution.

    ``tv_distance`` compares post-burn-in occupancy with the exact
    probabilities; ``max_transition_log_ratio`` is the largest spread of
    log full-conditional probabilities observed in any site update;
    ``mode_escape_time`` counts sweeps from first entering the epsilon
    modal set until first leaving it (None when the chain never enters or
    never leaves); ``modal_occupancy`` is the post-burn-in fraction of
    sweeps spent inside the modal set, which ``modal`` holds. ``trace``
    holds the outcome index after each sweep when requested, else None.
    """

    tv_distance: float
    max_transition_log_ratio: float
    mode_escape_time: int | None
    modal_occupancy: float
    epsilon: float
    n_sweeps: int
    burn_in: int
    modal: ModalSet
    trace: np.ndarray | None = None


def gibbs_full_conditional(model: FoesModel, outcome, index: int) -> np.ndarray:
    """P(X_index = v | rest) for each alphabet value v, in alphabet order.

    Conditionals are proportional to joint probabilities, so the log-ratio
    of two conditional values equals the log-ratio of the two completed
    outcomes' joint probabilities.
    """
    outcome = np.asarray(outcome)
    n = model.n_variables
    if not 0 <= index < n:
        raise ValueError(f"variable index {index} out of range [0, {n})")
    k = model.space.alphabet_size
    completions = np.repeat(outcome[None, :], k, axis=0)
    completions[:, index] = model.space.alphabet
    return _site_conditional(model.score(completions))


def _site_conditional(block: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalise log-scores to probabilities along ``axis``.

    The one home of the site conditional: shift by the max, exponentiate,
    divide by the sum. ``axis`` runs over the k outcomes one flip apart.
    """
    w = np.exp(block - block.max(axis=axis, keepdims=True))
    w /= w.sum(axis=axis, keepdims=True)
    return w


# Most (site, block) conditionals one chain keeps; a miss past the limit is
# computed the same way and not stored. An entry is an int key and a list of
# k floats: about 190 bytes for k = 2 and 220 for k = 3 (tracemalloc,
# CPython 3.11). So the memo holds at most ~200 MB at k = 2, plus ~34 MB per
# further letter, and never more entries than the chain has site updates.
_MEMO_LIMIT = 2**20


def run_gibbs(model: FoesModel, config: ChainConfig, epsilon: float = 0.1,
              random_scan: bool = False, keep_trace: bool = False) -> MixingReport:
    """Systematic-scan Gibbs sampler with exact mixing diagnostics.

    One sweep updates every variable once (in index order, or in a random
    order per sweep when ``random_scan``); the state after each sweep is
    one sample. Deterministic given the config seed. Each (site, block)
    conditional is normalised on the chain's first visit and looked up on
    later ones, and each sweep draws its n uniforms in one call. Modal
    membership is looked up for the visited states alone, and the TV
    distance is summed one chunk of outcomes at a time, so the chain keeps
    no full-size table beyond the score table.
    """
    scores = model.scores()
    mset = modal_set(model, epsilon)
    k = model.space.alphabet_size
    n = model.n_variables
    strides = [k**i for i in range(n)]
    rng = _philox(config.seed)

    if config.init_outcome is None:
        idx = int(rng.integers(model.space.n_outcomes))
    else:
        idx = model.space.encode(np.asarray(config.init_outcome))

    first = idx
    trace = np.empty(config.n_sweeps, dtype=np.int64)
    max_ratio = 0.0
    # memo[i] maps a block's base index to the cumulative conditional of
    # site i; a revisited block cannot raise max_ratio, so only a miss does
    memo = [{} for _ in range(n)]
    stored = 0

    for sweep in range(1, config.n_sweeps + 1):
        order = rng.permutation(n).tolist() if random_scan else range(n)
        # one call gives the same doubles as n scalar draws
        for i, u in zip(order, rng.random(n).tolist()):
            stride = strides[i]
            digit = (idx // stride) % k
            base = idx - digit * stride
            cum = memo[i].get(base)
            if cum is None:
                s = scores[base + stride * np.arange(k)]
                max_ratio = max(max_ratio, float(s.max() - s.min()))
                cum = np.cumsum(_site_conditional(s)).tolist()
                if stored < _MEMO_LIMIT:
                    memo[i][base] = cum
                    stored += 1
            idx = base + min(bisect_right(cum, u), k - 1) * stride
        trace[sweep - 1] = idx

    # in_modal[s]: whether the state after sweep s (0: the start) is modal
    in_modal = mset.contains(np.concatenate(([first], trace)))
    entered = np.flatnonzero(in_modal)
    left = np.flatnonzero(~in_modal[entered[0]:]) if entered.size else ()
    escape_time = int(left[0]) if len(left) else None
    occupancy = float(in_modal[1 + config.burn_in:].mean())
    kept = trace[config.burn_in:]
    return MixingReport(
        tv_distance=_tv_from_trace(model, kept),
        max_transition_log_ratio=max_ratio,
        mode_escape_time=escape_time,
        modal_occupancy=occupancy,
        epsilon=epsilon,
        n_sweeps=config.n_sweeps,
        burn_in=config.burn_in,
        modal=mset,
        trace=trace if keep_trace else None,
    )


def _tv_from_trace(model: FoesModel, kept: np.ndarray) -> float:
    """Total variation between the occupancy of ``kept`` and the model.

    Each outcome's term is |occupancy - P|, which is P where the chain
    never went; P is exp(fl(score - log Z)), formed one leaf of
    ``_pairwise_sum`` at a time, so the sum has the bits of the one over
    full-size tables.
    """
    scores, log_z = model.scores(), model.log_normalizer
    visited, counts = np.unique(kept, return_counts=True)
    emp = counts / kept.size

    def leaf_sum(a: int, b: int) -> float:
        terms = np.exp(scores[a:b] - log_z)
        lo, hi = np.searchsorted(visited, (a, b))
        at = visited[lo:hi] - a
        terms[at] = np.abs(emp[lo:hi] - terms[at])
        return terms.sum()

    return 0.5 * float(_pairwise_sum(leaf_sum, scores.size))


def apply_gibbs_sweep(model: FoesModel, dist: np.ndarray) -> np.ndarray:
    """Apply one exact systematic-scan Gibbs sweep to a distribution.

    Composes the per-site transition kernels in index order; each site
    kernel leaves the model's exact distribution invariant, so the full
    sweep does too.
    """
    scores = model.scores()
    k = model.space.alphabet_size
    n = model.n_variables
    dist = np.asarray(dist, dtype=np.float64).copy()
    for i in range(n):
        shape = _one_flip_shape(n, k, i)
        cond = _site_conditional(scores.reshape(shape), axis=1)
        marg = dist.reshape(shape).sum(axis=1, keepdims=True)
        dist = (marg * cond).reshape(-1)
    return dist


@dataclass(frozen=True)
class MhResult:
    """Trace of a random-walk Metropolis-Hastings run over parameters.

    ``thetas`` has shape (n_steps + 1, k) including the start point;
    ``proposals`` holds every proposed point (accepted or not) and
    ``log_alphas`` the log acceptance ratio of each proposal (clipped at 0
    when computing the accept probability, stored unclipped).
    """

    thetas: np.ndarray
    proposals: np.ndarray
    accepted: np.ndarray
    log_alphas: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean())


def run_param_mh(model_family, data_outcome, config: ChainConfig,
                 theta0, step_size: float = 0.5,
                 log_prior=None) -> MhResult:
    """Random-walk MH over a model family's parameter vector.

    ``model_family`` maps a parameter vector to a FoesModel, all on one
    outcome space, in which ``data_outcome`` is encoded once before any
    model is scored. The likelihood is exact: each proposal's model is
    normalised over the whole space. A family that builds each model afresh
    enumerates the space at every proposal; for a linear family whose params
    are the parameter vector itself, pass ``LinearExpFamily.at`` of a start
    model instead, which enumerates the statistic table once for the whole
    run. The proposal is an isotropic Gaussian step of ``step_size``, which
    must be positive and finite (symmetric, so the proposal ratio cancels in
    the acceptance probability); ``log_prior`` defaults to flat.
    """
    if config.n_sweeps < 1:
        raise ValueError("need at least one step")
    if not (step_size > 0 and math.isfinite(step_size)):
        raise ValueError(f"step_size must be positive and finite: got {step_size!r}")
    if log_prior is None:
        log_prior = lambda theta: 0.0
    rng = _philox(config.seed)
    theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
    model = model_family(theta)
    idx = model.space.encode(np.asarray(data_outcome))

    def log_post(model: FoesModel, th: np.ndarray) -> float:
        # log_probs()[idx] without the full table's copy
        return float(model.scores()[idx] - model.log_normalizer) + float(log_prior(th))

    current = log_post(model, theta)
    thetas = [theta.copy()]
    proposals = np.empty((config.n_sweeps, theta.size))
    accepted = np.zeros(config.n_sweeps, dtype=bool)
    log_alphas = np.empty(config.n_sweeps)
    for step in range(config.n_sweeps):
        proposal = theta + step_size * rng.standard_normal(theta.size)
        proposals[step] = proposal
        cand = log_post(model_family(proposal), proposal)
        log_alpha = cand - current
        log_alphas[step] = log_alpha
        if np.log(rng.random()) < min(0.0, log_alpha):
            theta = proposal
            current = cand
            accepted[step] = True
        thetas.append(theta.copy())
    return MhResult(thetas=np.asarray(thetas), proposals=proposals,
                    accepted=accepted, log_alphas=log_alphas)


def expected_standardized_log_prob(model: FoesModel) -> float:
    """Exact expectation of the standardized log-probability position.

    The statistic (log P(X) - min log P) / LREP lies in [0, 1]; under a
    strongly concentrated model its expectation approaches 1. Probability
    times position is formed one leaf of ``_pairwise_sum`` at a time and
    summed in numpy's pairwise order, so the value has the bits of one
    dense sum, does not depend on the BLAS thread count, and leaves no
    BLAS worker spinning after the call.
    """
    scores, lo, hi = _score_range(model)
    log_z = model.log_normalizer

    def leaf_sum(a: int, b: int) -> float:
        p = np.exp(scores[a:b] - log_z)
        p *= (scores[a:b] - lo) / (hi - lo)
        return p.sum()

    return float(_pairwise_sum(leaf_sum, scores.size))


def expected_statistic(model: LinearExpFamily) -> np.ndarray:
    """Exact mean of the sufficient-statistic vector under the model.

    The probabilities are filled in one chunk at a time, and the product
    runs on full arrays, so its BLAS rounding is that of one dense
    product: three tables (scores, statistics and probabilities).
    """
    g = model.statistic_values()  # first, so the score table reuses it
    scores, log_z = model.scores(), model.log_normalizer
    p = np.empty_like(scores)
    for c in _chunks(scores.size):
        np.exp(scores[c] - log_z, out=p[c])
    return p @ g


def normalized_score(model: LinearExpFamily) -> float:
    """Mean statistic rescaled to [0, 1] by its extremes (one-parameter).

    Returns (E g(X) - min g) / (max g - min g); the likelihood equation for
    a one-parameter family solves E g = g(x), so values pinned near 0 or 1
    mean optimization targets are reachable only from extreme outcomes.
    """
    if model.n_params != 1:
        raise ValueError("normalized score is defined for one-parameter models")
    mu = float(expected_statistic(model)[0])
    u, l = model.statistic_extremes()
    u, l = float(u[0]), float(l[0])
    if u == l:
        raise UniformModelError("statistic has zero range")
    return (mu - l) / (u - l)
