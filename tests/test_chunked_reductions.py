"""Chunked reductions over fl(score - log Z) against full-table oracles.

Every reduction that normalizes (log Z, modal sets, Gibbs TV and
occupancy, PSR, expectations) forms fl(s - log Z) one chunk at a time and
sums through ``core._pairwise_sum``. The oracles below are the full-table
versions these replaced, kept verbatim: each builds ``log_probs()`` and
reduces it with numpy in one call. The PSR oracle's verdict follows the
check's rule, PSR_TOL or its rounding slack where that is larger, worked
out here in exact rationals from the full tables. The chunked values must
have the same bytes, with chunks small enough that many leaves and chunks
are crossed.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import foeslab.core
from foeslab import (
    ChainConfig,
    DbmParams,
    GraphModelSpec,
    RbmParams,
    expected_standardized_log_prob,
    expected_statistic,
    make_bernoulli,
    make_dbm_marginal,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
    modal_set,
    run_gibbs,
    sign_reversal_masses,
)
from foeslab.core import UniformModelError
from foeslab.metrics import ModalSet, _score_range, lrep, modal_tie_tol
from foeslab.psr import PSR_TOL, PsrReport, _psr_report


def oracle_modal_set(model, epsilon: float) -> ModalSet:
    logp, (imax, imin) = model.log_probs(), model.extreme_indices()
    threshold = (1.0 - epsilon) * logp[imax] + epsilon * logp[imin]
    members = np.flatnonzero(logp > threshold - modal_tie_tol(logp[imax], logp[imin]))
    mass = float(np.exp(logp[members]).sum())
    return ModalSet(epsilon=epsilon, threshold=float(threshold),
                    members=members, mass=mass)


def oracle_chain_diagnostics(model, start: int, trace: np.ndarray, burn_in: int,
                             epsilon: float) -> tuple:
    """(tv, occupancy, escape time) of a chain from ``start`` with ``trace``."""
    logp = model.log_probs()
    mset = oracle_modal_set(model, epsilon)
    in_modal = np.isin(np.arange(model.space.n_outcomes), mset.members)
    entry_sweep = 0 if in_modal[start] else None
    escape_time = None
    for sweep, idx in enumerate(trace.tolist(), 1):
        if entry_sweep is None and in_modal[idx]:
            entry_sweep = sweep
        elif entry_sweep is not None and escape_time is None and not in_modal[idx]:
            escape_time = sweep - entry_sweep
    kept = trace[burn_in:]
    occupancy = float(in_modal[kept].mean())
    counts = np.bincount(kept, minlength=model.space.n_outcomes)
    emp = counts / kept.size
    tv = 0.5 * float(np.abs(emp - np.exp(logp)).sum())
    return tv, occupancy, escape_time


def oracle_psr_report(model_pos, model_neg) -> PsrReport:
    logp_pos, logp_neg = model_pos.log_probs(), model_neg.log_probs()
    product = logp_pos + logp_neg
    (top, _), (_, bottom) = model_pos.extreme_indices(), model_neg.extreme_indices()
    target = logp_pos[top] + logp_neg[bottom]
    max_violation = float(np.abs(product - target).max())
    # gamma_3 = 3u / (1 - 3u), u = 2^-53, times the violation's eight terms
    u = Fraction(1, 2**53)
    magnitude = sum(Fraction(float(np.abs(m.scores()).max())) + Fraction(abs(m.log_normalizer))
                    for m in (model_pos, model_neg))
    slack = 3 * u / (1 - 3 * u) * 2 * magnitude
    return PsrReport(
        holds=Fraction(max_violation) <= max(Fraction(PSR_TOL), slack),
        max_violation=max_violation,
        lrep_theta=lrep(model_pos).lrep,
        lrep_neg_theta=lrep(model_neg).lrep,
    )


def oracle_expected_standardized_log_prob(model) -> float:
    scores, lo, hi = _score_range(model)
    p = np.exp(model.log_probs())
    p *= (scores - lo) / (hi - lo)
    return float(p.sum())


def oracle_complement_mass(model_pos, model_neg, epsilon: float) -> float:
    mask = np.isin(np.arange(model_pos.space.n_outcomes),
                   oracle_modal_set(model_pos, epsilon).members)
    p_neg = np.exp(model_neg.log_probs())
    return float(p_neg[~mask].sum())


@st.composite
def zoo_families(draw):
    """(family, theta) of one zoo family on 2^8 to 2^11 outcomes; integer
    parameters tie many scores."""
    kind = draw(st.sampled_from(["uniform", "bernoulli", "multinomial", "graph",
                                 "rbm_marginal", "rbm_joint", "dbm_marginal"]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coef(*shape):
        return (rng.integers(-2, 3, shape).astype(np.float64) if integer
                else rng.standard_normal(shape))

    nv, nh = int(rng.integers(5, 9)), int(rng.integers(1, 4))
    return {
        "uniform": lambda: (lambda theta: make_uniform(9), 0.0),
        "bernoulli": lambda: (lambda theta: make_bernoulli(10, theta), float(coef())),
        "multinomial": lambda: (lambda theta: make_multinomial(6, theta), coef(3)),
        "graph": lambda: (lambda theta: make_graph_model(
            GraphModelSpec(5, tuple(map(float, theta)))), coef(3)),
        "rbm_marginal": lambda: (make_rbm_marginal,
                                 RbmParams(coef(nv + 3), coef(nh), coef(nh, nv + 3))),
        "rbm_joint": lambda: (make_rbm_joint,
                              RbmParams(coef(nv), coef(nh), coef(nh, nv))),
        "dbm_marginal": lambda: (make_dbm_marginal, DbmParams(
            coef(9), (coef(2), coef(2)), (coef(2, 9), coef(2, 2)))),
    }[kind]()


def same_bytes(got, want) -> bool:
    return np.array(got, dtype=np.float64).tobytes() == np.array(want, dtype=np.float64).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=zoo_families(), chunk=st.sampled_from([8, 16, 100, 2**16]),
       epsilon=st.sampled_from([0.05, 0.3, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1),
       start=st.integers(0, 2**32 - 1), burn_frac=st.floats(0.0, 0.9))
def test_chunked_reductions_match_the_full_table_oracles(case, chunk, epsilon, seed,
                                                         start, burn_frac):
    family, theta = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        model, model_neg = family(theta), family(-theta)

        got, want = modal_set(model, epsilon), oracle_modal_set(model, epsilon)
        assert same_bytes((got.threshold, got.mass), (want.threshold, want.mass))
        assert got.members.dtype == want.members.dtype
        assert got.members.tobytes() == want.members.tobytes()

        start %= model.space.n_outcomes
        config = ChainConfig(n_sweeps=200, burn_in=int(burn_frac * 200), seed=seed,
                             init_outcome=tuple(model.space.decode(start)))
        report = run_gibbs(model, config, epsilon=epsilon, keep_trace=True)
        tv, occupancy, escape_time = oracle_chain_diagnostics(
            model, start, report.trace, config.burn_in, epsilon)
        assert same_bytes((report.tv_distance, report.modal_occupancy), (tv, occupancy))
        assert report.mode_escape_time == escape_time

        got_psr, want_psr = _psr_report(model, model_neg), oracle_psr_report(model, model_neg)
        assert same_bytes(got_psr.max_violation, want_psr.max_violation)
        assert got_psr == want_psr
        if not want_psr.holds:
            return
        masses = sign_reversal_masses(family, theta, epsilon)
        assert same_bytes(masses, (want.mass, oracle_complement_mass(model, model_neg,
                                                                     epsilon)))


@pytest.mark.parametrize("kind", ["bernoulli", "multinomial", "graph", "rbm_joint"])
@pytest.mark.parametrize("scale", [1.0, 1e7, 1e10])
@pytest.mark.parametrize("chunk", [16, 2**16])
def test_psr_verdict_matches_the_oracle_at_large_theta(kind, scale, chunk):
    # past |theta| ~ 1e6 rounding alone leaves violations above PSR_TOL, so
    # there the verdict rests on the slack: each scale above 1 has draws that
    # hold only by it
    reports = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        family, theta = {
            "bernoulli": (lambda t: make_bernoulli(10, t), float(rng.standard_normal())),
            "multinomial": (lambda t: make_multinomial(6, t), rng.standard_normal(3)),
            "graph": (lambda t: make_graph_model(GraphModelSpec(5, tuple(map(float, t)))),
                      rng.standard_normal(3)),
            "rbm_joint": (make_rbm_joint, RbmParams(*(rng.standard_normal(s)
                                                      for s in (5, 3, (3, 5))))),
        }[kind]
        theta = RbmParams(theta.visible * scale, theta.hidden * scale,
                          theta.interaction * scale) if kind == "rbm_joint" else theta * scale
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
            model, model_neg = family(theta), family(-theta)
            got, want = _psr_report(model, model_neg), oracle_psr_report(model, model_neg)
        assert same_bytes(got.max_violation, want.max_violation)
        assert got == want
        reports.append(got)
    if scale > 1:
        assert any(r.holds and r.max_violation > PSR_TOL for r in reports)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=zoo_families(), chunk=st.sampled_from([8, 16, 100, 2**16]))
def test_chunked_expectations_match_the_full_table_oracles(case, chunk):
    family, theta = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        model = family(theta)
        try:
            want = oracle_expected_standardized_log_prob(model)
        except UniformModelError:
            with pytest.raises(UniformModelError):
                expected_standardized_log_prob(model)
        else:
            assert same_bytes(expected_standardized_log_prob(model), want)
        if hasattr(model, "statistic_values"):
            g = model.statistic_values()
            want = np.exp(model.log_probs()) @ g
            assert expected_statistic(model).tobytes() == want.tobytes()
