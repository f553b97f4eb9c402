"""Tight extremal-probability bounds for RBM joint and visible models.

For the joint score f(x, h) = x.theta_v + h.theta_h + sum x_i h_j w_ji on
{-1,+1} variables, the extremes over one block have closed forms: with
a(h) = sum_i |theta_v_i + sum_j h_j w_ji| and
b(x) = sum_j |theta_h_j + sum_i x_i w_ji|,

    max_x f(x, h) = h.theta_h + a(h),   min_x f(x, h) = h.theta_h - a(h),
    max_h f(x, h) = x.theta_v + b(x),   min_h f(x, h) = x.theta_v - b(x).

a(h) is b(x) of the transposed RBM (visible and hidden roles swapped), so
both come from ``zoo._first_layer``'s fields, each added in unit order from
its bias over outcome rows or aligned runs, with no BLAS product.

From these come the report quantities: B = max_h a(h), C = min_h a(h),
the joint LREP (exactly 2 max_h [h.theta_h + a(h)] sandwich), and the
visible-range quantity a_n = max_x [x.theta_v + b(x)] - min_x [...], which
tracks the marginal model's LREP to within n_hidden * ln 2.

One caution, enforced by the certificate checks and the tests: a_n is NOT
bounded below by max{C, B - 2|theta_h|_1}. That lower bound holds for the variant
that takes both extremes along the hidden axis first
(a_n_hidden_first = max_h[h.theta_h + a(h)] - max_h[h.theta_h - a(h)]),
which upper-bounds a_n but can exceed the marginal LREP by far more than
n_hidden * ln 2. The two are distinct quantities; conflating them produces
false inequalities (see tests/test_rbm_bounds.py for a counterexample).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .core import (CertificateError, DEFAULT_ENUMERATION_BUDGET, _check_finite, _chunks,
                   _float_above, _gamma)
from .metrics import PathThresholds, _check_path_sizes, classify_trend
from .zoo import RbmParams, _first_layer, _rbm_marginal_scores, rbm_joint_score

_TOL = 1e-9


def f_theta(params: RbmParams, x, h) -> float:
    """Joint score of one (visible, hidden) configuration in {-1,+1}."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.shape != (params.n_visible,) or h.shape != (params.n_hidden,):
        raise ValueError("x and h must match the parameter shapes")
    if not (np.all(np.abs(x) == 1.0) and np.all(np.abs(h) == 1.0)):
        raise ValueError("components must lie in {-1, +1}")
    return float(rbm_joint_score(params, x[None, :], h[None, :])[0])


def hidden_absum(fields: np.ndarray) -> np.ndarray:
    """b(x) = sum_j |f_j| over field rows f_j = theta_h_j + sum_i x_i w_ji,
    added in unit order from 0; ``fields`` is overwritten by its |f_j|."""
    return sum(np.abs(fields, out=fields), np.zeros(fields.shape[1:]))


def _spans(biases: tuple, weights: tuple, x) -> tuple:
    """(x.theta_v -/+ b(x), b(x), |f_j|) over the rows or aligned run
    ``_first_layer`` takes; |f_j| is the (n_1, m) stack of field magnitudes."""
    first = _first_layer(biases, weights, x)
    b = hidden_absum(first[1:])
    return first[0] - b, first[0] + b, b, first[1:]


def visible_extremes_by_hidden(params: RbmParams, h) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (min, max) over x of f(., h) for hidden rows or an aligned run."""
    return _spans((params.hidden, params.visible), (params.interaction.T,), h)[:2]


def hidden_extremes_by_visible(params: RbmParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (min, max) over h of f(x, .) for visible rows or an aligned run."""
    return _spans((params.visible, params.hidden), (params.interaction,), x)[:2]


def _run_extremes(params: RbmParams) -> list:
    """Over the {-1,+1}^n_hidden index, with (lo, hi, a) from ``_spans`` on the
    transposed RBM: max a, max hi, min a, min lo, and (lo, a) at lo's first argmax,
    each aligned run reduced to one row, then the rows, the earliest run winning a tie."""
    rows = []
    for h in _chunks(2**params.n_hidden):
        lo, hi, a, _ = _spans((params.hidden, params.visible), (params.interaction.T,), h)
        star = int(np.argmax(lo))
        rows.append((a.max(), hi.max(), a.min(), lo.min(), lo[star], a[star]))
    rows = np.array(rows)
    ends = rows[:, :2].max(axis=0), rows[:, 2:4].min(axis=0), rows[np.argmax(rows[:, 4]), 4:]
    return np.concatenate(ends).tolist()


@dataclass(frozen=True)
class RbmBoundsReport:
    """Extremal-bound quantities for one RBM parameter set.

    Fields needing an enumeration beyond the budget are None rather than
    failing the whole report: b_n, c_n, lrep_joint and the hidden-first
    quantities need 2^n_hidden; a_n and lrep_marginal need 2^n_visible.
    The field order is the column order of the ``bounds`` CSV.
    """

    n_visible: int
    n_hidden: int
    visible_l1: float
    hidden_l1: float
    interaction_l1: float
    a_n: float | None
    b_n: float | None
    c_n: float | None
    lrep_joint: float | None
    lrep_marginal: float | None
    a_n_hidden_first: float | None
    lower_witness: float | None  # 2 a(h*) at the h minimizing a(h) - h.theta_h
    n_h_log2: float


def bounds_report(params: RbmParams,
                  budget: int = DEFAULT_ENUMERATION_BUDGET) -> RbmBoundsReport:
    """Compute the bound quantities, checking every proven inequality.

    Checked, each up to max(1e-9, its rounding slack; see ``_assert_proven``):
    B >= |theta_v|_1; the joint sandwich 2B + 2|theta_h|_1 >= joint LREP >=
    2 max{B, |theta_h|_1}; 2B >= a_n_hidden_first >= a_n; a_n_hidden_first >=
    max{C, B - 2|theta_h|_1}; |marginal LREP - a_n| <= n_hidden ln 2. A violation raises
    CertificateError. The lower chain links are NOT checked for a_n itself
    (they can fail; see the module docstring). Each visible run builds
    ``_first_layer``'s fields once: x.theta_v + b(x) for a_n, then the same
    fields, now |f_j|, give the marginal model's scores bit for bit.
    """
    n, nh = params.n_visible, params.n_hidden
    b_n = c_n = lrep_joint = a_hidden_first = lower_witness = None
    if 2**nh <= budget:
        b_n, hi_max, c_n, lo_min, lo_max, a_star = _run_extremes(params)
        lrep_joint, a_hidden_first = hi_max - lo_min, hi_max - lo_max
        lower_witness = 2.0 * a_star

    a_n = lrep_marginal = None
    if 2**n <= budget:
        ends = []
        for x in _chunks(2**n):
            first = _first_layer((params.visible, params.hidden), (params.interaction,), x)
            hi = first[0] + hidden_absum(first[1:])
            s = _rbm_marginal_scores(first)
            ends.append((hi.max(), s.max(), hi.min(), s.min()))
        ends = np.array(ends)
        a_n, lrep_marginal = (ends[:, :2].max(axis=0) - ends[:, 2:].min(axis=0)).tolist()

    report = RbmBoundsReport(
        n_visible=n, n_hidden=nh,
        visible_l1=params.visible_l1, hidden_l1=params.hidden_l1,
        interaction_l1=params.interaction_l1,
        a_n=a_n, b_n=b_n, c_n=c_n,
        lrep_joint=lrep_joint, lrep_marginal=lrep_marginal,
        a_n_hidden_first=a_hidden_first, lower_witness=lower_witness,
        n_h_log2=nh * math.log(2.0),
    )
    _assert_proven(report)
    return report


def _assert_proven(r: RbmBoundsReport) -> None:
    """Raise CertificateError unless every proven inequality holds on ``r``,
    each up to max(``_TOL``, the report's rounding slack).

    Every report value is a rounded sum of the score's terms theta_v_i x_i,
    theta_h_j h_j and W_ji x_i h_j, whose magnitudes total T = |theta_v|_1 +
    |theta_h|_1 + |W|_1, and, for the marginal LREP, of n_hidden log1p terms
    below ln 2, taken as a difference of two such sums. So its exact terms
    total at most 2 (T + n_hidden), and each passes through at most N + 4
    rounded steps (a field, a sum of magnitudes or of log 2cosh terms, the
    bias sum, the log1p and exp steps, the difference), N = n_visible +
    n_hidden: each value is within gamma_(N+4) 2 (T + n_hidden) of exact
    (``core._gamma``). A check weighs at most five values (2B + 2|theta_h|_1
    against the joint LREP) and rounds at most three times on its own, so
    16 gamma_(N+4) (T + n_hidden), rounded up, covers it. While that stays
    under ``_TOL`` (T below about 2e4 at N = 24) no verdict moves.
    """
    # overflowing parameters are bad input, not a violated certificate
    _check_finite(np.array([v for v in astuple(r) if v is not None], dtype=np.float64))
    magnitude = (Fraction(r.visible_l1) + Fraction(r.hidden_l1) + Fraction(r.interaction_l1)
                 + r.n_hidden)
    tol = max(_TOL, _float_above(16 * _gamma(r.n_visible + r.n_hidden + 4) * magnitude))
    checks = []
    if r.b_n is not None:
        checks += [
            (r.b_n >= r.visible_l1 - tol, "B >= |theta_v|_1"),
            (2 * r.b_n + 2 * r.hidden_l1 >= r.lrep_joint - tol,
             "2B + 2|theta_h|_1 >= joint LREP"),
            (r.lrep_joint >= 2 * max(r.b_n, r.hidden_l1) - tol,
             "joint LREP >= 2 max{B, |theta_h|_1}"),
            (r.a_n_hidden_first <= 2 * r.b_n + tol, "2B >= a_n_hidden_first"),
            (r.a_n_hidden_first >= max(r.c_n, r.b_n - 2 * r.hidden_l1) - tol,
             "a_n_hidden_first >= max{C, B - 2|theta_h|_1}"),
            (r.a_n_hidden_first >= r.lower_witness - tol,
             "a_n_hidden_first >= lower_witness"),
            (r.lower_witness >= r.c_n - tol, "lower_witness >= C"),
        ]
    if r.a_n is not None:
        if r.b_n is not None:
            checks += [(2 * r.b_n >= r.a_n - tol, "2B >= a_n"),
                       (r.a_n_hidden_first >= r.a_n - tol,
                        "a_n_hidden_first >= a_n")]
        checks.append((abs(r.lrep_marginal - r.a_n) <= r.n_h_log2 + tol,
                       "marginal LREP must track a_n within n_hidden ln 2"))
    violated = [label for holds, label in checks if not holds]
    if violated:
        raise CertificateError(f"proven bound violated: {'; '.join(violated)}")


# Each bound rate along a path is its numerator over N, and NaN where the
# numerator needs an enumeration the budget left out (None in the report).
_STABILITY_NUMERATORS = {
    # a_n: drives the visible model
    "visible_range_rate": lambda r: r.a_n,
    # max{|theta_h|_1, B}: drives the joint model
    "joint_drive_rate": lambda r: None if r.b_n is None else max(r.hidden_l1, r.b_n),
    "visible_excess_rate": lambda r: r.visible_l1 - 2 * r.hidden_l1,
    "hidden_l1_rate": lambda r: r.hidden_l1,
    "visible_related_l1_rate": lambda r: r.visible_l1 + r.interaction_l1,
    "total_l1_rate": lambda r: r.visible_l1 + r.hidden_l1 + r.interaction_l1,
}
STABILITY_CONDITION_KEYS = tuple(_STABILITY_NUMERATORS)


@dataclass(frozen=True)
class StabilityConditions:
    """Finite-N trend report for the per-size bound rates along a path.

    ``verdicts`` maps each key in STABILITY_CONDITION_KEYS to a PathVerdict
    over the listed rates; ``hidden_ratio_growing`` flags a strictly
    increasing n_hidden / n_visible ratio along the path, the regime in
    which joint and marginal behavior can no longer be read together.
    """

    ns: tuple
    rates: dict
    verdicts: dict
    hidden_ratios: tuple
    hidden_ratio_growing: bool


def stability_conditions(params_path,
                         thresholds: PathThresholds = PathThresholds(),
                         budget: int = DEFAULT_ENUMERATION_BUDGET
                         ) -> StabilityConditions:
    """Evaluate the bound rates along a path of RbmParams and report trends.

    Each rate is classified with the same heuristic as the path verdicts:
    strictly increasing and ending above the level threshold reads as a
    growth flag, a range below the flatness threshold as bounded.
    """
    params_path = list(params_path)
    ns = tuple(p.n_visible for p in params_path)
    _check_path_sizes(ns)
    reports = [bounds_report(p, budget=budget) for p in params_path]
    rates = {key: tuple(math.nan if v is None else v / n
                        for v, n in zip(map(numerator, reports), ns))
             for key, numerator in _STABILITY_NUMERATORS.items()}
    hidden_ratios = tuple(p.n_hidden / p.n_visible for p in params_path)
    return StabilityConditions(
        ns=ns,
        rates=rates,
        verdicts={key: classify_trend(ns, vals, thresholds)
                  for key, vals in rates.items()},
        hidden_ratios=hidden_ratios,
        hidden_ratio_growing=bool(np.all(np.diff(hidden_ratios) > 0)),
    )
