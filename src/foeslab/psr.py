"""Parameter-sign-reversal checks and modal-mass degeneracy trends.

A family has reciprocal probabilities under sign reversal (PSR) when
P_theta(x) * P_{-theta}(x) is the same for every outcome x, equal to
max_y P_theta(y) * min_y P_{-theta}(y). PSR forces the extremal log-ratio
to be identical under theta and -theta, and makes the modal set under
theta and the modal complement under -theta soak up mass together as a
family slides into degeneracy. Everything here is verified exhaustively
over the enumerated space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import _chunks, _float_above, _gamma, _pairwise_sum
from .metrics import ParameterPath, lrep, modal_set

PSR_TOL = 1e-9


@dataclass(frozen=True)
class PsrReport:
    """Exhaustive sign-reversal check for one family at one parameter.

    ``max_violation`` is the largest |log[P_theta(x) P_-theta(x)] -
    log[max P_theta * min P_-theta]| over all outcomes; ``holds`` means it
    stays within PSR_TOL, or within the check's own rounding slack where
    that is larger (see ``_psr_report``). The tolerance covers float noise
    only: where the identity holds it is exact in algebra on the two score
    tables, which for a linear family are negations of each other. When the
    condition holds, the two extremal log-ratios agree to the same
    tolerance.
    """

    holds: bool
    max_violation: float
    lrep_theta: float
    lrep_neg_theta: float


def check_psr(model_family, theta) -> PsrReport:
    """Verify reciprocal probabilities under sign reversal, exhaustively.

    ``model_family`` maps a parameter object to a FoesModel and must accept
    the negated parameter (arrays and the parameter dataclasses here all
    support unary minus).
    """
    return _psr_report(*_pair(model_family, theta))


def _pair(model_family, theta):
    """The family's models at theta and at -theta."""
    # sequences (the CLI passes a graph theta as a tuple) lack unary minus
    if isinstance(theta, (list, tuple)):
        return model_family(theta), model_family(type(theta)(-t for t in theta))
    return model_family(theta), model_family(-theta)


def _psr_report(model_pos, model_neg) -> PsrReport:
    """The check on two models' score tables, with fl(s - log Z) of each
    formed one chunk at a time.

    A violation sums eight terms: s and log Z of either model at x, and at
    the extremes for the target. Each passes through at most three rounded
    additions, so where the identity is exact on the tables, rounding alone
    leaves a violation of at most gamma_3 times the sum of their magnitudes,
    2 (max |s_theta| + max |s_-theta| + |log Z_theta| + |log Z_-theta|).
    log Z cancels in algebra, so its own rounding does not enter.
    """
    (s_pos, z_pos), (s_neg, z_neg) = ((m.scores(), m.log_normalizer)
                                      for m in (model_pos, model_neg))
    (top, low), (high, bottom) = model_pos.extreme_indices(), model_neg.extreme_indices()
    target = (s_pos[top] - z_pos) + (s_neg[bottom] - z_neg)
    max_violation = max(float(np.abs((s_pos[c] - z_pos) + (s_neg[c] - z_neg) - target).max())
                        for c in _chunks(s_pos.size))
    magnitude = sum(map(Fraction, (max(abs(s_pos[top]), abs(s_pos[low])), abs(z_pos),
                                   max(abs(s_neg[high]), abs(s_neg[bottom])), abs(z_neg))))
    return PsrReport(
        holds=max_violation <= max(PSR_TOL, _float_above(2 * _gamma(3) * magnitude)),
        max_violation=max_violation,
        lrep_theta=lrep(model_pos).lrep,
        lrep_neg_theta=lrep(model_neg).lrep,
    )


def sign_reversal_masses(model_family, theta, epsilon: float
                         ) -> tuple[float, float]:
    """Modal mass under theta and complement mass under -theta.

    Builds the epsilon modal set M of the theta model and returns
    (P_theta(M), P_-theta(complement of M)), both exact. Raises when the
    family fails the sign-reversal check at this parameter.
    """
    model_pos, model_neg = _pair(model_family, theta)
    report = _psr_report(model_pos, model_neg)
    if not report.holds:
        raise ValueError(
            f"sign-reversal condition violated (max violation "
            f"{report.max_violation:.3e}); masses are only paired under it"
        )
    mset = modal_set(model_pos, epsilon)
    return mset.mass, _complement_mass(model_neg, mset.members)


def _complement_mass(model, members: np.ndarray) -> float:
    """P(outcomes outside the sorted ``members``), with the bits of summing
    the probability table compressed to those outcomes, one leaf of
    ``_pairwise_sum`` at a time."""
    scores, log_z = model.scores(), model.log_normalizer
    if members.size == scores.size:
        return 0.0
    # outsiders before each member; the j-th outsider is outcome j plus the
    # number of members before it
    gaps = members - np.arange(members.size)

    def outcome(j: int) -> int:
        return j + int(np.searchsorted(gaps, j, side="right"))

    def leaf_sum(a: int, b: int) -> float:
        lo, hi = outcome(a), outcome(b - 1) + 1
        keep = np.ones(hi - lo, dtype=bool)
        keep[members[np.searchsorted(members, lo):np.searchsorted(members, hi)] - lo] = False
        return np.exp(scores[lo:hi][keep] - log_z).sum()

    return float(_pairwise_sum(leaf_sum, scores.size - members.size))


def degeneracy_trend(path: ParameterPath, epsilon: float) -> list[float]:
    """Exact modal-set mass at each entry of a parameter path.

    For a path whose size-scaled extremal log-ratio diverges, these masses
    approach 1; at desk scale the approach need not be monotone because the
    threshold interacts with integer-valued statistics.
    """
    return [modal_set(model, epsilon).mass for model in path.models()]


def complement_inclusion_holds(model_family, theta, epsilon: float) -> bool:
    """Exhaustively check M(1-eps) under -theta sits inside the complement
    of M(eps) under theta.

    This inclusion is what transfers modal mass under theta to complement
    mass under -theta for sign-reversal families.
    """
    model_pos, model_neg = _pair(model_family, theta)
    m_pos = modal_set(model_pos, epsilon)
    m_neg = modal_set(model_neg, 1.0 - epsilon)
    return not np.any(m_pos.contains(m_neg.members))
