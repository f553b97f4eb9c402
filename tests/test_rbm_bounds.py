"""RBM bound quantities: closed forms, proven chains, and the one false link."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foeslab import (
    RbmParams,
    bounds_report,
    f_theta,
    hidden_extremes_by_visible,
    lrep,
    make_rbm_joint,
    make_rbm_marginal,
    stability_conditions,
    visible_extremes_by_hidden,
)
import foeslab.core
import foeslab.rbm_bounds
import foeslab.zoo
from foeslab.core import CertificateError, OutcomeSpace, _chunk_digits, _chunks, _philox
from foeslab.metrics import PathThresholds, _extremal_range, classify_trend
from foeslab.rbm_bounds import (STABILITY_CONDITION_KEYS, RbmBoundsReport,
                                _assert_proven, _spans)
from foeslab.zoo import _first_layer, _log2cosh


def fl_params(n, nh):
    return RbmParams(np.full(n, 0.2), np.full(nh, 0.1), np.zeros((nh, n)))


def random_params(rng, n, nh, width=3.0):
    return RbmParams(rng.uniform(-width, width, n),
                     rng.uniform(-width, width, nh),
                     rng.uniform(-width, width, (nh, n)))


def draws_for_sweep(seed=2024, count=200):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        nh = int(rng.integers(0, 5))
        out.append(random_params(rng, n, nh))
    return out


class TestJointScore:
    def test_zero_params(self):
        params = RbmParams(np.zeros(2), np.zeros(1), np.zeros((1, 2)))
        assert f_theta(params, [1, -1], [1]) == 0.0

    def test_direct_sum(self):
        params = RbmParams([1.0], [0.5], [[2.0]])
        assert f_theta(params, [1], [1]) == pytest.approx(3.5, abs=1e-12)

    def test_parity_symmetry_without_biases(self):
        rng = np.random.default_rng(0)
        params = RbmParams(np.zeros(3), np.zeros(2), rng.normal(size=(2, 3)))
        x = np.array([1, -1, 1])
        h = np.array([-1, 1])
        assert f_theta(params, x, h) == pytest.approx(
            f_theta(params, -x, -h), abs=1e-12)

    def test_shape_and_domain_checks(self):
        params = RbmParams([1.0], [0.5], [[2.0]])
        with pytest.raises(ValueError):
            f_theta(params, [1, 1], [1])
        with pytest.raises(ValueError):
            f_theta(params, [0], [1])


class TestPartialExtremes:
    def test_no_interaction_constant_span(self):
        # a(h) = |theta_v|_1 = 3 about the center h.theta_h, whatever h is
        params = RbmParams([1.0, -2.0], [0.3], np.zeros((1, 2)))
        for h in ([1], [-1]):
            lo, hi = visible_extremes_by_hidden(params, np.asarray(h, dtype=float))
            assert (hi[0] - lo[0]) / 2 == pytest.approx(3.0, abs=1e-12)
            assert (hi[0] + lo[0]) / 2 == pytest.approx(0.3 * h[0], abs=1e-12)

    def test_small_closed_form(self):
        # a(+1) = |1 + 2| = 3 and a(-1) = |1 - 2| = 1, about the center 0
        params = RbmParams([1.0], [0.0], [[2.0]])
        lo, hi = visible_extremes_by_hidden(params, np.array([[1.0], [-1.0]]))
        assert lo.tolist() == [-3.0, -1.0] and hi.tolist() == [3.0, 1.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 3, 2)
        xall = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        hall = np.array(list(itertools.product([-1.0, 1.0], repeat=2)))
        from foeslab.zoo import rbm_joint_score
        f = np.array([[rbm_joint_score(params, x[None, :], h[None, :])[0]
                       for h in hall] for x in xall])  # (x, h)
        lo_h, hi_h = visible_extremes_by_hidden(params, hall)
        np.testing.assert_allclose(hi_h, f.max(axis=0), atol=1e-12)
        np.testing.assert_allclose(lo_h, f.min(axis=0), atol=1e-12)
        lo_x, hi_x = hidden_extremes_by_visible(params, xall)
        np.testing.assert_allclose(hi_x, f.max(axis=1), atol=1e-12)
        np.testing.assert_allclose(lo_x, f.min(axis=1), atol=1e-12)


class TestBoundsReport:
    def test_all_zero_params(self):
        r = bounds_report(RbmParams(np.zeros(2), np.zeros(2), np.zeros((2, 2))))
        for field in ("a_n", "b_n", "c_n", "lrep_joint", "lrep_marginal",
                      "a_n_hidden_first", "lower_witness"):
            assert getattr(r, field) == 0.0

    def test_hidden_only_params(self):
        r = bounds_report(RbmParams(np.zeros(2), [4.0, -6.0], np.zeros((2, 2))))
        assert r.lrep_marginal == pytest.approx(0.0, abs=1e-12)
        assert r.lrep_joint == pytest.approx(20.0, abs=1e-12)

    def test_no_hiddens_collapse(self):
        theta_v = np.array([0.5, -1.5, 2.0])
        r = bounds_report(RbmParams(theta_v, [], np.zeros((0, 3))))
        expected = 2.0 * np.abs(theta_v).sum()
        assert r.lrep_marginal == pytest.approx(expected, abs=1e-12)
        assert r.lrep_joint == pytest.approx(expected, abs=1e-12)
        assert r.a_n == pytest.approx(expected, abs=1e-12)

    def test_marginal_lrep_tracks_a_n(self):
        # |marginal LREP - a_n| <= n_hidden ln 2 on 200 random draws
        for params in draws_for_sweep():
            r = bounds_report(params)
            assert abs(r.lrep_marginal - r.a_n) <= r.n_h_log2 + 1e-9

    def test_visible_instability_forces_joint_instability(self):
        # joint LREP >= a_n >= marginal LREP - n_hidden ln 2, so a growing
        # marginal rate drags the joint rate with it
        for params in draws_for_sweep(seed=31):
            r = bounds_report(params)
            assert r.lrep_joint >= r.a_n - 1e-9
            assert r.a_n >= r.lrep_marginal - r.n_h_log2 - 1e-9

    def test_proven_chain_links(self):
        # upper links hold for a_n; all links hold for the hidden-first variant
        for params in draws_for_sweep(seed=77):
            r = bounds_report(params)
            tol = 1e-9
            assert r.b_n >= r.visible_l1 - tol
            assert 2 * r.b_n + 2 * r.hidden_l1 >= r.lrep_joint - tol
            assert r.lrep_joint >= 2 * max(r.b_n, r.hidden_l1) - tol
            assert 2 * r.b_n >= r.a_n_hidden_first - tol
            assert r.a_n_hidden_first >= r.a_n - tol
            assert r.a_n_hidden_first >= max(r.c_n, r.b_n - 2 * r.hidden_l1) - tol
            assert r.a_n_hidden_first >= r.lower_witness - tol
            assert r.lower_witness >= r.c_n - tol

    def test_visible_range_can_fall_below_c_n(self):
        # pinned counterexample: with zero biases and a diagonal coupling,
        # every visible configuration has the same hidden-maximized score,
        # so a_n = 0 while C = B = 6; a lower chain stated for a_n with
        # max{C, B - 2|theta_h|} on the right is therefore false, and only
        # the hidden-first variant (here 12) satisfies it
        params = RbmParams(np.zeros(2), np.zeros(2), 3.0 * np.eye(2))
        r = bounds_report(params)
        assert r.a_n == pytest.approx(0.0, abs=1e-12)
        assert r.c_n == pytest.approx(6.0, abs=1e-12)
        assert r.b_n == pytest.approx(6.0, abs=1e-12)
        assert r.a_n < max(r.c_n, r.b_n - 2 * r.hidden_l1) - 1.0
        assert r.a_n_hidden_first == pytest.approx(12.0, abs=1e-12)
        # the marginal really is uniform here, consistent with a_n = 0
        assert r.lrep_marginal == pytest.approx(0.0, abs=1e-12)

    def test_joint_lrep_closed_form_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            nh = int(rng.integers(0, 4))
            params = random_params(rng, n, nh)
            r = bounds_report(params)
            brute = lrep(make_rbm_joint(params)).lrep
            assert r.lrep_joint == pytest.approx(brute, abs=1e-10)

    def test_duality_under_role_swap(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            params = random_params(rng, int(rng.integers(1, 6)),
                                   int(rng.integers(1, 5)))
            r = bounds_report(params)
            rt = bounds_report(params.transpose())
            assert r.lrep_joint == pytest.approx(rt.lrep_joint, abs=1e-10)

    def test_budget_marks_fields_unavailable(self):
        params = RbmParams(np.ones(10), np.ones(3), np.zeros((3, 10)))
        r = bounds_report(params, budget=2**8)
        assert r.a_n is None and r.lrep_marginal is None
        assert r.b_n is not None and r.lrep_joint is not None
        tiny = bounds_report(params, budget=2**2)
        assert tiny.b_n is None and tiny.lrep_joint is None


class TestStabilityConditions:
    def path(self, grow_visible=False, grow_hidden=False):
        entries = []
        for n in (4, 6, 8):
            v = np.full(n, float(n) if grow_visible else 0.2)
            t = np.full(2, float(n) * n if grow_hidden else 0.1)
            entries.append(RbmParams(v, t, np.zeros((2, n))))
        return entries

    def test_bounded_path_reads_stable(self):
        report = stability_conditions(self.path(),
                                      PathThresholds(flatness=0.5, level=5.0))
        assert report.verdicts["visible_related_l1_rate"].verdict == \
            "empirically-stable"
        assert report.verdicts["total_l1_rate"].verdict == "empirically-stable"
        assert not report.hidden_ratio_growing

    def test_growing_visible_flags_excess_rate(self):
        report = stability_conditions(self.path(grow_visible=True))
        assert report.verdicts["visible_excess_rate"].verdict == \
            "empirically-unstable"
        assert report.verdicts["visible_range_rate"].verdict == \
            "empirically-unstable"

    def test_growing_hidden_flags_hidden_rate_only(self):
        report = stability_conditions(self.path(grow_hidden=True))
        assert report.verdicts["hidden_l1_rate"].verdict == "empirically-unstable"
        # no interactions and flat visible biases: the visible model stays flat
        rates = report.rates["visible_range_rate"]
        assert max(rates) - min(rates) < 0.2

    def test_growing_hidden_ratio_flagged(self):
        entries = [fl_params(n, nh) for n, nh in ((4, 1), (6, 3), (8, 6))]
        report = stability_conditions(entries)
        assert report.hidden_ratio_growing
        assert report.hidden_ratios == (0.25, 0.5, 0.75)

    def test_needs_three_increasing_entries(self):
        entries = self.path()[:2]
        with pytest.raises(ValueError):
            stability_conditions(entries)

    @pytest.mark.parametrize("sizes", [(4, 6, 6), (4, 8, 6)])
    def test_non_increasing_visible_counts_are_rejected(self, sizes):
        entries = [fl_params(n, 1) for n in sizes]
        with pytest.raises(ValueError, match="strictly increasing"):
            stability_conditions(entries)

    @pytest.mark.parametrize("budget", [2**24, 2**6])
    def test_rates_equal_the_per_rate_formulas(self, budget):
        # at 2^6 the first entry's 7 hiddens leave b_n None and the last
        # entry's 8 visibles leave a_n None
        rng = np.random.default_rng(21)
        entries = [random_params(rng, n, nh) for n, nh in ((4, 7), (6, 2), (8, 3))]
        report = stability_conditions(entries, budget=budget)
        expected = reference_rates(entries, budget)
        assert STABILITY_CONDITION_KEYS == tuple(expected)
        assert tuple(report.rates) == STABILITY_CONDITION_KEYS
        for key, values in expected.items():
            got = np.array(report.rates[key])
            assert np.array_equal(got, values, equal_nan=True), key
            verdict = classify_trend(report.ns, values)
            assert report.verdicts[key].verdict == verdict.verdict
            assert np.array_equal(report.verdicts[key].scaled_lreps,
                                  verdict.scaled_lreps, equal_nan=True)
        if budget == 2**6:
            assert math.isnan(report.rates["joint_drive_rate"][0])
            assert math.isnan(report.rates["visible_range_rate"][2])


def reference_rates(params_path, budget):
    """The per-rate formulas the rate table replaced, kept verbatim as the
    reference for its values."""
    rates = {key: [] for key in (
        "visible_range_rate", "joint_drive_rate", "visible_excess_rate",
        "hidden_l1_rate", "visible_related_l1_rate", "total_l1_rate")}
    for p in params_path:
        r = bounds_report(p, budget=budget)
        n = p.n_visible
        rates["visible_range_rate"].append(
            r.a_n / n if r.a_n is not None else math.nan)
        rates["joint_drive_rate"].append(
            max(r.hidden_l1, r.b_n) / n if r.b_n is not None else math.nan)
        rates["visible_excess_rate"].append((r.visible_l1 - 2 * r.hidden_l1) / n)
        rates["hidden_l1_rate"].append(r.hidden_l1 / n)
        rates["visible_related_l1_rate"].append(
            (r.visible_l1 + r.interaction_l1) / n)
        rates["total_l1_rate"].append(
            (r.visible_l1 + r.hidden_l1 + r.interaction_l1) / n)
    return rates


class TestMarginalLipschitzBound:
    def test_lrep_bounded_by_visible_related_l1(self):
        # log 2cosh is 1-Lipschitz, so the marginal LREP can never exceed
        # 2(|theta_v|_1 + |theta_vh|_1); the grid experiment's small-cell
        # guarantee rests on this
        rng = np.random.default_rng(5)
        for _ in range(50):
            params = random_params(rng, int(rng.integers(1, 7)),
                                   int(rng.integers(0, 4)))
            bound = 2.0 * (params.visible_l1 + params.interaction_l1)
            assert lrep(make_rbm_marginal(params)).lrep <= bound + 1e-9


CERTIFICATES_UNDER_O = """
import dataclasses, sys
import foeslab.metrics as metrics
from foeslab import (CertificateError, FoeslabError, GraphModelSpec,
                     RbmParams, bounds_report)
from foeslab.rbm_bounds import _assert_proven

print(sys.flags.optimize, issubclass(CertificateError, FoeslabError))
report = bounds_report(RbmParams([1.0, -0.5], [0.3], [[0.7, -1.1]]))
try:
    _assert_proven(dataclasses.replace(report, b_n=report.visible_l1 - 1.0))
except CertificateError:
    print("rbm")
metrics._graph_bound_branches = lambda spec: (0.0, 0.0)
try:
    metrics.graph_lower_bound(GraphModelSpec(4, params=(0.0, 1.0, 0.0)))
except CertificateError:
    print("graph")
# the joint RBM's envelope checks each row and piece it reads; rows of 2^8
# entries are bounded one by one
import foeslab.zoo as zoo
from foeslab import delta_n, make_rbm_joint
params = RbmParams([1.0, -0.5] * 4, [0.3], [[0.7, -1.1] * 4])
model = make_rbm_joint(params)
model.scores()[:] *= 1 + 1e-6
try:
    delta_n(model)
except CertificateError:
    print("delta")
joint_score = zoo.rbm_joint_score
zoo.rbm_joint_score = lambda *args, **kwargs: joint_score(*args, **kwargs) * (1 + 1e-6)
try:
    make_rbm_joint(params).scores()
except CertificateError:
    print("extremes")
"""


def test_certificates_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-O", "-c", CERTIFICATES_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.split() == ["1", "True", "rbm", "graph", "delta", "extremes"], \
        proc.stderr


def test_finite_violation_is_a_certificate_error(monkeypatch):
    # b(x) and a(h) grow tenfold, while the marginal keeps the unscaled |f_j|
    original = foeslab.rbm_bounds.hidden_absum
    monkeypatch.setattr(foeslab.rbm_bounds, "hidden_absum",
                        lambda *args: 10.0 * original(*args))
    with pytest.raises(CertificateError, match="proven bound violated"):
        bounds_report(RbmParams([0.5, -1.0], [0.3], [[0.7, 0.2]]))


def test_overflow_is_bad_input_not_a_certificate_error():
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        bounds_report(RbmParams([1e308, 1e308], [0.3], [[0.7, 0.2]]))


ROUNDING_CASE = [
    "bounds", "--n-visible", "9", "--n-hidden", "2",
    "--theta-v=175338411.752,-11129219.319,-68856494.763,14425708.806,-19141133.048,"
    "85214226.421,3392818.244,1374958.362,-71457972.103",
    "--theta-h=46956809.875,-103386672.235", "--theta-vh=" + ",".join(["0"] * 18),
]


def test_rounding_alone_is_no_violated_bound(capsys):
    # with W = 0, B = |theta_v|_1 in algebra; the two sums round apart at
    # 1.8e8, which a fixed 1e-9 read as a violated bound (exit 2)
    from foeslab.cli import main

    assert main(ROUNDING_CASE) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "0,9,2,450330942.818,150343482.11,0.0,900661885.6359999,450330942.81799996,"
        "450330942.81799996,1201348849.856,900661885.6359999,900661885.6359999,"
        "900661885.6359999,1.3862943611198906")


@st.composite
def scaled_rbms(draw):
    """RbmParams of 1-10 visibles and 0-6 hiddens at scales 1 to 1e12, with
    W = 0 (where B = |theta_v|_1 and several links are equalities) or not."""
    n, nh = draw(st.integers(1, 10)), draw(st.integers(0, 6))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6, 1e7, 1e8, 1e10, 1e12]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coupled = draw(st.booleans())
    return RbmParams(rng.standard_normal(n) * scale, rng.standard_normal(nh) * scale,
                     rng.standard_normal((nh, n)) * scale * coupled)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=scaled_rbms())
def test_no_spurious_violation_at_any_scale(params):
    bounds_report(params)


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("field, factor", [("b_n", 1 - 1e-6), ("a_n", 1 + 1e-6),
                                           ("a_n_hidden_first", 1 + 1e-6)])
def test_a_bound_shifted_by_a_millionth_still_raises(scale, field, factor):
    # with W = 0 the links B >= |theta_v|_1, 2B >= a_n, 2B >= a_n_hidden_first
    # and a_n_hidden_first >= a_n are equalities, so a shift of 1e-6 of one
    # side must break one, far above the rounding slack
    rng = np.random.default_rng(7)
    report = bounds_report(RbmParams(rng.standard_normal(8) * scale,
                                     rng.standard_normal(3) * scale, np.zeros((3, 8))))
    shifted = dataclasses.replace(report, **{field: getattr(report, field) * factor})
    with pytest.raises(CertificateError, match="proven bound violated"):
        _assert_proven(shifted)


# The parent's BLAS route, verbatim but for a blas_ prefix on each name: the
# reference within ulps of which the field route must stay.
def blas_visible_absum(params: RbmParams, h: np.ndarray) -> np.ndarray:
    """a(h) = sum_i |theta_v_i + sum_j h_j w_ji|, rowwise over h."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    return np.abs(params.visible[None, :] + h @ params.interaction).sum(axis=1)


def blas_hidden_absum(params: RbmParams, x: np.ndarray) -> np.ndarray:
    """b(x) = sum_j |theta_h_j + sum_i x_i w_ji|, rowwise over x."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.abs(params.hidden[None, :] + x @ params.interaction.T).sum(axis=1)


def blas_visible_profile(params: RbmParams, h) -> tuple[np.ndarray, np.ndarray]:
    """(h.theta_h, a(h)) rowwise over h: f(., h) spans center -/+ a."""
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    return h @ params.hidden, blas_visible_absum(params, h)


def blas_hidden_extremes_by_visible(params: RbmParams, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (min over h, max over h) of f(x, .), rowwise over x."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    center = x @ params.visible
    b = blas_hidden_absum(params, x)
    return center - b, center + b


def blas_bounds_report(params, budget=2**24):
    """The dense-matrix bounds_report on the BLAS route, kept verbatim."""
    n, nh = params.n_visible, params.n_hidden
    hidden_ok = 2**nh <= budget
    visible_ok = 2**n <= budget

    b_n = c_n = lrep_joint = a_hidden_first = lower_witness = None
    if hidden_ok:
        hall = (OutcomeSpace(nh, (-1, 1)).all_outcomes(budget) if nh
                else np.zeros((1, 0)))
        center, a_vals = blas_visible_profile(params, hall)
        lo, hi = center - a_vals, center + a_vals
        b_n = float(a_vals.max())
        c_n = float(a_vals.min())
        lrep_joint = float(hi.max() - lo.min())
        a_hidden_first = float(hi.max() - lo.max())
        # h* minimizes a(h) - h.theta_h, i.e. maximizes the lower profile
        lower_witness = float(2.0 * a_vals[int(np.argmax(lo))])

    a_n = lrep_marginal = None
    if visible_ok:
        xall = OutcomeSpace(n, (-1, 1)).all_outcomes(budget)
        a_n = float(_extremal_range(blas_hidden_extremes_by_visible(params, xall)[1]))
        marginal = make_rbm_marginal(params, budget=budget).score(xall)
        lrep_marginal = float(_extremal_range(marginal))

    report = RbmBoundsReport(
        n_visible=n, n_hidden=nh,
        visible_l1=params.visible_l1, hidden_l1=params.hidden_l1,
        interaction_l1=params.interaction_l1,
        n_h_log2=nh * math.log(2.0),
        a_n=a_n, b_n=b_n, c_n=c_n,
        lrep_joint=lrep_joint, lrep_marginal=lrep_marginal,
        a_n_hidden_first=a_hidden_first, lower_witness=lower_witness,
    )
    _assert_proven(report)
    return report


def outcome_rows(n):
    """Every outcome of {-1,+1}^n as float rows, in index order (n may be 0)."""
    return np.array([[1.0 if r >> i & 1 else -1.0 for i in range(n)]
                     for r in range(2**n)]).reshape(2**n, n)


def in_order_fields(theta_self, biases, weights):
    """(2^n, 1 + len(biases)) table over x of {-1,+1}^n, n = len(theta_self):
    x.theta_self added from -0.0, then each field biases_j + sum_i x_i w_ji
    added from its bias, one Python float at a time in unit order."""
    table = []
    for x in outcome_rows(len(theta_self)):
        terms = [-0.0, *map(float, biases)]
        for k, w in enumerate([theta_self, *weights]):
            for s, w_i in zip(x, w):
                terms[k] += float(s) * float(w_i)
        table.append(terms)
    return np.array(table).reshape(len(table), 1 + len(biases))


def in_order_sum(values):
    total = 0.0
    for v in values:
        total += float(v)
    return total


def in_order_profile(theta_self, biases, weights):
    """(x.theta_self, sum_j |f_j| added from 0 in unit order, the fields)."""
    table = in_order_fields(theta_self, biases, weights)
    half = np.array([in_order_sum(map(abs, row[1:])) for row in table])
    return table[:, 0], half, table[:, 1:]


def in_order_report(params):
    """bounds_report from the in-order profiles of both sides: a(h) on the
    transposed RBM, b(x) on the RBM, and the marginal's log 2cosh terms added
    from 0 in unit order before x.theta_v."""
    center, a, _ = in_order_profile(params.hidden, params.visible, params.interaction.T)
    lo, hi = center - a, center + a
    center_x, b, fields_x = in_order_profile(params.visible, params.hidden,
                                             params.interaction)
    upper = center_x + b
    marginal = center_x + np.array([in_order_sum(row) for row in _log2cosh(fields_x)])
    return RbmBoundsReport(
        n_visible=params.n_visible, n_hidden=params.n_hidden,
        visible_l1=params.visible_l1, hidden_l1=params.hidden_l1,
        interaction_l1=params.interaction_l1,
        a_n=float(upper.max() - upper.min()), b_n=float(a.max()), c_n=float(a.min()),
        lrep_joint=float(hi.max() - lo.min()),
        lrep_marginal=float(marginal.max() - marginal.min()),
        a_n_hidden_first=float(hi.max() - lo.max()),
        lower_witness=float(2.0 * a[int(np.argmax(lo))]),
        n_h_log2=params.n_hidden * math.log(2.0),
    )


def bits(report):
    """The report's fields with every float as its exact hex form."""
    return [v if v is None or isinstance(v, int) else float(v).hex()
            for v in astuple(report)]


def readme_draws():
    # the draws of `bounds --n-visible 4 --n-hidden 2 --random-draws 10
    # --seed 5`, made as the CLI makes them (default half-width 3)
    rng = _philox(5)
    return [RbmParams(rng.uniform(-3.0, 3.0, 4), rng.uniform(-3.0, 3.0, 2),
                      rng.uniform(-3.0, 3.0, (2, 4))) for _ in range(10)]


# 18 visibles and 17 hiddens span several 2^16-outcome chunks
BLAS_CASES = ([random_params(np.random.default_rng(seed), n, nh) for n, nh, seed in
               ((18, 3, 11), (3, 17, 12), (5, 0, 13), (1, 0, 14), (17, 17, 15))]
              + readme_draws() + draws_for_sweep(seed=8, count=22))

# h = 7 and h = 23, in the two runs of 16 hiddens when a chunk is 16
# outcomes, both reach the largest lower profile, 2.0, with a(7) = 4 and
# a(23) = 6
PLANTED_TIE = (np.array([-1.0, 0.0]), np.array([2.0, 2.0, 2.0, -1.0, 1.0]),
               np.array([[2.0, 1.0], [2.0, 1.0], [1.0, -1.0], [2.0, -2.0], [0.0, 1.0]]))


class TestReportWithinUlpsOfTheBlasRoute:
    # a(h) and b(x) add in unit order from the bias, where BLAS adds in its own
    # order, so each field may move by ulps of the report's largest magnitude
    ULPS = 4.5e-16

    def check(self, params, budget=2**24):
        got, want = bounds_report(params, budget), blas_bounds_report(params, budget)
        tol = self.ULPS * max(abs(v) for v in astuple(want) if isinstance(v, float))
        for field in fields(RbmBoundsReport):
            g, w = getattr(got, field.name), getattr(want, field.name)
            assert (g is None) == (w is None), field.name
            if g is not None and field.name != "lower_witness":
                assert abs(g - w) <= tol, field.name
        if got.lower_witness is not None and abs(got.lower_witness - want.lower_witness) > tol:
            # the witness may flip only at a near-tie of the lower profile's
            # argmax: the field route's h* must be within tol of the BLAS
            # maximum, and its witness 2 a(h*) within tol of the BLAS a(h*)
            hall = outcome_rows(params.n_hidden)
            center, a = blas_visible_profile(params, hall)
            lo = center - a
            h_star = int(np.argmax(visible_extremes_by_hidden(params, hall)[0]))
            assert lo[h_star] >= lo.max() - tol
            assert abs(got.lower_witness - 2.0 * a[h_star]) <= tol

    @pytest.mark.parametrize("case", range(len(BLAS_CASES)))
    def test_every_field(self, case):
        self.check(BLAS_CASES[case])

    def test_budget_limited_sides(self):
        params = random_params(np.random.default_rng(16), 18, 3)
        for budget in (2**2, 2**8, 2**17):
            self.check(params, budget)

    def test_witness_flips_only_at_a_near_tie(self):
        # scaled by 0.7, the planted tie is a tie in real arithmetic only:
        # BLAS rounds h = 7 first (witness 2 a = 5.6), the unit order puts
        # h = 23 above it by 2 ulps (witness 8.4)
        params = RbmParams(*(0.7 * v for v in PLANTED_TIE))
        assert bounds_report(params).lower_witness == pytest.approx(8.4, abs=1e-12)
        assert blas_bounds_report(params).lower_witness == pytest.approx(5.6, abs=1e-12)
        self.check(params)


IN_ORDER_CASES = [(6, 5, 21), (5, 6, 22), (7, 0, 23), (1, 0, 24), (10, 9, 25),
                  (9, 10, 26), (2, 12, 27)]


class TestReportIsTheInOrderFields:
    @pytest.mark.parametrize("n, nh, seed", IN_ORDER_CASES)
    def test_random_params(self, n, nh, seed):
        params = random_params(np.random.default_rng(seed), n, nh)
        assert bits(bounds_report(params)) == bits(in_order_report(params))

    def test_readme_draws(self):
        for params in readme_draws():
            assert bits(bounds_report(params)) == bits(in_order_report(params))

    @pytest.mark.parametrize("n, nh, seed", IN_ORDER_CASES)
    def test_partial_extremes_by_rows_and_by_runs(self, n, nh, seed):
        params = random_params(np.random.default_rng(seed), n, nh)
        sides = [(visible_extremes_by_hidden, nh,
                  in_order_profile(params.hidden, params.visible, params.interaction.T)),
                 (hidden_extremes_by_visible, n,
                  in_order_profile(params.visible, params.hidden, params.interaction))]
        for extremes, units, (center, half, _) in sides:
            want = np.array((center - half, center + half)).tobytes()
            for x in (outcome_rows(units), slice(0, 2**units)):
                assert np.array(extremes(params, x)).tobytes() == want


class TestChunkSizeChangesNoBit:
    @pytest.mark.parametrize("n, nh, seed", [(6, 5, 31), (5, 6, 32), (7, 0, 33)])
    def test_reports_over_runs_of_16(self, n, nh, seed, monkeypatch):
        params = random_params(np.random.default_rng(seed), n, nh)
        whole = bounds_report(params)
        monkeypatch.setattr(foeslab.core, "_CHUNK_OUTCOMES", 16)
        assert len(list(_chunks(2**5))) == 2
        assert bits(bounds_report(params)) == bits(whole)

    def test_lower_profile_tie_across_runs_takes_the_first_h(self, monkeypatch):
        # the tie is exact, so the witness is 2 a(7) = 8 and not 12
        params = RbmParams(*PLANTED_TIE)
        lo, hi = visible_extremes_by_hidden(params, outcome_rows(5))
        assert np.flatnonzero(lo == lo.max()).tolist() == [7, 23]
        assert ((hi - lo) / 2)[[7, 23]].tolist() == [4.0, 6.0]
        whole = bounds_report(params)
        monkeypatch.setattr(foeslab.core, "_CHUNK_OUTCOMES", 16)
        split = bounds_report(params)
        assert whole.lower_witness == split.lower_witness == 8.0
        assert bits(split) == bits(whole)


# The report before its visible side took one field pass per run, verbatim
# but for a parent_ prefix on each name and the marginal's scorer inlined:
# `_run_extremes` on both sides over the aligned runs, then the marginal
# model's scores run by run, as its table is filled.
def parent_aligned_runs(n: int):
    """The {-1,+1}^n index as aligned runs of at most one chunk, in order."""
    size = 2 ** min(n, _chunk_digits(n, 2))
    return (slice(x0, x0 + size) for x0 in range(0, 2**n, size))


def parent_run_extremes(biases: tuple, weights: tuple) -> list:
    rows = []
    for x in parent_aligned_runs(biases[0].size):
        lo, hi, b, _ = _spans(biases, weights, x)
        star = int(np.argmax(lo))
        rows.append((b.max(), hi.max(), b.min(), hi.min(), lo.min(), lo[star], b[star]))
    rows = np.array(rows)
    ends = rows[:, :2].max(axis=0), rows[:, 2:5].min(axis=0), rows[np.argmax(rows[:, 5]), 5:]
    return np.concatenate(ends).tolist()


def parent_marginal_run(params: RbmParams, x: slice) -> np.ndarray:
    first = _first_layer((params.visible, params.hidden), (params.interaction,), x)
    total = np.zeros(first.shape[1:])
    for field in first[1:]:
        total += _log2cosh(field, out=field)
    return first[0] + total


def parent_bounds_report(params: RbmParams, budget: int) -> RbmBoundsReport:
    n, nh = params.n_visible, params.n_hidden
    b_n = c_n = lrep_joint = a_hidden_first = lower_witness = None
    if 2**nh <= budget:
        b_n, hi_max, c_n, _, lo_min, lo_max, a_star = parent_run_extremes(
            (params.hidden, params.visible), (params.interaction.T,))
        lrep_joint, a_hidden_first = hi_max - lo_min, hi_max - lo_max
        lower_witness = 2.0 * a_star

    a_n = lrep_marginal = None
    if 2**n <= budget:
        _, hi_max, _, hi_min, *_ = parent_run_extremes((params.visible, params.hidden),
                                                       (params.interaction,))
        a_n = hi_max - hi_min
        runs = (parent_marginal_run(params, x) for x in parent_aligned_runs(n))
        ends = np.array([(s.max(), s.min()) for s in runs])
        lrep_marginal = float(ends[:, 0].max() - ends[:, 1].min())

    return RbmBoundsReport(
        n_visible=n, n_hidden=nh,
        visible_l1=params.visible_l1, hidden_l1=params.hidden_l1,
        interaction_l1=params.interaction_l1,
        a_n=a_n, b_n=b_n, c_n=c_n,
        lrep_joint=lrep_joint, lrep_marginal=lrep_marginal,
        a_n_hidden_first=a_hidden_first, lower_witness=lower_witness,
        n_h_log2=nh * math.log(2.0),
    )


@st.composite
def report_cases(draw):
    """(params, budget): 1-10 visibles and 0-7 hiddens with integer (tied),
    normal or signed-zero parameters, and a budget that keeps both sides or
    drops one."""
    n, nh = draw(st.integers(1, 10)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["integer", "normal", "signed_zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def coef(*shape):
        if kind == "integer":
            return rng.integers(-2, 3, shape).astype(np.float64)
        if kind == "signed_zero":
            return rng.choice(np.array([-0.0, 0.0, -1.0, 1.0]), shape)
        return rng.standard_normal(shape)

    budget = draw(st.sampled_from([2**24, 2**n - 1, max(2**nh - 1, 1)]))
    return RbmParams(coef(n), coef(nh), coef(nh, n)), budget


@pytest.mark.parametrize("chunk", [4, 16, 2**16])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=report_cases())
def test_one_pass_report_is_the_two_pass_report(chunk, case):
    params, budget = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(foeslab.core, "_CHUNK_OUTCOMES", chunk)
        want = repr(astuple(parent_bounds_report(params, budget)))
        assert repr(astuple(bounds_report(params, budget))) == want


def test_one_field_build_per_visible_run(monkeypatch):
    calls = []
    original = foeslab.zoo._first_layer
    for module in (foeslab.zoo, foeslab.rbm_bounds):
        monkeypatch.setattr(module, "_first_layer",
                            lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(foeslab.core, "_CHUNK_OUTCOMES", 16)
    bounds_report(random_params(np.random.default_rng(41), 10, 3))
    # 64 visible runs of 16 and one hidden run of 8
    assert len(calls) == 65
