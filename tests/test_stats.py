"""Tests for the goodness-of-fit machinery and the report format."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import betainc, gammainc, ndtr

from skewbeta.densities import (_conditional_logpdf_down_rows,
                                _conditional_logpdf_up_rows,
                                _logpdf_positive_spectrum_rows)
from skewbeta.stats import (CaseResult, KSResult, VerificationReport,
                            _tanh_sinh, _tanh_sinh_t, ks_one_sample, ks_two_sample,
                            quadrature_cdf)
from skewbeta.streams import ParameterError

from moments import moment_test


def _searchsorted_statistic(x, y):
    """The two-sample statistic from two binary searches of the pooled
    sample: the formula the one-merge count replaced."""
    x, y = np.sort(np.asarray(x, dtype=float)), np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


_GEN = np.random.default_rng(5)
_KS_PAIRS = {
    "random": (_GEN.normal(size=3000), _GEN.normal(0.05, size=3000)),
    "tied": (_GEN.integers(0, 7, 500).astype(float), _GEN.integers(0, 8, 700).astype(float)),
    "unequal": (_GEN.normal(size=17), _GEN.normal(size=4001)),
    "one-element": ([0.5], _GEN.uniform(size=9)),
    "both-one-element": ([1.0], [1.0]),
    "infinite": ([-np.inf, 0.0, 1.0, np.inf, np.inf], [np.inf, -np.inf, -np.inf, 2.0]),
    "nan": ([np.nan, 1.0, np.nan, 2.0, -np.inf], [np.nan, 0.5, 2.0, np.inf, 3.0, 3.0]),
    "all-nan": ([np.nan, np.nan], [np.nan, 1.0, np.nan]),
}


class TestKSTwoSample:
    @pytest.mark.parametrize("case", _KS_PAIRS)
    def test_statistic_equals_searchsorted_formula(self, case):
        x, y = _KS_PAIRS[case]
        assert ks_two_sample(x, y).statistic == _searchsorted_statistic(x, y)
        assert ks_two_sample(y, x).statistic == _searchsorted_statistic(y, x)

    def test_identical_samples(self):
        x = np.linspace(0, 1, 100)
        res = ks_two_sample(x, x)
        assert res.statistic == 0.0 and res.p_value == pytest.approx(1.0)

    def test_same_distribution_accepted(self):
        gen = np.random.default_rng(0)
        res = ks_two_sample(gen.normal(size=5000), gen.normal(size=5000))
        assert res.p_value > 0.01

    def test_shifted_distribution_rejected(self):
        gen = np.random.default_rng(1)
        res = ks_two_sample(gen.normal(size=5000), gen.normal(0.2, size=5000))
        assert res.p_value < 1e-6

    def test_statistic_value(self):
        # disjoint supports give D = 1
        res = ks_two_sample([0.0, 1.0], [10.0, 11.0])
        assert res.statistic == 1.0

    def test_empty_sample(self):
        with pytest.raises(ParameterError):
            ks_two_sample([], [1.0])


class TestKSOneSample:
    def test_uniform_calibration(self):
        gen = np.random.default_rng(2)
        res = ks_one_sample(gen.random(10000), lambda x: np.clip(x, 0, 1))
        assert res.p_value > 0.01

    def test_normal_against_its_cdf(self):
        gen = np.random.default_rng(3)
        res = ks_one_sample(gen.normal(size=10000), ndtr)
        assert res.p_value > 0.01

    def test_wrong_cdf_rejected(self):
        gen = np.random.default_rng(4)
        res = ks_one_sample(gen.normal(0.15, 1.0, size=10000), ndtr)
        assert res.p_value < 1e-6

    def test_exact_statistic_small_sample(self):
        # single observation at the median: D = 1/2
        res = ks_one_sample([0.0], ndtr)
        assert res.statistic == pytest.approx(0.5)

    def test_nonmonotone_cdf_rejected(self):
        with pytest.raises(ParameterError):
            ks_one_sample([0.0, 1.0], lambda x: np.asarray([0.9, 0.1]))


class TestMomentTest:
    def test_zero_score_at_target(self):
        x = np.full(1000, 3.0)
        assert moment_test(x, 3.0, 1.0) == 0.0

    def test_scales_with_sqrt_n(self):
        x = np.full(400, 1.1)
        # mean offset 0.1, se = 1/sqrt(400) = 0.05, z = 2
        assert moment_test(x, 1.0, 1.0) == pytest.approx(2.0)

    def test_minimum_sample_size(self):
        with pytest.raises(ParameterError):
            moment_test(np.zeros(50), 0.0, 1.0)

    def test_variance_must_be_positive(self):
        with pytest.raises(ParameterError):
            moment_test(np.zeros(200), 0.0, 0.0)


def _closed_form_laws(beta):
    """Laws with an integrable singularity at an end of the interval, as
    ``(log_pdf, lo, hi, exact_cdf, points)``: one border step from order 2
    to 3 (x^2 - lam^2 ~ gamma(beta/2)), one projection from order 3 to 2
    (x^2 / lam^2 ~ beta(beta/4, beta/2)), and the n=3 marginal (x^2 ~
    gamma(3 beta/4)); the two conditional laws are cut 1e-12 relative short
    of lam, as the distributions suite cuts its border-step draws."""
    lam = 1.3
    lam_row = np.array([lam])
    up_lo, up_hi = lam * (1.0 + 1e-12), lam + 8.0
    down_hi = lam * (1.0 - 1e-12)
    return [
        (lambda x: _conditional_logpdf_up_rows(x[:, None], lam_row, 2, beta),
         up_lo, up_hi, lambda x: gammainc(beta / 2.0, (x - lam) * (x + lam)),
         lam + np.logspace(-11.5, 0.9, 200)),
        (lambda x: _conditional_logpdf_down_rows(x[:, None], lam_row, 2, beta),
         0.0, down_hi, lambda x: betainc(beta / 4.0, beta / 2.0, (x / lam) ** 2),
         np.concatenate([np.logspace(-30.0, -0.01, 200), lam - np.logspace(-11.5, 0.0, 200)])),
        (lambda x: _logpdf_positive_spectrum_rows(x[:, None], 3, beta),
         0.0, 10.0, lambda x: gammainc(3.0 * beta / 4.0, x ** 2),
         np.logspace(-30.0, 0.9, 200)),
    ]


def _normal_log_pdf(x):
    return -0.5 * x * x - 0.5 * math.log(2 * math.pi)


# the normal law and the fifteen closed-form laws, as (log_pdf, lo, hi,
# points)
_ALL_LAWS = [(_normal_log_pdf, -10.0, 10.0, np.linspace(-3, 3, 13))] + [
    law[:3] + law[4:] for beta in (0.25, 0.5, 1.0, 2.0, 4.0) for law in _closed_form_laws(beta)]


def _spline_cdf(log_pdf, lo, hi):
    """The CDF as a cubic spline of the integrand on the same nodes, knotted
    at the t recomputed from the node distances: the construction that the
    Hermite antiderivative replaced."""
    from scipy.interpolate import CubicSpline

    step = 1.0 / 128.0
    nodes, d_lo, d_hi, w = _tanh_sinh(lo, hi, step)
    t = _tanh_sinh_t(d_lo, d_hi)
    mass = CubicSpline(t, np.exp(log_pdf(nodes) + np.log(w / step))).antiderivative()
    total = float(mass(t[-1]))

    def cdf(x):
        near = np.minimum(x - lo, hi - x)
        t_x = np.copysign(_tanh_sinh_t((hi - lo) - near, near), x - (lo + hi) / 2.0)
        return np.clip(mass(np.clip(t_x, t[0], t[-1])) / total, 0.0, 1.0)

    return cdf


class TestQuadratureCdf:
    def test_matches_normal_cdf(self):
        cdf = quadrature_cdf(_normal_log_pdf, -10.0, 10.0)
        xs = np.linspace(-3, 3, 13)
        assert np.allclose(cdf(xs), ndtr(xs), atol=1e-6)

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_matches_closed_form_laws(self, beta):
        for log_pdf, lo, hi, exact, xs in _closed_form_laws(beta):
            xs = np.concatenate([xs, np.linspace(lo, hi, 201)])
            xs = xs[(xs > lo) & (xs < hi)]
            expected = (exact(xs) - exact(lo)) / (exact(hi) - exact(lo))
            err = np.max(np.abs(quadrature_cdf(log_pdf, lo, hi)(xs) - expected))
            assert err <= 1e-6

    @pytest.mark.parametrize("law", range(len(_ALL_LAWS)))
    def test_matches_spline_cdf(self, law):
        log_pdf, lo, hi, xs = _ALL_LAWS[law]
        xs = np.concatenate([xs, np.linspace(lo, hi, 20001)])
        xs = xs[(xs > lo) & (xs < hi)]
        err = np.max(np.abs(quadrature_cdf(log_pdf, lo, hi)(xs) - _spline_cdf(log_pdf, lo, hi)(xs)))
        assert err <= 5e-8

    @pytest.mark.parametrize("law", range(len(_ALL_LAWS)))
    def test_non_decreasing(self, law):
        log_pdf, lo, hi, _ = _ALL_LAWS[law]
        assert (np.diff(quadrature_cdf(log_pdf, lo, hi)(np.linspace(lo, hi, 20001))) >= 0).all()

    def test_endpoints(self):
        cdf = quadrature_cdf(np.zeros_like, 0.0, 1.0)
        assert cdf(-1.0) == 0.0 and cdf(2.0) == 1.0

    def test_invalid_interval(self):
        with pytest.raises(ParameterError):
            quadrature_cdf(np.zeros_like, 1.0, 0.0)

    def test_log_pdf_called_once_on_all_nodes(self):
        calls = []

        def log_pdf(x):
            calls.append(x.copy())
            return -x

        quadrature_cdf(log_pdf, 0.0, 5.0)
        assert len(calls) == 1
        assert np.array_equal(calls[0], _tanh_sinh(0.0, 5.0, 1.0 / 128.0)[0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_log_pdf_must_be_finite_or_minus_inf(self, bad):
        quadrature_cdf(lambda x: np.where(x == x[0], -np.inf, 0.0), 0.0, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            quadrature_cdf(lambda x: np.where(x == x[0], bad, 0.0), 0.0, 1.0)

    def test_log_pdf_must_return_one_value_per_node(self):
        with pytest.raises(ParameterError):
            quadrature_cdf(lambda x: 0.0, 0.0, 1.0)


class TestReportFormat:
    def test_ks_result_validation(self):
        with pytest.raises(ValueError):
            KSResult(statistic=1.5, n_x=10, n_y=None, p_value=0.5)
        with pytest.raises(ValueError):
            KSResult(statistic=0.5, n_x=10, n_y=None, p_value=-0.1)

    def test_case_status_validation(self):
        with pytest.raises(ValueError):
            CaseResult(name="x", status="maybe")

    def test_report_aggregation(self):
        report = VerificationReport(suite="demo", seed=7)
        assert not report.all_passed  # empty reports never pass
        report.add("a", True, statistic=0.0, tolerance=1e-9)
        report.add("b", False, statistic=1.0, tolerance=1e-9)
        assert report.failures == 1 and not report.all_passed
        doc = json.loads(json.dumps(asdict(report)))
        assert doc["suite"] == "demo" and doc["seed"] == 7
        assert [c["status"] for c in doc["cases"]] == ["pass", "fail"]

    def test_report_all_passed(self):
        report = VerificationReport(suite="demo", seed=0)
        report.add("a", True)
        assert report.all_passed
