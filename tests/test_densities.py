"""Tests for closed-form densities, normalization constants and quadrature."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from skewbeta.densities import (LogDensityValue, conditional_logpdf_down,
                                conditional_logpdf_up, dixon_anderson_check,
                                log_normalization_C, log_selberg_W,
                                logpdf_singular_values,
                                logpdf_positive_spectrum, selberg_consistency_check,
                                eigenvalue_density_total_mass)
from skewbeta.streams import ParameterError


class TestEigenvalueDensity:
    def test_n2_beta2_closed_form(self):
        # single eigenvalue at beta=2: density 2 e^(-lam^2) / Gamma(1/2)
        lam = 1.2
        expected = math.log(2.0) - gammaln(0.5) - lam ** 2
        val = logpdf_positive_spectrum([lam], 2, 2.0)
        assert val.in_support
        assert val.log_value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam", [[-1.0], [0.0]])
    def test_out_of_support(self, lam):
        val = logpdf_positive_spectrum(lam, 2, 2.0)
        assert not val.in_support and val.log_value == -math.inf

    def test_unordered_out_of_support(self):
        assert not logpdf_positive_spectrum([1.0, 2.0], 4, 2.0).in_support

    def test_wrong_length_raises(self):
        with pytest.raises(ParameterError):
            logpdf_positive_spectrum([1.0], 4, 2.0)

    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 2.0), (3, 1.0), (4, 2.0)])
    def test_total_mass_is_one(self, n, beta):
        assert eigenvalue_density_total_mass(n, beta) == pytest.approx(1.0, abs=1e-5)

    def test_quadrature_size_limit(self):
        with pytest.raises(ParameterError):
            eigenvalue_density_total_mass(6, 2.0)


class TestNormalizationConstants:
    def test_n2_value(self):
        # even n=2: C = Gamma(beta/2) * Gamma(beta/4) / (2 * Gamma(beta/2))
        beta = 2.0
        assert log_normalization_C(2, beta) == pytest.approx(
            gammaln(beta / 4.0) - math.log(2.0), rel=1e-13)

    def test_n3_adds_gamma_ratio(self):
        beta = 2.0
        expected = (log_normalization_C(2, beta)
                    + gammaln(3 * beta / 4.0) - gammaln(beta / 4.0))
        assert log_normalization_C(3, beta) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_selberg_consistency(self, beta, m):
        even, odd = selberg_consistency_check(beta, m)
        assert even < 1e-12 and odd < 1e-12

    def test_selberg_w_positive_domain(self):
        with pytest.raises(ParameterError):
            log_selberg_W(-2.0, 2.0, 3)


class TestLaguerreDensities:
    def test_n1_matches_gamma_density(self):
        # one singular value sigma of a chi_{2a} entry: sigma^2 / 2 is a
        # rate-1 gamma of shape a, so the density is sigma times the gamma
        # density at sigma^2 / 2, i.e. the chi density
        # sigma^(2a-1) e^(-sigma^2/2) / (2^(a-1) Gamma(a))
        a, sigma = 2.5, 1.7
        expected = ((1 - a) * math.log(2.0) - gammaln(a)
                    + (2 * a - 1) * math.log(sigma) - sigma ** 2 / 2.0)
        assert logpdf_singular_values([sigma], 1, a, 2.0).log_value == pytest.approx(
            expected, rel=1e-12)

    def test_singular_value_change_of_variables(self):
        # the even-order read-off block: sigma = sqrt(2) lam carries the
        # positive-spectrum law of order 2k with a = (2k-1) beta / 4
        sigma = np.array([2.0, 1.1])
        n, beta = 4, 2.0
        sv = logpdf_singular_values(sigma, 2, (n - 1) * beta / 4.0, beta).log_value
        lam = logpdf_positive_spectrum(sigma / math.sqrt(2.0), n, beta).log_value
        assert sv == pytest.approx(lam - math.log(2.0), rel=1e-12)

    def test_n1_total_mass(self):
        a = 1.75
        val, _ = quad(lambda x: math.exp(logpdf_singular_values([x], 1, a, 2.0).log_value),
                      0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_parameter_constraint(self):
        with pytest.raises(ParameterError):
            logpdf_singular_values([1.0, 0.5], 2, 0.5, 2.0)


class TestConditionalDensities:
    def test_up_even_integrates_to_one(self):
        # bordering a size-2 matrix: one new eigenvalue above the old one
        lam = np.array([1.3])
        beta = 2.0
        val, _ = quad(lambda x: math.exp(
            conditional_logpdf_up([x], lam, 2, beta).log_value),
            lam[0], np.inf)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_up_n1_matches_gamma_law(self):
        # first chain step: lam^2 is gamma(beta/4), so the density of lam is
        # 2 lam^(beta/2 - 1) e^(-lam^2) / Gamma(beta/4)
        beta, x = 2.0, 0.9
        expected = (math.log(2.0) - gammaln(beta / 4.0)
                    + (beta / 2.0 - 1.0) * math.log(x) - x ** 2)
        got = conditional_logpdf_up([x], np.zeros(0), 1, beta).log_value
        assert got == pytest.approx(expected, rel=1e-12)

    def test_down_integrates_to_one(self):
        # projecting a size-3 matrix: one eigenvalue between 0 and lam
        lam = np.array([1.7])
        beta = 2.0
        val, _ = quad(lambda x: math.exp(
            conditional_logpdf_down([x], lam, 2, beta).log_value), 0.0, lam[0])
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_up_interlacing_enforced(self):
        lam = np.array([1.3])
        assert not conditional_logpdf_up([1.0], lam, 2, 2.0).in_support
        assert conditional_logpdf_up([2.0], lam, 2, 2.0).in_support

    def test_down_interlacing_enforced(self):
        lam = np.array([2.1, 0.9])
        assert not conditional_logpdf_down([2.5], lam, 3, 2.0).in_support
        assert conditional_logpdf_down([1.5], lam, 3, 2.0).in_support

    def test_down_trivial_case(self):
        # projecting a size-2 matrix leaves no positive eigenvalue
        val = conditional_logpdf_down(np.zeros(0), [1.0], 1, 2.0)
        assert val.in_support and val.log_value == 0.0


class TestDixonAnderson:
    def test_arcsine_value_is_pi(self):
        lhs, rhs = dixon_anderson_check([1.0, 0.0], [0.5, 0.5])
        assert lhs == pytest.approx(math.pi, rel=1e-10)
        assert rhs == pytest.approx(math.pi, rel=1e-13)

    @pytest.mark.parametrize("a,s", [
        ([2.0, 0.5], [1.5, 0.75]),
        ([1.0, -1.0], [0.25, 0.6]),
        ([3.0, 1.0, 0.0], [1.0, 1.0, 1.0]),
        ([2.0, 1.0, 0.0], [0.75, 0.5, 1.25]),
    ])
    def test_quadrature_matches_closed_form(self, a, s):
        lhs, rhs = dixon_anderson_check(a, s)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_dimension_limit(self):
        with pytest.raises(ParameterError):
            dixon_anderson_check([3.0, 2.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0])


class TestLogDensityValue:
    def test_out_of_support_constructor(self):
        v = LogDensityValue.out_of_support()
        assert not v.in_support and v.log_value == -math.inf
