"""Tests for closed-form densities, normalization constants and quadrature."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from skewbeta import densities
from skewbeta.densities import (LogDensityValue, dixon_anderson_check, log_normalization_C,
                                log_selberg_W, logpdf_positive_spectrum,
                                selberg_consistency_check, eigenvalue_density_total_mass)
from skewbeta.ensembles import _interleave, _strictly_descending_positive
from skewbeta.streams import ParameterError

_UP = densities._conditional_logpdf_up_rows
_DOWN = densities._conditional_logpdf_down_rows


def _one(law, x, lam, n, beta):
    """The log-density of one row ``x`` given ``lam`` under a row-form law."""
    return float(law(np.array([x], dtype=float), np.array([lam], dtype=float), n, beta)[0])


def _interlaced(upper, lower):
    """The support predicate of the conditional laws: ``upper_1 > lower_1 >
    upper_2 > ... > 0``."""
    return bool(_strictly_descending_positive(
        _interleave(np.asarray(upper, dtype=float), np.asarray(lower, dtype=float))))


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

    def test_infinite_eigenvalue_out_of_support(self):
        # an infinite eigenvalue gave a NaN log-density flagged in support
        val = logpdf_positive_spectrum([math.inf, 0.5], 4, 2.0)
        assert not val.in_support and val.log_value == -math.inf

    def test_wrong_length_raises(self):
        with pytest.raises(ParameterError):
            logpdf_positive_spectrum([1.0], 4, 2.0)

    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 2.0), (3, 1.0), (4, 2.0),
                                        (4, 0.25), (5, 0.5)])
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


def _logpdf_singular_values(sigma, n, a, beta):
    """The log-density of one row of singular values."""
    return float(densities._logpdf_singular_values_rows(np.array([sigma], dtype=float),
                                                        n, a, beta)[0])


class TestLaguerreDensities:
    def test_n1_matches_gamma_density(self):
        # one singular value sigma of a chi_{2a} entry: sigma^2 / 2 is a
        # rate-1 gamma of shape a, so the density is sigma times the gamma
        # density at sigma^2 / 2, i.e. the chi density
        # sigma^(2a-1) e^(-sigma^2/2) / (2^(a-1) Gamma(a))
        a, sigma = 2.5, 1.7
        expected = ((1 - a) * math.log(2.0) - gammaln(a)
                    + (2 * a - 1) * math.log(sigma) - sigma ** 2 / 2.0)
        assert _logpdf_singular_values([sigma], 1, a, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_singular_value_change_of_variables(self):
        # the even-order read-off block: sigma = sqrt(2) lam carries the
        # positive-spectrum law of order 2k with a = (2k-1) beta / 4
        sigma = np.array([2.0, 1.1])
        n, beta = 4, 2.0
        sv = _logpdf_singular_values(sigma, 2, (n - 1) * beta / 4.0, beta)
        lam = logpdf_positive_spectrum(sigma / math.sqrt(2.0), n, beta).log_value
        assert sv == pytest.approx(lam - math.log(2.0), rel=1e-12)

    def test_n1_total_mass(self):
        a = 1.75
        val, _ = quad(lambda x: math.exp(_logpdf_singular_values([x], 1, a, 2.0)), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_parameter_constraint(self):
        with pytest.raises(ParameterError):
            _logpdf_singular_values([1.0, 0.5], 2, 0.5, 2.0)


class TestConditionalDensities:
    def test_up_even_integrates_to_one(self):
        # bordering a size-2 matrix: one new eigenvalue above the old one
        lam = np.array([1.3])
        beta = 2.0
        val, _ = quad(lambda x: math.exp(_one(_UP, [x], lam, 2, beta)), lam[0], np.inf)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_up_n1_matches_gamma_law(self):
        # first chain step: lam^2 is gamma(beta/4), so the density of lam is
        # 2 lam^(beta/2 - 1) e^(-lam^2) / Gamma(beta/4)
        beta, x = 2.0, 0.9
        expected = (math.log(2.0) - gammaln(beta / 4.0)
                    + (beta / 2.0 - 1.0) * math.log(x) - x ** 2)
        got = _one(_UP, [x], np.zeros(0), 1, beta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_down_integrates_to_one(self):
        # projecting a size-3 matrix: one eigenvalue between 0 and lam
        lam = np.array([1.7])
        beta = 2.0
        val, _ = quad(lambda x: math.exp(_one(_DOWN, [x], lam, 2, beta)), 0.0, lam[0])
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_up_interlacing_enforced(self):
        lam = np.array([1.3])
        assert not _interlaced([1.0], lam)
        assert _interlaced([2.0], lam)

    def test_up_infinite_root_out_of_support(self):
        # an infinite root gave a NaN log-density flagged in support
        assert not _interlaced([math.inf, 0.5], [1.0])
        assert _one(_UP, [math.inf, 0.5], [1.0], 3, 2.0) == -math.inf

    def test_down_interlacing_enforced(self):
        lam = np.array([2.1, 0.9])
        assert not _interlaced(lam, [2.5])
        assert _interlaced(lam, [1.5])

    def test_down_trivial_case(self):
        # projecting a size-2 matrix leaves no positive eigenvalue
        assert _interlaced([1.0], np.zeros(0))
        assert _one(_DOWN, np.zeros(0), [1.0], 1, 2.0) == 0.0


def _up_row(x, lam, n, beta):
    """One row of the bordering law and its support flag."""
    return _one(_UP, x, lam, n, beta), _interlaced(x, lam)


def _down_row(x, lam, n, beta):
    """One row of the projection law and its support flag."""
    return _one(_DOWN, x, lam, n, beta), _interlaced(lam, x)


def _spectrum_row(lam, n, beta):
    val = logpdf_positive_spectrum(lam, n, beta)
    return val.log_value, val.in_support


# (law's one-row call, its row function, and per order the points
# (arguments before the fixed ones) with their support flag): in-support
# points, non-interlacing or unordered input, ties, zeros and negatives,
# n=1 up and n=1 down with an empty x
_ROW_CASES = {
    "up": (_up_row, _UP, {
        1: [(([0.9], []), True), (([0.0], []), False), (([-1.0], []), False)],
        2: [(([2.0], [1.3]), True), (([1.0], [1.3]), False), (([1.3], [1.3]), False),
            (([2.0], [0.0]), False), (([2.0], [-1.0]), False), (([1e-170], [5e-171]), True)],
        3: [(([3.0, 1.0], [2.0]), True), (([3.0, 0.0], [2.0]), False),
            (([2.0, 1.0], [2.0]), False), (([1.0, 0.5], [2.0]), False)],
        4: [(([3.0, 1.5], [2.0, 1.0]), True), (([3.0, 0.5], [2.0, 1.0]), False),
            (([3.0, 1.0], [2.0, 1.0]), False)],
    }),
    "down": (_down_row, _DOWN, {
        1: [(([], [1.0]), True), (([], [0.0]), False), (([], [-1.0]), False)],
        2: [(([0.5], [1.7]), True), (([1.7], [1.7]), False), (([0.0], [1.7]), False),
            (([2.0], [1.7]), False)],
        3: [(([1.5], [2.1, 0.9]), True), (([2.5], [2.1, 0.9]), False),
            (([0.9], [2.1, 0.9]), False), (([1.5], [2.1, 0.0]), False)],
        4: [(([1.5, 0.5], [2.0, 1.0]), True), (([1.5, 1.0], [2.0, 1.0]), False)],
    }),
    "spectrum": (_spectrum_row, densities._logpdf_positive_spectrum_rows, {
        2: [(([1.2],), True), (([0.0],), False), (([-1.0],), False)],
        5: [(([2.0, 1.0],), True), (([1.0, 2.0],), False), (([1.0, 1.0],), False),
            (([1.0, 0.0],), False)],
    }),
}


class TestRowFunctions:
    @pytest.mark.parametrize("beta", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("law", sorted(_ROW_CASES))
    def test_rows_equal_one_row_calls(self, law, beta):
        # every row of the row function equals its one-row call bit for bit
        # (NaN included), and the support flag is the support predicate,
        # not a reading of the value
        one_row, rows_fn, cases = _ROW_CASES[law]
        for n, points in cases.items():
            stacked = [np.array([p[i] for p, _ in points], dtype=float).reshape(len(points), -1)
                       for i in range(len(points[0][0]))]
            got = rows_fn(*stacked, n, beta)
            assert got.shape == (len(points),)
            for row, (point, in_support) in zip(got, points):
                value, flag = one_row(*point, n, beta)
                assert np.array_equal(row, value, equal_nan=True), (n, point)
                assert flag is in_support, (n, point)

    def test_underflowed_squares_are_in_support(self):
        # a descending pair whose squares underflow to the same value lies
        # in the support, and x^2 - lam^2 > 0 there: its log-density is
        # log 2 + log(x^2 - lam^2) + log x, finite (50-digit mpmath value)
        assert _interlaced([1e-170], [5e-171])
        assert _one(_UP, [1e-170], [5e-171], 2, 4.0) == pytest.approx(-1173.9129323188551345,
                                                                       rel=1e-15)

    @pytest.mark.parametrize("one_row,x,lam,n", [
        pytest.param(_up_row, [1e-170], [5e-171], 2, id="conditional_logpdf_up-x0-lam0-2"),
        pytest.param(_down_row, [5e-171], [1e-170], 2, id="conditional_logpdf_down-x1-lam1-2"),
    ])
    def test_underflowed_pair_at_beta_2_is_finite(self, one_row, x, lam, n):
        # a pair whose squares underflow to the same value has a finite
        # density at beta = 2, where the root-pole cross term has weight 0
        value, in_support = one_row(x, lam, n, 2.0)
        assert in_support and math.isfinite(value)
        if one_row is _up_row:
            # x^2 - lam^2 is Gamma(1): density 2 x exp(-(x^2 - lam^2))
            assert value == pytest.approx(math.log(2e-170), rel=1e-15)

    def test_rows_broadcast_fixed_conditioning_spectrum(self):
        # the quadrature CDFs pass one row of lam against a column of x
        x = np.array([[2.0], [1.5], [1.0]])
        got = densities._conditional_logpdf_up_rows(x, np.array([1.3]), 2, 1.0)
        expected = [_one(_UP, v, [1.3], 2, 1.0) for v in x]
        assert np.array_equal(got, expected)


def _mp_log_gaps_sq(pairs):
    """``log |u^2 - v^2|`` of every pair ``(u, v)``, in mpmath."""
    return [mp.log(abs(u ** 2 - v ** 2)) for u, v in pairs]


def _mp_interlaced_terms(x, lam, beta, zero_pole):
    """The terms of ``densities._interlaced_log_terms``, in mpmath."""
    terms = [len(x) * mp.log(2), -len(lam) * mp.loggamma(beta / 2)]
    terms += _mp_log_gaps_sq(itertools.combinations(x, 2))
    terms += [-(beta - 1) * t for t in _mp_log_gaps_sq(itertools.combinations(lam, 2))]
    terms += [(beta / 2 - 1) * t for t in _mp_log_gaps_sq(itertools.product(x, lam))]
    if zero_pole:
        return (terms + [-mp.loggamma(beta / 4)] + [(beta / 2 - 1) * mp.log(v) for v in x]
                + [-(3 * beta / 4 - 1) * 2 * mp.log(v) for v in lam])
    return terms + [mp.log(v) for v in x]


def _mp_terms(law, x, lam, n, beta):
    """The terms whose sum is the log-density of ``law`` ("up", "down" or
    "spectrum", whose points are ``x``), in mpmath."""
    if law == "up":
        return (_mp_interlaced_terms(x, lam, beta, n % 2 == 1)
                + [-v ** 2 for v in x] + [v ** 2 for v in lam])
    if law == "down":
        return (_mp_interlaced_terms(x, lam, beta, (n + 1) % 2 == 1)
                + [mp.loggamma((n + 1) * beta / 4)])
    m = n - n % 2
    terms = [-mp.loggamma(2 * j * beta / 4) - mp.loggamma((2 * j - 1) * beta / 4)
             for j in range(1, m // 2 + 1)]
    terms += [(m // 2) * (mp.log(2) + mp.loggamma(beta / 2))]
    if n % 2:
        terms += [-mp.loggamma(n * beta / 4), mp.loggamma(beta / 4)]
    expo = beta / 2 - 1 if n % 2 == 0 else 3 * beta / 2 - 1
    return (terms + [expo * mp.log(v) for v in x] + [-v ** 2 for v in x]
            + [beta * t for t in _mp_log_gaps_sq(itertools.combinations(x, 2))])


_ONE_BELOW_1 = float(np.nextafter(1.0, 0.0))

# (law, x, lam, n): interlacing points that nearly coincide, and points
# below 1e-154, whose squares underflow (to the same value in some pairs)
_ORACLE_CASES = [
    ("up", [3.0, 1.5, 0.5], [2.0, 1.0], 5),
    ("up", [1.0], [_ONE_BELOW_1], 2),
    ("up", [1.0 + 1e-12, 0.5], [1.0], 3),
    ("up", [1.0, 7e-171], [1e-170, 5e-171], 4),
    ("up", [1e-170], [5e-171], 2),
    ("up", [3.0, 1.5, 1e-160], [2.0, 1e-155], 5),
    ("down", [1.0 - 1e-12], [1.0, 1e-3], 3),
    ("down", [2.0, 1.0 - 1e-13], [2.0 + 1e-13, 1.0, 1e-200], 5),
    ("down", [7e-171], [1e-170, 5e-171], 3),
    ("down", [5e-171], [1e-170], 2),
    ("spectrum", [2.5, 1.0, 0.3], None, 6),
    ("spectrum", [1.0, _ONE_BELOW_1], None, 4),
    ("spectrum", [2.0, 1e-160, 5e-161], None, 7),
    ("spectrum", [1e-155, 9e-156], None, 5),
]


class TestMpmathOracle:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("law,x,lam,n", _ORACLE_CASES)
    def test_row_functions_match_mpmath(self, law, x, lam, n, beta):
        # the row functions against a 50-digit evaluation of the same
        # formula; a double sum of terms t_i is accurate to a few ulps of
        # sum |t_i|, which is the bound asked of every point here
        if law == "spectrum":
            got = densities._logpdf_positive_spectrum_rows(np.array([x]), n, beta)[0]
        else:
            rows_fn = (densities._conditional_logpdf_up_rows if law == "up"
                       else densities._conditional_logpdf_down_rows)
            got = rows_fn(np.array([x]), np.array([lam]), n, beta)[0]
        with mp.workdps(50):
            terms = _mp_terms(law, [mp.mpf(v) for v in x], [mp.mpf(v) for v in lam or ()],
                              n, mp.mpf(beta))
            ref, scale = mp.fsum(terms), mp.fsum(abs(t) for t in terms)
            assert math.isfinite(got)
            assert abs(mp.mpf(got) - ref) <= 1e-15 * scale, (float(ref), got)


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
        # the one-row density builds the out-of-support value itself
        v = logpdf_positive_spectrum([0.0], 2, 2.0)
        assert v == LogDensityValue(-math.inf, False)
        assert not v.in_support and v.log_value == -math.inf
        # the conditional laws' row forms give -inf outside their support
        assert not _interlaced([0.5, 2.0], [1.0]) and not _interlaced([1.0, 0.5], [2.0])
        assert _one(_UP, [0.5, 2.0], [1.0], 3, 2.0) == -math.inf
        assert _one(_DOWN, [2.0], [1.0, 0.5], 3, 2.0) == -math.inf
