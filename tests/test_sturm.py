"""Tests for Sturm counting, shooting vectors and Pruefer phase tracking."""

import math
import re

import numpy as np
import pytest

from skewbeta.ensembles import AntisymTridiagonal, build_antisym_tridiagonal
from skewbeta.spectral import positive_spectrum, positive_spectrum_batch
from skewbeta.streams import RandomStream
from skewbeta.sturm import (RefinementError, count_positive_leq, prufer_phases,
                            shooting_vector)

# an overflow or invalid operation in any Sturm, shooting or Pruefer path fails
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# References: scalar loops of the three-term recurrence, one point and one
# step at a time -- the ratio recurrence for counts, the unscaled recurrence
# for shooting vectors, and the recurrence rescaled upwards at 1e140 with a
# recursive bisection for phases.

def _loop_count(b, mu):
    """Positive eigenvalues <= mu from ``r_1 = -mu``,
    ``r_{i+1} = -mu - b_i**2 / r_i``: negative ratios at even index minus
    positive ratios at odd index (mu must miss every zero ratio)."""
    r = np.empty(b.size + 1)
    r[0] = -mu
    for i in range(1, b.size + 1):
        r[i] = -mu - b[i - 1] ** 2 / r[i - 1]
    return int(np.sum(r[1::2] < 0)) - int(np.sum(r[0::2] > 0))


def _loop_shooting(b, mu, x1=1.0):
    n = b.size + 1
    x = np.empty(n + 1)
    x[0] = x1
    p_prev, p_cur = 1.0, mu  # P_0, P_1
    bprod = 1.0
    for i in range(1, n):
        bprod *= b[i - 1]
        x[i] = x1 * p_cur / bprod
        p_prev, p_cur = p_cur, mu * p_cur - b[i - 1] ** 2 * p_prev
    x[n] = -x1 * p_cur / bprod
    return x


def _loop_raw_phases(b, mu):
    n = b.size + 1
    out = np.empty(n - 1)
    p_prev, p_cur = 1.0, mu
    for i in range(2, n + 1):
        th = math.atan2(b[i - 2] ** 2 * p_prev, p_cur)
        out[i - 2] = th + math.pi if th <= 0.0 else th
        if i <= n - 1:
            p_prev, p_cur = p_cur, mu * p_cur - b[i - 2] ** 2 * p_prev
            mag = max(abs(p_prev), abs(p_cur))
            if mag > 1e140:
                p_prev /= mag
                p_cur /= mag
    return out


def _loop_prufer(b, grid, depth=40):
    """Phases at each grid point; a step that moves a phase by more than
    pi/2 is bisected recursively, up to ``depth`` times."""
    def advance(mu0, theta0, mu1, depth):
        raw = _loop_raw_phases(b, mu1)
        cand = raw - np.ceil((raw - theta0) / math.pi) * math.pi
        if np.max(theta0 - cand) <= math.pi / 2.0 + 1e-9:
            return cand
        if depth <= 0:
            raise RefinementError(f"unresolved phase branch between mu={mu0} and mu={mu1}")
        mid = 0.5 * (mu0 + mu1)
        return advance(mid, advance(mu0, theta0, mid, depth - 1), mu1, depth - 1)

    theta = np.where(np.arange(2, b.size + 2) % 2 == 0, math.pi / 2.0, 0.0)
    mu_prev, out = 0.0, []
    for mu in grid:
        if mu > 0.0:
            theta, mu_prev = advance(mu_prev, theta, mu, depth), mu
        out.append(theta)
    return np.array(out)


# the reference loops agree bit for bit up to n = 60 (measured); their
# recurrences differ only where the scaled kernel or the loop rescales
REFERENCE_CASES = [(n, beta, seed) for n in (2, 3, 5, 8, 12, 60)
                   for beta in (0.5, 2.0) for seed in (0, 1, 2)]


class TestSturmCounting:
    @pytest.mark.parametrize("n,beta,seed", [
        (2, 2.0, 0), (3, 2.0, 1), (5, 1.0, 2), (8, 4.0, 3), (12, 0.5, 4),
    ])
    def test_count_matches_eigensolver(self, n, beta, seed):
        t = build_antisym_tridiagonal(n, beta, RandomStream(seed))
        sd = positive_spectrum(t)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            mu = float(rng.uniform(0.0, 1.3 * sd.lam[0]))
            assert count_positive_leq(t, mu) == int(np.sum(sd.lam <= mu))

    def test_count_above_spectrum(self):
        t = build_antisym_tridiagonal(6, 2.0, RandomStream(5))
        sd = positive_spectrum(t)
        assert count_positive_leq(t, 2.0 * sd.lam[0]) == 3

    def test_count_at_zero(self):
        t = build_antisym_tridiagonal(6, 2.0, RandomStream(6))
        assert count_positive_leq(t, 0.0) == 0

    def test_count_at_submatrix_eigenvalue(self):
        # mu = b_1 is an eigenvalue of the trailing 2x2 block, so P_2(mu) = 0
        # exactly; the count needs no perturbation there
        t = AntisymTridiagonal([1.0, 1.5, 0.5])
        lam = positive_spectrum(t).lam
        assert count_positive_leq(t, 1.0) == int(np.sum(lam <= 1.0))

    def test_zero_below_tiny_spectrum(self):
        # beta = 0.05 draws with lambda_min < 1e-12; mu = 0 counts nothing
        tiny = 0
        for seed in range(200):
            t = build_antisym_tridiagonal(12, 0.05, RandomStream(seed))
            if positive_spectrum_batch(t.b[None, :])[0, -1] < 1e-12:
                tiny += 1
                assert count_positive_leq(t, 0.0) == 0
        assert tiny > 100

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_negative_mu_counts_nothing(self, n):
        for seed in range(20):
            t = build_antisym_tridiagonal(n, 2.0, RandomStream(seed))
            for mu in (-1e-300, -0.5, -3.0 * positive_spectrum(t).lam[0]):
                assert count_positive_leq(t, mu) == 0

    @pytest.mark.parametrize("n", [12, 13, 40])
    def test_brackets_eigenvalues_to_relative_1e13(self, n):
        # the eigenvalue at mu counts as <= mu, so each lambda_i is bracketed
        for seed in range(30):
            t = build_antisym_tridiagonal(n, 0.05, RandomStream(seed))
            lam = positive_spectrum_batch(t.b[None, :])[0]
            for i, value in enumerate(lam):
                assert count_positive_leq(t, value * (1.0 + 1e-13)) == lam.size - i
                assert count_positive_leq(t, value * (1.0 - 1e-13)) == lam.size - i - 1

    @pytest.mark.parametrize("n,beta,seed", REFERENCE_CASES)
    def test_matches_loop(self, n, beta, seed):
        t = build_antisym_tridiagonal(n, beta, RandomStream(seed))
        rng = np.random.default_rng(seed)
        for mu in rng.uniform(0.0, 1.3 * positive_spectrum(t).lam[0], 20):
            assert count_positive_leq(t, mu) == _loop_count(t.b, mu)


class TestShootingVector:
    def test_components_match_charpoly_product(self):
        # x_i = x_1 * P_{i-1}(mu) / (b_1 ... b_{i-1})
        b = np.array([0.9, 1.4, 0.6])
        t = AntisymTridiagonal(b)
        mu = 0.8
        p = [1.0, mu]
        for m in range(1, 3):
            p.append(mu * p[-1] - b[m - 1] ** 2 * p[-2])
        x = shooting_vector(t, mu)
        prod = 1.0
        for i in range(1, 4):
            prod *= b[i - 1]
            assert x[i] == pytest.approx(p[i] / prod, rel=1e-13)

    def test_residual_vanishes_at_eigenvalue(self):
        t = build_antisym_tridiagonal(5, 2.0, RandomStream(7))
        lam = positive_spectrum(t).lam[0]
        x = shooting_vector(t, lam)
        assert abs(x[-1]) < 1e-9 * np.max(np.abs(x[:-1]))

    def test_residual_nonzero_off_spectrum(self):
        t = build_antisym_tridiagonal(5, 2.0, RandomStream(8))
        lam = positive_spectrum(t).lam
        mu = 0.5 * (lam[0] + lam[1])
        assert abs(shooting_vector(t, mu)[-1]) > 1e-6

    def test_scales_linearly_in_x1(self):
        t = build_antisym_tridiagonal(4, 2.0, RandomStream(9))
        assert np.allclose(shooting_vector(t, 0.7, x1=3.0),
                           3.0 * shooting_vector(t, 0.7))

    def test_zero_x1_rejected(self):
        t = build_antisym_tridiagonal(4, 2.0, RandomStream(9))
        with pytest.raises(ValueError):
            shooting_vector(t, 0.7, x1=0.0)

    @pytest.mark.parametrize("n,beta,seed", REFERENCE_CASES)
    def test_matches_loop(self, n, beta, seed):
        t = build_antisym_tridiagonal(n, beta, RandomStream(seed))
        rng = np.random.default_rng(seed)
        for mu in rng.uniform(0.0, 1.3 * positive_spectrum(t).lam[0], 10):
            for x1 in (1.0, -3.0):
                assert np.array_equal(shooting_vector(t, mu, x1), _loop_shooting(t.b, mu, x1))

    def test_finite_at_order_400(self):
        # the unscaled recurrence overflows here: 218 of 401 entries finite
        t = build_antisym_tridiagonal(400, 2.0, RandomStream(7))
        assert np.all(np.isfinite(shooting_vector(t, positive_spectrum(t).lam[0])))

    def test_residual_small_at_every_eigenvalue_order_1000(self):
        # with x_1 = 1 the entries at lambda_max reach about e**987; x_1 =
        # 1e-300 makes every true entry representable.  The bound is 14 times
        # the largest |x_{n+1}| / ||x|| over 3000 eigenvalues (seeds 0-5).
        t = build_antisym_tridiagonal(1000, 2.0, RandomStream(7))
        worst = 0.0
        for lam in positive_spectrum(t).lam:
            x = shooting_vector(t, lam, x1=1e-300)
            assert np.all(np.isfinite(x))
            x = x / np.max(np.abs(x))
            worst = max(worst, abs(x[-1]) / np.linalg.norm(x))
        assert worst < 1e-9


class TestPruferPhases:
    def test_anchor_values(self):
        t = build_antisym_tridiagonal(6, 2.0, RandomStream(10))
        start = prufer_phases(t, np.array([1e-300]))[0].theta
        expect = np.where(np.arange(2, 7) % 2 == 0, math.pi / 2.0, 0.0)
        assert np.allclose(start, expect, atol=1e-9)

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_strictly_decreasing(self, n):
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(11 + n))
        lam_max = positive_spectrum(t).lam[0]
        grid = np.linspace(0.0, 1.4 * lam_max, 150)[1:]
        stacked = np.stack([p.theta for p in prufer_phases(t, grid)])
        assert np.all(np.diff(stacked, axis=0) < 0)

    def test_last_phase_counts_submatrix_eigenvalues(self):
        # theta_n crosses pi/2 (mod pi) exactly at the positive zeros of the
        # order-(n-1) trailing-submatrix characteristic polynomial
        t = build_antisym_tridiagonal(7, 2.0, RandomStream(12))
        sub = AntisymTridiagonal(t.b[:-1])
        sub_lam = positive_spectrum(sub).lam
        mu_hi = 1.5 * positive_spectrum(t).lam[0]
        start = prufer_phases(t, np.array([1e-300]))[0].theta[-1]
        end = prufer_phases(t, np.linspace(1e-3, mu_hi, 400))[-1].theta[-1]
        levels = math.pi / 2.0 - math.pi * np.arange(50)
        crossings = int(np.sum((levels <= start) & (levels > end)))
        assert crossings == sub_lam.size

    @pytest.mark.parametrize("grid", [
        np.zeros(0), np.array([1.0, 0.5]), np.array([-1.0, 1.0]),
    ])
    def test_grid_validation(self, grid):
        t = build_antisym_tridiagonal(4, 2.0, RandomStream(13))
        with pytest.raises(ValueError):
            prufer_phases(t, grid)

    @pytest.mark.parametrize("n,beta,seed", REFERENCE_CASES)
    def test_matches_loop(self, n, beta, seed):
        t = build_antisym_tridiagonal(n, beta, RandomStream(seed))
        lam_max = positive_spectrum(t).lam[0]
        for grid in (np.linspace(0.0, 1.5 * lam_max, 40),
                     np.linspace(0.01 * lam_max, 1.5 * lam_max, 199)):
            try:
                expect = _loop_prufer(t.b, grid)
            except RefinementError as exc:
                with pytest.raises(RefinementError, match=re.escape(str(exc))):
                    prufer_phases(t, grid)
                continue
            phases = prufer_phases(t, grid)
            assert [p.mu for p in phases] == grid.tolist()
            assert np.array_equal(np.stack([p.theta for p in phases]), expect)
