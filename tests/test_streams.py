"""Tests for the seedable stream layer and its distribution conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbeta.streams import (ParameterError, RandomStream, sample_chi_tilde,
                              sample_dirichlet, sample_gamma, sample_normal,
                              sample_standard_chi)


class TestRandomStream:
    def test_same_seed_reproduces(self):
        a = RandomStream(123).generator.random(10)
        b = RandomStream(123).generator.random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).generator.random(10)
        b = RandomStream(2).generator.random(10)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = RandomStream(7).split(3, 1).generator.random(5)
        b = RandomStream(7).split(3, 1).generator.random(5)
        assert np.array_equal(a, b)

    def test_split_children_are_distinct(self):
        root = RandomStream(7)
        a = root.split(0).generator.random(5)
        b = root.split(1).generator.random(5)
        assert not np.array_equal(a, b)

    def test_split_extends_key_path(self):
        s = RandomStream(5).split(2).split(4)
        assert s.keys == (2, 4)


class TestGamma:
    @pytest.mark.parametrize("shape", [0.125, 0.5, 1.0, 2.5, 10.0])
    def test_moments(self, shape):
        x = sample_gamma(shape, RandomStream(0), size=200000)
        assert np.all(x > 0)
        assert np.mean(x) == pytest.approx(shape, rel=0.02)
        assert np.var(x) == pytest.approx(shape, rel=0.05)

    def test_small_shape_has_mass_near_zero(self):
        x = sample_gamma(0.1, RandomStream(1), size=50000)
        # P(X < 1e-4) = gammainc(0.1, 1e-4) ~ 0.42 for shape 0.1
        assert np.mean(x < 1e-4) > 0.3

    @pytest.mark.parametrize("shape", [0.0, -1.0])
    def test_invalid_shape(self, shape):
        with pytest.raises(ParameterError):
            sample_gamma(shape, RandomStream(0))


class TestChiConventions:
    def test_chi_tilde_second_moment(self):
        # E[x^2] = k/2 under the rate-1 gamma convention
        x = sample_chi_tilde(3.0, RandomStream(2), size=200000)
        assert np.mean(x ** 2) == pytest.approx(1.5, rel=0.02)

    def test_standard_chi_second_moment(self):
        # E[x^2] = k under the standard convention
        x = sample_standard_chi(3.0, RandomStream(3), size=200000)
        assert np.mean(x ** 2) == pytest.approx(3.0, rel=0.02)

    def test_conventions_differ_by_sqrt2(self):
        tilde = sample_chi_tilde(4.0, RandomStream(4), size=200000)
        std = sample_standard_chi(4.0, RandomStream(5), size=200000)
        assert np.mean(std) == pytest.approx(np.sqrt(2.0) * np.mean(tilde), rel=0.02)

    @pytest.mark.parametrize("shape", [0.0125, 0.125, 0.5, 1.0, 2.5])
    def test_chi_follow_gamma_draws(self, shape):
        # the generator calls of sample_gamma, in the same order: bit-equal
        # square roots from shape 1 up; below it the boost is taken in log
        # space, which moves a value by ulps (up to about eps*|log g|)
        streams = [RandomStream(11) for _ in range(3)]
        g = sample_gamma(shape, streams[0], size=20000)
        tilde = sample_chi_tilde(2.0 * shape, streams[1], size=20000)
        std = sample_standard_chi(2.0 * shape, streams[2], size=20000)
        assert len({s.generator.random() for s in streams}) == 1
        if shape >= 1.0:
            assert np.array_equal(tilde, np.sqrt(g))
            assert np.array_equal(std, np.sqrt(2.0 * g))
        else:
            normal = g >= np.finfo(float).tiny
            assert np.allclose(tilde[normal], np.sqrt(g[normal]), rtol=1e-12, atol=0.0)
            assert np.allclose(std[normal], np.sqrt(2.0 * g[normal]), rtol=1e-12, atol=0.0)

    def test_small_shape_never_underflows(self):
        # shape 0.0125 is beta = 0.05 on the first off-diagonal: u**80
        # underflows to 0 on about 1e-4 of draws, its log-space square root
        # does not
        g = sample_gamma(0.0125, RandomStream(12), size=200000)
        tilde = sample_chi_tilde(0.025, RandomStream(12), size=200000)
        std = sample_standard_chi(0.025, RandomStream(12), size=200000)
        assert np.count_nonzero(g == 0.0) > 0
        assert np.all(tilde > 0) and np.all(std > 0)

    def test_invalid_degrees(self):
        with pytest.raises(ParameterError):
            sample_chi_tilde(0.0, RandomStream(0))
        with pytest.raises(ParameterError):
            sample_standard_chi(-2.0, RandomStream(0))


class TestDirichlet:
    @given(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one(self, s):
        x = sample_dirichlet(np.asarray(s), RandomStream(6))
        assert np.sum(x) == pytest.approx(1.0, abs=1e-12)
        assert np.all(x > 0)

    def test_batch_shape(self):
        x = sample_dirichlet([1.0, 2.0, 0.5], RandomStream(7), size=40)
        assert x.shape == (40, 3)
        assert np.allclose(np.sum(x, axis=1), 1.0)

    def test_mean_matches_parameters(self):
        s = np.array([2.0, 1.0, 1.0])
        x = sample_dirichlet(s, RandomStream(8), size=100000)
        assert np.allclose(np.mean(x, axis=0), s / s.sum(), atol=0.01)

    @pytest.mark.parametrize("bad", [[], [1.0, -1.0], [0.0, 1.0]])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ParameterError):
            sample_dirichlet(bad, RandomStream(0))


class TestNormalAndBeta:
    def test_normal_moments(self):
        x = sample_normal(1.0, 0.25, RandomStream(9), size=200000)
        assert np.mean(x) == pytest.approx(1.0, abs=0.01)
        assert np.var(x) == pytest.approx(0.25, rel=0.03)

    def test_normal_invalid_variance(self):
        with pytest.raises(ParameterError):
            sample_normal(0.0, 0.0, RandomStream(0))
