"""Tests for the seedable stream layer and its distribution conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbeta.streams import (ParameterError, RandomStream, gamma_table,
                              sample_chi_tilde, sample_dirichlet, sample_gamma,
                              sample_normal, sample_standard_chi)


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


def _per_column_reference(shapes, streams, size, scale):
    """The table of :func:`gamma_table` drawn one column at a time, each
    cell with its own generator calls and its own transform."""
    rows = []
    for stream, row in zip(streams, np.broadcast_to(shapes, (len(streams), shapes.shape[-1]))):
        gen, cells = stream.generator, []
        for a in row.tolist():
            if a >= 1.0:
                g = gen.gamma(a, size=size)
                cells.append(g if scale is None else np.sqrt(scale * g))
                continue
            boost = gen.gamma(a + 1.0, size=size)
            u = gen.random(size=size)
            cells.append(boost * u ** (1.0 / a) if scale is None
                         else np.exp(0.5 * (np.log(scale * boost) + np.log(u) / a)))
        rows.append(cells)
    tail = () if size is None else (size,)
    return np.array(rows, dtype=float).reshape((len(streams), shapes.shape[-1]) + tail)


class TestGammaTable:
    @pytest.mark.parametrize("scale", [None, 1.0, 2.0])
    @pytest.mark.parametrize("size", [None, 7])
    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 4.0])
    def test_equals_per_column_draws(self, beta, size, scale):
        # shapes k*beta/4 fall on both sides of 1 (exactly 1 at beta=4, k=1;
        # the exponent 1/a = 2 of a = 0.5 at beta=2, k=1)
        shapes = np.arange(1, 12) * (beta / 4.0)
        for streams in ([RandomStream(21)], [RandomStream(22).split(i) for i in range(5)]):
            table = gamma_table(shapes, streams, size, scale)
            fresh = [RandomStream(s.seed, s.keys) for s in streams]
            reference = _per_column_reference(shapes, fresh, size, scale)
            assert table.shape == reference.shape
            assert table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("scale", [None, 1.0, 2.0])
    @pytest.mark.parametrize("size", [None, 3])
    def test_per_row_shapes(self, size, scale):
        betas = np.array([0.05, 0.5, 2.0, 4.0, 0.5, 2.0])
        shapes = np.arange(1, 9) * (betas[:, None] / 4.0)
        streams = [RandomStream(23).split(i) for i in range(betas.size)]
        table = gamma_table(shapes, streams, size, scale)
        for i, stream in enumerate(streams):
            fresh = RandomStream(stream.seed, stream.keys)
            row = _per_column_reference(shapes[i], [fresh], size, scale)[0]
            assert table[i].tobytes() == row.tobytes()

    def test_one_cell_wrappers(self):
        # the one-column case keeps the scalar draw's Python-float power
        for shape in (0.3, 0.5, 2.5):
            stream, fresh = RandomStream(24), RandomStream(24)
            got = [sample_gamma(shape, stream) for _ in range(50)]
            want = [_per_column_reference(np.array([shape]), [fresh], None, None)[0, 0]
                    for _ in range(50)]
            assert got == want

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan])
    def test_rejects_nonpositive_and_nonfinite_shapes(self, bad):
        with pytest.raises(ParameterError, match="positive and finite"):
            gamma_table([1.0, bad], [RandomStream(0)], None, 1.0)

    def test_no_streams(self):
        assert gamma_table([0.5, 2.0], [], None, 1.0).shape == (0, 2)
        assert gamma_table([0.5, 2.0], [], 4).shape == (0, 2, 4)


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
