"""Tests for structured conjugations, reindexing recursions and Jacobians."""

import numpy as np
import pytest

from skewbeta.ensembles import (LowerBidiagonal, build_c_matrix,
                                build_laguerre_bidiagonal)
from skewbeta.spectral import SpectralData, positive_spectrum
from skewbeta.streams import ParameterError, RandomStream, sample_gamma
from skewbeta.transform import (FiniteDifferenceError,
                                SignedPermutation, asps, block_embedding,
                                cholesky_reindex, jacobian_analytic,
                                jacobian_numeric, laguerre_map_batch,
                                laguerre_map_sample,
                                reversed_cholesky_residual,
                                shuffle_conjugation_check,
                                tridiagonal_from_bidiagonal,
                                vandermonde_identity_check)


class TestSignedPermutation:
    def test_matrix_layout(self):
        p = SignedPermutation(2, [1, 0], [1, -1])
        assert np.array_equal(p.matrix(), [[0, 1], [-1, 0]])

    def test_validation(self):
        with pytest.raises(ParameterError):
            SignedPermutation(2, [0, 0], [1, 1])
        with pytest.raises(ParameterError):
            SignedPermutation(2, [0, 1], [1, 2])


class TestAsps:
    def test_smallest_case(self):
        assert np.array_equal(asps(1).matrix(), [[1, 0], [0, -1]])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_orthogonality(self, k):
        m = asps(k).matrix()
        assert np.array_equal(m @ m.T, np.eye(2 * k, dtype=np.int64))

    def test_shuffle_structure(self):
        # odd rows land in the first block of columns, even rows in the second
        q = asps(3)
        assert q.col[0::2].tolist() == [0, 1, 2]
        assert q.col[1::2].tolist() == [3, 4, 5]


class TestShuffleConjugation:
    def test_block_embedding_singular_values(self):
        y = np.array([[1.0, 0.0], [0.5, 2.0]])
        v = block_embedding(y)
        assert np.allclose(v, -v.T)
        sv = np.linalg.svd(y, compute_uv=False)
        eig = np.sort(np.linalg.eigvals(1j * v).real)[::-1][:2]
        assert np.allclose(np.sort(sv)[::-1], eig, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_conjugation_is_exact(self, k):
        gen = np.random.default_rng(k)
        blk = LowerBidiagonal(0.5 + gen.random(k), 0.5 + gen.random(k - 1), rows=k)
        assert shuffle_conjugation_check(blk) == 0.0

    def test_tridiagonal_read_off(self):
        blk = LowerBidiagonal([1.0, 3.0], [2.0], rows=2)
        t = tridiagonal_from_bidiagonal(blk)
        assert np.array_equal(np.diag(t, 1), [1.0, 2.0, 3.0])

    def test_rejects_tall_block(self):
        blk = LowerBidiagonal([1.0], [1.0], rows=2)
        with pytest.raises(ValueError):
            shuffle_conjugation_check(blk)


class TestLaguerreMap:
    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_sample_size(self, n):
        t = laguerre_map_sample(n, 2.0, RandomStream(n))
        assert t.n == n and np.all(t.b > 0)

    def test_entry_law_matches_direct_model(self):
        # every off-diagonal b_k must be chi_tilde with k*beta/2 degrees,
        # i.e. E[b_k^2] = k*beta/4
        n, beta, reps = 6, 2.0, 200000
        b = laguerre_map_batch(n, beta, RandomStream(0), reps)
        assert np.allclose(np.mean(b ** 2, axis=0),
                           np.arange(1, n) * beta / 4.0, rtol=0.02)

    def test_batch_shape(self):
        b = laguerre_map_batch(5, 1.0, RandomStream(1), 64)
        assert b.shape == (64, 4) and np.all(b > 0)

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_sample_is_the_one_row_case(self, n):
        t = laguerre_map_sample(n, 0.5, RandomStream(n))
        assert np.array_equal(t.b, laguerre_map_batch(n, 0.5, RandomStream(n), None))

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    @pytest.mark.parametrize("reps", [None, 1])
    def test_entries_are_read_off_the_block(self, n, reps):
        # sqrt(2) times the top-down sequence reads d_0, e_0, d_1, ... of the
        # Laguerre block (even n) or the C-matrix (odd n) on an equal stream
        beta = 2.0
        if n % 2 == 0:
            blk = build_laguerre_bidiagonal(n // 2, (n - 1) * beta / 4.0, beta,
                                            RandomStream(n))
        else:
            blk = build_c_matrix(n // 2, beta, RandomStream(n))
        entries = np.empty(n - 1)
        entries[0::2] = blk.d
        entries[1::2] = blk.e
        b = laguerre_map_batch(n, beta, RandomStream(n), reps)
        top_down = np.sqrt(2.0) * (b if reps is None else b[0])[::-1]
        # a size-1 draw below gamma shape 1 may round an ulp away from a scalar one
        assert top_down == pytest.approx(entries, rel=1e-14)


class TestCholeskyReindex:
    def test_k1_closed_form(self):
        # x_3^2 = b_1^2 + b_2^2 and x_2^2 = b_3^2 b_2^2 / x_3^2
        out = cholesky_reindex([1.0, 1.0, 1.0])
        assert out == pytest.approx([0.5, 2.0])

    def test_output_indexing(self):
        bsq = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = cholesky_reindex(bsq)
        assert out.size == 4
        x3 = bsq[0] + bsq[1]
        x2 = bsq[2] * bsq[1] / x3
        x5 = bsq[3] + bsq[2] - x2
        x4 = bsq[3] * bsq[4] / x5
        assert out == pytest.approx([x2, x3, x4, x5])

    @pytest.mark.parametrize("bad", [[1.0, 1.0], [1.0], [1.0, -1.0, 1.0]])
    def test_validation(self, bad):
        with pytest.raises((ParameterError, ValueError)):
            cholesky_reindex(bad)

    def test_diagonal_entries_stay_positive(self):
        # the recursion only adds and multiplies positive terms, so every
        # output is positive for positive input
        gen = np.random.default_rng(5)
        for _ in range(50):
            bsq = gen.gamma(0.3, size=9) + 1e-12
            out = cholesky_reindex(bsq)
            assert np.all(out > 0)

    @pytest.mark.parametrize("k,beta", [(1, 2.0), (3, 1.0), (5, 4.0), (8, 0.5)])
    def test_against_direct_cholesky(self, k, beta):
        stream = RandomStream(10 * k)
        c = build_c_matrix(k, beta, stream)
        top = sample_gamma((2 * k + 1) * beta / 4.0, stream)
        assert reversed_cholesky_residual(c, top) < 1e-12

    def test_residual_requires_tall_block(self):
        blk = LowerBidiagonal([1.0, 1.0], [1.0], rows=2)
        with pytest.raises(ValueError):
            reversed_cholesky_residual(blk, 1.0)


class TestVandermondeIdentity:
    @pytest.mark.parametrize("n,beta,seed", [
        (2, 2.0, 0), (3, 2.0, 1), (4, 1.0, 2), (7, 2.0, 3), (10, 4.0, 4),
    ])
    def test_log_residual_small(self, n, beta, seed):
        from skewbeta.verify import _draw_with_spectrum
        t, sd = _draw_with_spectrum(n, beta, RandomStream(seed), min_relgap=1e-6)
        assert vandermonde_identity_check(t, sd) < 1e-9


class TestJacobian:
    def test_n2_closed_form(self):
        # single free coordinate: b = lam exactly, so d b/d lam = 1
        sd = positive_spectrum(
            laguerre_map_sample(2, 2.0, RandomStream(0)))
        assert jacobian_numeric(sd) == pytest.approx(1.0, rel=1e-7)

    def test_n3_closed_form(self):
        # analytic value b1 b2 / (q1 lam z); the free-chart determinant picks
        # up an extra 1/z from eliminating z by normalization
        from skewbeta.verify import _jacobian_point
        t, sd = _jacobian_point(3, 2.0, RandomStream(1))
        analytic = jacobian_analytic(t, sd)
        b1, b2 = t.b
        assert analytic == pytest.approx(
            b1 * b2 / (sd.q[0] * sd.lam[0] * sd.z), rel=1e-12)
        assert jacobian_numeric(sd) == pytest.approx(analytic / sd.z, rel=1e-5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chart_factors(self, n):
        from skewbeta.verify import _jacobian_point
        t, sd = _jacobian_point(n, 2.0, RandomStream(n))
        analytic = jacobian_analytic(t, sd)
        target = analytic / (2.0 * sd.q[-1]) if n % 2 == 0 else analytic / sd.z
        assert jacobian_numeric(sd) == pytest.approx(target, rel=1e-5)

    def test_step_halving_guard(self):
        sd = positive_spectrum(laguerre_map_sample(4, 2.0, RandomStream(2)))
        with pytest.raises(FiniteDifferenceError):
            # absurd step size cannot pass the Richardson consistency check
            jacobian_numeric(sd, h_scale=0.25, richardson_rtol=1e-12)

    def test_boundary_point_rejected(self):
        # q1 -> sqrt(1/2) leaves no room for the eliminated coordinate when probed
        sd = SpectralData(4, [2.0, 1.0], [np.sqrt(0.5 - 1e-14), 1e-7])
        with pytest.raises(FiniteDifferenceError):
            jacobian_numeric(sd)
