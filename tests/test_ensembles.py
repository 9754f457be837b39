"""Tests for matrix constructors and the Householder reduction."""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import hessenberg

from skewbeta.ensembles import (AntisymTridiagonal, DegenerateInputError,
                                DenseAntisym, EnsembleSpec, LowerBidiagonal,
                                SizeError, antisym_tridiagonal_batch,
                                build_antisym_tridiagonal, build_c_matrix,
                                build_dense_antisym_gue,
                                build_laguerre_bidiagonal, c_matrix_rows,
                                dense_antisym_gue_rows, householder_reduce,
                                householder_reduce_batch, laguerre_bidiagonal_rows)
from skewbeta.streams import ParameterError, RandomStream, sample_normal


class TestAntisymTridiagonal:
    def test_bottom_up_indexing(self):
        t = AntisymTridiagonal([1.0, 2.0, 3.0])
        # b[0] sits in the bottom-right 2x2 block
        assert np.array_equal(t.superdiagonal_top_down(), [3.0, 2.0, 1.0])
        dense = t.to_dense()
        assert dense[2, 3] == 1.0 and dense[0, 1] == 3.0

    def test_dense_is_antisymmetric(self):
        dense = AntisymTridiagonal([0.5, 1.5]).to_dense()
        assert np.array_equal(dense, -dense.T)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            AntisymTridiagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            AntisymTridiagonal([-1.0])

    def test_symmetric_counterpart_spectrum(self):
        t = AntisymTridiagonal([1.0, 2.0, 0.7])
        d, e = t.symmetric_counterpart()
        sym_vals = np.sort(np.linalg.eigvalsh(np.diag(e, 1) + np.diag(e, -1)))
        skew_vals = np.sort(np.linalg.eigvals(1j * t.to_dense()).real)
        assert np.allclose(sym_vals, skew_vals, atol=1e-12)
        assert np.all(d == 0)


class TestLowerBidiagonal:
    def test_square_dense_layout(self):
        blk = LowerBidiagonal([1.0, 2.0], [3.0], rows=2)
        assert np.array_equal(blk.to_dense(), [[1.0, 0.0], [3.0, 2.0]])

    def test_tall_dense_layout(self):
        blk = LowerBidiagonal([1.0], [2.0], rows=2)
        assert np.array_equal(blk.to_dense(), [[1.0], [2.0]])

    @pytest.mark.parametrize("d,e,rows", [
        ([1.0, 2.0], [3.0], 4),       # row count out of range
        ([1.0, 2.0], [3.0, 4.0], 2),  # too many subdiagonal entries
        ([1.0, -2.0], [3.0], 2),      # negative entry
    ])
    def test_validation(self, d, e, rows):
        with pytest.raises(ValueError):
            LowerBidiagonal(d, e, rows=rows)


class TestEnsembleSpec:
    def test_valid_kinds(self):
        for kind in EnsembleSpec.KINDS:
            a = 4.0 if kind == "laguerre-bidiag" else None
            EnsembleSpec(kind=kind, n=3, beta=2.0, a=a)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(kind="nope", n=3, beta=2.0)

    def test_laguerre_parameter_constraint(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(kind="laguerre-bidiag", n=4, beta=2.0, a=2.0)

    def test_size_bound(self):
        with pytest.raises(SizeError):
            EnsembleSpec(kind="antisym-trid", n=1, beta=2.0)


class TestBuilders:
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_tridiagonal_size(self, n):
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(0))
        assert t.n == n and np.all(t.b > 0)

    def test_tridiagonal_entry_law(self):
        # b_k^2 is gamma with shape k*beta/4; check means entrywise
        beta = 2.0
        b = antisym_tridiagonal_batch(5, beta, RandomStream(1), 200000)
        means = np.mean(b ** 2, axis=0)
        expected = np.arange(1, 5) * beta / 4.0
        assert np.allclose(means, expected, rtol=0.02)

    def test_batch_matches_builder_law(self):
        b = antisym_tridiagonal_batch(4, 1.0, RandomStream(2), 100)
        assert b.shape == (100, 3) and np.all(b > 0)

    def test_small_beta_batch_has_no_zero(self):
        # b_1**2 has gamma shape 0.0125 at beta = 0.05; drawn through
        # u**(1/shape) it underflowed to 0 in 2 of these 20000 rows
        b = antisym_tridiagonal_batch(12, 0.05, RandomStream(1), 20000)
        assert np.all(b > 0)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 4.0])
    def test_builder_is_batch_row(self, beta):
        # at beta=4 every gamma shape k*beta/4 is >= 1 and the draws agree
        # exactly; smaller shapes take the boost, whose power of a size-1
        # array may round an ulp away from the scalar's
        rtol = 0.0 if beta == 4.0 else 1e-15
        for n in (2, 3, 6, 11):
            for seed in range(10):
                b = build_antisym_tridiagonal(n, beta, RandomStream(seed)).b
                row = antisym_tridiagonal_batch(n, beta, RandomStream(seed), 1)[0]
                assert np.max(np.abs(b - row) / row) <= rtol

    def test_dense_gue_variance(self):
        vals = np.concatenate([
            build_dense_antisym_gue(8, RandomStream(3).split(i)).a[
                np.triu_indices(8, k=1)]
            for i in range(2000)])
        assert np.var(vals) == pytest.approx(0.5, rel=0.02)

    def test_dense_gue_is_antisymmetric(self):
        dense = build_dense_antisym_gue(5, RandomStream(4))
        assert np.allclose(dense.a, -dense.a.T)

    def test_laguerre_bidiagonal_shapes(self):
        blk = build_laguerre_bidiagonal(3, 4.0, 2.0, RandomStream(5))
        assert blk.rows == 3 and blk.cols == 3 and blk.e.size == 2

    def test_laguerre_parameter_constraint(self):
        with pytest.raises(ParameterError):
            build_laguerre_bidiagonal(4, 2.0, 2.0, RandomStream(0))

    def test_c_matrix_shapes(self):
        blk = build_c_matrix(3, 2.0, RandomStream(6))
        assert blk.rows == 4 and blk.cols == 3 and blk.e.size == 3

    @pytest.mark.parametrize("builder,args", [
        (build_antisym_tridiagonal, (1, 2.0)),
        (build_dense_antisym_gue, (1,)),
        (build_c_matrix, (0, 2.0)),
        pytest.param(partial(antisym_tridiagonal_batch, reps=3), (1, 2.0),
                     id="antisym_tridiagonal_batch-args3"),
    ])
    def test_size_errors(self, builder, args):
        with pytest.raises(SizeError):
            builder(*args, RandomStream(0))


class TestHouseholderReduce:
    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_preserves_spectrum(self, n):
        dense = build_dense_antisym_gue(n, RandomStream(n))
        reduced = householder_reduce(dense)
        before = np.sort(np.linalg.eigvals(1j * dense.a).real)
        after = np.sort(np.linalg.eigvals(1j * reduced.to_dense()).real)
        assert np.allclose(before, after, atol=1e-10 * max(1.0, np.max(np.abs(before))))

    def test_produces_reduced_form(self):
        reduced = householder_reduce(build_dense_antisym_gue(7, RandomStream(11)))
        assert np.all(reduced.b > 0)

    def test_tridiagonal_input_is_fixed_point(self):
        t = build_antisym_tridiagonal(5, 2.0, RandomStream(12))
        again = householder_reduce(DenseAntisym(t.to_dense()))
        assert np.allclose(again.b, t.b, atol=1e-12)

    def test_degenerate_input_raises(self):
        with pytest.raises(DegenerateInputError):
            householder_reduce(DenseAntisym(np.zeros((4, 4))))


class TestHouseholderReduceBatch:
    @pytest.mark.parametrize("n", [2, 3, 10, 40])
    def test_rows_equal_one_row_calls(self, n):
        root = RandomStream(21)
        streams = [root.split(i) for i in range(25)]
        b = householder_reduce_batch(dense_antisym_gue_rows(n, streams))
        assert b.shape == (25, n - 1)
        for i, row in enumerate(b):
            one = householder_reduce(build_dense_antisym_gue(n, root.split(i)))
            assert np.array_equal(row, one.b)

    @pytest.mark.parametrize("n", [3, 10, 40])
    def test_matches_scipy_hessenberg(self, n):
        # the Hessenberg form of an anti-symmetric matrix is its tridiagonal
        # reduction; the two reflector sequences agree to backward error
        a = dense_antisym_gue_rows(n, [RandomStream(n).split(i) for i in range(8)])
        b = householder_reduce_batch(a)
        eps = np.finfo(float).eps
        for mat, row in zip(a, b):
            ref = np.abs(np.diag(hessenberg(mat), -1))[::-1]
            assert np.max(np.abs(row - ref)) <= 64 * n * eps * np.linalg.norm(mat)

    def test_zero_pivot_raises(self):
        a = dense_antisym_gue_rows(5, [RandomStream(1), RandomStream(2)])
        a[1] = 0.0
        with pytest.raises(DegenerateInputError, match="zero pivot"):
            householder_reduce_batch(a)

    def test_zero_off_diagonal_raises(self):
        # block diagonal: the first column is already reduced, and the
        # trailing 2x2 block is zero
        a = np.zeros((2, 3, 3))
        a[:, 0, 1], a[:, 1, 0] = 1.0, -1.0
        a[0, 1, 2], a[0, 2, 1] = 2.0, -2.0
        with pytest.raises(DegenerateInputError, match="zero off-diagonal"):
            householder_reduce_batch(a)


class TestStreamRows:
    @pytest.mark.parametrize("n", [2, 6])
    def test_dense_rows_equal_one_stream_fill(self, n):
        # reference: fill the strict upper triangle from one stream, then
        # subtract the transpose
        root = RandomStream(8)
        a = dense_antisym_gue_rows(n, [root.split(i) for i in range(5)])
        iu = np.triu_indices(n, k=1)
        for i, mat in enumerate(a):
            ref = np.zeros((n, n))
            ref[iu] = sample_normal(0.0, 0.5, root.split(i), size=iu[0].size)
            assert np.array_equal(mat, ref - ref.T)

    @pytest.mark.parametrize("n", [1, 4])
    def test_bidiagonal_rows_equal_builders(self, n):
        root = RandomStream(9)
        lag = laguerre_bidiagonal_rows(n, 6.0, 1.5, [root.split(i) for i in range(5)])
        cmat = c_matrix_rows(n, 1.5, [root.split(i) for i in range(5)])
        assert lag.shape == (5, n, n) and cmat.shape == (5, n + 1, n)
        for i in range(5):
            assert np.array_equal(lag[i], build_laguerre_bidiagonal(
                n, 6.0, 1.5, root.split(i)).to_dense())
            assert np.array_equal(cmat[i], build_c_matrix(n, 1.5, root.split(i)).to_dense())
