"""Tests for matrix constructors and the Householder reduction."""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import hessenberg

from skewbeta.ensembles import (AntisymTridiagonal, DegenerateInputError,
                                DenseAntisym, EnsembleSpec, SizeError, _c_matrix_chis,
                                _laguerre_chis, antisym_tridiagonal_batch,
                                antisym_tridiagonal_rows, build_antisym_tridiagonal,
                                build_dense_antisym_gue, dense_antisym_gue_rows,
                                dense_tridiagonal, householder_reduce,
                                householder_reduce_batch)
from skewbeta.streams import ParameterError, RandomStream


def _dense(t):
    """The dense matrix ``T`` of a reduced form."""
    return dense_tridiagonal(t.superdiagonal_top_down(), -1.0)


class TestAntisymTridiagonal:
    def test_bottom_up_indexing(self):
        t = AntisymTridiagonal([1.0, 2.0, 3.0])
        # b[0] sits in the bottom-right 2x2 block
        assert np.array_equal(t.superdiagonal_top_down(), [3.0, 2.0, 1.0])
        dense = _dense(t)
        assert dense[2, 3] == 1.0 and dense[0, 1] == 3.0

    def test_dense_is_antisymmetric(self):
        dense = _dense(AntisymTridiagonal([0.5, 1.5]))
        assert np.array_equal(dense, -dense.T)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            AntisymTridiagonal([1.0, 0.0])
        with pytest.raises(ValueError):
            AntisymTridiagonal([-1.0])

    @pytest.mark.parametrize("bad,msg", [
        (np.inf, "off-diagonal sequence must be finite"),
        (np.nan, "reduced form requires strictly positive off-diagonals"),
        (-np.inf, "reduced form requires strictly positive off-diagonals"),
    ])
    def test_rejects_nonfinite_entries(self, bad, msg):
        # positive first, then finite: the order of spectral_rows
        with pytest.raises(ValueError, match=f"^{msg}$"):
            AntisymTridiagonal([1.0, bad, 2.0])

    def test_symmetric_counterpart_spectrum(self):
        # the symmetric tridiagonal of zero diagonal and off-diagonal b has
        # the characteristic polynomial of i * T
        t = AntisymTridiagonal([1.0, 2.0, 0.7])
        d, e = np.zeros(t.n), t.superdiagonal_top_down()
        sym_vals = np.sort(np.linalg.eigvalsh(np.diag(e, 1) + np.diag(e, -1)))
        skew_vals = np.sort(np.linalg.eigvals(1j * _dense(t)).real)
        assert np.allclose(sym_vals, skew_vals, atol=1e-12)
        assert np.all(d == 0)


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

    @pytest.mark.parametrize("kind", EnsembleSpec.KINDS)
    @pytest.mark.parametrize("beta", [np.inf, np.nan, -1.0])
    def test_beta_must_be_positive_and_finite(self, kind, beta):
        a = 4.0 if kind == "laguerre-bidiag" else None
        with pytest.raises(ParameterError, match="beta"):
            EnsembleSpec(kind=kind, n=3, beta=beta, a=a)

    @pytest.mark.parametrize("a", [np.inf, -np.inf, np.nan])
    def test_laguerre_a_must_be_finite(self, a):
        with pytest.raises(ParameterError, match="a must be finite"):
            EnsembleSpec(kind="laguerre-bidiag", n=3, beta=2.0, a=a)


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
        # reps=None and reps=1 make the same generator calls and one table
        # transform, so they agree bit for bit on both sides of shape 1
        for n in (2, 3, 6, 11):
            for seed in range(10):
                b = build_antisym_tridiagonal(n, beta, RandomStream(seed)).b
                row = antisym_tridiagonal_batch(n, beta, RandomStream(seed), 1)[0]
                assert np.array_equal(b, row)

    def test_rows_are_builders_on_their_streams(self):
        # one beta for every row, or a column of one beta per row
        root = RandomStream(6)
        betas = np.array([0.05, 0.5, 2.0, 4.0, 0.05, 2.0])
        for beta in (0.5, betas[:, None]):
            rows = antisym_tridiagonal_rows(7, beta, [root.split(i) for i in range(6)])
            assert rows.shape == (6, 6)
            for i in range(6):
                beta_i = np.broadcast_to(beta, (6, 1))[i, 0]
                b = build_antisym_tridiagonal(7, beta_i, root.split(i)).b
                assert np.array_equal(rows[i], b)

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
        # a square block: 3 diagonal and 2 subdiagonal entries
        d, e = _laguerre_chis(3, 4.0, 2.0, [RandomStream(5)])
        assert d.shape == (1, 3) and e.shape == (1, 2)

    def test_laguerre_parameter_constraint(self):
        with pytest.raises(ParameterError):
            _laguerre_chis(4, 2.0, 2.0, [RandomStream(0)])

    def test_c_matrix_shapes(self):
        # a 4 x 3 block: as many subdiagonal entries as diagonal ones
        d, e = _c_matrix_chis(3, 2.0, [RandomStream(6)])
        assert d.shape == (1, 3) and e.shape == (1, 3)

    @pytest.mark.parametrize("builder,args", [
        (build_antisym_tridiagonal, (1, 2.0)),
        (build_dense_antisym_gue, (1,)),
        (_c_matrix_chis, (0, 2.0)),
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
        after = np.sort(np.linalg.eigvals(1j * _dense(reduced)).real)
        assert np.allclose(before, after, atol=1e-10 * max(1.0, np.max(np.abs(before))))

    def test_produces_reduced_form(self):
        reduced = householder_reduce(build_dense_antisym_gue(7, RandomStream(11)))
        assert np.all(reduced.b > 0)

    def test_tridiagonal_input_is_fixed_point(self):
        t = build_antisym_tridiagonal(5, 2.0, RandomStream(12))
        again = householder_reduce(DenseAntisym(_dense(t)))
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
            ref[iu] = root.split(i).generator.normal(0.0, np.sqrt(0.5), size=iu[0].size)
            assert np.array_equal(mat, ref - ref.T)
