"""Tests for structured conjugations, reindexing recursions and Jacobians."""

import numpy as np
import pytest

from skewbeta.ensembles import (AntisymTridiagonal, _c_matrix_chis, _laguerre_chis,
                                dense_tridiagonal)
from skewbeta.spectral import SpectralData, positive_spectrum
from skewbeta.streams import ParameterError, RandomStream, gamma_table
from skewbeta import verify
from skewbeta.transform import (FiniteDifferenceError, _jacobian_analytic_rows,
                                _jacobian_numeric_rows, _vandermonde_residual_rows,
                                asps, bidiagonal_read_off, block_embedding,
                                cholesky_reindex, laguerre_map_batch,
                                reversed_cholesky_residual,
                                shuffle_conjugation_check)


def _read_off_block(n: int, beta: float, stream: RandomStream):
    """Diagonal and subdiagonal of the chi block that ``laguerre_map_batch``
    reads order ``n`` off, drawn on ``stream``."""
    if n % 2 == 0:
        d, e = _laguerre_chis(n // 2, (n - 1) * beta / 4.0, beta, [stream])
    else:
        d, e = _c_matrix_chis(n // 2, beta, [stream])
    return d[0], e[0]


def _cholesky_draw(k: int, beta: float, streams):
    """C-matrices and extra squared entries as the cholesky suite draws
    them: the chis first, then the gamma, on each stream."""
    d, e = _c_matrix_chis(k, beta, streams)
    return d, e, gamma_table([(2 * k + 1) * beta / 4.0], streams)[:, 0]


class TestAsps:
    def test_smallest_case(self):
        assert np.array_equal(asps(1), [[1, 0], [0, -1]])

    def test_matrix_layout(self):
        # rows 1..4 go to columns 1, 3, 2, 4 with signs +, -, -, +
        assert asps(2).dtype == np.int64
        assert np.array_equal(asps(2), [[1, 0, 0, 0], [0, 0, -1, 0],
                                        [0, -1, 0, 0], [0, 0, 0, 1]])

    @pytest.mark.parametrize("k", range(1, 11))
    def test_orthogonality(self, k):
        m = asps(k)
        assert np.array_equal(m @ m.T, np.eye(2 * k, dtype=np.int64))

    def test_shuffle_structure(self):
        # odd rows land in the first block of columns, even rows in the second
        rows, col = np.nonzero(asps(3))
        assert rows.tolist() == list(range(6))
        assert col[0::2].tolist() == [0, 1, 2]
        assert col[1::2].tolist() == [3, 4, 5]


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
        assert shuffle_conjugation_check(0.5 + gen.random(k), 0.5 + gen.random(k - 1)) == 0.0

    def test_tridiagonal_read_off(self):
        t = AntisymTridiagonal(bidiagonal_read_off(np.array([1.0, 3.0]), np.array([2.0])))
        assert np.array_equal(np.diag(dense_tridiagonal(t.superdiagonal_top_down(), -1.0), 1),
                              [1.0, 2.0, 3.0])

    def test_rejects_tall_block(self):
        with pytest.raises(ValueError):
            shuffle_conjugation_check([1.0], [1.0])


class TestLaguerreMap:
    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    def test_sample_size(self, n):
        t = AntisymTridiagonal(laguerre_map_batch(n, 2.0, RandomStream(n), None))
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
        # reps=None reads off the one-replicate block bit for bit
        beta = 0.5
        d, e = _read_off_block(n, beta, RandomStream(n))
        top_down = np.empty(n - 1)
        top_down[0::2] = d
        top_down[1::2] = e
        assert np.array_equal(laguerre_map_batch(n, beta, RandomStream(n), None),
                              top_down[::-1] / np.sqrt(2.0))

    @pytest.mark.parametrize("n", [2, 3, 6, 7])
    @pytest.mark.parametrize("reps", [None, 1])
    def test_entries_are_read_off_the_block(self, n, reps):
        # sqrt(2) times the top-down sequence reads d_0, e_0, d_1, ... of the
        # Laguerre block (even n) or the C-matrix (odd n) on an equal stream
        beta = 2.0
        d, e = _read_off_block(n, beta, RandomStream(n))
        entries = np.empty(n - 1)
        entries[0::2] = d
        entries[1::2] = e
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
        d, e, top = _cholesky_draw(k, beta, [RandomStream(10 * k)])
        assert reversed_cholesky_residual(d[0], e[0], top[0]) < 1e-12

    def test_residual_requires_tall_block(self):
        with pytest.raises(ValueError):
            reversed_cholesky_residual([1.0, 1.0], [1.0], 1.0)


class TestStackedForms:
    """A stacked call equals its row-by-row calls bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_shuffle_conjugation_check(self, k):
        gen = np.random.default_rng(k)
        d, e = 0.25 + gen.random((3, 4, k)), 0.25 + gen.random((3, 4, k - 1))
        got = shuffle_conjugation_check(d, e)
        want = [[shuffle_conjugation_check(d[i, j], e[i, j]) for j in range(4)]
                for i in range(3)]
        assert got.shape == (3, 4) and got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_reversed_cholesky_residual(self, k):
        for beta in (0.05, 0.5, 4.0):
            d, e, top = _cholesky_draw(k, beta, [RandomStream(k).split(i) for i in range(40)])
            got = reversed_cholesky_residual(d, e, top)
            want = [reversed_cholesky_residual(d[i], e[i], top[i]) for i in range(40)]
            assert got.shape == (40,) and got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_cholesky_reindex(self, k):
        bsq = np.random.default_rng(k).gamma(0.3, size=(3, 4, 2 * k + 1)) + 1e-12
        got = cholesky_reindex(bsq)
        want = [[cholesky_reindex(bsq[i, j]) for j in range(4)] for i in range(3)]
        assert got.shape == (3, 4, 2 * k) and got.tobytes() == np.array(want).tobytes()


class TestVandermondeIdentity:
    @pytest.mark.parametrize("n,beta,seed", [
        (2, 2.0, 0), (3, 2.0, 1), (4, 1.0, 2), (7, 2.0, 3), (10, 4.0, 4),
    ])
    def test_log_residual_small(self, n, beta, seed):
        rows = verify._spectrum_draws(n, [beta], [RandomStream(seed)], min_relgap=1e-6)
        assert _vandermonde_residual_rows(*rows)[0] < 1e-9


def _jacobian_numeric(sd, **kwargs):
    """The finite-difference determinant of one row of spectral data."""
    return float(_jacobian_numeric_rows(sd.n, sd.lam[None, :], sd.q[None, :], **kwargs)[0])


class TestJacobian:
    def test_n2_closed_form(self):
        # single free coordinate: b = lam exactly, so d b/d lam = 1
        sd = positive_spectrum(
            AntisymTridiagonal(laguerre_map_batch(2, 2.0, RandomStream(0), None)))
        assert _jacobian_numeric(sd) == pytest.approx(1.0, rel=1e-7)

    def test_n3_closed_form(self):
        # analytic value b1 b2 / (q1 lam z); the free-chart determinant picks
        # up an extra 1/z from eliminating z by normalization
        b, lam, q, z = verify._jacobian_draws(3, 2.0, [RandomStream(1)])
        analytic = _jacobian_analytic_rows(b, lam, q, z)[0]
        (b1, b2), = b
        assert analytic == pytest.approx(b1 * b2 / (q[0, 0] * lam[0, 0] * z[0]), rel=1e-12)
        assert _jacobian_numeric_rows(3, lam, q)[0] == pytest.approx(analytic / z[0], rel=1e-5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chart_factors(self, n):
        b, lam, q, z = verify._jacobian_draws(n, 2.0, [RandomStream(n)])
        analytic = _jacobian_analytic_rows(b, lam, q, z)[0]
        target = analytic / (2.0 * q[0, -1]) if n % 2 == 0 else analytic / z[0]
        assert _jacobian_numeric_rows(n, lam, q)[0] == pytest.approx(target, rel=1e-5)

    def test_step_halving_guard(self):
        sd = positive_spectrum(
            AntisymTridiagonal(laguerre_map_batch(4, 2.0, RandomStream(2), None)))
        with pytest.raises(FiniteDifferenceError):
            # absurd step size cannot pass the Richardson consistency check
            _jacobian_numeric(sd, h_scale=0.25, richardson_rtol=1e-12)

    def test_boundary_point_rejected(self):
        # q1 -> sqrt(1/2) leaves no room for the eliminated coordinate when probed
        sd = SpectralData(4, [2.0, 1.0], [np.sqrt(0.5 - 1e-14), 1e-7])
        with pytest.raises(FiniteDifferenceError):
            _jacobian_numeric(sd)


class TestRowForms:
    """Row i of every row form equals its one-row call bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_vandermonde_and_analytic(self, n):
        streams = [RandomStream(n).split(i) for i in range(30)]
        rows = verify._spectrum_draws(n, [0.5, 2.0, 4.0] * 10, streams, 1e-6)
        residual = _vandermonde_residual_rows(*rows)
        analytic = _jacobian_analytic_rows(*rows)
        for i in range(30):
            one = [r[i:i + 1] for r in rows]
            assert residual[i] == _vandermonde_residual_rows(*one)[0]
            assert analytic[i] == _jacobian_analytic_rows(*one)[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_numeric_jacobian(self, n):
        streams = [RandomStream(n).split(i) for i in range(12)]
        _, lam, q, _ = verify._jacobian_draws(n, 2.0, streams)
        dets = _jacobian_numeric_rows(n, lam, q)
        for i in range(12):
            assert dets[i] == _jacobian_numeric_rows(n, lam[i:i + 1], q[i:i + 1])[0]

    def test_numeric_jacobian_raises_for_the_first_failing_row(self):
        # "close": the -h probe of lam_1 crosses lam_2; "boundary": no room
        # left for the eliminated q_k; "both": the two at once.  A batch
        # holding any of them raises before any reconstruction; at
        # richardson_rtol = 1e-12, "good" fails the step-halving check
        points = {"good": ([2.0, 1.0], [0.5, 0.5]),
                  "close": ([1.0, 1.0 - 1e-9], [0.5, 0.5]),
                  "boundary": ([2.0, 1.0], [np.sqrt(0.5 - 1e-14), 1e-7]),
                  "both": ([1.0, 1.0 - 1e-9], [np.sqrt(0.5 - 1e-14), 1e-7])}
        for rtol, order in ((1e-4, ["good", "close", "boundary"]),
                            (1e-4, ["good", "boundary", "close"]),
                            (1e-4, ["both", "boundary"]),
                            (1e-4, ["close"]), (1e-4, ["boundary"]), (1e-4, ["both"]),
                            (1e-12, ["good", "close"]),
                            (1e-12, ["close", "good"])):
            lam, q = (np.array([points[r][k] for r in order]) for k in (0, 1))
            with pytest.raises(FiniteDifferenceError, match="leaves the chart"):
                _jacobian_numeric_rows(4, lam, q, richardson_rtol=rtol)
        lam, q = (np.array([points["good"][k]]) for k in (0, 1))
        assert _jacobian_numeric_rows(4, lam, q)[0] > 0.0
        with pytest.raises(FiniteDifferenceError, match="step-halving disagreement"):
            _jacobian_numeric_rows(4, lam, q, richardson_rtol=1e-12)
