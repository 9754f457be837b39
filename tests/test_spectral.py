"""Tests for the spectrum/first-component decomposition and its inverse."""

import ctypes
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import skewbeta
from skewbeta import spectral
from skewbeta.ensembles import (AntisymTridiagonal, antisym_tridiagonal_batch,
                                build_antisym_tridiagonal)
from skewbeta.spectral import (ConditioningError, DegeneracyError,
                               SpectralData, _bidiagonal_svd, _charpoly, _check_rows,
                               _dbdsqr_rows, _first_component_sq_batch, _small_rows,
                               _reconstruct_rows, _signed_spectrum, charpoly_sequence,
                               positive_spectrum, positive_spectrum_batch,
                               reconstruct_tridiagonal, spectral_rows)
from skewbeta.streams import RandomStream
from skewbeta.verify import (_draw_with_spectrum, _moment_residual_rows, _secular_points,
                             _secular_residual_rows)


def _loop_sequence(b, x):
    """Reference: the scalar scaled recurrence, one point, one step at a time."""
    n = b.size + 1
    signs = np.zeros(n + 1)
    logmags = np.full(n + 1, -np.inf)
    signs[0], logmags[0] = 1.0, 0.0
    if x != 0.0:
        signs[1], logmags[1] = np.sign(x), np.log(abs(x))
    prev, cur, shift = 1.0, x, 0.0
    for m in range(1, n):
        nxt = x * cur - b[m - 1] ** 2 * prev
        prev, cur = cur, nxt
        mag = max(abs(prev), abs(cur))
        if mag > 1e150 or (0.0 < mag < 1e-150):
            prev /= mag
            cur /= mag
            shift += np.log(mag)
        if cur != 0.0:
            signs[m + 1] = np.sign(cur)
            logmags[m + 1] = np.log(abs(cur)) + shift
    return signs, logmags


# n = 400 with b = 0.6: |P_m(x)| stays within [1e-150, 1e150] for |x| < 1.2
# (oscillating, |P_m| ~ 0.6**m >= 1e-89) and grows past 1e150 for |x| = 3
MIXED_B = np.full(399, 0.6)
MIXED_QUIET = [0.0, 0.3, -0.7, 1.1]
MIXED_LOUD = [3.0, -3.0, 25.0]


class TestSpectralData:
    def test_normalization_defect(self):
        sd = SpectralData(2, [1.0], [np.sqrt(0.5)])
        assert sd.normalization_defect() < 1e-15

    def test_odd_requires_z(self):
        with pytest.raises(ValueError):
            SpectralData(3, [1.0], [0.5])

    def test_even_forbids_z(self):
        with pytest.raises(ValueError):
            SpectralData(2, [1.0], [0.5], z=0.5)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpectralData(4, [1.0, 2.0], [0.5, 0.5])

    @pytest.mark.parametrize("n,lam,q,z,cls,msg", [
        (4, [1.0, np.nan], [0.5, 0.5], None, DegeneracyError,
         "computed positive eigenvalues are not distinct"),
        (4, [np.inf, 1.0], [0.5, 0.5], None, DegeneracyError,
         "computed positive eigenvalues are not distinct"),
        (2, [1.0], [np.nan], None, ValueError, "first components must be positive"),
        (3, [1.0], [0.5], np.nan, ValueError,
         "odd order requires a positive null-vector component z"),
    ])
    def test_rejects_nonfinite_data(self, n, lam, q, z, cls, msg):
        # such data was accepted: reconstruct_tridiagonal then reported a
        # Lanczos breakdown, and normalization_defect() was NaN
        with pytest.raises(ValueError) as exc:
            SpectralData(n, lam, q, z)
        assert type(exc.value) is cls and str(exc.value) == msg

    def test_full_spectrum_odd(self):
        z = np.sqrt(1.0 - 2 * 0.16)
        d, c = _signed_spectrum(3, np.array([[1.5]]), np.array([[0.4]]), np.array([z]))
        assert np.array_equal(d, [[1.5, -1.5, 0.0]])
        assert np.array_equal(c, [[0.4 ** 2, 0.4 ** 2, z ** 2]])


class TestCharpolySequence:
    def test_matches_direct_recurrence(self):
        # P_0 = 1, P_1 = x, P_{m+1} = x P_m - b_m^2 P_{m-1} (bottom-up b)
        b = np.array([0.8, 1.3, 0.6])
        t = AntisymTridiagonal(b)
        x = 1.7
        p = [1.0, x]
        for m in range(1, 4):
            p.append(x * p[-1] - b[m - 1] ** 2 * p[-2])
        signs, logmags = charpoly_sequence(t, x)
        assert np.allclose(signs * np.exp(logmags), p, rtol=1e-13)

    def test_top_value_is_char_poly(self):
        t = AntisymTridiagonal([1.0, 2.0, 0.5, 1.5])
        x = 0.9
        e = t.superdiagonal_top_down()
        sym = np.diag(e, 1) + np.diag(e, -1)
        expected = np.linalg.det(x * np.eye(t.n) - sym)
        signs, logmags = charpoly_sequence(t, x)
        assert signs[t.n] * np.exp(logmags[t.n]) == pytest.approx(expected, rel=1e-10)

    def test_large_order_no_overflow(self):
        b = np.full(400, 3.0)
        _, logmags = charpoly_sequence(AntisymTridiagonal(b), 7.0)
        assert np.isfinite(logmags[-1])

    @pytest.mark.parametrize("b,xs", [
        (np.array([1.3]), [0.0, 1.3, -0.4]),
        (np.array([0.8, 1.3, 0.6, 2.2]), [0.0, 1.7, -1.7, 1e-3]),
        (build_antisym_tridiagonal(12, 2.0, RandomStream(3)).b, [0.0, -2.5, 0.9, 6.0]),
        (MIXED_B, MIXED_QUIET + MIXED_LOUD),
        (np.full(400, 3.0), [7.0, -7.0, 0.0, 1e-200]),
        (np.full(399, 1e-3), [1e-4, -5e-4, 0.0]),  # pairs fall below 1e-150
    ])
    def test_scalar_matches_loop(self, b, xs):
        for x in xs:
            signs, logmags = charpoly_sequence(AntisymTridiagonal(b), x)
            ref_signs, ref_logmags = _loop_sequence(b, x)
            assert np.array_equal(signs, ref_signs)
            assert np.array_equal(logmags, ref_logmags)

    @pytest.mark.parametrize("b,xs", [
        (build_antisym_tridiagonal(12, 2.0, RandomStream(3)).b,
         [0.0, -2.5, 0.9, 6.0, -0.0, -1e-3]),
        (MIXED_B, MIXED_QUIET + MIXED_LOUD),
    ])
    def test_points_match_scalar(self, b, xs):
        t = AntisymTridiagonal(b)
        signs, logmags = charpoly_sequence(t, np.array(xs))
        assert signs.shape == logmags.shape == (t.n + 1, len(xs))
        for j, x in enumerate(xs):
            one_signs, one_logmags = charpoly_sequence(t, x)
            assert np.array_equal(signs[:, j], one_signs)
            assert np.array_equal(logmags[:, j], one_logmags)

    def test_mixed_rescaling(self):
        # the n = 400 case really has points that rescale and points that do not
        _, logmags = charpoly_sequence(AntisymTridiagonal(MIXED_B),
                                       np.array(MIXED_QUIET + MIXED_LOUD))
        top = np.max(np.abs(np.where(np.isfinite(logmags), logmags, 0.0)), axis=0)
        quiet = len(MIXED_QUIET)
        assert np.all(top[:quiet] < np.log(1e150))
        assert np.all(top[quiet:] > np.log(1e150))
        assert np.all(np.isfinite(logmags[-1]))

    @pytest.mark.parametrize("b,xs", [
        # n = 400: points that rescale and points that do not, on matrices
        # of three scales
        (np.array([MIXED_B * s for s in (1.0, 1.0, 2.0, 1.0, 0.5, 1.0, 3.0)]),
         MIXED_QUIET + MIXED_LOUD),
        (antisym_tridiagonal_batch(12, 0.5, RandomStream(8), 6),
         [0.0, -2.5, 0.9, 6.0, -0.0, 1e-3]),
    ])
    def test_stacked_matrices_match_one_matrix_calls(self, b, xs):
        # one matrix per point: column j is matrix j's own call at its point
        vals, shifts = _charpoly(b, np.array(xs))
        assert vals.shape == shifts.shape == (b.shape[1] + 2, len(xs))
        for j, x in enumerate(xs):
            one_vals, one_shifts = _charpoly(b[j], np.array([x]))
            assert np.array_equal(vals[:, j], one_vals[:, 0])
            assert np.array_equal(shifts[:, j], one_shifts[:, 0])
        if b.shape[1] == 399:
            assert np.any(shifts[-1] == 0.0) and np.any(shifts[-1] != 0.0)

    def test_scalar_shapes(self):
        t = AntisymTridiagonal([1.0, 2.0, 0.5, 1.5])
        signs, logmags = charpoly_sequence(t, 0.9)
        assert signs.shape == logmags.shape == (t.n + 1,)
        signs, logmags = charpoly_sequence(t, np.array([0.9, -0.2]))
        assert signs.shape == logmags.shape == (t.n + 1, 2)
        with pytest.raises(ValueError):
            charpoly_sequence(t, np.ones((2, 2)))

    def test_values_overflow_and_zero(self):
        # P_m is odd in x for odd m, so P_m(0) = 0 exactly: sign 0 and
        # log-magnitude -inf; at x = +-20 the top values (about 19.5**401)
        # lie past the double range with the sign of x**m
        t = AntisymTridiagonal(np.full(400, 3.0))
        signs, logmags = charpoly_sequence(t, np.array([20.0, -20.0, 0.0]))
        assert signs[-1, 0] == 1.0 and signs[-1, 1] == -1.0
        assert logmags[-1, 0] > np.log(np.finfo(float).max)
        assert np.all(signs[1::2, 2] == 0.0) and np.all(logmags[1::2, 2] == -np.inf)


class TestPositiveSpectrum:
    def test_n2_closed_form(self):
        # lambda = b_1 and q_1^2 = 1/2
        t = AntisymTridiagonal([1.3])
        sd = positive_spectrum(t)
        assert sd.lam[0] == pytest.approx(1.3, rel=1e-14)
        assert sd.q[0] == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_n3_closed_form(self):
        # lambda = sqrt(b_1^2 + b_2^2), q_1^2 = b_2^2/(2 lambda^2), z^2 = b_1^2/lambda^2
        b1, b2 = 0.9, 1.7
        sd = positive_spectrum(AntisymTridiagonal([b1, b2]))
        lam = np.hypot(b1, b2)
        assert sd.lam[0] == pytest.approx(lam, rel=1e-13)
        assert sd.q[0] ** 2 == pytest.approx(b2 ** 2 / (2 * lam ** 2), rel=1e-11)
        assert sd.z ** 2 == pytest.approx(b1 ** 2 / lam ** 2, rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11])
    def test_round_trip(self, n):
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(n))
        sd = positive_spectrum(t)
        again = reconstruct_tridiagonal(sd)
        assert np.allclose(again.b, t.b, rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_normalization_invariant(self, n):
        sd = positive_spectrum(build_antisym_tridiagonal(n, 1.0, RandomStream(20 + n)))
        assert sd.normalization_defect() < 1e-10

    def test_degenerate_spectrum_raises(self):
        # a near-vanishing middle coupling decouples two 2x2 blocks with the
        # same positive eigenvalue, violating the separation tolerance
        with pytest.raises(DegeneracyError):
            positive_spectrum(AntisymTridiagonal([1.0, 1e-16, 1.0]))

    def test_reconstruct_rejects_bad_normalization(self):
        sd = SpectralData(2, [1.0], [0.9])
        with pytest.raises(ValueError):
            reconstruct_tridiagonal(sd)

    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_reconstruct_rows_match_one_row_calls(self, n):
        lam, q, z = spectral_rows(antisym_tridiagonal_batch(n, 1.0, RandomStream(n), 40))
        rows = _reconstruct_rows(n, lam, q, z)
        for i in range(40):
            sd = SpectralData(n, lam[i], q[i], float(z[i]) if n % 2 else None)
            assert np.array_equal(rows[i], reconstruct_tridiagonal(sd).b)

    def test_reconstruct_rows_raise_for_the_first_failing_row(self):
        # row "broken" has no weight on +-1, so Lanczos breaks down at step
        # 1; row "unnormalized" has 2 sum q^2 = 1.62; row "both" fails both,
        # and the normalization check comes first, as on one row
        rows = {"good": ([2.0, 1.0], [0.5, 0.5]),
                "broken": ([2.0, 1.0], [np.sqrt(0.5), 0.0]),
                "unnormalized": ([2.0, 1.0], [0.9, 1e-3]),
                "both": ([2.0, 1.0], [0.9, 0.0])}
        raises = {"broken": ConditioningError, "unnormalized": ValueError, "both": ValueError}
        for order in (["good", "broken", "unnormalized"], ["good", "unnormalized", "broken"],
                      ["broken", "both"], ["both", "broken"]):
            lam, q = (np.array([rows[r][k] for r in order]) for k in (0, 1))
            with pytest.raises(ValueError) as exc:
                _reconstruct_rows(4, lam, q, np.full(len(order), np.nan))
            first = next(r for r in order if r in raises)
            assert type(exc.value) is raises[first]
        with pytest.raises(ConditioningError, match="step 1"):
            _reconstruct_rows(4, np.array([rows["broken"][0]]), np.array([rows["broken"][1]]),
                              np.array([np.nan]))


def _oracle_spectrum(b: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, first components and (n odd) z at 120 digits plus the
    total decimal range of ``b``: each float eigenvalue is bracketed within a
    quarter of its relative gaps (at most 1e-6 relative), refined as a root of
    the last row of ``J v = mu v`` (``v`` shot downwards from ``v_0 = 1``) and
    checked to change sign within 1e-40 relative; then ``q = 1/|v(mu)|`` and
    ``z = 1/|v(0)|``."""
    s = b[::-1]
    n = s.size + 1
    with mp.workdps(120 + int(np.sum(np.abs(np.log10(s))))):
        e = [mp.mpf(float(v)) for v in s]

        def shoot(mu):
            v = [mp.mpf(1), mu / e[0]]
            for m in range(1, n - 1):
                v.append((mu * v[m] - e[m - 1] * v[m - 1]) / e[m])
            return v

        def last_row(mu):
            v = shoot(mu)
            return e[n - 2] * v[n - 2] - mu * v[n - 1]

        mus = []
        for i, x in enumerate(lam):
            gaps = [abs(x - lam[j]) / x for j in (i - 1, i + 1) if 0 <= j < lam.size]
            delta = mp.mpf(min([1e-6] + [g / 4 for g in gaps]))
            lo, hi = mp.mpf(float(x)) * (1 - delta), mp.mpf(float(x)) * (1 + delta)
            assert last_row(lo) * last_row(hi) <= 0, f"no root within {float(delta):.1e} of {x}"
            mu = mp.findroot(last_row, (lo, hi), solver="anderson", verify=False, maxsteps=500)
            tiny = mp.mpf(10) ** -40
            assert last_row(mu * (1 - tiny)) * last_row(mu * (1 + tiny)) <= 0
            mus.append(mu)

        def first(mu):
            return float(1 / mp.sqrt(mp.fsum(c * c for c in shoot(mu))))

        z = first(mp.mpf(0)) if n % 2 else float("nan")
        return np.array([float(mu) for mu in mus]), np.array([first(mu) for mu in mus]), z


class TestFirstComponents:
    @pytest.mark.parametrize("n,draws", [(200, 3), (1000, 1)])
    def test_matches_eigenvectors(self, n, draws):
        # an independent route: the first row of LAPACK's eigenvectors
        for i in range(draws):
            t = build_antisym_tridiagonal(n, 2.0, RandomStream(n).split(i))
            sd = positive_spectrum(t)
            vals, vecs = eigh_tridiagonal(np.zeros(n), t.superdiagonal_top_down())
            first = np.abs(vecs[0, np.argsort(vals)[::-1][:n // 2]])
            resolved = sd.q >= 1e-6
            assert np.all(np.abs(sd.q - first)[resolved] <= 1e-8 * first[resolved])
            assert sd.normalization_defect() <= 1e-10

    @pytest.mark.parametrize("n", [12, 40])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_mpmath_oracle(self, n, beta):
        # draws conditioned as in the identities suite: relative squared-
        # eigenvalue gaps >= 1e-6 and first components >= 1e-2
        for i in range(3):
            t, sd = _draw_with_spectrum(n, beta, RandomStream(7 * n).split(i), min_relgap=1e-6)
            _, ref_q, ref_z = _oracle_spectrum(t.b, sd.lam)
            got = np.append(sd.q, [sd.z] if n % 2 else [])
            ref = np.append(ref_q, [ref_z] if n % 2 else [])
            assert np.all(np.abs(got - ref) <= 1e-10 * ref)


def _order3_oracle(s) -> np.ndarray:
    """The two singular values of ``B = [[d1, e1, 0], [0, d2, e2], [0, 0, 0]]``
    for ``s = (d1, e1, d2, e2)`` (n = 5), from the eigenvalues of the 2x2
    ``B B^T`` in 50-digit arithmetic, whose exponents do not underflow."""
    with mp.workdps(50):
        d1, e1, d2, e2 = (mp.mpf(float(v)) for v in s)
        half = (d1 ** 2 + e1 ** 2 + d2 ** 2 + e2 ** 2) / 2
        det = (d1 * d2) ** 2 + (d1 * e2) ** 2 + (e1 * e2) ** 2
        top = half + mp.sqrt(half ** 2 - det)
        return np.array([float(mp.sqrt(top)), float(mp.sqrt(det / top))])


def _run_guarded(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return its output; a run that
    has not finished within a minute fails the test (LAPACK's dbdsqr never
    returns on a non-finite entry, so a hang is what a lost guard looks like)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(skewbeta.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestBidiagonalCore:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 13, 40, 41])
    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0, 2.0])
    def test_mpmath_oracle_unfiltered(self, n, beta):
        # every draw, none filtered.  lam is relatively accurate (worst
        # 9.8e-15 on 800 draws scanned over n 12-41 and beta 0.05-2).  At
        # n >= 6 q is only absolutely accurate, through the rotations of VT
        # (worst 1.7e-13; dbdsqr returns a deflated component as exactly 0,
        # true values below 2.3e-17), so q's bound is 1e-10 relative plus
        # 1e-12 absolute.  At n <= 5 q comes from one dlasv2 step and is
        # relatively accurate (worst 6.5e-16 on 4,800 draws scanned at
        # n <= 4, down to q = 7e-57 at beta 0.05, and 1.6e-15 at n = 5).
        # z is the closed-form null vector, relatively accurate (worst
        # 1.9e-14).
        stream = RandomStream(n).split(int(100 * beta))
        for i in range(4):
            b = build_antisym_tridiagonal(n, beta, stream.split(i)).b
            lam, q, z = (a[0] for a in _bidiagonal_svd(b[None, :]))
            ref_lam, ref_q, ref_z = _oracle_spectrum(b, lam)
            assert np.all(np.abs(lam - ref_lam) <= 1e-14 * ref_lam)
            if n <= 5:
                assert np.all(np.abs(q - ref_q) <= 1e-14 * ref_q)
            else:
                assert np.all(np.abs(q - ref_q) <= 1e-10 * ref_q + 1e-12)
            if n % 2:
                assert abs(z - ref_z) <= 1e-13 * ref_z

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0, 4.0])
    def test_port_equals_dbdsqr_loop(self, n, beta):
        # at n <= 4 bit for bit wherever dbdsqr did not deflate (where it
        # did, its q is exactly 0 and dlasv2's positive).  At n = 5 dlasv2
        # runs on the reduced R, not on dbdsqr's swept B, so lam agrees to a
        # few ulps and q, which dbdsqr resolves to absolute accuracy only,
        # to 2e-15 absolute where dbdsqr does not deflate (beta >= 1)
        b = antisym_tridiagonal_batch(n, beta, RandomStream(n).split(int(100 * beta)), 5000)
        s = b[:, ::-1]
        (lam, vt), (ref_lam, ref_vt) = _small_rows(s), _dbdsqr_rows(s)
        q, ref_q = np.abs(vt), np.abs(ref_vt)
        assert np.all(q > 0)
        if n <= 4:
            kept = (ref_q > 0).all(axis=1)
            assert kept.mean() > 0.9
            assert np.array_equal(lam[kept], ref_lam[kept])
            assert np.array_equal(q[kept], ref_q[kept])
            assert np.array_equal(lam[~kept], ref_lam[~kept])
        else:
            assert np.all(np.abs(lam - ref_lam) <= 2e-15 * ref_lam)
            if beta >= 1.0:
                assert np.all(np.abs(q - ref_q) <= 2e-15)

    def test_port_branches_equal_dbdsqr(self):
        # rows that take dlasv2's rare branches (m = g/f tiny, g huge, g = 0,
        # |h| > |f|) and, at n = 5, entries beyond 2^510 and below 2^-510,
        # whose squares leave the double range
        s = np.array([[1.0, 1e-170, 1e-160], [1e-160, 1e-170, 1.0], [1e-20, 1.0, 1e-25],
                      [1.0, 0.0, 2.0], [2.0, 0.0, 1.0], [0.5, 1.0, 2.0], [3.0, 1e300, 1e-300]])
        (lam, vt), (ref_lam, ref_vt) = _small_rows(s), _dbdsqr_rows(s)
        assert np.array_equal(lam, ref_lam) and np.array_equal(np.abs(vt), np.abs(ref_vt))
        for scale in (2.0 ** 600, 2.0 ** -600):
            s = np.array([[1.3, 0.7, 0.4, 0.2], [0.9, 1.7, 0.3, 2.5]]) * scale
            (lam, vt), (ref_lam, ref_vt) = _small_rows(s), _dbdsqr_rows(s)
            assert np.all(np.abs(lam - ref_lam) <= 5e-16 * ref_lam)
            assert np.all(np.abs(np.abs(vt) - np.abs(ref_vt)) <= 5e-16)
        # n = 5 rows whose reduced R = [[f, g], [0, h]] takes each of those
        # branches: |h| > |f|, g huge, g = 0 (e_1 = 0), and m = g/f tiny
        # with and without the swap
        s = np.array([[1.0, 1.0, 3.0, 2.0], [1.0, 1e20, 1.0, 1e-30], [1.0, 0.0, 2.0, 3.0],
                      [1.0, 1e-170, 1.0, 1.0], [2.0, 1e-170, 1.0, 1.0]])
        (lam, vt), (_, ref_vt) = _small_rows(s), _dbdsqr_rows(s)
        ref = np.array([_order3_oracle(row) for row in s])
        assert np.all(np.abs(lam - ref) <= 1e-15 * ref)
        assert np.all(np.abs(np.abs(vt) - np.abs(ref_vt)) <= 5e-16)
        # rows that leave R without a pivot (R_11 = 0, w = 0) take dbdsqr
        s = np.array([[0.0, 0.0, 2.0, 3.0], [1.0, 2.0, 0.0, 0.0]])
        for got, ref in zip(_small_rows(s), _dbdsqr_rows(s)):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("found", ["no-file", "not-an-extension"])
    def test_dbdsqr_loads_alike_by_path_and_by_package(self, monkeypatch, tmp_path, found):
        # cython_lapack loaded by file path and through scipy.linalg (the
        # fallback when no file is found or it does not load) give the same
        # dbdsqr, and so the same bits
        def load():
            pointer = spectral._capsule_pointer(spectral._cython_lapack().__pyx_capi__["dbdsqr"])
            spectral._dbdsqr.cache_clear()
            rows = _dbdsqr_rows(s)
            return pointer, ctypes.cast(spectral._dbdsqr(), ctypes.c_void_p).value, rows

        s = antisym_tridiagonal_batch(12, 0.5, RandomStream(12), 500)[:, ::-1]
        assert spectral._cython_lapack_file() is not None
        by_path = load()
        bogus = tmp_path / "cython_lapack.so"
        bogus.write_bytes(b"")
        monkeypatch.setattr(spectral, "_cython_lapack_file",
                            lambda: None if found == "no-file" else str(bogus))
        try:
            by_package = load()
        finally:
            spectral._dbdsqr.cache_clear()
        assert by_path[0] == by_path[1] == by_package[0] == by_package[1]
        for got, ref in zip(by_package[2], by_path[2]):
            assert np.array_equal(got, ref)

    def test_wide_n5_rows_take_dbdsqr(self):
        # the n = 5 reduction's entries are ratios of entries, so on rows
        # whose nonzero entries span more than 1/SAFMIN one of them can
        # underflow; those rows take dbdsqr
        s = np.array([[7.2e-208, 1.1e-154, 1.06e171, 8.5e-148]])
        lam = positive_spectrum_batch(s[:, ::-1])
        assert np.array_equal(lam, _dbdsqr_rows(s)[0])
        assert np.all(np.abs(lam - _order3_oracle(s[0])) <= 1e-15 * lam)
        s = 10.0 ** np.random.default_rng(0).uniform(-300, 300, (20000, 4))
        lam, ref = positive_spectrum_batch(s[:, ::-1]), _dbdsqr_rows(s)[0]
        pos = (ref > 0).all(axis=1)
        assert pos.mean() > 0.9
        assert np.all(np.abs(lam - ref)[pos] <= 1e-10 * ref[pos])

    def test_tiny_n5_rows_stay_on_port(self):
        # dbdsqr's absolute threshold (about 6 N^2 SAFMIN) deflates entries
        # near 1e-307 wrongly; the dlasv2 step resolves them to a few ulps
        s = 1e-307 * np.random.default_rng(3).uniform(0.5, 2.0, (5, 4))
        lam = positive_spectrum_batch(s[:, ::-1])
        ref = np.array([_order3_oracle(row) for row in s])
        assert np.all(np.abs(lam - ref) <= 1e-15 * ref)
        assert np.any(np.abs(_dbdsqr_rows(s)[0] - ref) > 1e-3 * ref)

    def test_port_keeps_small_q_positive(self):
        # dbdsqr deflates a negligible superdiagonal and leaves its q at
        # exactly 0 on about 5% of the n = 4 rows and 5-22% of the n = 5
        # rows; dlasv2 resolves every one.  At beta = 0.02 a few b underflow
        # to 0 (13 of these rows), which the check of b rejects
        for n, beta, stream in [(4, 0.05, RandomStream(4).split(5)),
                                (5, 0.02, RandomStream(5).split(7)),
                                (5, 0.05, RandomStream(5).split(7))]:
            b = antisym_tridiagonal_batch(n, beta, stream, 20000)
            assert np.any(_dbdsqr_rows(b[:, ::-1])[1] == 0)
            assert np.all(_bidiagonal_svd(b)[1] > 0)
            spectral_rows(b[(b > 0).all(axis=1)])

    @pytest.mark.parametrize("m", range(7))
    def test_no_rows(self, m):
        lam, q, z = _bidiagonal_svd(np.ones((0, m)))
        assert lam.shape == q.shape == (0, (m + 1) // 2) and z.shape == (0,)

    def test_order_one(self):
        lam, q, z = _bidiagonal_svd(np.ones((3, 0)))
        assert lam.shape == q.shape == (3, 0) and np.array_equal(z, np.ones(3))

    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 0.5), (12, 0.25), (41, 1.0)])
    def test_batch_rows_equal_scalar(self, n, beta):
        b = antisym_tridiagonal_batch(n, beta, RandomStream(3), 64)
        lam, top = positive_spectrum_batch(b), _first_component_sq_batch(b)
        for i in range(b.shape[0]):
            sd = positive_spectrum(AntisymTridiagonal(b[i]))
            assert np.array_equal(lam[i], sd.lam)
            assert top[i] == 2.0 * sd.q[0] ** 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12, 13])
    def test_batch_entry_points_equal_full_svd(self, n):
        # the entry points skip z; what they return is _bidiagonal_svd's
        b = antisym_tridiagonal_batch(n, 0.5, RandomStream(4), 200)
        b[7, -1] = np.nan
        lam, q, _ = _bidiagonal_svd(b)
        np.testing.assert_array_equal(positive_spectrum_batch(b), lam)
        np.testing.assert_array_equal(_first_component_sq_batch(b), 2.0 * q[:, 0] ** 2)
        assert np.isnan(lam[7]).all() and np.isfinite(np.delete(lam, 7, axis=0)).all()

    @pytest.mark.parametrize("n", [11, 13, 41])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_one_row_z_equals_batch_row_z(self, n, beta):
        # the log of a reversed view once took numpy's strided loop for one
        # row and its contiguous loop for many, and z moved by an ulp
        b = antisym_tridiagonal_batch(n, beta, RandomStream(3), 1000)
        lam, q, z = _bidiagonal_svd(b)
        for i in range(b.shape[0]):
            one = _bidiagonal_svd(b[i:i + 1])
            assert np.array_equal(one[0][0], lam[i]) and np.array_equal(one[1][0], q[i])
            assert one[2][0] == z[i]

    @pytest.mark.parametrize("n,beta", [(12, 0.05), (13, 0.05), (7, 2.0)])
    def test_spectral_rows_raises_as_first_bad_row(self, n, beta):
        # the batch checks raise what positive_spectrum raises on the first
        # row it rejects, and return the batch core's output otherwise
        b = antisym_tridiagonal_batch(n, beta, RandomStream(n).split(4), 200)
        for lo in range(0, 200, 40):
            rows = b[lo:lo + 40]
            expected = None
            for row in rows:
                try:
                    positive_spectrum(AntisymTridiagonal(row))
                except ValueError as exc:
                    expected = exc
                    break
            if expected is None:
                got = spectral_rows(rows)
                for a, ref in zip(got, _bidiagonal_svd(rows)):
                    assert np.array_equal(a, ref, equal_nan=True)
            else:
                with pytest.raises(type(expected), match=str(expected)):
                    spectral_rows(rows)

    def test_spectral_rows_rejects_nonpositive_b(self):
        b = np.ones((3, 4))
        b[1, 2] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            spectral_rows(b)

    @pytest.mark.parametrize("row,cls,msg", [
        ([1.0, 0.0, 2.0], ValueError, "reduced form requires strictly positive off-diagonals"),
        ([1.0, np.inf, 2.0], ValueError, "off-diagonal sequence must be finite"),
        # two lambda round to a tie
        ([1.0, 1e-170, 1.0], DegeneracyError, "computed positive eigenvalues are not distinct"),
        # z underflows to 0
        ([1e-200, 1e200], ValueError, "odd order requires a positive null-vector component z"),
        # a draw of test_no_degeneracy_error whose q dbdsqr deflates to 0
        (None, ValueError, "first components must be positive"),
    ])
    def test_one_check_order(self, row, cls, msg):
        # the batch check, the scalar path and, for the output checks,
        # SpectralData raise the same class and message
        b = np.array(row) if row is not None else \
            antisym_tridiagonal_batch(12, 0.05, RandomStream(12).split(1), 200)[0]
        calls = [lambda: spectral_rows(b[None, :]),
                 lambda: positive_spectrum(AntisymTridiagonal(b))]
        if np.all((b > 0) & np.isfinite(b)):
            lam, q, z = _bidiagonal_svd(b[None, :])
            calls.append(lambda: SpectralData(b.size + 1, lam[0], q[0],
                                              float(z[0]) if b.size % 2 == 0 else None))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is cls and str(exc.value) == msg

    def test_spectral_rows_raise_for_the_first_failing_row(self):
        # a tie and a zero off-diagonal in one batch: whichever row comes
        # first raises, and a row's own off-diagonal check precedes its tie
        tie, zero = [1.0, 1e-170, 1.0], [1.0, 0.0, 2.0]
        with pytest.raises(DegeneracyError):
            spectral_rows(np.array([tie, zero]))
        with pytest.raises(ValueError, match="strictly positive"):
            spectral_rows(np.array([zero, tie]))
        with pytest.raises(ValueError, match="strictly positive"):
            spectral_rows(np.array([[1.0, 0.0, 1.0]]))  # tied and a zero b

    def test_redraw_ties_returns_the_tied_rows(self):
        # the rows verify redraws: a tie alone comes back False; a tie whose
        # off-diagonals fail, and any other failure, still raise
        b = np.array([[1.0, 1e-170, 1.0], [1.0, 2.0, 3.0]])
        lam, q, _ = _bidiagonal_svd(b)
        assert list(_check_rows(lam, q, b=b, redraw_ties=True)) == [False, True]
        b = np.array([[1.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
        lam, q, _ = _bidiagonal_svd(b)
        with pytest.raises(ValueError, match="strictly positive"):
            _check_rows(lam, q, b=b, redraw_ties=True)
        q[1, 0] = 0.0
        with pytest.raises(ValueError, match="first components"):
            _check_rows(lam, q, redraw_ties=True)

    @pytest.mark.parametrize("bad", [[2.0, 0.0], [1.0, 1.0], [1.0, 2.0], [2.0, -1.0],
                                     [np.nan, 1.0], [2.0, np.nan], [np.inf, 1.0]])
    def test_require_distinct_raises_the_degeneracy_error(self, bad):
        # the lambda and sigma tables of `sample` take the spectral map's
        # tie check and message alone: a zero, tied, unordered or non-finite
        # row raises
        good = np.array([[3.0, 1.0], [2.0, 1e-300]])
        assert _check_rows(good).all()
        msg = "^computed positive eigenvalues are not distinct$"
        with pytest.raises(DegeneracyError, match=msg):
            _check_rows(np.vstack([good, bad]))

    @pytest.mark.parametrize("n", [12, 40, 200])
    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0])
    def test_no_degeneracy_error(self, n, beta):
        # SpectralData still rejects a q that dbdsqr deflated to exactly 0
        # (about 12-16% of draws at beta = 0.05, 0-0.2% at 0.25; the dlasv2
        # step that solves n <= 5 instead deflates nothing); that must be
        # the only failure
        for row in antisym_tridiagonal_batch(n, beta, RandomStream(n).split(1), 200):
            try:
                positive_spectrum(AntisymTridiagonal(row))
            except DegeneracyError:
                raise
            except ValueError:
                assert np.any(_bidiagonal_svd(row[None, :])[1] == 0)

    @pytest.mark.parametrize("n", [13, 41])
    def test_odd_z_positive_at_small_beta(self, n):
        # a z read off dbdsqr's zero singular vector came back as 0 here
        z = _bidiagonal_svd(antisym_tridiagonal_batch(n, 0.05, RandomStream(n).split(2), 200))[2]
        assert np.all(np.isfinite(z)) and np.all(z > 0)

    def test_even_z_is_nan(self):
        assert np.all(np.isnan(_bidiagonal_svd(np.ones((3, 5)))[2]))

    def test_nonfinite_batch_rows_are_nan(self):
        out = _run_guarded(
            "import numpy as np\n"
            "from skewbeta.spectral import _bidiagonal_svd\n"
            "b = np.array([[1.0, np.inf, 2.0, 3.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],"
            " [1.0, 2.0, np.nan, 4.0, 1.0, 1.0], [-np.inf, 1.0, 1.0, 1.0, 1.0, 1.0]])\n"
            "lam, q, z = _bidiagonal_svd(b)\n"
            "one = _bidiagonal_svd(b[1:2])\n"
            "bad = [0, 2, 3]\n"
            "print(np.isnan(lam[bad]).all() and np.isnan(q[bad]).all() and np.isnan(z[bad]).all(),"
            " np.array_equal(lam[1], one[0][0]) and np.array_equal(q[1], one[1][0]))\n")
        assert out == "True True"

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_nonfinite_ported_rows_are_nan(self, m):
        b = np.arange(1.0, 4.0 * m + 1.0).reshape(4, m)
        b[0, -1], b[2, 0], b[3, m // 2] = np.inf, np.nan, -np.inf
        with np.errstate(all="raise"):
            lam, q, z = _bidiagonal_svd(b)
        bad = [0, 2, 3]
        assert np.isnan(lam[bad]).all() and np.isnan(q[bad]).all() and np.isnan(z[bad]).all()
        assert np.isfinite(lam[1]).all() and np.isfinite(q[1]).all()
        assert np.array_equal(lam[1], _bidiagonal_svd(b[1:2])[0][0])

    def test_nonfinite_scalar_raises(self):
        out = _run_guarded(
            "from skewbeta.ensembles import AntisymTridiagonal\n"
            "from skewbeta.spectral import positive_spectrum\n"
            "try:\n"
            "    positive_spectrum(AntisymTridiagonal([1.0, float('inf'), 2.0]))\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__)\n")
        assert out == "ValueError"


def _one_row(t):
    """``(b, lam, q, z)`` of one matrix, one row each."""
    return (t.b[None, :],) + spectral_rows(t.b[None, :])


class TestResidualChecks:
    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 2.0), (6, 1.0), (9, 4.0)])
    def test_secular(self, n, beta):
        rows = _one_row(build_antisym_tridiagonal(n, beta, RandomStream(30 + n)))
        x = _secular_points(*rows, np.random.default_rng(0))
        assert _secular_residual_rows(*rows, x)[0] < 1e-9

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_secular_matches_pointwise(self, n):
        # the same residual as one point at a time, at the same points
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(60 + n))
        sd = positive_spectrum(t)
        rows = _one_row(t)
        x = _secular_points(*rows, np.random.default_rng(n), points=25)[0]
        got = _secular_residual_rows(*rows, x[None, :])[0]
        mu = np.r_[sd.lam, -sd.lam, [0.0] * (n % 2)]
        c = np.r_[sd.q, sd.q, [sd.z] * (n % 2)] ** 2
        worst = 0.0
        for v in x.tolist():
            signs, logmags = charpoly_sequence(t, v)
            lhs = signs[n - 1] * signs[n] * np.exp(logmags[n - 1] - logmags[n])
            rhs = float(np.sum(c / (v - mu)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        assert got == worst
        # one uniform draw for every point, and only the points within
        # 1e-3 lam_max of the spectrum redrawn
        span = 2.0 * sd.lam[0]
        first = np.random.default_rng(n).uniform(-span, span, 25)
        far = np.min(np.abs(first[:, None] - mu), axis=1) >= 1e-3 * sd.lam[0]
        assert np.array_equal(x[far], first[far]) and not np.any(x[~far] == first[~far])
        assert np.all(np.min(np.abs(x[:, None] - mu), axis=1) >= 1e-3 * sd.lam[0])
        assert np.all(np.abs(x) <= span)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_moment_equations(self, n):
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(50 + n))
        res = _moment_residual_rows(*_one_row(t))[0]
        scale = max(1.0, float(np.max(t.b)) ** 4)
        assert res.shape == (3,) and np.all(res < 1e-10 * scale)
