"""Tests for the spectrum/first-component decomposition and its inverse."""

import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import skewbeta
from skewbeta.ensembles import (AntisymTridiagonal, antisym_tridiagonal_batch,
                                build_antisym_tridiagonal)
from skewbeta.spectral import (CharPolySequence, DegeneracyError, SpectralData,
                               _bidiagonal_svd, _first_component_sq_batch,
                               charpoly_sequence, moment_equations_check,
                               positive_spectrum, positive_spectrum_batch,
                               reconstruct_tridiagonal,
                               secular_check, spectral_rows)
from skewbeta.streams import RandomStream
from skewbeta.verify import _draw_with_spectrum


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

    def test_full_spectrum_odd(self):
        sd = SpectralData(3, [1.5], [0.4], z=np.sqrt(1.0 - 2 * 0.16))
        assert np.array_equal(sd.full_spectrum(), [1.5, -1.5, 0.0])


class TestCharpolySequence:
    def test_matches_direct_recurrence(self):
        # P_0 = 1, P_1 = x, P_{m+1} = x P_m - b_m^2 P_{m-1} (bottom-up b)
        b = np.array([0.8, 1.3, 0.6])
        t = AntisymTridiagonal(b)
        x = 1.7
        p = [1.0, x]
        for m in range(1, 4):
            p.append(x * p[-1] - b[m - 1] ** 2 * p[-2])
        cp = charpoly_sequence(t, x)
        assert np.allclose(cp.values(), p, rtol=1e-13)

    def test_top_value_is_char_poly(self):
        t = AntisymTridiagonal([1.0, 2.0, 0.5, 1.5])
        x = 0.9
        d, e = t.symmetric_counterpart()
        sym = np.diag(e, 1) + np.diag(e, -1)
        expected = np.linalg.det(x * np.eye(t.n) - sym)
        assert charpoly_sequence(t, x).value(t.n) == pytest.approx(expected, rel=1e-10)

    def test_large_order_no_overflow(self):
        b = np.full(400, 3.0)
        cp = charpoly_sequence(AntisymTridiagonal(b), 7.0)
        assert np.isfinite(cp.logmags[-1])

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
            cp = charpoly_sequence(AntisymTridiagonal(b), x)
            signs, logmags = _loop_sequence(b, x)
            assert np.array_equal(cp.signs, signs)
            assert np.array_equal(cp.logmags, logmags)

    @pytest.mark.parametrize("b,xs", [
        (build_antisym_tridiagonal(12, 2.0, RandomStream(3)).b,
         [0.0, -2.5, 0.9, 6.0, -0.0, -1e-3]),
        (MIXED_B, MIXED_QUIET + MIXED_LOUD),
    ])
    def test_points_match_scalar(self, b, xs):
        t = AntisymTridiagonal(b)
        many = charpoly_sequence(t, np.array(xs))
        assert many.signs.shape == many.logmags.shape == (t.n + 1, len(xs))
        for j, x in enumerate(xs):
            one = charpoly_sequence(t, x)
            assert np.array_equal(many.signs[:, j], one.signs)
            assert np.array_equal(many.logmags[:, j], one.logmags)

    def test_mixed_rescaling(self):
        # the n = 400 case really has points that rescale and points that do not
        cp = charpoly_sequence(AntisymTridiagonal(MIXED_B), np.array(MIXED_QUIET + MIXED_LOUD))
        top = np.max(np.abs(np.where(np.isfinite(cp.logmags), cp.logmags, 0.0)), axis=0)
        quiet = len(MIXED_QUIET)
        assert np.all(top[:quiet] < np.log(1e150))
        assert np.all(top[quiet:] > np.log(1e150))
        assert np.all(np.isfinite(cp.logmags[-1]))

    def test_scalar_shapes(self):
        t = AntisymTridiagonal([1.0, 2.0, 0.5, 1.5])
        cp = charpoly_sequence(t, 0.9)
        assert cp.x == 0.9 and cp.n == t.n
        assert cp.signs.shape == cp.logmags.shape == cp.values().shape == (t.n + 1,)
        assert all(type(cp.value(m)) is float for m in range(t.n + 1))
        many = charpoly_sequence(t, np.array([0.9, -0.2]))
        assert many.n == t.n and many.values().shape == (t.n + 1, 2)
        assert many.value(t.n).shape == (2,)
        with pytest.raises(ValueError):
            charpoly_sequence(t, np.ones((2, 2)))

    def test_values_overflow_and_zero(self):
        # P_m is odd in x for odd m, so P_m(0) = 0 exactly; at x = +-20 the
        # top values (about 19.5**401) overflow a double with the sign of x**m
        t = AntisymTridiagonal(np.full(400, 3.0))
        cp = charpoly_sequence(t, np.array([20.0, -20.0, 0.0]))
        vals = cp.values()
        assert vals[-1, 0] == np.inf and vals[-1, 1] == -np.inf
        assert np.all(vals[1::2, 2] == 0.0) and not np.any(np.signbit(vals[1::2, 2]))
        with np.errstate(over="ignore"):
            loop = np.array([[0.0 if s == 0 else s * np.exp(lm)
                              for s, lm in zip(srow, lrow)]
                             for srow, lrow in zip(cp.signs, cp.logmags)])
        assert np.array_equal(vals, loop)
        assert np.array_equal(cp.value(t.n), vals[-1])
        # a zero sign means 0 whatever the log-magnitude holds
        odd = CharPolySequence(x=0.0, signs=np.array([1.0, -0.0]),
                               logmags=np.array([0.0, np.inf]))
        assert np.array_equal(odd.values(), [1.0, 0.0]) and odd.value(1) == 0.0
        assert not np.signbit(odd.value(1))


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
            d, e = t.symmetric_counterpart()
            vals, vecs = eigh_tridiagonal(d, e)
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
    @pytest.mark.parametrize("n", [12, 13, 40, 41])
    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0, 2.0])
    def test_mpmath_oracle_unfiltered(self, n, beta):
        # every draw, none filtered.  lam is relatively accurate (worst
        # 9.8e-15 on 800 draws scanned over these sizes and beta 0.05-2).
        # dbdsqr's rotations make q only absolutely accurate (worst 1.7e-13;
        # a deflated component comes back as exactly 0, true values below
        # 2.3e-17), so q's bound is 1e-10 relative plus 1e-12 absolute.  z is
        # the closed-form null vector, relatively accurate (worst 1.9e-14).
        stream = RandomStream(n).split(int(100 * beta))
        for i in range(4):
            b = build_antisym_tridiagonal(n, beta, stream.split(i)).b
            lam, q, z = (a[0] for a in _bidiagonal_svd(b[None, :]))
            ref_lam, ref_q, ref_z = _oracle_spectrum(b, lam)
            assert np.all(np.abs(lam - ref_lam) <= 1e-14 * ref_lam)
            assert np.all(np.abs(q - ref_q) <= 1e-10 * ref_q + 1e-12)
            if n % 2:
                assert abs(z - ref_z) <= 1e-13 * ref_z

    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 0.5), (12, 0.25), (41, 1.0)])
    def test_batch_rows_equal_scalar(self, n, beta):
        b = antisym_tridiagonal_batch(n, beta, RandomStream(3), 64)
        lam, top = positive_spectrum_batch(b), _first_component_sq_batch(b)
        for i in range(b.shape[0]):
            sd = positive_spectrum(AntisymTridiagonal(b[i]))
            assert np.array_equal(lam[i], sd.lam)
            assert top[i] == 2.0 * sd.q[0] ** 2

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

    @pytest.mark.parametrize("n", [12, 40, 200])
    @pytest.mark.parametrize("beta", [0.05, 0.25, 1.0])
    def test_no_degeneracy_error(self, n, beta):
        # SpectralData still rejects a q that dbdsqr deflated to exactly 0
        # (about 12-16% of draws at beta = 0.05, 0-0.2% at 0.25); that must
        # be the only failure
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
            "b = np.array([[1.0, np.inf, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0],"
            " [1.0, 2.0, np.nan, 4.0], [-np.inf, 1.0, 1.0, 1.0]])\n"
            "lam, q, z = _bidiagonal_svd(b)\n"
            "one = _bidiagonal_svd(b[1:2])\n"
            "bad = [0, 2, 3]\n"
            "print(np.isnan(lam[bad]).all() and np.isnan(q[bad]).all() and np.isnan(z[bad]).all(),"
            " np.array_equal(lam[1], one[0][0]) and np.array_equal(q[1], one[1][0]))\n")
        assert out == "True True"

    def test_nonfinite_scalar_raises(self):
        out = _run_guarded(
            "from skewbeta.ensembles import AntisymTridiagonal\n"
            "from skewbeta.spectral import positive_spectrum\n"
            "try:\n"
            "    positive_spectrum(AntisymTridiagonal([1.0, float('inf'), 2.0]))\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__)\n")
        assert out == "ValueError"


class TestResidualChecks:
    @pytest.mark.parametrize("n,beta", [(2, 2.0), (3, 2.0), (6, 1.0), (9, 4.0)])
    def test_secular(self, n, beta):
        t = build_antisym_tridiagonal(n, beta, RandomStream(30 + n))
        assert secular_check(t) < 1e-9

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_secular_matches_pointwise(self, n):
        # same rng draws in the same order, same residual as one point at a time
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(60 + n))
        sd = positive_spectrum(t)
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = secular_check(t, sd, rng, points=25)
        mu, c = sd.full_spectrum(), sd.full_weights()
        worst, drawn = 0.0, 0
        while drawn < 25:
            x = float(ref_rng.uniform(-2.0 * sd.lam[0], 2.0 * sd.lam[0]))
            if np.min(np.abs(x - mu)) < 1e-3 * sd.lam[0]:
                continue
            drawn += 1
            lhs = charpoly_sequence(t, x).ratio(n - 1, n)
            rhs = float(np.sum(c / (x - mu)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        assert got == worst
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_moment_equations(self, n):
        t = build_antisym_tridiagonal(n, 2.0, RandomStream(50 + n))
        sd = positive_spectrum(t)
        res = moment_equations_check(t, sd)
        scale = max(1.0, float(np.max(t.b)) ** 4)
        assert np.all(res < 1e-10 * scale)
