"""Characteristic polynomials, the spectrum/first-component decomposition of a
reduced-form anti-symmetric tridiagonal matrix, and its inverse.

The decomposition maps ``T`` to ``(lambda, q[, z])`` where ``lambda`` are the
positive eigenvalues of ``i*T`` in descending order, ``q`` the positive first
components of the corresponding eigenvectors and ``z`` (n odd) the first
component of the null vector, normalized so that
``2*sum(q**2) (+ z**2) = 1``.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack

from .ensembles import AntisymTridiagonal


class DegeneracyError(ValueError):
    """Computed positive eigenvalues that tie in floating point."""


class ConditioningError(ValueError):
    """Loss of positivity while reconstructing a tridiagonal matrix."""


class ConvergenceError(np.linalg.LinAlgError):
    """LAPACK's bidiagonal QR iteration did not converge."""


@dataclass(frozen=True)
class SpectralData:
    """Positive spectrum and positive first eigenvector components."""

    n: int
    lam: np.ndarray
    q: np.ndarray
    z: float | None = None

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        k = self.n // 2
        if lam.size != k or q.size != k:
            raise ValueError(f"expected {k} positive eigenvalues/components for n={self.n}")
        if (np.diff(lam) >= 0).any() or (lam <= 0).any():
            raise ValueError("eigenvalues must be strictly decreasing and positive")
        if (q <= 0).any():
            raise ValueError("first components must be positive")
        if self.n % 2 == 1 and (self.z is None or self.z <= 0):
            raise ValueError("odd order requires a positive null-vector component z")
        if self.n % 2 == 0 and self.z is not None:
            raise ValueError("even order carries no z component")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "q", q)

    def normalization_defect(self) -> float:
        total = 2.0 * np.sum(self.q ** 2)
        if self.z is not None:
            total += self.z ** 2
        return abs(total - 1.0)

    def full_spectrum(self) -> np.ndarray:
        """Eigenvalues of the similar symmetric tridiagonal matrix: (lam, -lam[, 0])."""
        parts = [self.lam, -self.lam]
        if self.n % 2 == 1:
            parts.append(np.zeros(1))
        return np.concatenate(parts)

    def full_weights(self) -> np.ndarray:
        """Squared first components matching :meth:`full_spectrum` order."""
        parts = [self.q ** 2, self.q ** 2]
        if self.n % 2 == 1:
            parts.append(np.array([self.z ** 2]))
        return np.concatenate(parts)

@dataclass(frozen=True)
class CharPolySequence:
    """Values ``P_0(x), ..., P_n(x)`` of the characteristic polynomials of the
    trailing principal submatrices of ``i*T``, in sign/log-magnitude form.

    ``P_0 = 1``, ``P_1 = x`` and ``P_{m+1} = x*P_m - b_m**2 * P_{m-1}`` with
    ``b`` indexed from the bottom corner.  For a scalar ``x`` the arrays have
    shape ``(n+1,)``; for a 1-d array of points, ``(n+1, points)``.
    """

    x: float | np.ndarray
    signs: np.ndarray
    logmags: np.ndarray

    @property
    def n(self) -> int:
        return self.signs.shape[0] - 1

    def value(self, m: int) -> float | np.ndarray:
        """Plain value of ``P_m(x)`` (may overflow to +-inf)."""
        v = _plain(self.signs[m], self.logmags[m])
        return float(v) if v.ndim == 0 else v

    def values(self) -> np.ndarray:
        return _plain(self.signs, self.logmags)

    def log_ratio(self, num: int, den: int) -> tuple[float, float]:
        """Sign and log-magnitude of ``P_num(x) / P_den(x)``."""
        s = self.signs[num] * self.signs[den]
        return s, self.logmags[num] - self.logmags[den]

    def ratio(self, num: int, den: int) -> float:
        s, lm = self.log_ratio(num, den)
        return s * np.exp(lm)


def _plain(signs: np.ndarray, logmags: np.ndarray) -> np.ndarray:
    """``sign * exp(logmag)``, overflowing to +-inf, exactly 0 for a zero sign."""
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is masked
        return np.where(signs == 0, 0.0, signs * np.exp(logmags))


def _charpoly(b: np.ndarray, x: np.ndarray,
              rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled values ``vals`` and log shifts ``shifts`` with
    ``P_m(x) = vals * exp(shifts)`` for each ``m`` in ``rows`` at every point
    of the 1-d array ``x``, both of shape ``(len(rows), x.size)``.

    One pass of the recurrence over all points.  Each point carries its
    scaled pair ``(P_{m-1}, P_m)`` and log-scale ``shift``; a pair whose
    larger magnitude ``mag`` leaves [1e-150, 1e150] is divided by it, so a
    point's shift grows by ``log(mag)`` in the step that rescales it.  Until a
    point first rescales its shifts are 0 and its values are the plain
    recurrence bit for bit.  Working memory is O(n + len(rows) * x.size).
    """
    slot = {m: j for j, m in enumerate(rows)}
    vals = np.empty((len(slot), x.size))
    shifts = np.zeros((len(slot), x.size))
    b2 = b ** 2
    shift = np.zeros(x.size)
    prev, cur = shift + 1.0, x.copy()  # P_0, P_1
    for m in range(max(slot) + 1):
        if m > 1:
            prev, cur = cur, x * cur - b2[m - 2] * prev
            # |prev| <= 1e150 after the previous step (for m = 2, prev = x and
            # |x| > 1e150 makes |cur| large too), so only a large |cur| or a
            # small pair can leave the range; a NaN takes the slow test
            size = np.abs(cur)
            if x.size and not (size.max() <= 1e150 and size.min() >= 1e-150):
                mag = np.maximum(np.abs(prev), size)
                big = (mag > 1e150) | ((0.0 < mag) & (mag < 1e-150))
                prev[big] /= mag[big]
                cur[big] /= mag[big]
                shift[big] += np.log(mag[big])
        j = slot.get(m)
        if j is not None:
            vals[j] = prev if m == 0 else cur
            shifts[j] = shift
    return vals, shifts


def charpoly_sequence(t: AntisymTridiagonal, x: float | np.ndarray) -> CharPolySequence:
    """Evaluate the three-term recurrence in overflow-safe scaled form at a
    scalar ``x`` or at every point of a 1-d array ``x``."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 1:
        raise ValueError("x must be a scalar or a 1-d array of points")
    vals, shifts = _charpoly(t.b, pts.reshape(-1), range(t.n + 1))
    with np.errstate(divide="ignore"):  # log 0 = -inf where P_m vanishes
        signs, logmags = np.sign(vals), np.log(np.abs(vals)) + shifts
    if pts.ndim == 0:
        signs, logmags = signs[:, 0], logmags[:, 0]
    return CharPolySequence(x=x, signs=signs, logmags=logmags)


def _capsule_pointer(capsule) -> int:
    """Address of the C function a ``__pyx_capi__`` capsule holds."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return get_pointer(capsule, get_name(capsule))


# LAPACK dbdsqr(uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc, work,
# info), every argument passed by address
_dbdsqr = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 15)(
    _capsule_pointer(cython_lapack.__pyx_capi__["dbdsqr"]))
_UPLO = ctypes.c_char(b"U")  # B is upper bidiagonal; read-only


def _bidiagonal_svd(b_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positive eigenvalues ``lam`` (descending), first components ``q`` and
    null-vector components ``z`` for a batch of off-diagonal sequences:
    ``(reps, n-1)`` -> ``(reps, n//2)``, ``(reps, n//2)``, ``(reps,)`` (``z``
    is NaN for even n).

    The shuffle conjugates the symmetric counterpart of ``i*T`` to
    ``[[0, B^T], [B, 0]]`` with ``B`` the upper bidiagonal of diagonal
    ``s[0::2]`` and superdiagonal ``s[1::2]``, where ``s = b[::-1]`` is the
    top-down superdiagonal (one 0 appended for odd n, which splits off the
    zero eigenvalue).  So ``lam`` are the singular values of ``B`` and ``q``
    the first entries of its right singular vectors over sqrt(2).  LAPACK's
    ``dbdsqr`` computes the singular values to high relative accuracy
    (implicit zero-shift QR) and the singular vectors to absolute accuracy;
    with ``NCVT=1`` on ``VT = e_1`` it rotates that one row only, O(k^2) time
    and O(k) memory per row.  ``z`` is ``1/|x|`` for the closed-form null
    vector ``x`` (``x_0 = 1``, zero at odd positions,
    ``x_{2j+2} = -x_{2j} s_{2j} / s_{2j+1}``), summed in log space, so it is
    relatively accurate.

    A row with a non-finite entry comes back as NaN, because ``dbdsqr`` never
    returns on one.
    """
    b_batch = np.asarray(b_batch, dtype=float)
    reps, m = b_batch.shape
    k, order = (m + 1) // 2, m // 2 + 1  # positive eigenvalues, order of B
    s = b_batch[:, ::-1]
    # one float buffer: per row B's diagonal, superdiagonal (one slot spare)
    # and VT, which dbdsqr overwrites with the singular values and P^T e_1;
    # then the work array.  One int buffer: n, ncvt, nru, ncc, ldvt, 1, then
    # one info per row.
    buf = np.zeros((3 * reps + 4) * order)
    rows = buf[:3 * reps * order].reshape(reps, 3, order)
    rows[:, 0, :k] = s[:, 0::2]
    rows[:, 1, :order - 1] = s[:, 1::2]
    rows[:, 2, 0] = 1.0
    ints = np.zeros(6 + reps, dtype=np.intc)
    ints[:6] = order, 1, 0, 0, order, 1
    finite = np.isfinite(b_batch).all(axis=1)
    good = np.flatnonzero(finite)
    stride, p_buf, p_int = 8 * order, buf.ctypes.data, ints.ctypes.data
    p_n, p_ncvt, p_nru, p_ncc, p_ldvt, p_one = range(p_int, p_int + 24, 4)
    p_uplo, p_work = ctypes.addressof(_UPLO), p_buf + 3 * reps * stride
    call = _dbdsqr
    for d, info in zip((p_buf + 3 * stride * good).tolist(), (p_int + 24 + 4 * good).tolist()):
        call(p_uplo, p_n, p_ncvt, p_nru, p_ncc, d, d + stride, d + 2 * stride, p_ldvt,
             p_work, p_one, p_work, p_one, p_work, info)
    if ints[6:].any():
        raise ConvergenceError(f"dbdsqr did not converge on {np.count_nonzero(ints[6:])} "
                               f"of {reps} rows")
    lam = rows[:, 0, :k].copy()
    q = np.abs(rows[:, 2, :k]) / math.sqrt(2.0)
    z = np.full(reps, np.nan)
    if m % 2 == 0:
        with np.errstate(divide="ignore", invalid="ignore"):  # non-finite rows
            # log of the contiguous array, then reverse: numpy's strided and
            # contiguous log loops can differ by an ulp, and which one a
            # reversed view takes depends on the number of rows
            log_s = np.log(b_batch)[:, ::-1]
            log_x = np.zeros((reps, k + 1))  # log |x_{2j}|
            np.cumsum(log_s[:, 0::2] - log_s[:, 1::2], axis=1, out=log_x[:, 1:])
            z = np.exp(-0.5 * np.logaddexp.reduce(2.0 * log_x, axis=1))
    if good.size < reps:
        lam[~finite] = q[~finite] = z[~finite] = np.nan
    return lam, q, z


def spectral_rows(b_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lam``, ``q`` and ``z`` of every row of ``b_batch`` as
    :func:`_bidiagonal_svd` returns them, with the checks of
    :class:`~skewbeta.ensembles.AntisymTridiagonal`, :func:`positive_spectrum`
    and :class:`SpectralData` applied to each row.  The first failing row
    raises what the one-row path raises for it: ``ValueError`` for an
    off-diagonal that is not positive or not finite, :class:`DegeneracyError`
    for tied (or zero) eigenvalues, ``ValueError`` for a first component
    ``q <= 0`` or, at odd n, a null-vector component ``z <= 0``."""
    b_batch = np.asarray(b_batch, dtype=float)
    lam, q, z = _bidiagonal_svd(b_batch)
    # whole-batch test first (a non-finite row has NaN lam and fails it);
    # only a batch that fails it is scanned for its first bad row
    if ((b_batch > 0).all() and (lam[:, -1:] > 0).all() and (lam[:, 1:] < lam[:, :-1]).all()
            and (q > 0).all() and not (z <= 0).any()):
        return lam, q, z
    checks = (
        (~(b_batch > 0).all(axis=1), ValueError,
         "reduced form requires strictly positive off-diagonals"),
        (~np.isfinite(b_batch).all(axis=1), ValueError,
         "off-diagonal sequence must be finite"),
        ((lam[:, -1:] <= 0).any(axis=1) | (lam[:, 1:] >= lam[:, :-1]).any(axis=1),
         DegeneracyError, "computed positive eigenvalues are not distinct"),
        ((q <= 0).any(axis=1), ValueError, "first components must be positive"),
        (z <= 0, ValueError,  # z is NaN, so never <= 0, at even n
         "odd order requires a positive null-vector component z"),
    )
    bad = np.flatnonzero(np.any([fails for fails, _, _ in checks], axis=0))
    if bad.size:
        raise next(cls(msg) for fails, cls, msg in checks if fails[bad[0]])
    return lam, q, z


def positive_spectrum(t: AntisymTridiagonal) -> SpectralData:
    """Decompose ``T`` into ``(lambda, q[, z])``: the one-row case of
    :func:`spectral_rows`.  Raises :class:`DegeneracyError` only when two
    computed eigenvalues tie in floating point (or one is 0)."""
    lam, q, z = (a[0] for a in spectral_rows(t.b[None, :]))
    return SpectralData(n=t.n, lam=lam, q=q, z=float(z) if t.n % 2 else None)


def positive_spectrum_batch(b_batch: np.ndarray) -> np.ndarray:
    """Positive eigenvalues (descending) for a batch of off-diagonal
    sequences, shape ``(reps, n-1)`` -> ``(reps, n//2)``."""
    return _bidiagonal_svd(b_batch)[0]


def _first_component_sq_batch(b_batch: np.ndarray) -> np.ndarray:
    """``2 q_1^2`` (squared top first-eigenvector component, doubled) for a
    batch of off-diagonal sequences."""
    return 2.0 * _bidiagonal_svd(b_batch)[1][:, 0] ** 2


def reconstruct_tridiagonal(sd: SpectralData) -> AntisymTridiagonal:
    """Inverse map: Lanczos on the diagonal matrix of the full spectrum with
    the first-component weights as starting vector.

    The produced symmetric tridiagonal has zero diagonal; its off-diagonals
    are the ``b`` sequence of the unique reduced-form matrix.
    """
    if sd.normalization_defect() > 1e-8:
        raise ValueError("spectral data violates the normalization invariant")
    d = sd.full_spectrum()
    w = np.sqrt(sd.full_weights())
    n = sd.n
    v = w / np.linalg.norm(w)
    basis = [v]
    b_top_down = []
    prev = np.zeros_like(v)
    beta = 0.0
    for j in range(n - 1):
        u = d * basis[-1] - beta * prev
        # the diagonal of the target matrix is identically zero, so no alpha term;
        # still project out the full basis for numerical stability
        for vec in basis:
            u -= (vec @ u) * vec
        for vec in basis:
            u -= (vec @ u) * vec
        beta = np.linalg.norm(u)
        if not beta > 0:
            raise ConditioningError(f"Lanczos breakdown at step {j}")
        prev = basis[-1]
        basis.append(u / beta)
        b_top_down.append(beta)
    return AntisymTridiagonal(np.asarray(b_top_down)[::-1])


def secular_check(t: AntisymTridiagonal, sd: SpectralData | None = None,
                  rng: np.random.Generator | None = None, points: int = 10) -> float:
    """Max relative residual of ``P_{n-1}(x)/P_n(x) = sum_i c_i/(x - mu_i)``
    at random real evaluation points away from the spectrum.

    Points are drawn one at a time from ``rng``, rejecting any within
    ``1e-3 * lam_max`` of the spectrum, and then evaluated together."""
    if sd is None:
        sd = positive_spectrum(t)
    if rng is None:
        rng = np.random.default_rng(0)
    n = t.n
    lam_max = sd.lam[0]
    mu = sd.full_spectrum()
    xs = []
    while len(xs) < points:
        x = float(rng.uniform(-2.0 * lam_max, 2.0 * lam_max))
        if np.min(np.abs(x - mu)) < 1e-3 * lam_max:
            continue
        xs.append(x)
    xs = np.array(xs)
    vals, shifts = _charpoly(t.b, xs, (n - 1, n))
    signs, logmags = np.sign(vals), np.log(np.abs(vals)) + shifts
    lhs = signs[0] * signs[1] * np.exp(logmags[0] - logmags[1])
    rhs = np.sum(sd.full_weights() / (xs[:, None] - mu), axis=1)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    return float(np.max(rel, initial=0.0))


def moment_equations_check(t: AntisymTridiagonal, sd: SpectralData) -> np.ndarray:
    """Residuals of the first three moment identities relating ``b`` to
    ``(lambda, q)``:

    ``1 = sum 2q^2 (+ z^2)``,
    ``b_{n-1}^2 = sum 2q^2 lam^2``,
    ``b_{n-1}^4 + b_{n-1}^2 b_{n-2}^2 = sum 2q^2 lam^4``.
    """
    b = t.b
    q2 = 2.0 * sd.q ** 2
    res = np.empty(3)
    total = np.sum(q2) + (sd.z ** 2 if sd.z is not None else 0.0)
    res[0] = abs(1.0 - total)
    bn1 = b[-1] ** 2
    res[1] = abs(bn1 - np.sum(q2 * sd.lam ** 2))
    lhs3 = bn1 ** 2 + (bn1 * b[-2] ** 2 if b.size >= 2 else 0.0)
    res[2] = abs(lhs3 - np.sum(q2 * sd.lam ** 4))
    return res
