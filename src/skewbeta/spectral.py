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
import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .ensembles import AntisymTridiagonal, _off_diagonal_error, _strictly_descending_positive


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
        z = None if self.n % 2 == 0 else np.array([np.nan if self.z is None else self.z])
        _check_rows(lam[None, :], q[None, :], z)
        if self.n % 2 == 0 and self.z is not None:
            raise ValueError("even order carries no z component")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "q", q)

    def normalization_defect(self) -> float:
        total = 2.0 * np.sum(self.q ** 2)
        if self.z is not None:
            total += self.z ** 2
        return abs(total - 1.0)


def _charpoly(b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled values ``vals`` and log shifts ``shifts`` with
    ``P_m(x) = vals[m] * exp(shifts[m])``, m = 0..n, at every point of the
    1-d array ``x``, both of shape ``(n+1, x.size)``.  ``b`` is one
    off-diagonal sequence, shape ``(n-1,)``, or one per point,
    ``(x.size, n-1)``.

    ``P_0 = 1``, ``P_1 = x`` and ``P_{m+1} = x*P_m - b_m**2 * P_{m-1}`` with
    ``b`` indexed from the bottom corner: the characteristic polynomials of
    the trailing principal submatrices of ``i*T``.  One pass of the
    recurrence over all points.  Each point carries its scaled pair
    ``(P_{m-1}, P_m)`` and log-scale ``shift``; a pair whose larger
    magnitude ``mag`` leaves [1e-150, 1e150] is divided by it, so a point's
    shift grows by ``log(mag)`` in the step that rescales it.  Until a point
    first rescales its shifts are 0 and its values are the plain recurrence
    bit for bit.
    """
    n = b.shape[-1] + 1
    vals = np.empty((n + 1, x.size))
    shifts = np.zeros((n + 1, x.size))
    b2 = b ** 2
    shift = np.zeros(x.size)
    prev, cur = shift + 1.0, x.copy()  # P_0, P_1
    for m in range(n + 1):
        if m > 1:
            prev, cur = cur, x * cur - b2[..., m - 2] * prev
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
        vals[m] = prev if m == 0 else cur
        shifts[m] = shift
    return vals, shifts


def charpoly_sequence(t: AntisymTridiagonal,
                      x: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signs and log-magnitudes of ``P_0(x), ..., P_n(x)`` (see
    :func:`_charpoly`), overflow-safe, at a scalar ``x`` (shape ``(n+1,)``
    each) or at every point of a 1-d array ``x`` (``(n+1, x.size)``); a
    zero ``P_m`` has sign 0 and log-magnitude -inf."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 1:
        raise ValueError("x must be a scalar or a 1-d array of points")
    vals, shifts = _charpoly(t.b, pts.reshape(-1))
    with np.errstate(divide="ignore"):  # log 0 = -inf where P_m vanishes
        signs, logmags = np.sign(vals), np.log(np.abs(vals)) + shifts
    if pts.ndim == 0:
        return signs[:, 0], logmags[:, 0]
    return signs, logmags


def _capsule_pointer(capsule) -> int:
    """Address of the C function a ``__pyx_capi__`` capsule holds."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return get_pointer(capsule, get_name(capsule))


def _cython_lapack_file() -> str | None:
    """Path of scipy's ``linalg/cython_lapack`` extension, found without
    importing scipy, or None."""
    spec = importlib.util.find_spec("scipy")
    for base in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(base, "linalg", "cython_lapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _cython_lapack():
    """scipy's ``cython_lapack`` module.  Loaded by file path it skips
    ``scipy.linalg``'s package import and its array-API layer, about 0.3 s
    of a CLI call; a later ``import scipy.linalg`` gets the same module.  If
    no file is found or the load fails, it comes through the package."""
    path = _cython_lapack_file()
    if path is not None:
        name = "scipy.linalg.cython_lapack"
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        try:
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
        except ImportError:
            pass
    from scipy.linalg import cython_lapack
    return cython_lapack


@functools.cache
def _dbdsqr():
    """LAPACK ``dbdsqr(uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c,
    ldc, work, info)``, every argument passed by address; loaded on the
    first call, so orders that never reach LAPACK never load it."""
    capsule = _cython_lapack().__pyx_capi__["dbdsqr"]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 15)(_capsule_pointer(capsule))


_UPLO = ctypes.c_char(b"U")  # B is upper bidiagonal; read-only


def _dbdsqr_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) of each row's ``B`` and the first
    entries of its right singular vectors, ``(reps, m)`` -> ``(reps, k)``
    twice, for finite top-down superdiagonals ``s``: one LAPACK ``dbdsqr``
    call per row.  With ``NCVT=1`` on ``VT = e_1`` it rotates that one row
    only, O(k^2) time and O(k) memory per row."""
    reps, m = s.shape
    k, order = (m + 1) // 2, m // 2 + 1  # positive eigenvalues, order of B
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
    stride, p_buf, p_int = 8 * order, buf.ctypes.data, ints.ctypes.data
    p_n, p_ncvt, p_nru, p_ncc, p_ldvt, p_one = range(p_int, p_int + 24, 4)
    p_uplo, p_work = ctypes.addressof(_UPLO), p_buf + 3 * reps * stride
    call = _dbdsqr()
    for d, info in zip(range(p_buf, p_buf + 3 * reps * stride, 3 * stride),
                       range(p_int + 24, p_int + 24 + 4 * reps, 4)):
        call(p_uplo, p_n, p_ncvt, p_nru, p_ncc, d, d + stride, d + 2 * stride, p_ldvt,
             p_work, p_one, p_work, p_one, p_work, info)
    if ints[6:].any():
        raise ConvergenceError(f"dbdsqr did not converge on {np.count_nonzero(ints[6:])} "
                               f"of {reps} rows")
    return rows[:, 0, :k].copy(), rows[:, 2, :k].copy()


# LAPACK's safe minimum (la_constants) and DLAMCH('EPS')
_SAFMIN = 2.0 ** -1022
_EPS = 2.0 ** -53


def _dlasv2(f: np.ndarray, g: np.ndarray,
            h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's ``dlasv2`` on arrays: the singular values ``smax >= smin >= 0``
    of ``[[f, g], [0, h]]`` and its right rotation ``(csr, snr)``, each
    output accurate to a few ulps (Demmel & Kahan 1990).  The signs dlasv2
    gives the singular values are dropped.  A branch that no row takes is
    not evaluated."""
    swap = np.abs(h) > np.abs(f)
    ft, ht = np.where(swap, h, f), np.where(swap, f, h)
    fa, ha, ga = np.abs(ft), np.abs(ht), np.abs(g)
    # the normal case
    d = fa - ha
    el = np.where(d == fa, 1.0, d / fa)  # copes with an infinite f or h
    m = g / ft
    t = 2.0 - el
    mm = m * m
    s = np.sqrt(t * t + mm)
    r = np.where(el == 0.0, np.abs(m), np.sqrt(el * el + mm))
    a = 0.5 * (s + r)
    smin, smax = ha / a, fa * a
    tt = (m / (s + t) + m / (r + el)) * (1.0 + a)
    tiny = mm == 0.0  # m is tiny
    if tiny.any():
        tt = np.where(tiny, np.where(el == 0.0, np.copysign(2.0, ft) * np.copysign(1.0, g),
                                     g / np.copysign(d, ft) + m / t), tt)
    el = np.sqrt(tt * tt + 4.0)
    crt, srt = 2.0 / el, tt / el
    clt = (crt + srt * m) / a
    slt = (ht / ft) * srt / a
    big = (ga > fa) & (fa / ga < _EPS)  # g very large
    if big.any():
        smax = np.where(big, ga, smax)
        smin = np.where(big, np.where(ha > 1.0, fa / (ga / ha), (fa / ga) * ha), smin)
        clt, slt = np.where(big, 1.0, clt), np.where(big, ht / g, slt)
        crt, srt = np.where(big, ft / g, crt), np.where(big, 1.0, srt)
    diag = ga == 0.0
    if diag.any():
        smax, smin = np.where(diag, fa, smax), np.where(diag, ha, smin)
        clt, slt = np.where(diag, 1.0, clt), np.where(diag, 0.0, slt)
        crt, srt = np.where(diag, 1.0, crt), np.where(diag, 0.0, srt)
    return smax, smin, np.where(swap, slt, crt), np.where(swap, clt, srt)


# up to n = 5 (B of order <= 3, b of length <= 4) the per-row call's fixed
# cost of 1.5-3 us is nearly all of dbdsqr's time, so one dlasv2 step runs
# all rows at once instead, in blocks that bound its temporaries
_SMALL_MAX_M = 4
_SMALL_BLOCK = 4096


def _small_rows(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What :func:`_dbdsqr_rows` returns for ``m = s.shape[1]`` in 1..4, from
    one ``dlasv2`` step on all rows at once.  Order 1: the singular value is
    ``|d_1|``.  Order 2: ``dlasv2`` on ``B``.  Order 3 (``d_3 = 0``):
    ``dlasv2`` on ``R = [[hypot(d_1, e_1 e_2/w), e_1 d_2/w], [0, w]]``,
    ``w = hypot(d_2, e_2)``, which has ``R R^T = B B^T`` and so B's nonzero
    singular values; B's first right-vector entries are R's times
    ``d_1/R_11``.  R's entries are relatively accurate, so both outputs are
    (Demmel & Kahan 1990), where dbdsqr can deflate a small first entry to
    exactly 0.  At orders 1 and 2 this is dbdsqr's output bit for bit
    wherever dbdsqr does not deflate.  At order 3 a row with a nonzero entry
    below SAFMIN times its largest, whose ratios could underflow, or with
    ``w = 0`` or ``R_11 = 0`` (zero entries) takes dbdsqr; of draws, only
    rows with subnormal b do (3 of 20,000 at n = 5, beta = 0.02)."""
    reps, m = s.shape
    k = (m + 1) // 2
    lam, vt = np.empty((reps, k)), np.ones((reps, k))
    if m == 1:
        lam[:, 0] = np.abs(s[:, 0])
        return lam, vt
    wide = np.zeros(reps, dtype=bool)
    # np.where evaluates every branch on every row
    with np.errstate(all="ignore"):
        for lo in range(0, reps, _SMALL_BLOCK):
            rows = slice(lo, lo + _SMALL_BLOCK)
            blk = s[rows]
            f, g = blk[:, 0], blk[:, 1]
            h = blk[:, 2] if m > 2 else np.zeros(blk.shape[0])
            if m == 4:
                e2 = blk[:, 3]
                a = [np.abs(x) for x in (f, g, h, e2)]
                floor = _SAFMIN * np.maximum(np.maximum(a[0], a[1]), np.maximum(a[2], a[3]))
                w = np.hypot(h, e2)
                f, g, h = np.hypot(f, g * (e2 / w)), g * (h / w), w
                wide[rows] = (w == 0.0) | (f == 0.0)
                for x in a:
                    wide[rows] |= (0.0 < x) & (x < floor)
            smax, smin, csr, snr = _dlasv2(f, g, h)
            if m == 4:
                scale = blk[:, 0] / f
                csr, snr = csr * scale, snr * scale
            lam[rows, 0], vt[rows, 0] = smax, csr
            if k > 1:
                lam[rows, 1], vt[rows, 1] = smin, snr
    if wide.any():
        lam[wide], vt[wide] = _dbdsqr_rows(s[wide])
    return lam, vt


def _lam_q_rows(b_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lam`` and ``q`` of :func:`_bidiagonal_svd`, and which rows are
    finite: ``(reps, n-1)`` -> ``(reps, n//2)`` twice and ``(reps,)``."""
    b_batch = np.asarray(b_batch, dtype=float)
    m = b_batch.shape[1]
    finite = np.isfinite(b_batch).all(axis=1)
    s = b_batch[:, ::-1] if finite.all() else np.where(finite[:, None], b_batch[:, ::-1], 1.0)
    lam, vt = (_small_rows if 1 <= m <= _SMALL_MAX_M else _dbdsqr_rows)(s)
    q = np.abs(vt) / math.sqrt(2.0)
    if not finite.all():
        lam[~finite] = q[~finite] = np.nan
    return lam, q, finite


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
    (implicit zero-shift QR) and the singular vectors to absolute accuracy.
    Orders n <= 5 take :func:`_small_rows`, one ``dlasv2`` step on all rows
    at once, which makes q relatively accurate too, where dbdsqr can deflate
    a small q to exactly 0.  Larger orders call dbdsqr once per row
    (:func:`_dbdsqr_rows`).
    ``z`` is ``1/|x|`` for the closed-form null vector ``x`` (``x_0 = 1``,
    zero at odd positions, ``x_{2j+2} = -x_{2j} s_{2j} / s_{2j+1}``), summed
    in log space, so it is relatively accurate.

    A row with a non-finite entry comes back as NaN; it is solved as a row
    of ones, because ``dbdsqr`` never returns on one.
    """
    b_batch = np.asarray(b_batch, dtype=float)
    reps, m = b_batch.shape
    k = (m + 1) // 2
    lam, q, finite = _lam_q_rows(b_batch)
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
    z[~finite] = np.nan
    return lam, q, z


def _check_rows(lam: np.ndarray, q: np.ndarray | None = None, z: np.ndarray | None = None,
                b: np.ndarray | None = None, redraw_ties: bool = False) -> np.ndarray:
    """Which rows of spectral data pass the spectral map's checks, in order:
    ``lam`` finite, positive and strictly descending (else
    :class:`DegeneracyError`), then ``q > 0`` and ``z > 0`` (else
    ``ValueError``; None skips ``q`` or ``z``, as at even n).  The first
    failing row raises its first failing check's error, after the checks of
    the off-diagonals ``b``, where given, on it and the rows before it: the
    one-row path's order.  With ``redraw_ties`` a row whose first failure is
    a tie comes back False instead, to be redrawn."""
    distinct = _strictly_descending_positive(lam)
    ok = distinct
    if q is not None:
        ok = ok & (q > 0).all(axis=-1)
    if z is not None:
        ok = ok & (z > 0)
    fatal = ~ok & distinct if redraw_ties else ~ok
    row = int(np.argmax(fatal)) if fatal.any() else lam.shape[0]
    error = None if b is None else _off_diagonal_error(b[:row + 1])
    if error is None and row < lam.shape[0]:
        if not distinct[row]:
            error = DegeneracyError("computed positive eigenvalues are not distinct")
        elif not (q[row] > 0).all():
            error = ValueError("first components must be positive")
        else:
            error = ValueError("odd order requires a positive null-vector component z")
    if error is not None:
        raise error
    return ok


def spectral_rows(b_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``lam``, ``q`` and ``z`` of every row of ``b_batch`` as
    :func:`_bidiagonal_svd` returns them, each row checked as
    :class:`~skewbeta.ensembles.AntisymTridiagonal` and :class:`SpectralData`
    check it (:func:`_check_rows`).  The first failing row raises what the
    one-row path raises for it: ``ValueError`` for an off-diagonal that is
    not positive or not finite, :class:`DegeneracyError` for tied (or zero)
    eigenvalues, ``ValueError`` for a first component ``q <= 0`` or, at odd
    n, a null-vector component ``z <= 0``."""
    b_batch = np.asarray(b_batch, dtype=float)
    lam, q, z = _bidiagonal_svd(b_batch)
    _check_rows(lam, q, z if b_batch.shape[1] % 2 == 0 else None, b=b_batch)
    return lam, q, z


def positive_spectrum(t: AntisymTridiagonal) -> SpectralData:
    """Decompose ``T`` into ``(lambda, q[, z])``: the one-row case of
    :func:`spectral_rows`, with ``t`` checked when it was built and the
    output in :class:`SpectralData`.  Raises :class:`DegeneracyError` only
    when two computed eigenvalues tie in floating point (or one is 0)."""
    lam, q, z = _bidiagonal_svd(t.b[None, :])
    return SpectralData(n=t.n, lam=lam[0], q=q[0], z=float(z[0]) if t.n % 2 else None)


def positive_spectrum_batch(b_batch: np.ndarray) -> np.ndarray:
    """Positive eigenvalues (descending) for a batch of off-diagonal
    sequences, shape ``(reps, n-1)`` -> ``(reps, n//2)``."""
    return _lam_q_rows(b_batch)[0]


def _first_component_sq_batch(b_batch: np.ndarray) -> np.ndarray:
    """``2 q_1^2`` (squared top first-eigenvector component, doubled) for a
    batch of off-diagonal sequences."""
    return 2.0 * _lam_q_rows(b_batch)[1][:, 0] ** 2


def _signed_spectrum(n: int, lam: np.ndarray, q: np.ndarray,
                     z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues ``(lam, -lam[, 0])`` of each row's symmetric
    counterpart of ``i*T`` and their squared first components
    ``(q**2, q**2[, z**2])``, shape ``(rows, n)`` each, for spectral data
    in the layout of :func:`_bidiagonal_svd`."""
    odd = n % 2 == 1
    d = [lam, -lam] + ([np.zeros_like(z)[:, None]] if odd else [])
    c = [q, q] + ([z[:, None]] if odd else [])
    return np.concatenate(d, axis=-1), np.concatenate(c, axis=-1) ** 2


def _reconstruct_rows(n: int, lam: np.ndarray, q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inverse map of every row of spectral data (``lam`` and ``q`` of shape
    ``(rows, n//2)``, ``z`` of shape ``(rows,)``, NaN at even n): the
    bottom-up off-diagonals, shape ``(rows, n-1)``.

    Lanczos on the diagonal matrix of the full spectrum with the
    first-component weights as starting vector, all rows at once.  The
    produced symmetric tridiagonal has zero diagonal; its off-diagonals are
    the ``b`` sequence of the unique reduced-form matrix.  The first row that
    violates the normalization invariant (``ValueError``) or breaks down
    (:class:`ConditioningError`) raises.
    """
    total = 2.0 * np.sum(q ** 2, axis=-1) + (z ** 2 if n % 2 else 0.0)
    d, w = _signed_spectrum(n, lam, q, z)
    w = np.sqrt(w)
    basis = [w / np.linalg.norm(w, axis=-1, keepdims=True)]
    prev = np.zeros_like(basis[0])
    beta = np.zeros((lam.shape[0], 1))
    off = np.empty((lam.shape[0], n - 1))  # top-down
    with np.errstate(divide="ignore", invalid="ignore"):  # rows that break down
        for j in range(n - 1):
            u = d * basis[-1] - beta * prev
            # the diagonal of the target matrix is identically zero, so no
            # alpha term; still project out the full basis twice for
            # numerical stability
            for vec in basis + basis:
                u -= np.sum(vec * u, axis=-1, keepdims=True) * vec
            beta = np.linalg.norm(u, axis=-1, keepdims=True)
            off[:, j] = beta[:, 0]
            prev = basis[-1]
            basis.append(u / beta)
    bad_norm = np.abs(total - 1.0) > 1e-8
    broken = ~(off > 0).all(axis=-1)
    bad = np.flatnonzero(bad_norm | broken)
    if bad.size:
        if bad_norm[bad[0]]:
            raise ValueError("spectral data violates the normalization invariant")
        step = int(np.argmin(off[bad[0]] > 0))
        raise ConditioningError(f"Lanczos breakdown at step {step}")
    return off[:, ::-1]


def reconstruct_tridiagonal(sd: SpectralData) -> AntisymTridiagonal:
    """Inverse map ``(lambda, q[, z]) -> T``: the one-row case of
    :func:`_reconstruct_rows`."""
    z = np.array([np.nan if sd.z is None else sd.z])
    return AntisymTridiagonal(_reconstruct_rows(sd.n, sd.lam[None, :], sd.q[None, :], z)[0])
