"""Structured conjugations and change-of-variables identities.

Contains the alternating-sign perfect shuffle, the bidiagonal-to-tridiagonal
sampling map, the bidiagonal Cholesky reindexing recursion, and exact
log-space identities (squared-Vandermonde product and the spectral-map
Jacobian) with a finite-difference cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import (SizeError, _c_matrix_chis, _interleave, _laguerre_chis,
                        _strictly_descending_positive, dense_tridiagonal)
from .spectral import _reconstruct_rows
from .streams import ParameterError, RandomStream


class FiniteDifferenceError(RuntimeError):
    """Finite-difference derivative failed its step-halving consistency check."""


def asps(n: int) -> np.ndarray:
    """Alternating-sign perfect shuffle of size 2n, as a 2n x 2n int64
    matrix with one nonzero +-1 in each row.

    The underlying shuffle sends row i (1-based) to column (i+1)/2 for odd
    i and n + i/2 for even i; the sign of row i is (-1)**floor(i/2).
    """
    if n < 1:
        raise SizeError("need n >= 1")
    r = np.arange(2 * n)  # row i = r + 1
    m = np.zeros((2 * n, 2 * n), dtype=np.int64)
    m[r, r // 2 + n * (r % 2)] = 1 - 2 * ((r + 1) // 2 % 2)
    return m


def block_embedding(y: np.ndarray) -> np.ndarray:
    """The anti-symmetric matrices ``[[0, -Y], [Y^T, 0]]`` of a stack of
    blocks ``(..., r, c)``; their eigenvalues are plus/minus i times the
    singular values of Y."""
    y = np.asarray(y, dtype=float)
    r, c = y.shape[-2:]
    v = np.zeros(y.shape[:-2] + (r + c, r + c))
    v[..., :r, r:] = -y
    v[..., r:, :r] = np.swapaxes(y, -1, -2)
    return v


def bidiagonal_read_off(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Bottom-up off-diagonal sequences of the tridiagonals read off lower
    bidiagonal blocks of diagonals ``d`` and subdiagonals ``e`` (stacked
    along the leading axes): the superdiagonal reads ``d_0, e_0, d_1, e_1,
    ...`` top-down.  Their positive spectra are the singular values of the
    blocks."""
    return _interleave(d, e)[..., ::-1]


def shuffle_conjugation_check(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Max deviation of ``Q V_B Q^T`` from the tridiagonal read off ``B``,
    one per square lower bidiagonal block ``B`` of diagonals ``d``
    ``(..., k)`` and subdiagonals ``e`` ``(..., k-1)``; exactly zero (the
    conjugation only permutes entries and flips signs)."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    k = d.shape[-1]
    if e.shape[-1] != k - 1:
        raise SizeError("shuffle conjugation needs a square bidiagonal block")
    blocks = np.zeros(d.shape + (k,))
    idx = np.arange(k)
    blocks[..., idx, idx] = d
    blocks[..., idx[1:], idx[:-1]] = e
    q = asps(k).astype(float)
    target = dense_tridiagonal(_interleave(d, e), -1.0)
    return np.max(np.abs(q @ block_embedding(blocks) @ q.T - target), axis=(-2, -1))


def laguerre_map_batch(n: int, beta: float, stream: RandomStream,
                       reps: int | None) -> np.ndarray:
    """Sample the reduced tridiagonal model of order ``n`` by reading its
    entries off a chi bidiagonal block, divided by sqrt(2): shape
    ``(reps, n-1)``, bottom-up indexing; ``reps=None`` gives one sequence.

    Even ``n = 2k`` uses the square Laguerre block with ``a = (n-1) beta / 4``;
    odd ``n = 2k+1`` uses the (k+1) x k C-matrix.  The superdiagonal reads
    the block entries interleaved, ``d_0, e_0, d_1, ...``, top-down.
    """
    if n < 2:
        raise SizeError("need n >= 2")
    if n % 2 == 0:
        d, e = _laguerre_chis(n // 2, (n - 1) * beta / 4.0, beta, [stream], reps)
    else:
        d, e = _c_matrix_chis(n // 2, beta, [stream], reps)
    return bidiagonal_read_off(d[0], e[0]) / math.sqrt(2.0)


def cholesky_reindex(bsq) -> np.ndarray:
    """Solve the bidiagonal refactorization recursion along the last axis
    (leading axes are independent sequences).

    Input: positive ``(b_1^2, ..., b_{2k+1}^2)``.  Output, in index order,
    ``(x_2^2, x_3^2, ..., x_{2k+1}^2)``:

        y_1 = b_1^2,   y_i = b_{2i-1}^2 y_{i-1} / x_{2i-1}^2   (i >= 2)
        x_{2i+1}^2 = b_{2i}^2 + y_i
        x_{2i}^2 = b_{2i}^2 b_{2i+1}^2 / x_{2i+1}^2

    This is ``x_{2i+1}^2 = b_{2i}^2 + b_{2i-1}^2 - x_{2i-2}^2`` without the
    subtraction, so every intermediate is positive and keeps full relative
    precision.

    The odd-index outputs are the squared diagonal (bottom-up) and the
    even-index outputs the squared subdiagonal of the reversed Cholesky
    factor of the tridiagonal Gram matrix built from ``b``.
    """
    bsq = np.atleast_1d(np.asarray(bsq, dtype=float))
    m = bsq.shape[-1]
    if m < 3 or m % 2 == 0:
        raise ParameterError("need an odd number (>= 3) of squared entries")
    if not np.all(bsq > 0):
        raise ParameterError("squared entries must be positive")
    k = (m - 1) // 2
    x = np.empty(bsq.shape[:-1] + (2 * k + 2,))  # x[..., j] holds x_j^2; slots 0,1 unused
    y = bsq[..., 0]
    for i in range(1, k + 1):
        x[..., 2 * i + 1] = bsq[..., 2 * i - 1] + y
        x[..., 2 * i] = bsq[..., 2 * i - 1] * bsq[..., 2 * i] / x[..., 2 * i + 1]
        y = bsq[..., 2 * i] * y / x[..., 2 * i + 1]
    return x[..., 2:]


def reversed_cholesky_residual(d: np.ndarray, e: np.ndarray, b_top_sq) -> np.ndarray:
    """Relative residual between :func:`cholesky_reindex` and a direct
    reversed-Cholesky factor of the Gram matrix of each block ``c``,
    computed by orthogonal rotations of ``c`` itself: one per block.

    ``c`` is a (k+1) x k lower bidiagonal chi block of diagonals ``d``
    ``(..., k)`` and subdiagonals ``e`` ``(..., k)``; ``b_top_sq``
    ``(...)`` supplies the extra squared entry ``b_{2k+1}^2`` the recursion
    consumes.  The factor ``X`` (lower bidiagonal, ``X^T X = c^T c``) must
    have squared diagonal ``(x_{2k+1}^2, x_{2k-1}^2, ..., x_3^2)`` and
    squared subdiagonal ``(x_{2k-2}^2, ..., x_2^2)``, both top-down.
    """
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    k = d.shape[-1]
    if e.shape[-1] != k:
        raise SizeError("expected a (k+1) x k bidiagonal block")
    # the bottom-up read-off of c, as in laguerre_map_batch, squared
    top = np.asarray(b_top_sq, dtype=float)[..., None]
    x = cholesky_reindex(np.concatenate([bidiagonal_read_off(d, e) ** 2, top], axis=-1))

    # X = Q^T c for the Givens rotations that chase the last row of c up to
    # the first: row j of X has hypot(d_j, g) on the diagonal and
    # d_j e_{j-1} / X_jj below it, where the carried entry g starts at
    # e_{k-1} and becomes g e_{j-1} / X_jj.  Every entry is a hypot, product
    # or quotient of positive numbers, so tiny entries keep full relative
    # accuracy; a dense QR or Cholesky factor resolves them only to
    # eps * ||c||.
    diag_sq = np.empty(d.shape)
    sub_sq = np.empty(d.shape[:-1] + (k - 1,))
    g = e[..., k - 1]
    for j in range(k - 1, -1, -1):
        x_jj = np.hypot(d[..., j], g)
        diag_sq[..., j] = np.square(x_jj)
        if j:
            sub_sq[..., j - 1] = np.square(d[..., j] * e[..., j - 1] / x_jj)
            g = g * (e[..., j - 1] / x_jj)

    # x[..., j] = x_{j+2}^2; x_{2k}^2 involves b_{2k+1}^2, which c does not hold
    expected = np.concatenate([x[..., :-2:2], x[..., 1::2]], axis=-1)
    got = np.concatenate([diag_sq, sub_sq], axis=-1)[..., ::-1]
    return np.max(np.abs(got - expected) / expected, axis=-1)


def _vandermonde_residual_rows(b: np.ndarray, lam: np.ndarray, q: np.ndarray,
                               z: np.ndarray) -> np.ndarray:
    """Log-space residual of the squared-Vandermonde product formula
    relating off-diagonals, eigenvalues and first components, for every
    row: off-diagonals ``b`` (``(rows, n-1)``) against ``lam``, ``q`` and
    ``z`` in the layout of :func:`~skewbeta.spectral._bidiagonal_svd`."""
    # densities (and with it scipy.special) loads here, not with the module:
    # `skewbeta sample` needs this module but no density
    from .densities import _log_vandermonde_sq
    n = b.shape[-1] + 1
    k = n // 2
    lhs = _log_vandermonde_sq(lam, 2.0)
    rhs = (np.sum(np.arange(1, n) * np.log(b), axis=-1)
           - k * math.log(2.0)
           - 2.0 * np.sum(np.log(q), axis=-1))
    if n % 2 == 0:
        rhs = rhs - np.sum(np.log(lam), axis=-1)
    else:
        rhs = rhs - (np.log(z) + 3.0 * np.sum(np.log(lam), axis=-1))
    return np.abs(lhs - rhs)


def _jacobian_analytic_rows(b: np.ndarray, lam: np.ndarray, q: np.ndarray,
                            z: np.ndarray) -> np.ndarray:
    """The closed-form Jacobian of the off-diagonal -> spectrum map,
    ``prod b_i / (prod q_i lam_i)`` with an extra ``z`` factor for odd n, of
    every row, in the layout of :func:`_vandermonde_residual_rows`."""
    val = (np.sum(np.log(b), axis=-1)
           - np.sum(np.log(q), axis=-1)
           - np.sum(np.log(lam), axis=-1))
    if (b.shape[-1] + 1) % 2 == 1:
        val = val - np.log(z)
    return np.exp(val)


def _from_free_coordinates(points: np.ndarray, n: int):
    """``lam``, ``q`` and ``z`` (NaN at even n) of points of the free chart
    (last axis: ``lam``, then ``q`` without the coordinate normalization
    eliminates: ``q_k = sqrt(1/2 - sum q_j^2)`` at even n,
    ``z = sqrt(1 - 2 sum q_j^2)`` at odd n), and which points lie in the
    chart: room left for the eliminated coordinate, ``lam`` strictly
    decreasing and positive, ``q`` positive."""
    k = n // 2
    lam, free = points[..., :k], points[..., k:]
    if n % 2 == 0:
        resid = 0.5 - np.sum(free ** 2, axis=-1)
    else:
        resid = 1.0 - 2.0 * np.sum(free ** 2, axis=-1)
    with np.errstate(invalid="ignore"):  # points with no room left
        root = np.sqrt(resid)
    if n % 2 == 0:
        q, z = np.concatenate([free, root[..., None]], axis=-1), np.full(root.shape, np.nan)
    else:
        q, z = free, root
    inside = (resid > 0) & _strictly_descending_positive(lam) & (q > 0).all(axis=-1)
    return lam, q, z, inside


def _jacobian_numeric_rows(n: int, lam: np.ndarray, q: np.ndarray, h_scale: float = 1e-6,
                           richardson_rtol: float = 1e-4) -> np.ndarray:
    """Finite-difference determinant of the spectrum -> off-diagonal map in
    the free chart (the last component is eliminated by normalization) of
    every row of spectral data (``lam`` and ``q`` as
    :func:`~skewbeta.spectral._bidiagonal_svd` returns them), all rows at
    once.

    Central differences with step ``h = h_scale * max(1, |coordinate|)``:
    every row's free coordinates are perturbed by ``+-h e_j`` and
    ``+-(h/2) e_j``, all points are mapped back in one
    :func:`~skewbeta.spectral._reconstruct_rows` call, and one ``det`` call
    on the stacked difference quotients gives both determinants of every
    row.  ``FiniteDifferenceError`` is raised when a probe point leaves the
    chart, or when a row's two determinants disagree by more than
    ``richardson_rtol``.
    """
    k = n // 2
    vec = np.concatenate([lam, q[:, :k - 1] if n % 2 == 0 else q], axis=-1)
    rows, dim = vec.shape
    scale = np.maximum(1.0, np.abs(vec))
    h = np.stack([h_scale * scale, (h_scale / 2.0) * scale], axis=1)  # (rows, 2, dim)
    step = h[..., None] * np.eye(dim)
    # (rows, step size, coordinate, sign, free coordinates)
    points = vec[:, None, None, None, :] + np.stack([step, -step], axis=3)
    p_lam, p_q, p_z, inside = _from_free_coordinates(points, n)
    if not inside.all():
        raise FiniteDifferenceError(f"a probe point at h={h_scale} leaves the chart")
    b = _reconstruct_rows(n, p_lam.reshape(-1, k), p_q.reshape(-1, k),
                          p_z.reshape(-1)).reshape(rows, 2, dim, 2, n - 1)
    # jac[..., :, j] = (b(+h e_j) - b(-h e_j)) / 2h
    jac = ((b[..., 0, :] - b[..., 1, :]) / (2.0 * h[..., None])).swapaxes(-1, -2)
    coarse, fine = np.abs(np.linalg.det(jac)).T
    bad = np.flatnonzero(np.abs(coarse - fine)
                         > richardson_rtol * np.maximum(np.abs(fine), 1e-300))
    if bad.size:
        r = bad[0]
        raise FiniteDifferenceError(
            f"step-halving disagreement: {coarse[r]} vs {fine[r]} at h={h_scale}")
    return fine
