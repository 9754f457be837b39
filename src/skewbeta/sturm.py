"""Sturm-sequence eigenvalue counting, shooting vectors and Pruefer phases.

All computations run on the symmetric tridiagonal matrix with the same
characteristic polynomial as ``i*T`` (minus signs below the diagonal removed),
and every ``P_m`` comes from the one scaled recurrence of
:mod:`skewbeta.spectral`.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import AntisymTridiagonal
from .spectral import _charpoly


# prufer_phases evaluates _WINDOW // n points at a time, which bounds the
# phases it holds (_atan2 makes a Python float of each)
_WINDOW = 2 ** 18

# libm's atan2, one element at a time: numpy's vectorized arctan2 can differ
# from it in the last bit, and which way depends on the CPU's SIMD support
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _counts_leq(vals: np.ndarray) -> np.ndarray:
    """Positive eigenvalues ``<= mu`` of each order-m trailing matrix,
    m = 0..rows-1, at every point, from the scaled ``P_0(mu), ..., P_m(mu)``
    in the rows of ``vals`` (0 for a negative ``mu``).

    The sign changes of ``P_0, ..., P_m`` count the eigenvalues above ``mu``.
    A zero ``P_m`` is skipped: below the top its neighbours have opposite
    signs (``P_{m+1} = -b_m**2 P_{m-1}``), and at the top it makes ``mu`` an
    eigenvalue, which counts as ``<= mu``.  The rounded recurrence gives the
    exact signs of a matrix whose off-diagonals are perturbed by a few ulps
    each, so the counts resolve eigenvalues to high relative accuracy.
    """
    signs = np.sign(vals)
    rows = np.arange(vals.shape[0])[:, None]
    # the sign of the last nonzero P at or below each row (P_0 = 1)
    last = signs[np.maximum.accumulate(np.where(signs != 0, rows, 0)), np.arange(vals.shape[1])]
    above = np.zeros(vals.shape, dtype=int)
    np.cumsum(last[1:] != last[:-1], axis=0, out=above[1:])
    return np.maximum(rows // 2 - above, 0)


def _count_positive_leq_rows(b: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Number of positive eigenvalues ``<= mu[j]`` of the matrix with
    off-diagonals ``b[j]``, for a stack ``b`` of shape ``(points, n-1)`` and
    one point per matrix; see :func:`_counts_leq`."""
    return _counts_leq(_charpoly(b, mu)[0])[-1]


def shooting_vector(t: AntisymTridiagonal, mu: float, x1: float = 1.0) -> np.ndarray:
    """Shooting solution of all but the first row of ``(T_s - mu I) x = 0``.

    Returns ``(x_1, ..., x_n, x_{n+1})`` where ``x_{n+1}`` is the first
    component of ``(T_s - mu I) x``; it vanishes iff ``mu`` is an eigenvalue.
    Components satisfy ``x_i = x_1 * P_{i-1}(mu) / (b_1 ... b_{i-1})`` and
    ``x_{n+1} = -x_1 * P_n(mu) / (b_1 ... b_{n-1})``.  They are formed in log
    form from the scaled ``P_m``, so each is finite wherever its true value is
    representable; where ``P_{i-1}`` never rescaled and ``b_1 ... b_{i-1}`` is
    a normal number, the plain quotient is returned.
    """
    if x1 == 0.0:
        raise ValueError("x1 must be nonzero")
    b, n = t.b, t.n
    vals, shifts = _charpoly(b, np.array([float(mu)]))
    num, shifts = x1 * vals[:, 0], shifts[:, 0]
    below = np.r_[0:n, n - 1]  # entry j divides by b[0] ... b[j-1]; x_{n+1} by all of b
    with np.errstate(all="ignore"):  # the branch np.where drops may overflow
        bprod = np.cumprod(np.r_[1.0, b])[below]
        log_x = np.log(np.abs(num)) + shifts - np.cumsum(np.r_[0.0, np.log(b)])[below]
        plain = (shifts == 0.0) & (bprod >= np.finfo(float).tiny) & np.isfinite(bprod)
        x = np.where(plain, num / bprod, np.sign(num) * np.exp(log_x))
    x[n] = -x[n]
    return x


def _phases(b: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Continuous phases ``theta_i``, i = 2..n, at every point of the 1-d
    array ``mu > 0``, shape ``(mu.size, n-1)``, for one off-diagonal
    sequence ``b`` of shape ``(n-1,)`` or one per point, ``(mu.size, n-1)``.

    The principal phase ``raw_i`` in (0, pi] (0 where ``b_{i-1}**2 P_{i-2}``
    underflows) solves
    ``cot(theta_i) = P_{i-1}(mu) / (b_{i-1}**2 P_{i-2}(mu))``.  By Sturm
    oscillation ``theta_i`` falls through a multiple of pi exactly at the zeros
    of ``P_{i-2}``, so ``theta_i = raw_i - K_i pi`` with
    ``K_i = [i odd] + N_{i-2}(mu)``, ``N_m`` the positive eigenvalues
    ``<= mu`` of the order-m trailing matrix; branches start at mu = 0.
    """
    vals, shifts = (a[:-1] for a in _charpoly(b, mu))
    # P_{i-2} on the scale of P_{i-1}; their shifts differ only where step
    # i-1 rescaled, else the factor is exactly 1
    prev = vals[:-1] * np.exp(shifts[:-1] - shifts[1:])
    raw = _atan2(np.atleast_2d(b ** 2).T * prev, vals[1:]).astype(float)
    # a zero P_{i-2} gives pi; a numerator that underflowed keeps the sign of
    # P_{i-2} in its zero, so only a negative raw (-0 or -pi) moves up by pi
    raw = np.where(vals[:-1] == 0.0, math.pi, np.where(np.signbit(raw), raw + math.pi, raw))
    wraps = np.arange(2, b.shape[-1] + 2)[:, None] % 2 + _counts_leq(vals[:-1])
    return (raw - wraps * math.pi).T


def _anchor_phases(n: int) -> np.ndarray:
    """Exact phases at mu = 0: pi/2 at even index, 0 at odd index."""
    idx = np.arange(2, n + 1)
    return np.where(idx % 2 == 0, math.pi / 2.0, 0.0)


def prufer_phases(t: AntisymTridiagonal, grid) -> np.ndarray:
    """Continuous Pruefer phases ``theta_i``, i = 2..n, along an ascending
    nonnegative grid, shape ``(grid.size, n-1)``.

    Branches are anchored at mu = 0 (exact values known) and counted in
    closed form at every other point (see :func:`_phases`), ``_WINDOW // n``
    points per pass of the recurrence.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0) and grid[0] >= 0):
        raise ValueError("grid must be finite, strictly increasing and nonnegative")
    theta = np.empty((grid.size, t.n - 1))
    start = int(grid[0] == 0.0)
    theta[:start] = _anchor_phases(t.n)
    window = max(1, _WINDOW // t.n)
    for w in range(start, grid.size, window):
        theta[w:w + window] = _phases(t.b, grid[w:w + window])
    return theta
