"""Sturm-sequence eigenvalue counting, shooting vectors and Pruefer phases.

All computations run on the symmetric tridiagonal matrix with the same
characteristic polynomial as ``i*T`` (minus signs below the diagonal removed),
and every ``P_m`` comes from the one scaled recurrence of
:mod:`skewbeta.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import AntisymTridiagonal
from .spectral import _charpoly


class RefinementError(RuntimeError):
    """Branch tracking could not be resolved at the maximum grid refinement."""


@dataclass(frozen=True)
class PruferPhases:
    """Continuous-branch phases ``theta_i``, i = 2..n, at one evaluation point."""

    mu: float
    theta: np.ndarray


# levels of bisection of one grid step before branch tracking gives up
_MAX_REFINE = 40

# prufer_phases refines _WINDOW // n grid steps at a time, which bounds the
# phases it holds (_atan2 makes a Python float of each)
_WINDOW = 2 ** 13

# libm's atan2, one element at a time: numpy's vectorized arctan2 can differ
# from it in the last bit, and which way depends on the CPU's SIMD support
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def count_positive_leq(t: AntisymTridiagonal, mu: float) -> int:
    """Number of positive eigenvalues of ``i*T`` less than or equal to ``mu``
    (0 for a negative ``mu``).

    The sign changes of ``P_0(mu), ..., P_n(mu)`` count the eigenvalues above
    ``mu``.  A zero ``P_m`` is skipped: below the top its neighbours have
    opposite signs (``P_{m+1} = -b_m**2 P_{m-1}``), and at the top it makes
    ``mu`` an eigenvalue, which counts as ``<= mu``.  The rounded recurrence
    gives the exact signs of a matrix whose off-diagonals are perturbed by a
    few ulps each, so the count resolves eigenvalues to high relative accuracy.
    """
    vals, _ = _charpoly(t.b, np.array([float(mu)]), range(t.n + 1))
    signs = np.sign(vals[vals != 0.0])
    above = np.count_nonzero(signs[1:] != signs[:-1])
    return max(t.n // 2 - above, 0)


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
    vals, shifts = _charpoly(b, np.array([float(mu)]), range(n + 1))
    num, shifts = x1 * vals[:, 0], shifts[:, 0]
    below = np.r_[0:n, n - 1]  # entry j divides by b[0] ... b[j-1]; x_{n+1} by all of b
    with np.errstate(all="ignore"):  # the branch np.where drops may overflow
        bprod = np.cumprod(np.r_[1.0, b])[below]
        log_x = np.log(np.abs(num)) + shifts - np.cumsum(np.r_[0.0, np.log(b)])[below]
        plain = (shifts == 0.0) & (bprod >= np.finfo(float).tiny) & np.isfinite(bprod)
        x = np.where(plain, num / bprod, np.sign(num) * np.exp(log_x))
    x[n] = -x[n]
    return x


def _principal_phases(b: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Principal-branch phases in (0, pi], i = 2..n, at every point of the 1-d
    array ``mu``, shape ``(mu.size, n-1)``, from
    ``cot(theta_i) = P_{i-1}(mu) / (b_{i-1}**2 P_{i-2}(mu))``."""
    vals, shifts = _charpoly(b, mu, range(b.size + 1))
    # P_{i-2} on the scale of P_{i-1}; their shifts differ only where step
    # i-1 rescaled, else the factor is exactly 1
    prev = vals[:-1] * np.exp(shifts[:-1] - shifts[1:])
    theta = _atan2((b ** 2)[:, None] * prev, vals[1:]).astype(float)
    return np.where(theta <= 0.0, theta + math.pi, theta).T


def _anchor_phases(n: int) -> np.ndarray:
    """Exact phases at mu = 0: pi/2 at even index, 0 at odd index."""
    idx = np.arange(2, n + 1)
    return np.where(idx % 2 == 0, math.pi / 2.0, 0.0)


def _branch_select(raw: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Unique representative ``raw - k*pi`` in the interval (prev - pi, prev]."""
    k = np.ceil((raw - prev) / math.pi)
    return raw - k * math.pi


def _refine(b: np.ndarray, mu: np.ndarray, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisect the steps between consecutive points of ``mu`` (principal phases
    ``raw``) until no step moves a phase by more than pi/2, level by level;
    return every point and its principal phases, those given first."""
    mus, raws = [mu], [raw]
    lo_mu, hi_mu, lo_raw, hi_raw = mu[:-1], mu[1:], raw[:-1], raw[1:]
    for level in range(_MAX_REFINE + 1):
        # (raw_left - raw_right) mod pi, in [0, pi] so that a difference
        # rounded to pi stays a large move
        moved = lo_raw - hi_raw
        moved[moved < 0.0] += math.pi
        split = np.max(moved, axis=1) > math.pi / 2.0 + 1e-9
        if not split.any():
            break
        if level == _MAX_REFINE:
            j = np.argmin(np.where(split, lo_mu, np.inf))
            raise RefinementError(f"unresolved phase branch between mu={lo_mu[j]} "
                                  f"and mu={hi_mu[j]}")
        mid = 0.5 * (lo_mu[split] + hi_mu[split])
        mid_raw = _principal_phases(b, mid)
        mus.append(mid)
        raws.append(mid_raw)
        lo_mu, hi_mu = np.r_[lo_mu[split], mid], np.r_[mid, hi_mu[split]]
        lo_raw, hi_raw = np.vstack([lo_raw[split], mid_raw]), np.vstack([mid_raw, hi_raw[split]])
    return np.concatenate(mus), np.concatenate(raws)


def prufer_phases(t: AntisymTridiagonal, grid) -> list[PruferPhases]:
    """Continuous Pruefer phases along an ascending nonnegative grid.

    Branches are anchored at mu = 0 (exact values known) and tracked
    rightwards.  A step that would move any phase by more than pi/2 is
    bisected, up to ``_MAX_REFINE`` times.  Whether it would depends only on
    the principal phases at its two ends, so the grid steps are refined
    level by level, each level's midpoints in one pass of the recurrence
    (``_WINDOW // n`` grid steps at a time); the branches are then selected
    point by point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("grid must be strictly increasing and nonnegative")
    mu = np.r_[0.0, grid[grid > 0]]
    raw = np.vstack([_anchor_phases(t.n), _principal_phases(t.b, mu[1:])])
    theta = np.empty_like(raw)
    theta[0] = raw[0]
    window = max(1, _WINDOW // t.n)
    for w in range(0, mu.size - 1, window):
        given = slice(w, w + window + 1)
        points, points_raw = _refine(t.b, mu[given], raw[given])
        out = theta[given]
        current = out[0]
        for j in np.argsort(points, kind="stable")[1:].tolist():
            current = _branch_select(points_raw[j], current)
            if j < len(out):
                out[j] = current
    start = mu.size - grid.size  # 1 unless the grid starts at mu = 0
    return [PruferPhases(mu=m, theta=th) for m, th in zip(mu[start:], theta[start:])]
