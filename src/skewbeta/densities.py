"""Closed-form log-densities, normalization constants and quadrature checks.

Every density is evaluated in log-space; out-of-support points return a
``LogDensityValue`` flagged invalid (log value -inf) rather than raising.
Eigenvalue arguments follow the package-wide convention of strictly
descending positive sequences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .ensembles import _interleave, _strictly_descending_positive
from .stats import _tanh_sinh
from .streams import ParameterError


@dataclass(frozen=True)
class LogDensityValue:
    log_value: float
    in_support: bool


def _log_gap_sq(a, b):
    """``log |a^2 - b^2|`` of positive ``a``, ``b`` as ``log |a - b| +
    log(a + b)``: finite wherever ``a != b``, even where both squares
    underflow, and free of the cancellation of squaring two close values."""
    return np.log(np.abs(a - b)) + np.log(a + b)


def _log_vandermonde_sq(x: np.ndarray, power: float):
    """``power * sum_{j<k} log |x_j^2 - x_k^2|`` along the last axis, of the
    positive values ``x`` (not their squares).  The pairs are gathered with
    ``take``, which keeps each row contiguous, so every row is summed in the
    same order as a lone row."""
    if x.shape[-1] < 2:
        return 0.0
    j, k = np.triu_indices(x.shape[-1], k=1)
    return power * np.sum(_log_gap_sq(np.take(x, j, axis=-1), np.take(x, k, axis=-1)),
                          axis=-1)


@functools.cache
def log_normalization_C(n: int, beta: float) -> float:
    """Log of the eigenvalue-density normalization constant (memoized: the
    quadrature checks evaluate the density thousands of times per order)."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if not 0 < beta < math.inf:
        raise ParameterError(f"beta must be positive and finite, got {beta}")
    m = n if n % 2 == 0 else n - 1
    js = np.arange(1, m // 2 + 1)
    total = float(np.sum(gammaln(2 * js * beta / 4.0) + gammaln((2 * js - 1) * beta / 4.0))
                  - (m // 2) * (math.log(2.0) + gammaln(beta / 2.0)))
    if n % 2 == 1:
        total += gammaln(n * beta / 4.0) - gammaln(beta / 4.0)
    return total


def log_selberg_W(a: float, beta: float, m: int) -> float:
    """Log of the Laguerre Selberg integral ``W_{a,beta,m}``."""
    if not (a > -1 and beta > 0 and m >= 1):
        raise ParameterError("need a > -1, beta > 0, m >= 1")
    js = np.arange(m)
    return float(np.sum(gammaln(1 + (js + 1) * beta / 2.0)
                        + gammaln(a + 1 + js * beta / 2.0)
                        - gammaln(1 + beta / 2.0)))


def selberg_consistency_check(beta: float, m: int) -> tuple[float, float]:
    """Residuals of ``C_{beta,2m} * 2^m * m! = W_{beta/4-1,beta,m}`` and its
    odd analogue with ``W_{3 beta/4-1,beta,m}``, in log space."""
    log_fact = gammaln(m + 1)
    even = abs(log_normalization_C(2 * m, beta) + m * math.log(2.0) + log_fact
               - log_selberg_W(beta / 4.0 - 1.0, beta, m))
    odd = abs(log_normalization_C(2 * m + 1, beta) + m * math.log(2.0) + log_fact
              - log_selberg_W(3.0 * beta / 4.0 - 1.0, beta, m))
    return even, odd


def logpdf_positive_spectrum(lam, n: int, beta: float) -> LogDensityValue:
    """Joint log-density of the descending positive eigenvalues of the
    anti-symmetric tridiagonal beta-ensemble of order ``n``; the one-row
    case of :func:`_logpdf_positive_spectrum_rows`."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size != n // 2:
        raise ParameterError(f"expected {n // 2} eigenvalues for n={n}")
    return LogDensityValue(float(_logpdf_positive_spectrum_rows(lam[None, :], n, beta)[0]),
                           bool(_strictly_descending_positive(lam)))


def _logpdf_positive_spectrum_rows(lam: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Log-density of each row of ``lam`` (shape ``(rows, n//2)``); rows
    outside the support give -inf."""
    expo = beta / 2.0 - 1.0 if n % 2 == 0 else 3.0 * beta / 2.0 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (-log_normalization_C(n, beta)
               + expo * np.sum(np.log(lam), axis=-1)
               - np.sum(lam ** 2, axis=-1)
               + _log_vandermonde_sq(lam, beta))
    return np.where(_strictly_descending_positive(lam), val, -np.inf)


def log_laguerre_constant(n: int, a: float, beta: float) -> float:
    """Log of the Laguerre eigenvalue-density constant ``c_L``."""
    js = np.arange(1, n + 1)
    return float(-n * a * math.log(2.0)
                 + np.sum(gammaln(beta / 2.0)
                          - gammaln(beta * js / 2.0)
                          - gammaln(a - beta * (n - js) / 2.0)))


def _logpdf_singular_values_rows(sigma: np.ndarray, n: int, a: float,
                                 beta: float) -> np.ndarray:
    """Joint log-density of the descending singular values of the Laguerre
    bidiagonal matrix (square-root change of variables of the eigenvalue
    law), for each row of ``sigma`` (shape ``(rows, n)``); rows outside the
    support give -inf."""
    if not 2 * a - (n - 1) * beta > 0:
        raise ParameterError("need 2a - (n-1)*beta > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (n * math.log(2.0) + log_laguerre_constant(n, a, beta)
               + _log_vandermonde_sq(sigma, beta)
               + (2.0 * a - (n - 1) * beta - 1.0) * np.sum(np.log(sigma), axis=-1)
               - 0.5 * np.sum(sigma ** 2, axis=-1))
    return np.where(_strictly_descending_positive(sigma), val, -np.inf)


def _interlaced_log_terms(x: np.ndarray, lam: np.ndarray, beta: float,
                          zero_pole: bool) -> np.ndarray:
    """The terms the bordering and projection laws share, per row: ``x``
    are the roots, ``lam`` the nonzero poles of the secular equation, each
    pole pair with Dirichlet weight ``beta/2``, plus a zero pole of weight
    ``beta/4`` when ``zero_pole``."""
    val = (x.shape[-1] * math.log(2.0) - lam.shape[-1] * gammaln(beta / 2.0)
           + _log_vandermonde_sq(x, 1.0)
           - _log_vandermonde_sq(lam, beta - 1.0)
           + (beta / 2.0 - 1.0) * np.sum(_log_gap_sq(x[..., :, None], lam[..., None, :]),
                                         axis=(-2, -1)))
    if zero_pole:
        return (val - gammaln(beta / 4.0)
                + (beta / 2.0 - 1.0) * np.sum(np.log(x), axis=-1)
                - (3.0 * beta / 4.0 - 1.0) * 2.0 * np.sum(np.log(lam), axis=-1))
    return val + np.sum(np.log(x), axis=-1)


def _conditional_logpdf_up_rows(x: np.ndarray, lam: np.ndarray, n: int,
                                beta: float) -> np.ndarray:
    """Log-density of each row of ``x`` (shape ``(rows, (n+1)//2)``) given
    the matching row of ``lam`` (``(rows, n//2)``; leading axes broadcast);
    rows outside the support give -inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (_interlaced_log_terms(x, lam, beta, zero_pole=(n % 2 == 1))
               - (np.sum(x ** 2, axis=-1) - np.sum(lam ** 2, axis=-1)))
    return np.where(_strictly_descending_positive(_interleave(x, lam)), val, -np.inf)


def _conditional_logpdf_down_rows(x: np.ndarray, lam: np.ndarray, n: int,
                                  beta: float) -> np.ndarray:
    """Log-density of each row of ``x`` (shape ``(rows, n//2)``) given the
    matching row of ``lam`` (``(rows, (n+1)//2)``; leading axes broadcast);
    rows outside the support give -inf.  With no projected eigenvalue
    (n = 1) the two gamma terms cancel exactly, to a log-density of 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (_interlaced_log_terms(x, lam, beta, zero_pole=((n + 1) % 2 == 1))
               + gammaln((n + 1) * beta / 4.0))
    return np.where(_strictly_descending_positive(_interleave(lam, x)), val, -np.inf)


_STEP = 1.0 / 16.0  # tanh-sinh step of the total-mass and interval integrals


def eigenvalue_density_total_mass(n: int, beta: float) -> float:
    """Numerically integrate the order-n eigenvalue density over its ordered
    domain; equals 1 when the normalization constant is correct.

    One or two positive eigenvalues (n in {2,...,5}), by the tanh-sinh rule
    on (0, L) with ``L**2 = 36 + n (n-1) beta / 4``, 36 plus twice the mean
    sum of squared eigenvalues; two eigenvalues cover (0, L) x (0, lam_1)
    through ``lam_2 = lam_1 * u`` with u on (0, 1).
    """
    k = n // 2
    if k not in (1, 2):
        raise ParameterError("quadrature supports one or two eigenvalues only")
    lam, _, _, w = _tanh_sinh(0.0, math.sqrt(36.0 + n * (n - 1) * beta / 4.0), _STEP)
    if k == 1:
        log_f = _logpdf_positive_spectrum_rows(lam[:, None], n, beta) + np.log(w)
    else:
        u, _, _, wu = _tanh_sinh(0.0, 1.0, _STEP)
        rows = np.stack(np.broadcast_arrays(lam[:, None], lam[:, None] * u), axis=-1)
        log_f = (_logpdf_positive_spectrum_rows(rows.reshape(-1, 2), n, beta)
                 + ((np.log(w) + np.log(lam))[:, None] + np.log(wu)).ravel())
    return float(np.sum(np.exp(log_f)))


def _quad_interval(smooth, lo: float, hi: float, s_lo: float, s_hi: float):
    """Integrate ``smooth * (x-lo)**(s_lo-1) * (hi-x)**(s_hi-1)`` over (lo, hi)
    with positive exponents ``s_lo``, ``s_hi`` by the tanh-sinh rule.
    ``smooth`` takes the nodes' closed-form distances ``(x - lo, hi - x)``,
    as the endpoint powers do, so the singular factors never suffer
    cancellation; the sum runs over the last axis of its value."""
    _, d_lo, d_hi, w = _tanh_sinh(lo, hi, _STEP)
    weights = np.exp(np.log(w) + (s_lo - 1.0) * np.log(d_lo) + (s_hi - 1.0) * np.log(d_hi))
    return np.sum(weights * smooth(d_lo, d_hi), axis=-1)


def dixon_anderson_check(a, s) -> tuple[float, float]:
    """Numerically integrate the interlaced-region integral and compare with
    its closed form.

    ``a`` are the ``m+1`` descending poles, ``s`` the positive exponents;
    the integral dimension ``m = len(a) - 1`` must be 1 or 2.
    Returns ``(lhs, rhs)``: quadrature value and gamma-product closed form.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if a.size != s.size or a.size - 1 not in (1, 2):
        raise ParameterError("need m+1 poles and exponents with m in {1, 2}")
    if np.any(np.diff(a) >= 0):
        raise ParameterError("poles must be strictly descending")
    if not np.all(s > 0):
        raise ParameterError("exponents must be positive")
    m = a.size - 1

    if m == 1:
        lhs = _quad_interval(lambda d_lo, d_hi: 1.0, a[1], a[0], s[1], s[0])
    else:
        # lam_1 in (a1, a0), lam_2 in (a2, a1); lam_1 - lam_2 is the sum of
        # their distances to a1, and the inner interval does not depend on
        # lam_1, so the double integral is one tensor product
        def outer(d1, _):
            def inner(_, d2):
                return (d1[:, None] + d2) * (a[0] - a[1] + d2) ** (s[0] - 1.0)
            return (a[1] - a[2] + d1) ** (s[2] - 1.0) * _quad_interval(inner, a[2], a[1],
                                                                     s[2], s[1])

        lhs = _quad_interval(outer, a[1], a[0], s[1], s[0])
    log_rhs = float(np.sum(gammaln(s)) - gammaln(np.sum(s)))
    iu = np.triu_indices(m + 1, k=1)
    gaps = (a[:, None] - a[None, :])[iu]
    exps = (s[:, None] + s[None, :])[iu] - 1.0
    log_rhs += float(np.sum(exps * np.log(gaps)))
    return lhs, math.exp(log_rhs)
