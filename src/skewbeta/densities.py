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
from scipy.integrate import quad
from scipy.special import gammaln

from .streams import ParameterError


@dataclass(frozen=True)
class LogDensityValue:
    log_value: float
    in_support: bool

    @classmethod
    def out_of_support(cls) -> "LogDensityValue":
        return cls(-math.inf, False)


def _strictly_descending_positive(x: np.ndarray) -> bool:
    return bool(np.all(x > 0) and np.all(np.diff(x) < 0))


def _log_vandermonde_sq(x_sq: np.ndarray, power: float) -> float:
    """``power * sum_{j<k} log |x_j^2 - x_k^2|`` for a strictly ordered input."""
    if x_sq.size < 2:
        return 0.0
    diffs = np.abs(x_sq[:, None] - x_sq[None, :])
    iu = np.triu_indices(x_sq.size, k=1)
    return float(power * np.sum(np.log(diffs[iu])))


@functools.cache
def log_normalization_C(n: int, beta: float) -> float:
    """Log of the eigenvalue-density normalization constant (memoized: the
    quadrature checks evaluate the density thousands of times per order)."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if not beta > 0:
        raise ParameterError("beta must be positive")
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
    anti-symmetric tridiagonal beta-ensemble of order ``n``."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    k = n // 2
    if lam.size != k:
        raise ParameterError(f"expected {k} eigenvalues for n={n}")
    if not _strictly_descending_positive(lam):
        return LogDensityValue.out_of_support()
    expo = beta / 2.0 - 1.0 if n % 2 == 0 else 3.0 * beta / 2.0 - 1.0
    val = (-log_normalization_C(n, beta)
           + expo * float(np.sum(np.log(lam)))
           - float(np.sum(lam ** 2))
           + _log_vandermonde_sq(lam ** 2, beta))
    return LogDensityValue(val, True)


def log_laguerre_constant(n: int, a: float, beta: float) -> float:
    """Log of the Laguerre eigenvalue-density constant ``c_L``."""
    js = np.arange(1, n + 1)
    return float(-n * a * math.log(2.0)
                 + np.sum(gammaln(beta / 2.0)
                          - gammaln(beta * js / 2.0)
                          - gammaln(a - beta * (n - js) / 2.0)))


def logpdf_laguerre(lam, n: int, a: float, beta: float) -> LogDensityValue:
    """Joint log-density of the descending eigenvalues of the beta-Laguerre
    ensemble of size ``n`` and parameter ``a`` (chi-entry convention)."""
    if not 2 * a - (n - 1) * beta > 0:
        raise ParameterError("need 2a - (n-1)*beta > 0")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.size != n:
        raise ParameterError(f"expected {n} eigenvalues")
    if not _strictly_descending_positive(lam):
        return LogDensityValue.out_of_support()
    diffs_log = 0.0
    if n > 1:
        d = np.abs(lam[:, None] - lam[None, :])
        iu = np.triu_indices(n, k=1)
        diffs_log = float(beta * np.sum(np.log(d[iu])))
    val = (log_laguerre_constant(n, a, beta)
           + diffs_log
           + (a - (n - 1) * beta / 2.0 - 1.0) * float(np.sum(np.log(lam)))
           - 0.5 * float(np.sum(lam)))
    return LogDensityValue(val, True)


def logpdf_singular_values(sigma, n: int, a: float, beta: float) -> LogDensityValue:
    """Joint log-density of the descending singular values of the Laguerre
    bidiagonal matrix (square-root change of variables of the eigenvalue law)."""
    if not 2 * a - (n - 1) * beta > 0:
        raise ParameterError("need 2a - (n-1)*beta > 0")
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    if sigma.size != n:
        raise ParameterError(f"expected {n} singular values")
    if not _strictly_descending_positive(sigma):
        return LogDensityValue.out_of_support()
    val = (n * math.log(2.0) + log_laguerre_constant(n, a, beta)
           + _log_vandermonde_sq(sigma ** 2, beta)
           + (2.0 * a - (n - 1) * beta - 1.0) * float(np.sum(np.log(sigma)))
           - 0.5 * float(np.sum(sigma ** 2)))
    return LogDensityValue(val, True)


def _interlaces(upper: np.ndarray, lower: np.ndarray, tail_positive: bool) -> bool:
    """Strict interlacing ``upper_1 > lower_1 > upper_2 > ...``; with
    ``tail_positive`` the final lower entry must also exceed 0."""
    seq = np.empty(upper.size + lower.size)
    seq[0::2] = upper
    seq[1::2] = lower
    if np.any(np.diff(seq) >= 0):
        return False
    if tail_positive and seq[-1] <= 0:
        return False
    return True


def conditional_logpdf_up(x, lam, n: int, beta: float) -> LogDensityValue:
    """Log-density of the positive eigenvalues of the bordered matrix of order
    ``n+1`` given those (``lam``) of the order-``n`` matrix.

    ``x`` interlaces ``lam`` from above: ``x_1 > lam_1 > x_2 > ...``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    kx, kl = (n + 1) // 2, n // 2
    if x.size != kx or lam.size != kl:
        raise ParameterError(f"expected {kx} new and {kl} old eigenvalues for n={n}")
    if not (_strictly_descending_positive(x)
            and (kl == 0 or _strictly_descending_positive(lam))
            and _interlaces(x, lam, tail_positive=(n % 2 == 1))):
        return LogDensityValue.out_of_support()
    x_sq, lam_sq = x ** 2, lam ** 2
    cross = float(np.sum(np.log(np.abs(x_sq[:, None] - lam_sq[None, :])))) if kl else 0.0
    if n % 2 == 0:
        val = (kx * math.log(2.0) - kx * gammaln(beta / 2.0)
               + float(np.sum(np.log(x)))
               - float(np.sum(x_sq) - np.sum(lam_sq))
               + _log_vandermonde_sq(x_sq, 1.0)
               - _log_vandermonde_sq(lam_sq, beta - 1.0)
               + (beta / 2.0 - 1.0) * cross)
    else:
        val = (kx * math.log(2.0) - kl * gammaln(beta / 2.0) - gammaln(beta / 4.0)
               + (beta / 2.0 - 1.0) * float(np.sum(np.log(x)))
               - (3.0 * beta / 4.0 - 1.0) * 2.0 * float(np.sum(np.log(lam)))
               - float(np.sum(x_sq) - np.sum(lam_sq))
               + _log_vandermonde_sq(x_sq, 1.0)
               - _log_vandermonde_sq(lam_sq, beta - 1.0)
               + (beta / 2.0 - 1.0) * cross)
    return LogDensityValue(val, True)


def conditional_logpdf_down(x, lam, n: int, beta: float) -> LogDensityValue:
    """Log-density of the positive eigenvalues of the corank-1 projected
    matrix of order ``n`` given those (``lam``) of the order-``n+1`` matrix.

    ``x`` interlaces ``lam`` from below: ``lam_1 > x_1 > lam_2 > ...``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    kx, kl = n // 2, (n + 1) // 2
    if x.size != kx or lam.size != kl:
        raise ParameterError(f"expected {kx} projected and {kl} original eigenvalues for n={n}")
    if not (_strictly_descending_positive(lam)
            and (kx == 0 or _strictly_descending_positive(x))
            and _interlaces(lam, x, tail_positive=((n + 1) % 2 == 1))):
        return LogDensityValue.out_of_support()
    if kx == 0:
        return LogDensityValue(0.0, True)
    x_sq, lam_sq = x ** 2, lam ** 2
    cross = float(np.sum(np.log(np.abs(x_sq[:, None] - lam_sq[None, :]))))
    if (n + 1) % 2 == 1:
        # poles are (lam^2, 0) with Dirichlet weights ((beta/2)^kl, beta/4)
        val = (kx * math.log(2.0)
               + gammaln((n + 1) * beta / 4.0)
               - kl * gammaln(beta / 2.0) - gammaln(beta / 4.0)
               + (beta / 2.0 - 1.0) * float(np.sum(np.log(x)))
               - (3.0 * beta / 4.0 - 1.0) * 2.0 * float(np.sum(np.log(lam)))
               + _log_vandermonde_sq(x_sq, 1.0)
               - _log_vandermonde_sq(lam_sq, beta - 1.0)
               + (beta / 2.0 - 1.0) * cross)
    else:
        val = (kx * math.log(2.0)
               + gammaln((n + 1) * beta / 4.0)
               - kl * gammaln(beta / 2.0)
               + float(np.sum(np.log(x)))
               + _log_vandermonde_sq(x_sq, 1.0)
               - _log_vandermonde_sq(lam_sq, beta - 1.0)
               + (beta / 2.0 - 1.0) * cross)
    return LogDensityValue(val, True)


def dirichlet_logpdf(x, s) -> LogDensityValue:
    """Standard Dirichlet log-density on the open simplex."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if x.size != s.size or s.size == 0:
        raise ParameterError("point and parameter vectors must have equal nonzero length")
    if not np.all(s > 0):
        raise ParameterError("dirichlet parameters must be positive")
    if np.any(x <= 0) or abs(np.sum(x) - 1.0) > 1e-9:
        return LogDensityValue.out_of_support()
    val = float(gammaln(np.sum(s)) - np.sum(gammaln(s)) + np.sum((s - 1.0) * np.log(x)))
    return LogDensityValue(val, True)


class QuadratureError(RuntimeError):
    """Quadrature failed to converge to the requested accuracy."""


def eigenvalue_density_total_mass(n: int, beta: float) -> float:
    """Numerically integrate the order-n eigenvalue density over its ordered
    domain; equals 1 when the normalization constant is correct.

    Supports one or two positive eigenvalues (n in {2,...,5}).  For
    ``beta < 2`` the substitution ``lam = u**(2/beta)`` absorbs the
    algebraic singularity at the origin.
    """
    from scipy.integrate import dblquad

    k = n // 2
    if k not in (1, 2):
        raise ParameterError("quadrature supports one or two eigenvalues only")
    powered = beta < 2

    def to_lam(u):
        return u ** (2.0 / beta) if powered else u

    def jac(u):
        return (2.0 / beta) * u ** (2.0 / beta - 1.0) if powered else 1.0

    if k == 1:
        def f(u):
            v = logpdf_positive_spectrum([to_lam(u)], n, beta)
            return math.exp(v.log_value) * jac(u) if v.in_support else 0.0

        val, _ = quad(f, 0.0, np.inf, epsabs=1e-10, epsrel=1e-9, limit=400)
    else:
        def f(u2, u1):
            v = logpdf_positive_spectrum([to_lam(u1), to_lam(u2)], n, beta)
            return math.exp(v.log_value) * jac(u1) * jac(u2) if v.in_support else 0.0

        val, _ = dblquad(f, 0.0, np.inf, 0.0, lambda u1: u1,
                         epsabs=1e-8, epsrel=1e-7)
    if not math.isfinite(val):
        raise QuadratureError("non-finite total mass")
    return val


def _quad_interval(smooth, lo: float, hi: float, s_lo: float, s_hi: float,
                   epsabs: float = 1e-11, epsrel: float = 1e-10) -> float:
    """Integrate ``smooth(x) * (x-lo)**(s_lo-1) * (hi-x)**(s_hi-1)`` over
    (lo, hi) with positive exponents ``s_lo``, ``s_hi``.

    A sine-squared substitution expresses both endpoint distances in closed
    form, so the algebraic singular factors never suffer cancellation; the
    transformed integrand goes to adaptive Gauss-Kronrod.
    """
    width = hi - lo

    def g(theta):
        sn, cs = math.sin(theta), math.cos(theta)
        x = lo + width * sn * sn
        endpoint = (width ** (s_lo + s_hi - 1.0)
                    * 2.0 * sn ** (2.0 * s_lo - 1.0) * cs ** (2.0 * s_hi - 1.0))
        return smooth(x) * endpoint

    val, _ = quad(g, 0.0, math.pi / 2.0, epsabs=epsabs, epsrel=epsrel, limit=400)
    if not math.isfinite(val):
        raise QuadratureError("non-finite quadrature value")
    return val


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
        lhs = _quad_interval(lambda x: 1.0, a[1], a[0], s[1], s[0])
    else:
        def outer(l1):
            inner = _quad_interval(lambda l2: (l1 - l2) * (a[0] - l2) ** (s[0] - 1.0),
                                   a[2], a[1], s[2], s[1])
            return (l1 - a[2]) ** (s[2] - 1.0) * inner

        lhs = _quad_interval(outer, a[1], a[0], s[1], s[0],
                             epsabs=1e-10, epsrel=1e-9)
    log_rhs = float(np.sum(gammaln(s)) - gammaln(np.sum(s)))
    iu = np.triu_indices(m + 1, k=1)
    gaps = (a[:, None] - a[None, :])[iu]
    exps = (s[:, None] + s[None, :])[iu] - 1.0
    log_rhs += float(np.sum(exps * np.log(gaps)))
    return lhs, math.exp(log_rhs)
