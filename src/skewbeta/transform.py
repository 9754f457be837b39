"""Structured conjugations and change-of-variables identities.

Contains the alternating-sign perfect shuffle, the bidiagonal-to-tridiagonal
sampling map, the bidiagonal Cholesky reindexing recursion, and exact
log-space identities (squared-Vandermonde product and the spectral-map
Jacobian) with a finite-difference cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import (AntisymTridiagonal, LowerBidiagonal, SizeError,
                        _c_matrix_chis, _laguerre_chis, dense_tridiagonal)
from .spectral import SpectralData, reconstruct_tridiagonal
from .streams import ParameterError, RandomStream


class FiniteDifferenceError(RuntimeError):
    """Finite-difference derivative failed its step-halving consistency check."""


@dataclass(frozen=True)
class SignedPermutation:
    """Signed permutation of size 2n: row ``i`` of the matrix has a single
    nonzero ``sign[i]`` in column ``col[i]``."""

    size: int
    col: np.ndarray
    sign: np.ndarray

    def __post_init__(self) -> None:
        col = np.asarray(self.col, dtype=np.int64)
        sign = np.asarray(self.sign, dtype=np.int64)
        if col.size != self.size or sign.size != self.size:
            raise ParameterError("column and sign arrays must have length size")
        if sorted(col.tolist()) != list(range(self.size)):
            raise ParameterError("column map must be a permutation")
        if not np.all(np.abs(sign) == 1):
            raise ParameterError("signs must be +-1")
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "sign", sign)

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=np.int64)
        m[np.arange(self.size), self.col] = self.sign
        return m


def asps(n: int) -> SignedPermutation:
    """Alternating-sign perfect shuffle of size 2n.

    The underlying shuffle sends row i (1-based) to column (i+1)/2 for odd
    i and n + i/2 for even i; the sign of row i is (-1)**floor(i/2).
    """
    if n < 1:
        raise SizeError("need n >= 1")
    col = np.empty(2 * n, dtype=np.int64)
    sign = np.empty(2 * n, dtype=np.int64)
    for r in range(2 * n):
        i = r + 1
        col[r] = (i + 1) // 2 - 1 if i % 2 == 1 else n + i // 2 - 1
        sign[r] = -1 if (i // 2) % 2 == 1 else 1
    return SignedPermutation(size=2 * n, col=col, sign=sign)


def block_embedding(y: np.ndarray) -> np.ndarray:
    """The anti-symmetric matrix ``[[0, -Y], [Y^T, 0]]``; its eigenvalues are
    plus/minus i times the singular values of Y."""
    y = np.asarray(y, dtype=float)
    r, c = y.shape
    v = np.zeros((r + c, r + c))
    v[:r, r:] = -y
    v[r:, :r] = y.T
    return v


def _interleave(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(d_0, e_0, d_1, e_1, ...) along the last axis; ``e`` may be one
    shorter than ``d``."""
    out = np.empty(d.shape[:-1] + (d.shape[-1] + e.shape[-1],))
    out[..., 0::2] = d
    out[..., 1::2] = e
    return out


def tridiagonal_from_bidiagonal(b: LowerBidiagonal) -> np.ndarray:
    """Dense reduced-form tridiagonal whose superdiagonal (top-down) reads
    the bidiagonal entries interleaved: d_0, e_0, d_1, e_1, ..."""
    return dense_tridiagonal(_interleave(b.d, b.e), -1.0)


def shuffle_conjugation_check(b: LowerBidiagonal) -> float:
    """Max deviation of ``Q V_B Q^T`` from the tridiagonal read off ``B``;
    exactly zero (the conjugation only permutes entries and flips signs)."""
    if b.rows != b.cols:
        raise SizeError("shuffle conjugation needs a square bidiagonal block")
    q = asps(b.cols).matrix().astype(float)
    v = block_embedding(b.to_dense())
    target = tridiagonal_from_bidiagonal(b)
    return float(np.max(np.abs(q @ v @ q.T - target)))


def laguerre_map_sample(n: int, beta: float, stream: RandomStream) -> AntisymTridiagonal:
    """The one-row case of :func:`laguerre_map_batch`."""
    return AntisymTridiagonal(laguerre_map_batch(n, beta, stream, None))


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
        d, e = _laguerre_chis(n // 2, (n - 1) * beta / 4.0, beta, stream, reps)
    else:
        d, e = _c_matrix_chis(n // 2, beta, stream, reps)
    return _interleave(d, e)[..., ::-1] / math.sqrt(2.0)


def cholesky_reindex(bsq) -> np.ndarray:
    """Solve the bidiagonal refactorization recursion.

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
    if bsq.size < 3 or bsq.size % 2 == 0:
        raise ParameterError("need an odd number (>= 3) of squared entries")
    if not np.all(bsq > 0):
        raise ParameterError("squared entries must be positive")
    k = (bsq.size - 1) // 2
    x = np.empty(2 * k + 2)  # x[j] holds x_j^2; slots 0,1 unused
    y = bsq[0]
    for i in range(1, k + 1):
        x[2 * i + 1] = bsq[2 * i - 1] + y
        x[2 * i] = bsq[2 * i - 1] * bsq[2 * i] / x[2 * i + 1]
        y = bsq[2 * i] * y / x[2 * i + 1]
    return x[2:]


def reversed_cholesky_residual(c: LowerBidiagonal, b_top_sq: float) -> float:
    """Relative residual between :func:`cholesky_reindex` and a direct
    reversed-Cholesky factor of the Gram matrix of ``c``, computed by
    orthogonal rotations of ``c`` itself.

    ``c`` is the (k+1) x k chi bidiagonal block; ``b_top_sq`` supplies the
    extra squared entry ``b_{2k+1}^2`` the recursion consumes.  The factor
    ``X`` (lower bidiagonal, ``X^T X = c^T c``) must have squared diagonal
    ``(x_{2k+1}^2, x_{2k-1}^2, ..., x_3^2)`` and squared subdiagonal
    ``(x_{2k-2}^2, ..., x_2^2)``, both top-down.
    """
    if c.rows != c.cols + 1:
        raise SizeError("expected a (k+1) x k bidiagonal block")
    k = c.cols
    # the bottom-up read-off of c, as in laguerre_map_batch, squared
    x = cholesky_reindex(np.append(_interleave(c.d, c.e)[::-1] ** 2, b_top_sq))

    # X = Q^T c for the Givens rotations that chase the last row of c up to
    # the first: row j of X has hypot(d_j, g) on the diagonal and
    # d_j e_{j-1} / X_jj below it, where the carried entry g starts at
    # e_{k-1} and becomes g e_{j-1} / X_jj.  Every entry is a hypot, product
    # or quotient of positive numbers, so tiny entries keep full relative
    # accuracy; a dense QR or Cholesky factor resolves them only to
    # eps * ||c||.
    diag_sq = np.empty(k)
    sub_sq = np.empty(k - 1)
    g = c.e[k - 1]
    for j in range(k - 1, -1, -1):
        x_jj = math.hypot(c.d[j], g)
        diag_sq[j] = x_jj ** 2
        if j:
            sub_sq[j - 1] = (c.d[j] * c.e[j - 1] / x_jj) ** 2
            g *= c.e[j - 1] / x_jj

    # x[j] = x_{j+2}^2; x_{2k}^2 involves b_{2k+1}^2, which c does not hold
    expected = np.concatenate([x[:-2:2], x[1::2]])
    got = np.concatenate([diag_sq, sub_sq])[::-1]
    return float(np.max(np.abs(got - expected) / expected))


def vandermonde_identity_check(t: AntisymTridiagonal, sd: SpectralData) -> float:
    """Log-space residual of the squared-Vandermonde product formula
    relating off-diagonals, eigenvalues and first components."""
    n = t.n
    k = n // 2
    lam, q = sd.lam, sd.q
    lhs = 0.0
    if k > 1:
        lam_sq = lam ** 2
        iu = np.triu_indices(k, k=1)
        lhs = 2.0 * float(np.sum(np.log(np.abs(lam_sq[:, None] - lam_sq[None, :])[iu])))
    powers = np.arange(1, n)
    rhs = (float(np.sum(powers * np.log(t.b)))
           - k * math.log(2.0)
           - 2.0 * float(np.sum(np.log(q))))
    if n % 2 == 0:
        rhs -= float(np.sum(np.log(lam)))
    else:
        rhs -= math.log(sd.z) + 3.0 * float(np.sum(np.log(lam)))
    return abs(lhs - rhs)


def jacobian_analytic(t: AntisymTridiagonal, sd: SpectralData) -> float:
    """The closed-form Jacobian of the off-diagonal -> spectrum map,
    ``prod b_i / (prod q_i lam_i)`` with an extra ``z`` factor for odd n."""
    val = (float(np.sum(np.log(t.b)))
           - float(np.sum(np.log(sd.q)))
           - float(np.sum(np.log(sd.lam))))
    if sd.n % 2 == 1:
        val -= math.log(sd.z)
    return math.exp(val)


def _free_coordinates(sd: SpectralData) -> np.ndarray:
    k = sd.n // 2
    if sd.n % 2 == 0:
        return np.concatenate([sd.lam, sd.q[:k - 1]])
    return np.concatenate([sd.lam, sd.q])


def _from_free_coordinates(vec: np.ndarray, n: int) -> SpectralData:
    k = n // 2
    lam = vec[:k]
    if n % 2 == 0:
        q_head = vec[k:]
        resid = 0.5 - float(np.sum(q_head ** 2))
        if resid <= 0:
            raise FiniteDifferenceError("normalization leaves no room for q_k")
        q = np.concatenate([q_head, [math.sqrt(resid)]])
        return SpectralData(n, lam, q)
    q = vec[k:]
    resid = 1.0 - 2.0 * float(np.sum(q ** 2))
    if resid <= 0:
        raise FiniteDifferenceError("normalization leaves no room for z")
    return SpectralData(n, lam, q, z=math.sqrt(resid))


def _fd_jacobian_det(sd: SpectralData, h_scale: float) -> float:
    vec = _free_coordinates(sd)
    n = sd.n
    dim = vec.size
    jac = np.empty((dim, dim))
    for j in range(dim):
        h = h_scale * max(1.0, abs(vec[j]))
        vp, vm = vec.copy(), vec.copy()
        vp[j] += h
        vm[j] -= h
        bp = reconstruct_tridiagonal(_from_free_coordinates(vp, n)).b
        bm = reconstruct_tridiagonal(_from_free_coordinates(vm, n)).b
        jac[:, j] = (bp - bm) / (2.0 * h)
    return abs(float(np.linalg.det(jac)))


def jacobian_numeric(sd: SpectralData, h_scale: float = 1e-6,
                     richardson_rtol: float = 1e-4) -> float:
    """Finite-difference determinant of the spectrum -> off-diagonal map in
    the free chart (the last component is eliminated by normalization).

    Central differences with step ``h_scale * max(1, |coordinate|)``; the
    value must agree with a half-step recomputation to ``richardson_rtol``.
    """
    coarse = _fd_jacobian_det(sd, h_scale)
    fine = _fd_jacobian_det(sd, h_scale / 2.0)
    if abs(coarse - fine) > richardson_rtol * max(abs(fine), 1e-300):
        raise FiniteDifferenceError(
            f"step-halving disagreement: {coarse} vs {fine} at h={h_scale}")
    return fine
