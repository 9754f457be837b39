"""Random matrix constructors and the Householder reduction to reduced form.

An anti-symmetric tridiagonal matrix in *reduced form* has zero diagonal and
strictly positive superdiagonal entries.  Following the convention used for
every formula in this package, the off-diagonal sequence ``b`` is indexed
from the bottom corner: the superdiagonal reads ``b[n-2], ..., b[0]`` top to
bottom, i.e. ``b[0]`` sits in the bottom-right 2x2 block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import ParameterError, RandomStream, sample_chi_tilde, sample_normal, \
    sample_standard_chi


class SizeError(ValueError):
    """Raised for invalid matrix sizes."""


class DegenerateInputError(ValueError):
    """Raised when an input is singular in a way the algorithm cannot handle."""


@dataclass(frozen=True)
class AntisymTridiagonal:
    """Reduced-form anti-symmetric tridiagonal matrix, stored as its
    positive off-diagonal sequence ``b`` (bottom-up indexing)."""

    b: np.ndarray

    def __post_init__(self) -> None:
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.ndim != 1:
            raise ValueError("off-diagonal sequence must be 1-d")
        if not np.all(b > 0):
            raise ValueError("reduced form requires strictly positive off-diagonals")
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.size + 1

    def superdiagonal_top_down(self) -> np.ndarray:
        """Superdiagonal entries in matrix order (row 1 to row n-1)."""
        return self.b[::-1]

    def to_dense(self) -> np.ndarray:
        return dense_tridiagonal(self.superdiagonal_top_down(), -1.0)

    def symmetric_counterpart(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the symmetric tridiagonal matrix with
        the same characteristic polynomial as ``i * T``."""
        return np.zeros(self.n), self.superdiagonal_top_down()


@dataclass(frozen=True)
class DenseAntisym:
    """Dense real anti-symmetric matrix stored as its full array."""

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(a, -a.T):
            raise ValueError("matrix is not anti-symmetric")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class LowerBidiagonal:
    """Lower bidiagonal matrix with nonnegative entries.

    ``rows`` is ``len(d)`` or ``len(d) + 1``; in the latter case the extra
    row carries only the last subdiagonal entry.
    """

    d: np.ndarray
    e: np.ndarray
    rows: int

    def __post_init__(self) -> None:
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        e = np.atleast_1d(np.asarray(self.e, dtype=float)) if np.size(self.e) else np.zeros(0)
        if self.rows not in (d.size, d.size + 1):
            raise ValueError("rows must equal cols or cols + 1")
        expected_e = d.size - 1 if self.rows == d.size else d.size
        if e.size != expected_e:
            raise ValueError(f"expected {expected_e} subdiagonal entries, got {e.size}")
        if np.any(d < 0) or np.any(e < 0):
            raise ValueError("bidiagonal entries must be nonnegative")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)

    @property
    def cols(self) -> int:
        return self.d.size

    def to_dense(self) -> np.ndarray:
        return dense_lower_bidiagonal(self.d, self.e, self.rows)


@dataclass(frozen=True)
class EnsembleSpec:
    """Validated parameters for one matrix family."""

    kind: str
    n: int
    beta: float
    a: float | None = None

    KINDS = ("antisym-trid", "antisym-dense-gue", "laguerre-bidiag", "c-matrix", "chain")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ParameterError(f"unknown ensemble kind {self.kind!r}")
        if not self.beta > 0:
            raise ParameterError("beta must be positive")
        if self.kind == "laguerre-bidiag":
            if self.a is None:
                raise ParameterError("laguerre-bidiag requires parameter a")
            if not 2 * self.a - (self.n - 1) * self.beta > 0:
                raise ParameterError(
                    f"need 2a - (n-1)*beta > 0, got 2*{self.a} - {self.n - 1}*{self.beta}"
                )
        if self.kind == "c-matrix":
            if self.n < 1:
                raise SizeError("c-matrix requires k >= 1")
        elif self.n < 2:
            raise SizeError("matrix order must be at least 2")


def dense_tridiagonal(sup: np.ndarray, lower_sign: float) -> np.ndarray:
    """Zero-diagonal tridiagonal matrices from superdiagonals read top-down,
    shape ``(..., m)`` -> ``(..., m+1, m+1)``; the subdiagonal is
    ``lower_sign * sup`` (-1 gives ``T`` itself, +1 the symmetric
    counterpart of ``i*T``)."""
    m = sup.shape[-1]
    mats = np.zeros(sup.shape[:-1] + (m + 1, m + 1))
    idx = np.arange(m)
    mats[..., idx, idx + 1] = sup
    mats[..., idx + 1, idx] = lower_sign * sup
    return mats


def dense_lower_bidiagonal(d: np.ndarray, e: np.ndarray, rows: int) -> np.ndarray:
    """Lower bidiagonal matrices from diagonals ``d`` of shape ``(..., cols)``
    and subdiagonals ``e`` of shape ``(..., rows - 1)``: ``(..., rows, cols)``."""
    cols = d.shape[-1]
    mats = np.zeros(d.shape[:-1] + (rows, cols))
    i = np.arange(cols)
    mats[..., i, i] = d
    j = np.arange(e.shape[-1])
    mats[..., j + 1, j] = e
    return mats


def build_antisym_tridiagonal(n: int, beta: float, stream: RandomStream) -> AntisymTridiagonal:
    """Sample the anti-symmetric tridiagonal beta-ensemble: ``b[k-1]`` is a
    chi-tilde variable with ``k * beta / 2`` degrees, i.e. ``b_k**2`` is
    gamma distributed with shape ``k * beta / 4``."""
    return AntisymTridiagonal(antisym_tridiagonal_batch(n, beta, stream, None))


def antisym_tridiagonal_batch(n: int, beta: float, stream: RandomStream,
                              reps: int | None) -> np.ndarray:
    """Vectorized batch of off-diagonal sequences, shape ``(reps, n-1)``;
    ``reps=None`` draws one sequence, shape ``(n-1,)``."""
    if n < 2:
        raise SizeError(f"need n >= 2, got {n}")
    if not beta > 0:
        raise ParameterError("beta must be positive")
    cols = [sample_chi_tilde(k * beta / 2.0, stream, size=reps) for k in range(1, n)]
    return np.array(cols).T


def build_dense_antisym_gue(n: int, stream: RandomStream) -> DenseAntisym:
    """Dense anti-symmetric matrix with i.i.d. N[0, 1/2] strict-upper entries.

    This variance convention makes the first-row sum of squares a rate-1
    gamma with shape (n-1)/2, so the Householder reduction lands exactly on
    the tridiagonal model at beta = 2.
    """
    return DenseAntisym(dense_antisym_gue_rows(n, [stream])[0])


def dense_antisym_gue_rows(n: int, streams) -> np.ndarray:
    """``(len(streams), n, n)`` dense draws; matrix ``i`` is
    ``build_dense_antisym_gue(n, streams[i]).a``, filled directly."""
    if n < 2:
        raise SizeError(f"need n >= 2, got {n}")
    iu = np.triu_indices(n, k=1)
    upper = np.array([sample_normal(0.0, 0.5, s, size=iu[0].size) for s in streams])
    a = np.zeros((len(streams), n, n))
    a[:, iu[0], iu[1]] = upper
    a[:, iu[1], iu[0]] = -upper
    return a


def householder_reduce(dense: DenseAntisym) -> AntisymTridiagonal:
    """Reduce a dense anti-symmetric matrix to reduced tridiagonal form by
    orthogonal similarity: the one-row case of
    :func:`householder_reduce_batch`."""
    return AntisymTridiagonal(householder_reduce_batch(dense.a[None])[0])


def householder_reduce_batch(a: np.ndarray) -> np.ndarray:
    """Off-diagonal sequences ``b`` (bottom-up), shape ``(reps, n-1)``, of the
    reduced forms of a batch of dense anti-symmetric matrices ``(reps, n, n)``.

    One column at a time, vectorized over the batch.  Each reflector uses
    ``v = x + sign(x_1) * ||x|| * e_1`` for stability; a final diagonal sign
    similarity makes every superdiagonal entry positive.  Raises
    :class:`DegenerateInputError` if any matrix has a zero pivot column or
    ends with a zero off-diagonal.
    """
    a = np.array(a, dtype=float)
    n = a.shape[-1]
    for j in range(n - 2):
        x = a[:, j + 1:, j].copy()
        norm = np.sqrt(np.einsum("ri,ri->r", x, x))
        if (norm == 0.0).any():
            raise DegenerateInputError(f"zero pivot column at step {j}")
        v = x.copy()
        v[:, 0] += np.where(x[:, 0] != 0, np.copysign(norm, x[:, 0]), norm)
        v /= np.sqrt(np.einsum("ri,ri->r", v, v))[:, None]
        sub = a[:, j + 1:, j + 1:]
        # two-sided reflector application; anti-symmetry is preserved exactly
        w = x - 2.0 * v * np.einsum("ri,ri->r", v, x)[:, None]
        sub -= 2.0 * v[:, :, None] * np.einsum("ri,rij->rj", v, sub)[:, None, :]
        sub -= 2.0 * np.einsum("rij,rj->ri", sub, v)[:, :, None] * v[:, None, :]
        a[:, j + 1:, j] = w
        a[:, j, j + 1:] = -w
    # a diagonal +-1 similarity makes every superdiagonal entry positive
    sup = np.abs(np.diagonal(a, 1, axis1=1, axis2=2))
    if (sup == 0.0).any():
        raise DegenerateInputError("exact zero off-diagonal produced")
    return sup[:, ::-1]


def build_laguerre_bidiagonal(n: int, a: float, beta: float, stream: RandomStream) -> LowerBidiagonal:
    """Square bidiagonal chi matrix: diagonal ``chi_{2a}, chi_{2a-beta}, ...``,
    subdiagonal ``chi_{(n-1)beta}, ..., chi_beta`` (standard chi convention)."""
    return LowerBidiagonal(*_laguerre_chis(n, a, beta, stream, None), rows=n)


def laguerre_bidiagonal_rows(n: int, a: float, beta: float, streams) -> np.ndarray:
    """``(len(streams), n, n)``; matrix ``i`` is
    ``build_laguerre_bidiagonal(n, a, beta, streams[i]).to_dense()``."""
    return _bidiagonal_rows([_laguerre_chis(n, a, beta, s, None) for s in streams], n)


def _laguerre_chis(n: int, a: float, beta: float, stream: RandomStream, reps: int | None):
    """Diagonal and subdiagonal chi draws of the square Laguerre block, shapes
    ``(reps, n)`` and ``(reps, n-1)``; ``reps=None`` draws one block."""
    if n < 1:
        raise SizeError("need n >= 1")
    if not beta > 0:
        raise ParameterError("beta must be positive")
    if not 2 * a - (n - 1) * beta > 0:
        raise ParameterError("need 2a - (n-1)*beta > 0")
    degrees = ([2 * a - j * beta for j in range(n)]
               + [(n - 1 - j) * beta for j in range(n - 1)])
    return _chi_block(degrees, n, stream, reps)


def build_c_matrix(k: int, beta: float, stream: RandomStream) -> LowerBidiagonal:
    """The (k+1) x k bidiagonal chi matrix obtained from the odd-case block
    construction after removing the trailing zero column: diagonal
    ``chi_{k*beta}, ..., chi_beta``, subdiagonal ``chi_{(2k-1)beta/2}, ..., chi_{beta/2}``.
    """
    return LowerBidiagonal(*_c_matrix_chis(k, beta, stream, None), rows=k + 1)


def c_matrix_rows(k: int, beta: float, streams) -> np.ndarray:
    """``(len(streams), k + 1, k)``; matrix ``i`` is
    ``build_c_matrix(k, beta, streams[i]).to_dense()``."""
    return _bidiagonal_rows([_c_matrix_chis(k, beta, s, None) for s in streams], k + 1)


def _c_matrix_chis(k: int, beta: float, stream: RandomStream, reps: int | None):
    """Diagonal and subdiagonal chi draws of the C-matrix, both of shape
    ``(reps, k)``; ``reps=None`` draws one matrix."""
    if k < 1:
        raise SizeError("need k >= 1")
    if not beta > 0:
        raise ParameterError("beta must be positive")
    degrees = ([(k - j) * beta for j in range(k)]
               + [(2 * (k - j) - 1) * beta / 2.0 for j in range(k)])
    return _chi_block(degrees, k, stream, reps)


def _chi_block(degrees, cols: int, stream: RandomStream, reps: int | None):
    """One standard-chi draw of ``size=reps`` per degree, in order, split
    into the diagonal (the first ``cols``) and the subdiagonal."""
    chis = np.array([sample_standard_chi(k, stream, size=reps) for k in degrees]).T
    return chis[..., :cols], chis[..., cols:]


def _bidiagonal_rows(chis, rows: int) -> np.ndarray:
    """Stack per-matrix ``(d, e)`` chi draws into dense lower bidiagonals.
    The draws are nonnegative, which is all :class:`LowerBidiagonal` checks
    of them."""
    d, e = (np.array(part) for part in zip(*chis))
    return dense_lower_bidiagonal(d, e, rows)
