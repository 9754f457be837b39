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

from .streams import ParameterError, RandomStream, gamma_table


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
        error = _off_diagonal_error(b)
        if error is not None:
            raise error
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.size + 1

    def superdiagonal_top_down(self) -> np.ndarray:
        """Superdiagonal entries in matrix order (row 1 to row n-1)."""
        return self.b[::-1]


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
        if not 0 < self.beta < np.inf:
            raise ParameterError(f"beta must be positive and finite, got {self.beta}")
        if self.kind == "antisym-dense-gue" and self.beta != 2.0:
            raise ParameterError(f"beta must be 2 for antisym-dense-gue, got {self.beta}")
        if self.a is not None and self.kind != "laguerre-bidiag":
            raise ParameterError(f"a applies to laguerre-bidiag only, got a={self.a} "
                                 f"for {self.kind}")
        if self.kind == "laguerre-bidiag":
            if self.a is None:
                raise ParameterError("laguerre-bidiag requires parameter a")
            if not abs(self.a) < np.inf:
                raise ParameterError(f"a must be finite, got {self.a}")
            if not 2 * self.a - (self.n - 1) * self.beta > 0:
                raise ParameterError(
                    f"need 2a - (n-1)*beta > 0, got 2*{self.a} - {self.n - 1}*{self.beta}"
                )
        if self.kind == "c-matrix":
            if self.n < 1:
                raise SizeError("c-matrix requires k >= 1")
        elif self.n < 2:
            raise SizeError("matrix order must be at least 2")


def _off_diagonal_error(b: np.ndarray) -> ValueError | None:
    """The error of the first row of ``b`` (one off-diagonal sequence, or one
    per row) with an entry that is not strictly positive (NaN included) or,
    failing that, not finite; None if every row passes."""
    ok = (b > 0) & (b < np.inf)
    if ok.all():
        return None
    first = np.atleast_2d(b)[np.argmin(np.atleast_2d(ok).all(axis=1))]
    if (first > 0).all():
        return ValueError("off-diagonal sequence must be finite")
    return ValueError("reduced form requires strictly positive off-diagonals")


def _strictly_descending_positive(x: np.ndarray) -> np.ndarray:
    """Which rows (the last axis) of ``x`` are finite, positive and strictly
    descending: the support of the positive spectra of this package."""
    return (((x > 0) & (x < np.inf)).all(axis=-1)
            & (x[..., 1:] < x[..., :-1]).all(axis=-1))


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


def _interleave(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """``upper_1, lower_1, upper_2, ...`` along the last axis (leading axes
    broadcast), strictly descending exactly when the two interlace."""
    seq = np.empty(np.broadcast_shapes(upper.shape[:-1], lower.shape[:-1])
                   + (upper.shape[-1] + lower.shape[-1],))
    seq[..., 0::2] = upper
    seq[..., 1::2] = lower
    return seq


def build_antisym_tridiagonal(n: int, beta: float, stream: RandomStream) -> AntisymTridiagonal:
    """Sample the anti-symmetric tridiagonal beta-ensemble: ``b[k-1]`` is a
    chi-tilde variable with ``k * beta / 2`` degrees, i.e. ``b_k**2`` is
    gamma distributed with shape ``k * beta / 4``."""
    return AntisymTridiagonal(antisym_tridiagonal_batch(n, beta, stream, None))


def antisym_tridiagonal_batch(n: int, beta: float, stream: RandomStream,
                              reps: int | None) -> np.ndarray:
    """Vectorized batch of off-diagonal sequences, shape ``(reps, n-1)``;
    ``reps=None`` draws one sequence, shape ``(n-1,)``."""
    return antisym_tridiagonal_rows(n, beta, [stream], reps)[0]


def antisym_tridiagonal_rows(n: int, beta, streams, reps: int | None = None) -> np.ndarray:
    """Off-diagonal sequences drawn on each stream, shape ``(len(streams),
    [reps,] n-1)``: row ``i`` is ``antisym_tridiagonal_batch(n, beta_i,
    streams[i], reps)``, where ``beta`` is one value or a column
    ``(len(streams), 1)`` of one value per stream."""
    if n < 2:
        raise SizeError(f"need n >= 2, got {n}")
    return gamma_table(np.arange(1, n) * (beta / 4.0), streams, reps, scale=1.0).swapaxes(1, -1)


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
    # N[0, 1/2]: the generator takes the standard deviation
    upper = np.array([s.generator.normal(0.0, np.sqrt(0.5), size=iu[0].size) for s in streams])
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


def _laguerre_chis(n: int, a: float, beta: float, streams, reps: int | None = None):
    """Diagonal and subdiagonal chi draws of the square n x n Laguerre
    bidiagonal block, shapes ``(len(streams), [reps,] n)`` and
    ``(len(streams), [reps,] n-1)``: diagonal ``chi_{2a}, chi_{2a-beta},
    ...``, subdiagonal ``chi_{(n-1)beta}, ..., chi_beta`` (standard chi
    convention)."""
    if n < 1:
        raise SizeError("need n >= 1")
    if not 2 * a - (n - 1) * beta > 0:
        raise ParameterError("need 2a - (n-1)*beta > 0")
    degrees = ([2 * a - j * beta for j in range(n)]
               + [(n - 1 - j) * beta for j in range(n - 1)])
    return _chi_block(degrees, n, streams, reps)


def _c_matrix_chis(k: int, beta: float, streams, reps: int | None = None):
    """Diagonal and subdiagonal chi draws of the C-matrix, both of shape
    ``(len(streams), [reps,] k)``.  The C-matrix is the (k+1) x k lower
    bidiagonal chi block of the odd-case construction with its trailing
    zero column removed: diagonal ``chi_{k*beta}, ..., chi_beta``,
    subdiagonal ``chi_{(2k-1)beta/2}, ..., chi_{beta/2}``."""
    if k < 1:
        raise SizeError("need k >= 1")
    degrees = ([(k - j) * beta for j in range(k)]
               + [(2 * (k - j) - 1) * beta / 2.0 for j in range(k)])
    return _chi_block(degrees, k, streams, reps)


def _chi_block(degrees, cols: int, streams, reps: int | None):
    """Standard-chi draws of the given degrees, one row per stream, split
    into the diagonal (the first ``cols``) and the subdiagonal."""
    chis = gamma_table(np.divide(degrees, 2.0), streams, reps, scale=2.0).swapaxes(1, -1)
    return chis[..., :cols], chis[..., cols:]
