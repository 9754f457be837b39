"""Characteristic polynomials, the spectrum/first-component decomposition of a
reduced-form anti-symmetric tridiagonal matrix, and its inverse.

The decomposition maps ``T`` to ``(lambda, q[, z])`` where ``lambda`` are the
positive eigenvalues of ``i*T`` in descending order, ``q`` the positive first
components of the corresponding eigenvectors and ``z`` (n odd) the first
component of the null vector, normalized so that
``2*sum(q**2) (+ z**2) = 1``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ensembles import AntisymTridiagonal, dense_tridiagonal


class DegeneracyError(ValueError):
    """Positive eigenvalues closer than the separation tolerance."""


class ConditioningError(ValueError):
    """Loss of positivity while reconstructing a tridiagonal matrix."""


# eigenvalues closer than this fraction of lambda_max are declared degenerate
DEGENERACY_RTOL = 1e-12


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
        if np.any(np.diff(lam) >= 0) or np.any(lam <= 0):
            raise ValueError("eigenvalues must be strictly decreasing and positive")
        if np.any(q <= 0):
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

    def to_json(self) -> str:
        rec = {"n": self.n, "lambda": self.lam.tolist(), "q": self.q.tolist()}
        if self.z is not None:
            rec["z"] = self.z
        return json.dumps(rec)

    @classmethod
    def from_json(cls, text: str) -> "SpectralData":
        rec = json.loads(text)
        return cls(rec["n"], np.asarray(rec["lambda"]), np.asarray(rec["q"]), rec.get("z"))


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
    """Signs and log-magnitudes of ``P_m(x)`` for each ``m`` in ``rows`` at
    every point of the 1-d array ``x``, shape ``(len(rows), x.size)``.

    One pass of the recurrence over all points.  Each point carries its
    scaled pair ``(P_{m-1}, P_m)`` and log-scale ``shift``; a pair whose
    larger magnitude ``mag`` leaves [1e-150, 1e150] is divided by it.  Working
    memory is O(n + len(rows) * x.size).
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
    with np.errstate(divide="ignore"):  # log 0 = -inf where P_m vanishes
        return np.sign(vals), np.log(np.abs(vals)) + shifts


def charpoly_sequence(t: AntisymTridiagonal, x: float | np.ndarray) -> CharPolySequence:
    """Evaluate the three-term recurrence in overflow-safe scaled form at a
    scalar ``x`` or at every point of a 1-d array ``x``."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 1:
        raise ValueError("x must be a scalar or a 1-d array of points")
    signs, logmags = _charpoly(t.b, pts.reshape(-1), range(t.n + 1))
    if pts.ndim == 0:
        signs, logmags = signs[:, 0], logmags[:, 0]
    return CharPolySequence(x=x, signs=signs, logmags=logmags)


def positive_spectrum(t: AntisymTridiagonal) -> SpectralData:
    """Decompose ``T`` into ``(lambda, q[, z])``.

    Eigenvalues come from the similar symmetric tridiagonal matrix;
    first components from the characteristic-polynomial ratio
    ``q_i**2 = |P_{n-1}(lam_i) / P_n'(lam_i)|``, with ``P_{n-1}`` from one
    scaled recurrence over all eigenvalues (and 0, n odd) and
    ``P_n(x) = x**(n%2) prod_j (x**2 - lam_j**2)`` giving
    ``|P_n'(lam_i)| = 2 lam_i**(1 + n%2) prod_{j != i} |lam_i**2 - lam_j**2|``
    and ``|P_n'(0)| = prod_j lam_j**2``.
    """
    n = t.n
    k = n // 2
    d, e = t.symmetric_counterpart()
    vals = eigh_tridiagonal(d, e, eigvals_only=True)
    lam = np.sort(vals)[::-1][:k].copy()
    if lam.size > 1 and np.min(-np.diff(lam)) < DEGENERACY_RTOL * lam[0]:
        raise DegeneracyError("positive eigenvalues below separation tolerance")
    if lam.size and lam[-1] < DEGENERACY_RTOL * lam[0]:
        raise DegeneracyError("positive eigenvalue too close to zero")
    lam_sq = lam ** 2
    log_lam_sq = np.log(lam_sq)
    pts = np.concatenate((lam, [0.0])) if n % 2 else lam
    _, log_p = _charpoly(t.b, pts, (n - 1,))
    log_deriv = np.log(2.0) + (1.0 if n % 2 else 0.5) * log_lam_sq
    if k > 1:
        # row sums of the k x k matrix log |lam_i^2 - lam_j^2| (0 on the
        # diagonal), in row blocks of about 2**15 elements so that n = 1000
        # needs no 2 MiB buffer
        step = max(1, 2 ** 15 // k)
        for lo in range(0, k, step):
            gaps = lam_sq[lo:lo + step, None] - lam_sq
            np.abs(gaps, out=gaps)
            gaps.ravel()[lo::k + 1] = 1.0
            log_deriv[lo:lo + step] += np.log(gaps, out=gaps).sum(axis=1)
    q = np.exp(0.5 * (log_p[0, :k] - log_deriv))
    z = None
    if n % 2 == 1:
        z = float(np.exp(0.5 * (log_p[0, k] - log_lam_sq.sum())))
    return SpectralData(n=n, lam=lam, q=q, z=z)


def positive_spectrum_batch(b_batch: np.ndarray) -> np.ndarray:
    """Positive eigenvalues (descending) for a batch of off-diagonal
    sequences, shape ``(reps, n-1)`` -> ``(reps, n//2)``."""
    n = b_batch.shape[1] + 1
    eig = np.linalg.eigvalsh(dense_tridiagonal(b_batch[:, ::-1], 1.0))
    return eig[:, ::-1][:, :n // 2]


def _first_component_sq_batch(b_batch: np.ndarray) -> np.ndarray:
    """``2 q_1^2`` (squared top first-eigenvector component, doubled) for a
    batch of off-diagonal sequences."""
    vals, vecs = np.linalg.eigh(dense_tridiagonal(b_batch[:, ::-1], 1.0))
    top = np.argmax(vals, axis=1)
    first = vecs[np.arange(b_batch.shape[0]), 0, top]
    return 2.0 * first ** 2


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
    signs, logmags = _charpoly(t.b, xs, (n - 1, n))
    lhs = signs[0] * signs[1] * np.exp(logmags[0] - logmags[1])
    rhs = np.sum(sd.full_weights() / (xs[:, None] - mu), axis=1)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    return float(np.max(rel, initial=0.0))


def resolvent_check(t: AntisymTridiagonal, sd: SpectralData | None = None,
                    rng: np.random.Generator | None = None, points: int = 10) -> float:
    """Residual of the first resolvent entry against its partial-fraction form:
    ``((I - s*iT)^{-1})_{11} = sum_j 2 q_j**2 / (1 - s**2 lam_j**2)`` with an
    added ``z**2`` constant for n odd."""
    if sd is None:
        sd = positive_spectrum(t)
    if rng is None:
        rng = np.random.default_rng(0)
    n = t.n
    it = 1j * t.to_dense()
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    lam_max = sd.lam[0]
    worst = 0.0
    drawn = 0
    while drawn < points:
        s = float(rng.uniform(-0.9, 0.9)) / lam_max
        if np.min(np.abs(1.0 - (s * sd.lam) ** 2)) < 1e-3:
            continue
        drawn += 1
        lhs = np.linalg.solve(np.eye(n) - s * it, e1)[0]
        rhs = float(np.sum(2.0 * sd.q ** 2 / (1.0 - s ** 2 * sd.lam ** 2)))
        if sd.z is not None:
            rhs += sd.z ** 2
        worst = max(worst, abs(lhs - rhs))
    return worst


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
