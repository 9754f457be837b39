"""Inductive bordered-matrix sampler for the positive spectra.

A size-(n+1) matrix is obtained from a size-n one by adding a border row
and column; the new positive eigenvalues are the roots of an explicit
random rational function in the squared variable.  The reverse move (a
random corank-1 projection with Dirichlet weights) is also provided.

Every root solve goes through :func:`secular_roots`, which works on a batch
of rational functions at once; the single-matrix functions are its one-row
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .streams import ParameterError, RandomStream, sample_dirichlet, sample_gamma


class RootBracketError(RuntimeError):
    """A secular root did not converge or failed its residual check."""


@dataclass(frozen=True)
class RandomRational:
    """The function ``constant - sum_i c_i / (y - a_i)`` with strictly
    descending poles ``a`` and positive weights ``c``.

    With ``constant = 1`` there is exactly one real root per pole gap plus
    one above the top pole; with ``constant = 0`` there is one root per
    interior gap only.
    """

    constant: int
    a: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        if self.constant not in (0, 1):
            raise ParameterError("constant must be 0 or 1")
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        if a.size != c.size or a.size == 0:
            raise ParameterError("poles and weights must have equal nonzero length")
        if np.any(np.diff(a) >= 0):
            raise ParameterError("poles must be strictly descending")
        if not np.all(c > 0):
            raise ParameterError("weights must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def value(self, y: float) -> float:
        return self.constant - float(np.sum(self.c / (y - self.a)))


@dataclass(frozen=True)
class ChainState:
    """Positive spectrum (descending) of the chain after ``m`` border steps."""

    m: int
    lam: np.ndarray


_EPS = np.finfo(float).eps
# bisection floor for a bracket end at the anchor itself (a zero weight)
_TINY = np.nextafter(0.0, 1.0)
# below this offset or gap the float grid is absolute: a gap this narrow
# holds no resolvable root and a residual test says nothing
_NORMAL = np.finfo(float).tiny
_MAX_ITER = 100
# rows * p * max(p, 8) elements per block of rows; bounds the solver's
# temporaries and so its peak memory
_BLOCK = 1 << 15


def secular_roots(constant: int, poles, weights) -> np.ndarray:
    """Roots of ``constant - sum_j c_j / (y - a_j)`` for every row of the
    ``(rows, p)`` arrays ``poles`` (descending per row) and ``weights``
    (positive; one that underflowed to 0 is allowed).

    Returns ``(rows, p)`` roots for ``constant = 1`` (one above the top
    pole, one per pole gap) and ``(rows, p - 1)`` for ``constant = 0``,
    descending per row.  A gap of zero width (a repeated pole), or one
    narrower than the smallest normal double, returns its lower pole.
    Each root is solved on its offset from the nearer pole of its gap (the
    top pole for the root above it) by a safeguarded rational iteration;
    see :func:`_iterate`.  Raises :class:`RootBracketError` if a root does
    not converge or fails the final residual check.
    """
    a = np.asarray(poles, dtype=float)
    c = np.asarray(weights, dtype=float)
    if a.ndim != 2 or a.shape != c.shape or a.shape[1] == 0:
        raise ParameterError("poles and weights must be (rows, p) arrays with p >= 1")
    if not (np.all(np.diff(a, axis=1) <= 0) and np.all(c >= 0)):
        raise ParameterError("poles must descend and weights be nonnegative")
    rows, p = a.shape
    roots = np.empty((rows, p - 1 + constant))
    # each root also carries a few dozen per-root temporaries, so a row
    # counts as at least 8 poles wide
    step = max(1, _BLOCK // (p * max(p, 8)))
    for s in range(0, rows, step):
        roots[s:s + step] = _solve_block(constant, a[s:s + step], c[s:s + step])
    return roots


def _terms(constant, tau, D, c, E):
    """The secular function at the anchor offsets ``tau``.

    Returns ``f``, ``psi`` (the terms of the poles at or below the root's
    gap), ``phi`` (those above it) and the products
    ``gL = (a_L - y) psi'`` and ``gU = (a_U - y) phi'`` with the poles
    ``a_L`` and ``a_U`` that bound the gap.  A pole lies below the root
    exactly when its term ``r = c / (y - a)`` is positive.  ``E`` holds
    ``a_L - a_j`` for the poles below and ``a_U - a_j`` for those above;
    ``(a_L - y) / (y - a_j) = -1 + (a_L - a_j) / (y - a_j)`` with the last
    ratio in [0, 1), so nothing overflows when the root hugs its anchor.
    """
    t = tau[:, None] - D  # y - a_j, exactly tau at the anchor pole
    r = c / t
    np.divide(E, t, out=t)
    t *= r  # r (a_side - a_j) / (y - a_j), of the sign of r
    part = np.maximum(r, 0.0)
    psi = -np.einsum("ij->i", part)
    phi = -np.einsum("ij->i", np.minimum(r, 0.0, out=part))
    gL = psi + np.einsum("ij->i", np.maximum(t, 0.0, out=part))
    gU = phi + np.einsum("ij->i", np.minimum(t, 0.0, out=part))
    return constant + psi + phi, psi, phi, gL, gU


def _positive_or_inf(x: np.ndarray) -> np.ndarray:
    """``x`` where positive, else inf: a bound ``c / x`` becomes 0."""
    return np.where(x > 0, x, np.inf)


def _solve_block(constant: int, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Roots of one block of rows, flattened to (row, root) pairs; see
    :func:`secular_roots`."""
    rows, p = a.shape
    lowest = 1 - constant
    row = np.repeat(np.arange(rows), p - lowest)
    low = np.tile(np.arange(lowest, p), rows)  # pole just below each root
    up = np.maximum(low - 1, 0)                # pole just above (none for the top)
    roots = a[row, low]
    top = low == 0
    # half the gap; for the top root its whole bracket width sum(c)
    half = np.where(top, c.sum(axis=1)[row], 0.5 * (a[row, up] - roots))
    # a gap of zero (or subnormal) width keeps its lower pole as its root
    live = np.flatnonzero(half >= _NORMAL)
    row, low, up, top, half = row[live], low[live], up[live], top[live], half[live]
    ar, cw = a[row], c[row]
    n = np.arange(live.size)
    side = np.where(np.arange(p) >= low[:, None], low[:, None], up[:, None])
    E = np.take_along_axis(ar, side, axis=1) - ar
    # start at the gap midpoint (the top root at sum(c)), offsets from the
    # lower pole; the top root 1 - c_0/tau - (terms < 0) = 0 has c_0 <= tau
    D = ar - ar[n, low][:, None]
    at_low = np.ones(live.size, dtype=bool)  # anchored at the pole below the gap
    d = D[n, up]  # offset of the gap's other pole from the anchor (0: top root)
    tau = half.copy()
    f, psi, phi, gL, gU = _terms(constant, tau, D, cw, E)
    lo, hi = cw[n, low] / _positive_or_inf(constant + phi), half.copy()
    # a gap root above the midpoint is anchored at the upper pole; as psi
    # grows with y, c_U / (-C - psi(mid)) bounds its offset from below,
    # as c_L / (C + phi(mid)) does below the midpoint
    sw = np.flatnonzero(~top & ~(f > 0))
    if sw.size:
        D[sw] = ar[sw] - ar[sw, up[sw]][:, None]  # exact pole differences
        at_low[sw], d[sw] = False, D[sw, low[sw]]
        tau[sw] = lo[sw] = -half[sw]
        hi[sw] = -cw[sw, up[sw]] / _positive_or_inf(phi - f)[sw]
    tau = _iterate(constant, D, cw, E, d, at_low, top, tau, lo, hi, (f, psi, phi, gL, gU))
    roots[live] = ar[n, np.where(at_low, low, up)] + tau
    return roots.reshape(rows, p - lowest)


def _iterate(constant, D, c, E, d, at_low, top, tau, lo, hi, terms) -> np.ndarray:
    """Safeguarded rational iteration on the offsets ``tau`` of each root
    from its anchor pole, starting from the evaluated ``terms`` at ``tau``.

    ``D`` holds every pole's offset from the anchor, ``d`` that of the
    gap's other pole, and ``at_low`` marks roots anchored at the pole below
    their gap.  Each step takes the new offset from :func:`_model_step`; a
    step that leaves the sign bracket ``[lo, hi]`` is replaced by
    geometric bisection.  A root stops on its residual, on a step of a few
    ulps or when its bracket collapses, and leaves the active set.
    """
    p = D.shape[1]
    res_tol = 4.0 * p * _EPS
    out = np.empty_like(tau)
    idx = np.arange(tau.size)
    f, psi, phi, gL, gU = terms
    for _ in range(_MAX_ITER):
        converged = np.abs(f) <= res_tol * (constant + phi - psi)
        step, ok = _model_step(f, gL, gU, tau, d, at_low, top)
        inside = ok & (step > lo) & (step < hi)
        small = inside & (np.abs(step - tau) <= 4.0 * _EPS * np.abs(tau))
        mid = np.copysign(np.sqrt(np.maximum(np.abs(lo), _TINY))
                          * np.sqrt(np.maximum(np.abs(hi), _TINY)), lo + hi)
        step = np.where(inside, step, mid)
        collapsed = ~inside & ((mid <= lo) | (mid >= hi))
        done = converged | small | collapsed
        if done.any():
            out[idx[done]] = np.where(converged, tau, step)[done]
            check = np.flatnonzero(done & ~converged)
            if check.size:
                _check_residual(constant, step[check], D[check], c[check], E[check], res_tol)
            keep = np.flatnonzero(~done)
            if not keep.size:
                return out
            idx, step, lo, hi, d, at_low, top = (
                x[keep] for x in (idx, step, lo, hi, d, at_low, top))
            D, c, E = D[keep], c[keep], E[keep]
        tau = step
        f, psi, phi, gL, gU = _terms(constant, tau, D, c, E)
        lo = np.where(f < 0, tau, lo)
        hi = np.where(f > 0, tau, hi)
    raise RootBracketError(
        f"secular solver: {idx.size} roots unconverged after {_MAX_ITER} iterations")


def _model_step(f, gL, gU, tau, d, at_low, top):
    """New anchor offsets from the model ``A + s/(a_L - y) + S/(a_U - y)``
    that matches ``psi``, ``psi'`` on the pole below the gap and ``phi``,
    ``phi'`` on the pole above (Bunch, Nielsen and Sorensen 1978; R.-C. Li,
    LAWN 89), and the mask of roots where it has a solution.

    The model is solved for the new offset z itself, so a root far closer
    to its anchor than the current iterate loses nothing to cancellation.
    With ``w0`` the model weight on the anchor and ``w1`` that on the other
    pole at offset ``d``, z solves ``A z^2 - B z + w0 d = 0`` with
    ``B = A d + w0 + w1``; the top root has no pole above and z = w0 / A.
    Products are ordered so that none leaves the normal range.
    """
    A = f - gL - gU
    w0 = -np.where(at_low, gL, gU) * tau
    w1 = np.where(at_low, gU, gL) * (d - tau)
    B = A * d + w0 + w1
    ok = B != 0
    Bs = np.where(ok, B, 1.0)
    e = 1.0 + np.sqrt(np.abs(1.0 - (4.0 * A * d / Bs) * (w0 / Bs)))
    num = np.where(top, w0, np.where(B > 0, 2.0 * (w0 / Bs) * d, B * e))
    den = np.where(top, A, np.where(B > 0, e, 2.0 * A))
    ok &= den != 0
    return num / np.where(ok, den, 1.0), ok


def _check_residual(constant, tau, D, c, E, res_tol) -> None:
    """Raise unless every root stopped by a small step or a collapsed
    bracket has a residual within 16 times the stopping tolerance (offsets
    below the normal range are exempt: there the float grid is absolute)."""
    f, psi, phi, _, _ = _terms(constant, tau, D, c, E)
    bad = ~(np.abs(f) <= 16.0 * res_tol * (constant + phi - psi)) & (np.abs(tau) >= _NORMAL)
    if bad.any():
        raise RootBracketError(
            f"secular solver: {int(bad.sum())} roots fail the residual check")


def rational_roots(r: RandomRational) -> np.ndarray:
    """All real roots of ``r``, descending; each interlaces the poles.
    The one-row case of :func:`secular_roots`."""
    return secular_roots(r.constant, r.a[None, :], r.c[None, :])[0]


def _step_up_sq(lam_sq: np.ndarray, m: int, beta: float, draw) -> np.ndarray:
    """One border step of every row of ``lam_sq`` (squared positive spectra
    of size-m matrices); returns the squared spectra of size m+1.

    Each pole pair gets a squared border weight ``2w^2 ~ Gamma[beta/2, 1]``;
    for odd ``m`` the zero eigenvalue carries ``b^2 ~ Gamma[beta/4, 1]``.
    ``draw(shape, cols)`` returns ``(reps, cols)`` such gammas.
    """
    reps, k = lam_sq.shape
    weights = draw(beta / 2.0, k) if k else np.zeros((reps, 0))
    poles = lam_sq
    if m % 2 == 1:
        poles = np.concatenate([poles, np.zeros((reps, 1))], axis=1)
        weights = np.concatenate([weights, draw(beta / 4.0, 1)], axis=1)
    return secular_roots(1, poles, weights)


def _one_stream(stream: RandomStream, reps: int):
    """Border weights for all rows from one stream, one call per step."""
    return lambda shape, cols: sample_gamma(shape, stream, size=(reps, cols))


def _stream_per_row(streams):
    """Border weights for row ``i`` from ``streams[i]``, with the calls the
    one-row chain makes on it."""
    return lambda shape, cols: np.concatenate(
        [sample_gamma(shape, s, size=(1, cols)) for s in streams])


def _chain_sq(n: int, beta: float, draw, reps: int):
    """Squared positive spectra of sizes 1 through n, shape ``(reps, m//2)``,
    with border weights from ``draw`` (see :func:`_step_up_sq`)."""
    if n < 2:
        raise ParameterError("need n >= 2")
    if reps < 1:
        raise ParameterError("need reps >= 1")
    lam_sq = np.zeros((reps, 0))
    yield lam_sq
    for m in range(1, n):
        lam_sq = _step_up_sq(lam_sq, m, beta, draw)
        yield lam_sq


def chain_step_up(lam_prev, n: int, beta: float, stream: RandomStream) -> np.ndarray:
    """Positive eigenvalues of the bordered size-(n+1) matrix given those of
    the size-n matrix (strictly descending); one row of the batch step."""
    lam_prev = np.atleast_1d(np.asarray(lam_prev, dtype=float)) if np.size(lam_prev) \
        else np.zeros(0)
    k = n // 2
    if lam_prev.size != k:
        raise ParameterError(f"expected {k} eigenvalues for step n={n}")
    if np.any(np.diff(lam_prev) >= 0):
        raise ParameterError("eigenvalues must be strictly descending")
    return np.sqrt(_step_up_sq(lam_prev[None, :] ** 2, n, beta, _one_stream(stream, 1))[0])


def chain_sample(n: int, beta: float, stream: RandomStream) -> np.ndarray:
    """Positive spectrum of the size-n ensemble, built one border at a time;
    row 0 of ``chain_sample_batch(n, beta, stream, 1)``."""
    return chain_sample_batch(n, beta, stream, 1)[0]


def chain_trajectory(n: int, beta: float, stream: RandomStream) -> list[ChainState]:
    """All intermediate positive spectra of the chain, sizes 1 through n."""
    return [ChainState(m=m, lam=np.sqrt(lam_sq[0]))
            for m, lam_sq in enumerate(_chain_sq(n, beta, _one_stream(stream, 1), 1),
                                       start=1)]


def step_down(lam, n: int, beta: float, stream: RandomStream) -> np.ndarray:
    """Positive eigenvalues of a random corank-1 projection of size n, given
    the positive spectrum ``lam`` of the size-(n+1) matrix.

    The squared first components come from a Dirichlet law: parameters
    ``beta/2`` per pole pair plus ``beta/4`` on the zero pole when n+1 is odd.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    kl = (n + 1) // 2
    if lam.size != kl:
        raise ParameterError(f"expected {kl} eigenvalues of the size-{n + 1} matrix")
    if (n + 1) % 2 == 1:
        poles = np.concatenate([lam ** 2, [0.0]])
        s = np.concatenate([np.full(kl, beta / 2.0), [beta / 4.0]])
    else:
        poles = lam ** 2
        s = np.full(kl, beta / 2.0)
    weights = sample_dirichlet(s, stream)
    if poles.size == 1:
        return np.zeros(0)
    rr = RandomRational(constant=0, a=poles, c=weights)
    return np.sqrt(rational_roots(rr))


def chain_sample_batch(n: int, beta: float, stream: RandomStream, reps: int) -> np.ndarray:
    """``reps`` independent positive spectra of the size-n ensemble, shape
    ``(reps, n//2)``; every border step solves all rows at once."""
    return _last_sqrt(_chain_sq(n, beta, _one_stream(stream, reps), reps))


def chain_sample_rows(n: int, beta: float, streams) -> np.ndarray:
    """One positive spectrum per stream, shape ``(len(streams), n//2)``: row
    ``i`` equals ``chain_sample(n, beta, streams[i])`` exactly, and every
    border step solves all rows at once."""
    return _last_sqrt(_chain_sq(n, beta, _stream_per_row(streams), len(streams)))


def _last_sqrt(chain) -> np.ndarray:
    for lam_sq in chain:
        pass
    # in place: a fresh output array allocated after the last step's
    # temporaries fragments the heap and raises the caller's peak memory
    return np.sqrt(lam_sq, out=lam_sq)
