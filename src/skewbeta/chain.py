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

import numpy as np

from .ensembles import _strictly_descending_positive
from .streams import ParameterError, RandomStream, gamma_table


class RootBracketError(RuntimeError):
    """A secular root did not converge or failed its residual check."""


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
    descending per row.  Rows with one or two poles are solved in closed
    form (:func:`_few_poles`), as LAPACK's ``dlaed4`` hands N = 1 and 2 to
    ``dlaed5``.  Every other root is solved on its offset from the nearer
    pole of its gap (the top pole for the root above it) by a safeguarded
    rational iteration; see :func:`_iterate`.  A gap of zero width (a
    repeated pole), or one narrower than the smallest normal double,
    returns its lower pole, and the top root returns the top pole when the
    weights sum below the normal range.  An offset from the lower pole
    below the normal range is resolved on the subnormal grid only, and its
    bisection stops at one ``_TINY`` above the pole: a zero weight's root
    lands there, not on the pole, which is why no nonzero chain λ falls
    below ``sqrt(_TINY)``, about 2.2e-162.  Raises
    :class:`RootBracketError` if an iterated root does not converge or
    fails the final residual check.
    """
    a = np.asarray(poles, dtype=float)
    c = np.asarray(weights, dtype=float)
    if a.ndim != 2 or a.shape != c.shape or a.shape[1] == 0:
        raise ParameterError("poles and weights must be (rows, p) arrays with p >= 1")
    if not (np.all(np.diff(a, axis=1) <= 0) and np.all(c >= 0)):
        raise ParameterError("poles must descend and weights be nonnegative")
    if a.shape[1] > 2:
        return _iterated(constant, a, c)
    roots, left = _few_poles(constant, a, c)
    if left.size:
        roots[left] = _iterated(constant, a[left], c[left])
    return roots


def _iterated(constant: int, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """:func:`secular_roots` by the iterative solver, in blocks of rows."""
    rows, p = a.shape
    roots = np.empty((rows, p - 1 + constant))
    # each root also carries a few dozen per-root temporaries, so a row
    # counts as at least 8 poles wide
    step = max(1, _BLOCK // (p * max(p, 8)))
    for s in range(0, rows, step):
        roots[s:s + step] = _solve_block(constant, a[s:s + step], c[s:s + step])
    return roots


def _few_poles(constant: int, a: np.ndarray, c: np.ndarray):
    """Roots of rows with p <= 2 poles in closed form, and the indices of
    the rows left to the iterative solver.

    One pole (``C = 1``): ``y = a_0 + c_0``.  Two poles ``a_0 > a_1`` with
    gap ``g = a_0 - a_1``: for ``C = 0`` the root is
    ``a_1 + g c_1 / (c_0 + c_1)``.  For ``C = 1`` the offsets ``s = y - a_1``
    solve ``s^2 - (g + c_0 + c_1) s + c_1 g = 0``: with
    ``R = hypot(g + c_0 - c_1, 2 sqrt(c_0) sqrt(c_1))``, the discriminant's
    root without cancellation, the larger is
    ``T = (g + c_0 + c_1 + R) / 2`` and the lower root's offset is
    ``c_1 g / T``.  The top root's offset from ``a_0`` is
    ``(h + R) / 2`` for ``h = c_0 + c_1 - g >= 0``, else
    ``c_0 g / ((R - h) / 2)``.  Sums are taken on values scaled by a power
    of two near their largest, so none overflows, and each product over a
    quotient by :func:`_product_over`, so no factor far below the largest
    loses digits to the subnormal range.

    A row whose gap, or whose lower root's offset from ``a_1``, is below
    the normal range (a zero or subnormal ``c_1``; with one pole, ``c_0``)
    is left to the iterative solver, so those rows keep its floor.
    """
    rows, p = a.shape
    if p == 1:
        if not constant:
            return np.empty((rows, 0)), np.empty(0, dtype=int)
        return a + c, np.flatnonzero(c[:, 0] < _NORMAL)
    (a0, a1), (c0, c1) = a.T, c.T
    g = a0 - a1
    big = np.maximum(c0, c1)
    # for C = 0 the weights are scaled apart from g: scaled with a far
    # larger g, a weight would leave the normal range in the sum c_0 + c_1
    e = np.frexp(np.maximum(big, g) if constant else big)[1]
    c0s, c1s = np.ldexp(c0, -e), np.ldexp(c1, -e)
    # 0 / 0 only on rows left to the iterative solver and in the branch of
    # w that np.where drops
    with np.errstate(invalid="ignore"):
        if not constant:
            z = _product_over(g, c1, c0s + c1s, e)
        else:
            gs = np.ldexp(g, -e)
            R = np.hypot(gs + c0s - c1s, 2.0 * np.sqrt(c0s) * np.sqrt(c1s))
            z = _product_over(g, c1, 0.5 * (gs + c0s + c1s + R), e)
            h = c0s + c1s - gs
            P = 0.5 * (R + np.abs(h))
            w = np.where(h >= 0, np.ldexp(P, e), _product_over(c0, g, P, e))
    left = np.flatnonzero((0.5 * g < _NORMAL) | ~(z >= _NORMAL))
    lower = a1 + z
    if not constant:
        return lower[:, None], left
    return np.column_stack([a0 + w, lower]), left


def _product_over(x, y, d, e):
    """``x y / (d 2^e)`` for a normal ``d``, rounded only at the end: the
    exponents of ``x`` and ``y`` are split off, so no intermediate leaves
    the normal range."""
    (mx, ex), (my, ey) = np.frexp(x), np.frexp(y)
    return np.ldexp(mx * my / d, ex + ey - e)


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
    a_low = ar[n, low][:, None]
    E = np.where(np.arange(p) >= low[:, None], a_low, ar[n, up][:, None]) - ar
    # start at the gap midpoint (the top root at sum(c)), offsets from the
    # lower pole; the top root 1 - c_0/tau - (terms < 0) = 0 has c_0 <= tau
    D = ar - a_low
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
            idx, step, lo, hi, d, at_low, top = (
                x[keep] for x in (idx, step, lo, hi, d, at_low, top))
            D, c, E = D[keep], c[keep], E[keep]
        if not idx.size:
            return out
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


def _step_down_sq(lam_sq: np.ndarray, m: int, beta: float, stream: RandomStream,
                  reps: int) -> np.ndarray:
    """A random corank-1 projection of each of ``reps`` rows of ``lam_sq``
    (squared positive spectra of size-m matrices, broadcast to ``reps``
    rows); returns the squared spectra of size m-1.

    The squared first components are Dirichlet, rate-1 gammas drawn in one
    call and normalized by their sum: ``beta/2`` per pole pair plus
    ``beta/4`` on the zero pole for odd ``m``.
    """
    k = lam_sq.shape[-1]
    poles = np.broadcast_to(lam_sq, (reps, k))
    s = np.full(k, beta / 2.0)
    if m % 2 == 1:
        poles = np.concatenate([poles, np.zeros((reps, 1))], axis=1)
        s = np.append(s, beta / 4.0)
    # parameters last and contiguous, so the sum adds them in its usual order
    g = np.ascontiguousarray(np.moveaxis(gamma_table(s, [stream], reps)[0], 0, -1))
    return secular_roots(0, poles, g / np.sum(g, axis=-1, keepdims=True))


def _weights(streams, per_stream: int):
    """Border weights of ``len(streams) * per_stream`` rows, stream ``i``
    drawing rows ``i * per_stream`` onward in one call per step: one stream
    draws a whole batch, and one stream per row makes the calls of the
    one-row chain."""
    return lambda shape, cols: gamma_table([shape], streams, (per_stream, cols)).reshape(-1, cols)


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
    the size-n matrix (finite, positive and strictly descending); one row of
    the batch step."""
    lam_prev = np.atleast_1d(np.asarray(lam_prev, dtype=float))
    k = n // 2
    if lam_prev.size != k:
        raise ParameterError(f"expected {k} eigenvalues for step n={n}")
    if not _strictly_descending_positive(lam_prev):
        raise ParameterError("eigenvalues must be finite, positive and strictly descending")
    return np.sqrt(_step_up_sq(lam_prev[None, :] ** 2, n, beta, _weights([stream], 1))[0])


def chain_sample(n: int, beta: float, stream: RandomStream) -> np.ndarray:
    """Positive spectrum of the size-n ensemble, built one border at a time;
    row 0 of ``chain_sample_batch(n, beta, stream, 1)``."""
    return chain_sample_batch(n, beta, stream, 1)[0]


def chain_trajectory(n: int, beta: float, stream: RandomStream) -> list[np.ndarray]:
    """All intermediate positive spectra of the chain, sizes 1 through n:
    entry ``m - 1`` is the descending spectrum of order ``m``."""
    return [np.sqrt(lam_sq[0]) for lam_sq in _chain_sq(n, beta, _weights([stream], 1), 1)]


def step_down(lam, n: int, beta: float, stream: RandomStream) -> np.ndarray:
    """Positive eigenvalues of a random corank-1 projection of size n, given
    the positive spectrum ``lam`` (finite, positive and strictly descending)
    of the size-(n+1) matrix; one row of :func:`_step_down_sq`."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    kl = (n + 1) // 2
    if lam.size != kl:
        raise ParameterError(f"expected {kl} eigenvalues of the size-{n + 1} matrix")
    if not _strictly_descending_positive(lam):
        raise ParameterError("eigenvalues must be finite, positive and strictly descending")
    return np.sqrt(_step_down_sq(lam[None, :] ** 2, n + 1, beta, stream, 1)[0])


def chain_sample_batch(n: int, beta: float, stream: RandomStream, reps: int) -> np.ndarray:
    """``reps`` independent positive spectra of the size-n ensemble, shape
    ``(reps, n//2)``; every border step solves all rows at once."""
    return _last_sqrt(_chain_sq(n, beta, _weights([stream], reps), reps))


def chain_sample_rows(n: int, beta: float, streams) -> np.ndarray:
    """One positive spectrum per stream, shape ``(len(streams), n//2)``: row
    ``i`` equals ``chain_sample(n, beta, streams[i])`` exactly, and every
    border step solves all rows at once."""
    return _last_sqrt(_chain_sq(n, beta, _weights(streams, 1), len(streams)))


def _last_sqrt(chain) -> np.ndarray:
    for lam_sq in chain:
        pass
    # in place: a fresh output array allocated after the last step's
    # temporaries fragments the heap and raises the caller's peak memory
    return np.sqrt(lam_sq, out=lam_sq)
