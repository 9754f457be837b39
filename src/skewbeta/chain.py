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
# rows * p * max(p, 8) elements per block of rows, and as many in the pool
# of the blocks' stragglers (_BLOCK // max(p, 8) roots of p poles); bounds
# the solver's temporaries and so its peak memory
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
    rational iteration; see :func:`_iterate`.  The iteration runs on
    blocks of rows (``_BLOCK``); each block hands its last few unconverged
    roots, with their state, to a pool of at most a block's worth of roots,
    solved when full and after the last block.  A root's rounds in
    its block and in the pool count together against ``_MAX_ITER``, and
    every root equals its one-row solve bit for bit.  A gap of zero width (a
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
    """:func:`secular_roots` by the iterative solver, in blocks of rows.

    Each block hands its stragglers to a pool (see :func:`_iterate`),
    except a last block with no pool to join.  The pool is solved before
    it would exceed ``_BLOCK // max(p, 8)`` roots, and after the last
    block."""
    rows, p = a.shape
    width = p - 1 + constant
    roots = np.empty((rows, width))
    flat = roots.reshape(-1)
    # each root also carries a few dozen per-root temporaries, so a row
    # counts as at least 8 poles wide
    step = max(1, _BLOCK // (p * max(p, 8)))
    cap, pool, pooled = _BLOCK // max(p, 8), [], 0
    # a block holds at most cap roots or one row's, and so does the pool
    work = np.empty((3, min(max(cap, step * width), rows * width), p))
    for s in range(0, rows, step):
        state, terms = _start_block(constant, a[s:s + step], c[s:s + step], flat, s * width, work)
        left = _iterate(constant, flat, work, state, terms, handoff=bool(pool) or s + step < rows)
        if left is None:
            continue
        if pool and pooled + left[0].size > cap:
            _iterate(constant, flat, work, [np.concatenate(x) for x in zip(*pool)])
            pool, pooled = [], 0
        pool.append(left)
        pooled += left[0].size
    if pool:
        _iterate(constant, flat, work, [np.concatenate(x) for x in zip(*pool)])
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


def _terms(constant, tau, D, c, E, work):
    """The secular function at the anchor offsets ``tau``; ``work`` is a
    ``(3, >= roots, p)`` scratch array.

    Returns ``f``, ``psi`` (the terms of the poles at or below the root's
    gap), ``phi`` (those above it) and the products
    ``gL = (a_L - y) psi'`` and ``gU = (a_U - y) phi'`` with the poles
    ``a_L`` and ``a_U`` that bound the gap.  A pole lies below the root
    exactly when its term ``r = c / (y - a)`` is positive.  ``E`` holds
    ``a_L - a_j`` for the poles below and ``a_U - a_j`` for those above;
    ``(a_L - y) / (y - a_j) = -1 + (a_L - a_j) / (y - a_j)`` with the last
    ratio in [0, 1), so nothing overflows when the root hugs its anchor.
    """
    t, r, part = work[:, :tau.size]
    np.subtract(tau[:, None], D, out=t)  # y - a_j, exactly tau at the anchor pole
    np.divide(c, t, out=r)
    np.divide(E, t, out=t)
    t *= r  # r (a_side - a_j) / (y - a_j), of the sign of r
    np.maximum(r, 0.0, out=part)
    psi = -np.einsum("ij->i", part)
    phi = -np.einsum("ij->i", np.minimum(r, 0.0, out=part))
    gL = psi + np.einsum("ij->i", np.maximum(t, 0.0, out=part))
    gU = phi + np.einsum("ij->i", np.minimum(t, 0.0, out=part))
    return constant + psi + phi, psi, phi, gL, gU


def _positive_or_inf(x: np.ndarray) -> np.ndarray:
    """``x`` where positive, else inf: a bound ``c / x`` becomes 0."""
    return np.where(x > 0, x, np.inf)


def _start_block(constant: int, a: np.ndarray, c: np.ndarray, out: np.ndarray, base: int,
                 work: np.ndarray):
    """Set up the iteration of one block of rows (see :func:`secular_roots`).

    Writes each root's anchor pole to ``out[base:]``, flattened to
    (row, root) pairs; a root in a gap too narrow to solve keeps its lower
    pole there.  Returns the state of the roots left to :func:`_iterate`
    and the secular terms at their starting offsets."""
    rows, p = a.shape
    lowest = 1 - constant
    row = np.repeat(np.arange(rows), p - lowest)
    low = np.tile(np.arange(lowest, p), rows)  # pole just below each root
    up = np.maximum(low - 1, 0)                # pole just above (none for the top)
    roots = a[row, low]
    top = low == 0
    # half the gap; for the top root its whole bracket width sum(c)
    half = np.where(top, c.sum(axis=1)[row], 0.5 * (a[row, up] - roots))
    out[base:base + roots.size] = roots
    # a gap of zero (or subnormal) width keeps its lower pole as its root
    live = np.flatnonzero(half >= _NORMAL)
    row, low, up, top, half = row[live], low[live], up[live], top[live], half[live]
    ar, cw = a[row], c[row]
    n = np.arange(live.size)
    a_low, a_up = ar[n, low][:, None], ar[n, up][:, None]
    E = np.where(np.arange(p) >= low[:, None], a_low, a_up)
    E -= ar
    # start at the gap midpoint (the top root at sum(c)), offsets from the
    # lower pole; the top root 1 - c_0/tau - (terms < 0) = 0 has c_0 <= tau
    D = ar - a_low
    d = D[n, up]  # offset of the gap's other pole from the anchor (0: top root)
    tau = half.copy()
    f, psi, phi, gL, gU = _terms(constant, tau, D, cw, E, work)
    hi = half.copy()
    # a gap root above the midpoint is anchored at the upper pole; as psi
    # grows with y, c_U / (-C - psi(mid)) bounds its offset from below,
    # as c_L / (C + phi(mid)) does below the midpoint.  Each bound is
    # formed on its own side only, where it is below half the gap: on the
    # other side a subnormal weight beside a normal one would overflow it
    at_low = top | (f > 0)  # anchored at the pole below the gap
    sw, bl = np.flatnonzero(~at_low), np.flatnonzero(at_low)
    lo = np.empty_like(tau)
    lo[bl] = cw[bl, low[bl]] / _positive_or_inf(constant + phi[bl])
    if sw.size:
        np.subtract(ar, a_up, out=D, where=~at_low[:, None])  # exact pole differences
        d[sw] = D[sw, low[sw]]
        tau[sw] = lo[sw] = -half[sw]
        hi[sw] = -cw[sw, up[sw]] / _positive_or_inf(phi - f)[sw]
        out[base + live[sw]] = a_up[sw, 0]
    state = (base + live, np.zeros(live.size, dtype=int), D, cw, E, d, at_low, top, tau, lo, hi)
    return state, (f, psi, phi, gL, gU)


def _iterate(constant, out, work, state, terms=None, handoff=False):
    """Safeguarded rational iteration on the offsets ``tau`` of roots from
    their anchor poles; adds each final offset to its anchor in ``out``
    (``work`` as in :func:`_terms`).

    ``state`` is ``(idx, rounds, D, c, E, d, at_low, top, tau, lo, hi)``:
    each root's place in ``out`` and the rounds it has taken before this
    call, every pole's offset from its anchor ``D``, the weights ``c``, the
    pole gaps ``E`` of :func:`_terms`, the offset ``d`` of the gap's other
    pole, whether the anchor is the pole below the gap, whether the root is
    the top one, and its offset and sign bracket ``[lo, hi]``.  ``terms``
    are the secular terms at ``tau``; without them ``tau`` is evaluated
    first and the bracket updated.

    Each round takes the new offset from :func:`_model_step`; only a step
    that leaves the bracket is replaced by geometric bisection.  A root
    stops on its residual, on a step of a few ulps or when its bracket
    collapses.  One stopped by a step or its bracket is written and
    residual-checked in that round.  A converged one stays in the set at
    its offset, where it converges again, until an eighth of the set has
    converged: only then are the converged written and the set compacted,
    so a round does not gather the ``(roots, p)`` arrays for a few roots.
    With ``handoff``, once at most a sixteenth of the starting set is left
    unconverged, that state is returned for the caller to pool with the
    stragglers of other blocks; otherwise None is returned.  Raises
    :class:`RootBracketError` when a root is unconverged after
    ``_MAX_ITER`` rounds in all, its rounds before this call included.
    """
    idx, rounds, D, c, E, d, at_low, top, tau, lo, hi = state
    if not idx.size:
        return None
    res_tol = 4.0 * D.shape[1] * _EPS
    pass_on = idx.size // 16 if handoff else -1
    late = _MAX_ITER - rounds.max()  # the round from which a root may run out
    k = 0
    while True:
        k += 1
        if terms is None:
            f, psi, phi, gL, gU = _terms(constant, tau, D, c, E, work)
            lo = np.where(f < 0, tau, lo)
            hi = np.where(f > 0, tau, hi)
        else:
            (f, psi, phi, gL, gU), terms = terms, None
        converged = np.abs(f) <= res_tol * (constant + phi - psi)
        step, ok = _model_step(f, gL, gU, tau, d, at_low, top)
        inside = ok & (step > lo) & (step < hi)
        stop = inside & (np.abs(step - tau) <= 4.0 * _EPS * np.abs(tau))
        outside = np.flatnonzero(~inside)
        if outside.size:
            l, h = lo[outside], hi[outside]
            mid = np.copysign(np.sqrt(np.maximum(np.abs(l), _TINY))
                              * np.sqrt(np.maximum(np.abs(h), _TINY)), l + h)
            step[outside] = mid
            stop[outside] = (mid <= l) | (mid >= h)  # the bracket collapsed
        stop &= ~converged
        done = converged | stop
        if k >= late:
            over = np.count_nonzero(~done & (rounds + k >= _MAX_ITER))
            if over:
                raise RootBracketError(
                    f"secular solver: {over} roots unconverged after {_MAX_ITER} iterations")
        n_conv, stopped = np.count_nonzero(converged), stop.any()
        left = idx.size - np.count_nonzero(done)
        if stopped or 8 * n_conv >= idx.size or left <= pass_on:
            out[idx[done]] += np.where(converged, tau, step)[done]
            if stopped:
                check = np.flatnonzero(stop)
                _check_residual(constant, step[check], D[check], c[check], E[check], res_tol,
                                work)
            if not left:
                return None
            keep = np.flatnonzero(~done)
            idx, rounds, step, lo, hi, d, at_low, top = (
                x[keep] for x in (idx, rounds, step, lo, hi, d, at_low, top))
            D, c, E = D[keep], c[keep], E[keep]
            if left <= pass_on:
                return idx, rounds + k, D, c, E, d, at_low, top, step, lo, hi
        elif n_conv:
            step[converged] = tau[converged]
        tau = step


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
    q = w0 / Bs
    e = 1.0 + np.sqrt(np.abs(1.0 - (4.0 * A * d / Bs) * q))
    pos = B > 0
    num = np.where(top, w0, np.where(pos, 2.0 * q * d, B * e))
    den = np.where(top, A, np.where(pos, e, 2.0 * A))
    ok &= den != 0
    return num / np.where(ok, den, 1.0), ok


def _check_residual(constant, tau, D, c, E, res_tol, work) -> None:
    """Raise unless every root stopped by a small step or a collapsed
    bracket has a residual within 16 times the stopping tolerance (offsets
    below the normal range are exempt: there the float grid is absolute)."""
    f, psi, phi, _, _ = _terms(constant, tau, D, c, E, work)
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
