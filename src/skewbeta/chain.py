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
# the solver's temporaries and so its peak memory, the closed forms' too
_BLOCK = 1 << 15


def secular_roots(constant: int, poles, weights) -> np.ndarray:
    """Roots of ``constant - sum_j c_j / (y - a_j)`` for every row of the
    ``(rows, p)`` arrays ``poles`` (descending per row) and ``weights``
    (positive; one that underflowed to 0 is allowed).

    Returns ``(rows, p)`` roots for ``constant = 1`` (one above the top
    pole, one per pole gap) and ``(rows, p - 1)`` for ``constant = 0``,
    descending per row.  Rows with one or two poles are solved in closed
    form (:func:`_few_poles`), a block of rows at a time, as LAPACK's
    ``dlaed4`` hands N = 1 and 2 to ``dlaed5``.  Every other root is solved
    on its offset from the nearer pole of its gap (the top pole for the root
    above it) by a safeguarded rational iteration; see :func:`_iterate`.
    The iteration runs on blocks of rows (``_BLOCK``); each block hands its
    last few unconverged roots, with their state, to a pool of at most a
    block's worth of roots, solved when full and after the last block.  A
    root's rounds in its block and in the pool count together against
    ``_MAX_ITER``, and every root equals its one-row solve bit for bit.  A gap of zero width (a
    repeated pole) returns its lower pole, and one narrower than the
    smallest normal double the floor one ``_TINY`` above that pole where
    it lies inside the gap.  An offset from the lower pole below the normal
    range is resolved on the subnormal grid only, and its bisection stops
    at one ``_TINY`` above the pole: a zero weight's root lands there, not
    on the pole.  The top root keeps that floor too, one pole giving
    ``a_0 + max(c_0, _TINY)``, which is why no chain λ is 0 or falls below
    ``sqrt(_TINY)``, about 2.2e-162.  Raises
    :class:`RootBracketError` if an iterated root does not converge or
    fails the final residual check.
    """
    a = np.asarray(poles, dtype=float)
    c = np.asarray(weights, dtype=float)
    if a.ndim != 2 or a.shape != c.shape or a.shape[1] == 0:
        raise ParameterError("poles and weights must be (rows, p) arrays with p >= 1")
    if not (np.all(np.diff(a, axis=1) <= 0) and np.all(c >= 0)):
        raise ParameterError("poles must descend and weights be nonnegative")
    rows, p = a.shape
    if p > 2:
        return _iterated(constant, a, c)
    roots = np.empty((rows, p - 1 + constant))
    # in blocks of rows, as the iteration counts them: the closed forms take
    # about 20 temporaries a row
    step = _BLOCK // (p * 8)
    left = [s + _few_poles(constant, a[s:s + step], c[s:s + step], roots[s:s + step])
            for s in range(0, rows, step)]
    left = np.concatenate(left) if len(left) > 1 else left[0]
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
    # a block holds at most cap roots or one row's, and so does the pool;
    # (p, roots) scratch arrays, for at least two roots (see _terms)
    work = np.empty((3, p * max(2, min(max(cap, step * width), rows * width))))
    for s in range(0, rows, step):
        state, sums = _start_block(constant, a[s:s + step], c[s:s + step], flat, s * width, work)
        left = _iterate(constant, flat, work, state, sums, handoff=bool(pool) or s + step < rows)
        if left is None:
            continue
        if pool and pooled + left[0].size > cap:
            _iterate(constant, flat, work, [np.concatenate(x, axis=-1) for x in zip(*pool)])
            pool, pooled = [], 0
        pool.append(left)
        pooled += left[0].size
    if pool:
        _iterate(constant, flat, work, [np.concatenate(x, axis=-1) for x in zip(*pool)])
    return roots


def _few_poles(constant: int, a: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Roots of rows with p <= 2 poles in closed form, written to ``out``,
    and the indices of the rows left to the iterative solver.

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
    if a.shape[1] == 1:
        if constant:
            np.add(a, c, out=out)
            return np.flatnonzero(c[:, 0] < _NORMAL)
        return np.empty(0, dtype=int)
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
    np.add(a1, z, out=out[:, -1])
    if constant:
        np.add(a0, w, out=out[:, 0])
    return np.flatnonzero((0.5 * g < _NORMAL) | ~(z >= _NORMAL))


def _product_over(x, y, d, e):
    """``x y / (d 2^e)`` for a normal ``d``, rounded only at the end: the
    exponents of ``x`` and ``y`` are split off, so no intermediate leaves
    the normal range."""
    (mx, ex), (my, ey) = np.frexp(x), np.frexp(y)
    return np.ldexp(mx * my / d, ex + ey - e)


def _terms(tau, D, c, E, work):
    """The side sums of the secular function at the anchor offsets ``tau``;
    ``work`` is a ``(3, >= 2 p)`` scratch array with room for ``(p, roots)``.

    One column per root: ``D`` holds each pole's offset ``a_j`` minus the
    anchor, ``c`` the weights and ``E`` each pole's offset from the pole on
    its side that bounds the gap, ``a_j - a_L`` below the root and
    ``a_j - a_U`` above it.  Returns the ``(2, 2, roots)`` sums
    ``[[psi, phi], [V_L, V_U]]``, each in pole order: ``psi`` and ``phi``
    add the terms ``r = c / (a_j - y)`` of the poles below and above the
    root, which are the terms of its sign, and ``V`` adds
    ``r E / (a_j - y)`` on each side.  The ratio is in [0, 1), so nothing
    overflows when the root hugs its anchor, and
    ``gL = (a_L - y) psi' = psi - V_L`` and ``gU = (a_U - y) phi' = phi - V_U``.
    """
    if tau.size == 1:
        # np.add.reduce sums a lone column pairwise, not in pole order; two
        # equal columns keep every root's bits independent of its company
        return _terms(*(np.repeat(x, 2, axis=-1) for x in (tau, D, c, E)), work)[..., :1]
    p, n = D.shape
    t = work[0, :p * n].reshape(p, n)
    r = work[1:, :p * n].reshape(2, p, n)
    sums = np.empty((2, 2, n))
    np.subtract(D, tau, out=t)  # a_j - y, exactly -tau at the anchor pole
    np.divide(c, t, out=r[1])
    np.minimum(r[1], 0.0, out=r[0])
    np.maximum(r[1], 0.0, out=r[1])
    np.add.reduce(r, axis=1, out=sums[0])
    np.divide(E, t, out=t)
    r *= t
    np.add.reduce(r, axis=1, out=sums[1])
    return sums


def _positive_or_inf(x: np.ndarray) -> np.ndarray:
    """``x`` where positive, else inf: a bound ``c / x`` becomes 0."""
    return np.where(x > 0, x, np.inf)


def _start_block(constant: int, a: np.ndarray, c: np.ndarray, out: np.ndarray, base: int,
                 work: np.ndarray):
    """Set up the iteration of one block of rows (see :func:`secular_roots`).

    Writes each root's anchor pole to ``out[base:]``, flattened to
    (row, root) pairs; a root in a gap too narrow to solve keeps its lower
    pole there, or the floor one ``_TINY`` above it.  Returns the state of
    the roots left to :func:`_iterate` and the secular sums at their
    starting offsets.  The block's columns are built from the rows by
    broadcasting along the longer of its rows and a row's roots, so the
    roots are taken root-major (the same root of every row side by side)
    when there are more rows than roots in a row."""
    rows, p = a.shape
    low = np.arange(1 - constant, p)  # pole just below each root of a row
    up = np.maximum(low - 1, 0)       # pole just above (none for the top)
    aT, cT = np.ascontiguousarray(a.T), np.ascontiguousarray(c.T)
    a_low, a_up = aT[low], aT[up]  # (root, row)
    anchor = out[base:base + a.size - rows * (1 - constant)].reshape(rows, -1).T
    anchor[...] = a_low
    gap = a_up - a_low
    half = 0.5 * gap
    solved = half >= _NORMAL
    if constant:
        # the top root's bracket is its whole width sum(c), at least one
        # _TINY: weights that sum below the normal range keep the floor
        half[0] = np.maximum(c.sum(axis=1), _TINY)
        solved[0] = True
    # a gap of zero (or subnormal) width keeps its lower pole as its root,
    # or the floor one _TINY above it where that lies inside the gap
    anchor[~solved & (a_low + _TINY < a_up)] += _TINY
    # one column per root: its row's weights and each pole's offsets from
    # the poles that bound the gap
    by_root = rows >= low.size
    order = (lambda x: x) if by_root else (lambda x: x.T)  # (root, row) to block order
    a_col, c_col = (x[:, None] if by_root else x[..., None] for x in (aT, cT))
    below = np.arange(p)[:, None] >= low
    below = below[:, :, None] if by_root else below[:, None, :]
    a_low, a_up = (np.ascontiguousarray(order(x)) for x in (a_low, a_up))
    n = gap.size
    # (p, roots) arrays filled through (p, *block) views: so a lone row's
    # poles do not set the memory order
    D, c_rep, E = np.empty((p, n)), np.empty((p, n)), np.empty((p, n))
    D3, E3 = (x.reshape((p,) + a_low.shape) for x in (D, E))
    np.subtract(a_col, a_low, out=D3)
    np.subtract(a_col, a_up, out=E3)
    np.copyto(E3, D3, where=below)  # a_j minus the gap's pole on a_j's side
    c_rep.reshape((p,) + a_low.shape)[...] = c_col
    idx = base + np.arange(rows) * low.size + np.arange(low.size)[:, None]
    inner = np.broadcast_to(low[:, None] > 0, idx.shape)  # not the top root
    c_low, c_up, gap, half, solved, idx, inner = (
        order(x).ravel() for x in (cT[low], cT[up], gap, half, solved, idx, inner))
    # start at the gap midpoint (the top root at sum(c)), offsets from the
    # lower pole; the top root 1 - c_0/tau - (terms < 0) = 0 has c_0 <= tau.
    # A root not solved is evaluated at NaN, which warns of nothing and
    # reaches no other root's sums; it is dropped below
    tau = np.where(solved, half, np.nan)
    sums = _terms(tau, D, c_rep, E, work)
    f = constant + sums[0, 0] + sums[0, 1]
    phi = sums[0, 1]
    # a gap root above the midpoint is anchored at the upper pole; as psi
    # grows with y, c_U / (-C - psi(mid)) bounds its offset from below,
    # as c_L / (C + phi(mid)) does below the midpoint.  Each bound is
    # formed on its own side only, where it is below half the gap: on the
    # other side a subnormal weight beside a normal one would overflow it
    at_low = ~inner | (f > 0)  # anchored at the pole below the gap
    sw, bl = np.flatnonzero(~at_low & solved), np.flatnonzero(at_low)
    bracket = np.empty((2, n))
    bracket[0, bl] = c_low[bl] / _positive_or_inf(constant + phi[bl])
    bracket[1] = half
    dz = np.zeros((2, n))
    dz[1] = gap  # [0, d]: the offset of the gap's other pole
    if sw.size:
        # exact pole differences from the upper pole
        np.subtract(a_col, np.where(at_low.reshape(a_up.shape), a_low, a_up), out=D3)
        dz[1, sw] = -gap[sw]
        tau[sw] = bracket[0, sw] = -half[sw]
        bracket[1, sw] = -c_up[sw] / _positive_or_inf(phi - f)[sw]
        out[idx[sw]] = a_up.ravel()[sw]
    state = [idx, np.zeros(n, dtype=int), D, c_rep, E, dz, at_low, inner, tau, bracket]
    if not solved.all():
        live = np.flatnonzero(solved)
        state, sums = [x.take(live, axis=-1) for x in state], sums.take(live, axis=-1)
    return state, sums


def _iterate(constant, out, work, state, sums=None, handoff=False):
    """Safeguarded rational iteration on the offsets ``tau`` of roots from
    their anchor poles; adds each final offset to its anchor in ``out``
    (``work`` as in :func:`_terms`).

    ``state`` is ``(idx, rounds, D, c, E, dz, at_low, inner, tau, bracket)``,
    one column (the last axis) per root: its place in ``out`` and the
    rounds it has taken before this call, every pole's offset from its
    anchor ``D``, the weights ``c`` and pole gaps ``E`` of
    :func:`_terms`, ``dz = [0, d]`` with the offset ``d`` of the gap's other
    pole, whether the anchor is the pole below the gap, whether the root
    lies in a gap (not above the top pole), and its offset and sign bracket
    ``[lo, hi]``.  ``sums`` are the secular sums at ``tau``; without them
    ``tau`` is evaluated first and the bracket updated.

    Each round takes the new offset from :func:`_model_step`; only a step
    that leaves the bracket is replaced by geometric bisection.  A root
    stops on its residual, on a step of a few ulps or when its bracket
    collapses.  One stopped by a step or its bracket is written and
    residual-checked in that round.  A converged one stays in the set at
    its offset, where it converges again, until an eighth of the set has
    converged: only then are the converged written and the set compacted,
    so a round does not gather the ``(p, roots)`` arrays for a few roots.
    With ``handoff``, once at most a sixteenth of the starting set is left
    unconverged, that state is returned for the caller to pool with the
    stragglers of other blocks; otherwise None is returned.  Raises
    :class:`RootBracketError` when a root is unconverged after
    ``_MAX_ITER`` rounds in all, its rounds before this call included.
    """
    idx, rounds, D, c, E, dz, at_low, inner, tau, bracket = state
    if not idx.size:
        return None
    res_tol = 4.0 * D.shape[0] * _EPS
    pass_on = idx.size // 16 if handoff else -1
    late = _MAX_ITER - rounds.max()  # the round from which a root may run out
    k = 0
    while True:
        k += 1
        lo, hi = bracket
        fresh = sums is None
        if fresh:
            sums = _terms(tau, D, c, E, work)
        f, A = constant + sums[:, 0] + sums[:, 1]
        if fresh:
            np.putmask(lo, f < 0, tau)
            np.putmask(hi, f > 0, tau)
        scale = sums[0, 1] - sums[0, 0]  # phi - psi
        if constant:
            scale += constant
        converged = np.abs(f) <= res_tol * scale
        step = _model_step(A, sums, tau, dz, at_low, inner)
        inside = (step > lo) & (step < hi)
        stop = inside & (np.abs(step - tau) <= 4.0 * _EPS * np.abs(tau))
        outside = np.flatnonzero(~inside)
        if outside.size:
            l, h = ends = bracket.take(outside, axis=1)
            mid = np.sqrt(np.maximum(np.abs(ends), _TINY))
            mid = np.copysign(mid[0] * mid[1], l + h)
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
                _check_residual(constant, *(x.take(check, axis=-1) for x in (step, D, c, E)),
                                res_tol, work)
            if not left:
                return None
            keep = np.flatnonzero(~done)
            state = (idx, rounds, D, c, E, dz, at_low, inner, step, bracket)
            idx, rounds, D, c, E, dz, at_low, inner, step, bracket = (
                x.take(keep, axis=-1) for x in state)
            if left <= pass_on:
                return idx, rounds + k, D, c, E, dz, at_low, inner, step, bracket
        elif n_conv:
            np.putmask(step, converged, tau)
        tau, sums = step, None


def _model_step(A, sums, tau, dz, at_low, inner):
    """New anchor offsets from the model ``A + s/(a_L - y) + S/(a_U - y)``
    that matches ``psi``, ``psi'`` on the pole below the gap and ``phi``,
    ``phi'`` on the pole above (Bunch, Nielsen and Sorensen 1978; R.-C. Li,
    LAWN 89), with ``A = f - gL - gU = C + V_L + V_U`` (see :func:`_terms`).

    The model is solved for the new offset z itself, so a root far closer
    to its anchor than the current iterate loses nothing to cancellation.
    With ``w0`` the model weight on the anchor and ``w1`` that on the other
    pole at offset ``d``, z solves ``A z^2 - B z + w0 d = 0`` with
    ``B = A d + w0 + w1``; the top root has no pole above and z = w0 / A.
    Products are ordered so that none leaves the normal range.  Where the
    model has no solution (``B = 0``, or a zero denominator) z is not a
    number or infinite, so it leaves every bracket.
    """
    g = sums[0] - sums[1]  # [gL, gU]
    g = np.where(at_low, g, g[::-1])  # the anchor's, then the other pole's
    w = np.subtract(dz, tau)
    w *= g  # [w0, w1]: -g_anchor tau and g_other (d - tau)
    d = dz[1]
    B = w[0] + w[1]
    Ad = np.multiply(A, d, out=w[1])
    B += Ad
    with np.errstate(divide="ignore", invalid="ignore"):
        qm = w / B  # [w0 / B, A d / B]
        e = qm[0] * qm[1]
        e *= -4.0
        e += 1.0
        e = np.sqrt(np.abs(e, out=e), out=e)
        e += 1.0
        # the smaller root 2 w0 d / (B e) for B > 0, else B e / (2 A); the
        # top root (d = 0, so B = w0 and e = 2) takes the second: w0 / A
        pos = (B > 0) & inner
        num, den = qm[0], A + A
        num *= d
        num += num
        np.putmask(num, ~pos, B * e)
        np.putmask(den, pos, e)
        return np.divide(num, den, out=num)


def _check_residual(constant, tau, D, c, E, res_tol, work) -> None:
    """Raise unless every root stopped by a small step or a collapsed
    bracket has a residual within 16 times the stopping tolerance (offsets
    below the normal range are exempt: there the float grid is absolute)."""
    sums = _terms(tau, D, c, E, work)
    f = constant + sums[0, 0] + sums[0, 1]
    scale = constant + sums[0, 1] - sums[0, 0]
    bad = ~(np.abs(f) <= 16.0 * res_tol * scale) & (np.abs(tau) >= _NORMAL)
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
