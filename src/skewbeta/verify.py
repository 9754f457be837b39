"""Verification suites: deterministic identity checks and desk-scale
statistical reproductions, each producing a :class:`VerificationReport`."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, gammainc

from . import chain, densities, sturm, transform
from .ensembles import (AntisymTridiagonal, _c_matrix_chis, antisym_tridiagonal_batch,
                        antisym_tridiagonal_rows, dense_antisym_gue_rows, dense_tridiagonal,
                        householder_reduce_batch)
from .spectral import (DegeneracyError, SpectralData, _bidiagonal_svd, _charpoly, _check_rows,
                       _first_component_sq_batch, _signed_spectrum, positive_spectrum_batch)
from .stats import (VerificationReport, ks_one_sample, ks_two_sample,
                    quadrature_cdf)
from .streams import RandomStream, gamma_table, seed_streams

P_THRESHOLD = 1e-3

_BETAS = (0.5, 1.0, 2.0, 4.0)


def _redraw_rows(streams, draw, message: str):
    """The one-row redraw loop ``for attempt in range(100): draw on
    stream.split(attempt), return if accepted`` for every stream at once.

    ``draw(rows, attempt_streams)`` draws the pending ``rows`` (indices into
    ``streams``) on their attempt streams and returns their results (a tuple
    of arrays, one row each) and which of them are accepted; it raises
    itself any failure that no redraw may replace.  Returns the accepted
    results; a row still pending after 100 attempts raises
    ``DegeneracyError(message)``.
    """
    results = None
    pending = np.arange(len(streams))
    for attempt in range(100):
        attempt_streams = seed_streams((streams[i].seed, streams[i].keys + (attempt,))
                                       for i in pending)
        res, accepted = draw(pending, attempt_streams)
        if results is None:
            if accepted.all():  # every row drawn at the first attempt
                return res
            results = tuple(np.empty((len(streams),) + r.shape[1:]) for r in res)
        for out, r in zip(results, res):
            out[pending[accepted]] = r[accepted]
        pending = pending[~accepted]
        if not pending.size:
            return results
    raise DegeneracyError(message)


def _spectrum_draws(n: int, betas, streams, min_relgap: float = 0.0):
    """One draw of order ``n`` per stream, row ``i`` at ``betas[i]``, whose
    spectrum passes the degeneracy guards: ``(b, lam, q, z)`` in the layout
    of ``spectral_rows``.  Each attempt builds every pending row on its own
    stream and solves them in one batch; tied eigenvalues at small beta are
    redrawn (on split subkeys), and any other failed check of
    ``spectral_rows`` raises.

    ``min_relgap`` additionally requires every squared-eigenvalue gap (and
    the distance to zero) to exceed that fraction of ``lam_max**2``; exact
    identities verified in floating point lose roughly the reciprocal of
    the relative gap in precision, so conditioning must be bounded for a
    tight residual check to be meaningful.  Tiny first components
    (``q, z < 1e-2``) are then kept out too.
    """
    def draw(rows, attempt_streams):
        b = antisym_tridiagonal_rows(n, np.asarray(betas, dtype=float)[rows, None],
                                     attempt_streams)
        lam, q, z = _bidiagonal_svd(b)
        accepted = _check_rows(lam, q, z if n % 2 else None, b=b, redraw_ties=True)
        if min_relgap > 0.0:
            # every squared gap, the last one to zero, relative to lam_max^2
            lam_sq = lam ** 2
            gaps = -np.diff(lam_sq, axis=1, append=0.0)
            accepted &= (gaps >= min_relgap * lam_sq[:, :1]).all(axis=1)
            # tiny first components are kept out too: the reference routes
            # the identities compare them against (the eigenvectors of
            # _first_component_residual_rows, the secular sum) resolve them
            # only to absolute accuracy
            accepted &= (q >= 1e-2).all(axis=1) & ~(z < 1e-2)
        return (b, lam, q, z), accepted
    return _redraw_rows(streams, draw, f"no well-separated spectrum after 100 draws (n={n})")


def _draw_with_spectrum(n: int, beta: float, stream: RandomStream,
                        min_relgap: float = 0.0):
    """The matrix and spectral data of row 0 of :func:`_spectrum_draws`
    on the one stream ``stream``."""
    b, lam, q, z = _spectrum_draws(n, [beta], [stream], min_relgap)
    return AntisymTridiagonal(b[0]), SpectralData(n, lam[0], q[0],
                                                  float(z[0]) if n % 2 else None)


def _orders(ns):
    """Each distinct order of ``ns`` with the indices of its rows."""
    ns = np.asarray(ns)
    for n in np.unique(ns):
        yield int(n), np.flatnonzero(ns == n)


def _random_pairs(rng: np.random.Generator, count: int, n_max: int = 12):
    for _ in range(count):
        yield int(rng.integers(2, n_max + 1)), float(rng.choice(_BETAS))


def run_identities(seed: int, count: int = 200) -> VerificationReport:
    """Exact spectral identities on random matrices, checked on the rows of
    each order at once.  The squared-Vandermonde product, the shuffle
    conjugation and the Cholesky reindexing have suites of their own."""
    report = VerificationReport(suite="identities", seed=seed)
    root = RandomStream(seed)
    rng = np.random.default_rng(seed)
    ns, betas = np.array(list(_random_pairs(rng, count))).reshape(-1, 2).T
    bounds = {"secular": 1e-9, "first-components": 1e-8, "frobenius": 1e-10,
              "moments": 1e-9}
    worst = dict.fromkeys(bounds, 0.0)
    for n, idx in _orders(ns):
        rows = _spectrum_draws(n, betas[idx], [root.split(i) for i in idx], min_relgap=1e-6)
        lam_sq = np.sum(rows[1] ** 2, axis=1)
        residuals = {
            "secular": _secular_residual_rows(*rows, _secular_points(*rows, rng)),
            "first-components": _first_component_residual_rows(*rows),
            "frobenius": np.abs(np.sum(rows[0] ** 2, axis=1) - lam_sq) / np.maximum(1.0, lam_sq),
            "moments": _moment_residual_rows(*rows),
        }
        for name, res in residuals.items():
            worst[name] = max(worst[name], float(np.max(res)))
    for name, value in worst.items():
        report.add(name, value <= bounds[name], statistic=value,
                   tolerance=bounds[name])
    return report


def _secular_points(b, lam, q, z, rng: np.random.Generator, points: int = 10) -> np.ndarray:
    """``(rows, points)`` evaluation points uniform in ``(-2 lam_max,
    2 lam_max)`` of each row and at least ``1e-3 lam_max`` away from its
    spectrum: every row's candidates come from one ``rng.uniform`` call, and
    only the entries too close are redrawn, in row-major order."""
    d, _ = _signed_spectrum(b.shape[1] + 1, lam, q, z)
    span = np.repeat(2.0 * lam[:, :1], points, axis=1)
    x = rng.uniform(-span, span)
    while True:
        near = np.min(np.abs(x[:, :, None] - d[:, None, :]), axis=2) < 1e-3 * lam[:, :1]
        if not near.any():
            return x
        x[near] = rng.uniform(-span[near], span[near])


def _secular_residual_rows(b, lam, q, z, x: np.ndarray) -> np.ndarray:
    """Worst relative residual of ``P_{n-1}(x)/P_n(x) = sum_i c_i/(x - mu_i)``
    over each row's points ``x`` (``(rows, points)``), with ``mu`` the
    row's full spectrum and ``c`` its squared first components: one
    ``_charpoly`` pass over every point, each with its row's ``b``."""
    n = b.shape[1] + 1
    d, c = _signed_spectrum(n, lam, q, z)
    vals, shifts = (a[n - 1:] for a in _charpoly(np.repeat(b, x.shape[1], axis=0), x.ravel()))
    signs, logmags = np.sign(vals), np.log(np.abs(vals)) + shifts
    lhs = (signs[0] * signs[1] * np.exp(logmags[0] - logmags[1])).reshape(x.shape)
    rhs = np.sum(c[:, None, :] / (x[:, :, None] - d[:, None, :]), axis=2)
    return np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs)), axis=1)


def _moment_residual_rows(b, lam, q, z) -> np.ndarray:
    """``(rows, 3)`` residuals of the first three moment identities relating
    ``b`` to the spectral data, ``sum_i c_i mu_i**(2j)`` over the full
    spectrum ``mu`` with squared first components ``c`` against
    ``1``, ``b_{n-1}**2`` and ``b_{n-1}**4 + b_{n-1}**2 b_{n-2}**2``."""
    d, c = _signed_spectrum(b.shape[1] + 1, lam, q, z)
    top = b[:, -1] ** 2
    below = b[:, -2] ** 2 if b.shape[1] > 1 else 0.0
    moments = np.stack([np.sum(c * d ** (2 * j), axis=1) for j in range(3)], axis=1)
    return np.abs(np.stack([np.ones_like(top), top, top ** 2 + top * below], axis=1) - moments)


def _first_component_residual_rows(b, lam, q, z) -> np.ndarray:
    """Worst difference per row between ``q`` and the first entries of the
    eigenvectors of the top ``n//2`` eigenvalues of the dense symmetric
    counterpart, from one stacked ``np.linalg.eigh`` call."""
    _, vecs = np.linalg.eigh(dense_tridiagonal(b[:, ::-1], 1.0))
    first = np.abs(vecs[:, 0, ::-1][:, :lam.shape[1]])
    return np.max(np.abs(first - q), axis=1)


def run_shuffle(seed: int, count: int = 50) -> VerificationReport:
    """The alternating-sign perfect shuffle is orthogonal and conjugates the
    block embedding of a square bidiagonal block onto the tridiagonal read
    off it; block ``i`` has order ``2 + i % 9`` and entries
    ``0.25 + U(0, 1)`` drawn on ``root.split(i)``, diagonal first."""
    report = VerificationReport(suite="shuffle", seed=seed)
    root = RandomStream(seed, (1,))
    worst_orth = 0
    for k in range(1, 11):
        m = transform.asps(k)
        worst_orth = max(worst_orth, int(np.abs(m @ m.T - np.eye(2 * k, dtype=np.int64)).max()))
    worst_resid = 0.0
    for k, idx in _orders(2 + np.arange(count) % 9):
        gens = [root.split(int(i)).generator for i in idx]
        d = 0.25 + np.array([g.random(k) for g in gens])
        e = 0.25 + np.array([g.random(k - 1) for g in gens])
        worst_resid = max(worst_resid, float(np.max(transform.shuffle_conjugation_check(d, e))))
    report.add("orthogonality", worst_orth == 0, statistic=float(worst_orth),
               tolerance=0.0)
    report.add("conjugation", worst_resid <= 0.0, statistic=worst_resid,
               tolerance=0.0)
    return report


def run_cholesky(seed: int, count: int = 100) -> VerificationReport:
    """The reindexing recursion against a direct reversed-Cholesky factor:
    C-matrix ``i`` has ``k = 1 + i % 8`` and ``beta = _BETAS[i % 4]`` (one
    beta per k), and its stream ``root.split(i)`` then draws the extra
    squared entry ``Gamma((2k+1) beta / 4)``."""
    report = VerificationReport(suite="cholesky", seed=seed)
    root = RandomStream(seed, (2,))
    worst = 0.0
    for k, idx in _orders(1 + np.arange(count) % 8):
        beta = _BETAS[(k - 1) % 4]
        streams = [root.split(int(i)) for i in idx]
        d, e = _c_matrix_chis(k, beta, streams)
        top = gamma_table([(2 * k + 1) * beta / 4.0], streams)[:, 0]
        worst = max(worst, float(np.max(transform.reversed_cholesky_residual(d, e, top))))
    bound = 1e-12
    report.add("reindex-vs-direct", worst <= bound, statistic=worst, tolerance=bound)
    return report


def _jacobian_draws(n: int, beta: float, streams):
    """Random spectra with enough margin from the normalization boundary
    for finite-difference probing of the eliminated coordinate, as
    :func:`_spectrum_draws` returns them: each attempt is one spectrum draw
    per pending row on its attempt stream, redrawn inside
    ``_spectrum_draws`` as needed."""
    def draw(rows, attempt_streams):
        b, lam, q, z = _spectrum_draws(n, [beta] * len(rows), attempt_streams)
        margin = z ** 2 if n % 2 else 2.0 * q[:, -1] ** 2
        accepted = (margin > 1e-3) & (np.min(q, axis=1) > 1e-3)
        return (b, lam, q, z), accepted
    return _redraw_rows(streams, draw, "no interior spectrum found for jacobian probing")


def run_jacobian(seed: int, count: int = 50) -> VerificationReport:
    report = VerificationReport(suite="jacobian", seed=seed)
    root = RandomStream(seed, (3,))
    bound = 1e-5
    for n in (2, 3, 4, 5):
        rows = _jacobian_draws(n, 2.0, [root.split(n, i) for i in range(count)])
        _, lam, q, z = rows
        analytic = transform._jacobian_analytic_rows(*rows)
        target = analytic / (2.0 * q[:, -1]) if n % 2 == 0 else analytic / z
        numeric = transform._jacobian_numeric_rows(n, lam, q)
        worst = float(np.max(np.abs(numeric - target) / target, initial=0.0))
        report.add(f"n={n}", worst <= bound, statistic=worst, tolerance=bound)
    return report


def run_vandermonde(seed: int, count: int = 200) -> VerificationReport:
    report = VerificationReport(suite="vandermonde", seed=seed)
    root = RandomStream(seed, (4,))
    rng = np.random.default_rng(seed)
    ns, betas = np.array(list(_random_pairs(rng, count))).reshape(-1, 2).T
    worst = 0.0
    for n, idx in _orders(ns):
        rows = _spectrum_draws(n, betas[idx], [root.split(i) for i in idx], min_relgap=1e-6)
        worst = max(worst, float(np.max(transform._vandermonde_residual_rows(*rows))))
    bound = 1e-9
    report.add("log-residual", worst <= bound, statistic=worst, tolerance=bound)
    return report


def run_distributions(seed: int, reps: int = 20000) -> VerificationReport:
    """Cross-route and exact-marginal distribution checks at desk scale."""
    report = VerificationReport(suite="distributions", seed=seed)
    root = RandomStream(seed, (5,))

    for n, beta in ((4, 2.0), (5, 2.0)):
        direct = positive_spectrum_batch(
            antisym_tridiagonal_batch(n, beta, root.split(0, n), reps))
        via_chain = chain.chain_sample_batch(n, beta, root.split(1, n), reps)
        via_map = positive_spectrum_batch(
            transform.laguerre_map_batch(n, beta, root.split(2, n), reps))
        for name, other in (("chain", via_chain), ("laguerre-map", via_map)):
            for col, stat in ((0, "lambda-max"), (-1, "lambda-min")):
                _add_ks(report, f"{stat} n={n} direct-vs-{name}",
                        ks_two_sample(direct[:, col], other[:, col]))

    # n=2: the positive eigenvalue is the single off-diagonal entry
    beta = 2.0
    lam2 = positive_spectrum_batch(
        antisym_tridiagonal_batch(2, beta, root.split(6), reps))[:, 0]
    _add_ks(report, "n=2 marginal",
            ks_one_sample(lam2, lambda x: gammainc(beta / 4.0, x ** 2)))

    # Dirichlet first-component laws
    b4 = antisym_tridiagonal_batch(4, 2.0, root.split(7), reps)
    _add_ks(report, "n=4 2q1^2 uniform",
            ks_one_sample(_first_component_sq_batch(b4), lambda x: np.clip(x, 0.0, 1.0)))
    b3 = antisym_tridiagonal_batch(3, 2.0, root.split(8), reps)
    _add_ks(report, "n=3 2q1^2 beta(1,1/2)",
            ks_one_sample(_first_component_sq_batch(b3),
                          lambda x: betainc(1.0, 0.5, np.clip(x, 0.0, 1.0))))

    # the bordering law of the first proof: one chain step from a fixed
    # order-2 spectrum against the quadrature CDF of its row-form density.
    # Draws and CDF are both conditioned on x > c: at beta = 0.25 about 1.3%
    # of the law lies within one ulp of lam, where x = sqrt(lam^2 + g)
    # rounds to lam exactly, and those ties would pin D at F(lam) on every
    # seed
    lam = 1.3
    lam_row = np.array([lam])
    c = lam * (1.0 + 1e-12)
    for j, beta in enumerate((0.25, 1.0, 2.0, 4.0)):
        x = np.sqrt(chain._step_up_sq(np.full((reps, 1), lam ** 2), 2, beta,
                                      chain._weights([root.split(9, j)], reps))[:, 0])
        cdf = quadrature_cdf(
            lambda v: densities._conditional_logpdf_up_rows(v[:, None], lam_row, 2, beta),
            c, lam + 8.0)
        _add_ks(report, f"border step 2->3 beta={beta:g}", ks_one_sample(x[x > c], cdf))

    # the n=3 marginal below beta = 2 against the closed-form density
    for j, beta in enumerate((0.25, 1.0)):
        lam3 = positive_spectrum_batch(
            antisym_tridiagonal_batch(3, beta, root.split(10, j), reps))[:, 0]
        cdf = quadrature_cdf(
            lambda v: densities._logpdf_positive_spectrum_rows(v[:, None], 3, beta), 0.0, 10.0)
        _add_ks(report, f"n=3 marginal beta={beta:g}", ks_one_sample(lam3, cdf))

    # the projection law of the first proof: one corank-1 step from order 3
    # against the quadrature CDF of its row-form density, both cut at
    # x < lam (1 - 1e-12) as the border step is cut above lam; the four
    # betas' probability-integral transforms are pooled into one case
    c = lam * (1.0 - 1e-12)
    pits = []
    for j, beta in enumerate((0.25, 1.0, 2.0, 4.0)):
        x = np.sqrt(chain._step_down_sq(np.array([[lam ** 2]]), 3, beta,
                                        root.split(11, j), reps)[:, 0])
        cdf = quadrature_cdf(
            lambda v: densities._conditional_logpdf_down_rows(v[:, None], lam_row, 2, beta),
            0.0, c)
        pits.append(cdf(x[x < c]))
    _add_ks(report, "projection step 3->2 pooled beta={0.25,1,2,4}",
            ks_one_sample(np.concatenate(pits), lambda u: np.clip(u, 0.0, 1.0)))
    return report


def _add_ks(report: VerificationReport, name: str, res) -> None:
    report.add(name, res.p_value >= P_THRESHOLD, statistic=res.statistic,
               tolerance=P_THRESHOLD, p_value=res.p_value)


def run_sturm_prufer(seed: int, pairs: int = 1000) -> VerificationReport:
    report = VerificationReport(suite="sturm-prufer", seed=seed)
    root = RandomStream(seed, (9,))
    rng = np.random.default_rng(seed + 9)
    # (n, beta, U) per pair in the generator order of the one-pair loop,
    # which drew mu = rng.uniform(0, 1.2 lam_max) = 0 + 1.2 lam_max U last
    draws = np.array([(rng.integers(2, 13), rng.choice(_BETAS), rng.random())
                      for _ in range(pairs)]).reshape(-1, 3)
    mismatches = 0
    for n, idx in _orders(draws[:, 0]):
        b, lam, _, _ = _spectrum_draws(n, draws[idx, 1], [root.split(i) for i in idx])
        mu = 0.0 + 1.2 * lam[:, 0] * draws[idx, 2]
        expected = np.sum(lam <= mu[:, None], axis=1)
        mismatches += int(np.count_nonzero(sturm._count_positive_leq_rows(b, mu) != expected))
    report.add("eigenvalue-count", mismatches == 0, statistic=float(mismatches),
               tolerance=0.0)

    anchor_worst = 0.0
    monotone_ok = True
    for n, idx in _orders(4 + np.arange(20) % 7):
        b, _, theta = _phase_rows(n, 2.0, [root.split(1000 + i) for i in idx])
        start = sturm._phases(b, np.full(len(b), 1e-300))
        anchor_worst = max(anchor_worst,
                           float(np.max(np.abs(start - sturm._anchor_phases(n)))))
        monotone_ok &= not np.any(np.diff(theta, axis=1) >= 0)
    report.add("anchor-phases", anchor_worst <= 1e-9,
               statistic=anchor_worst, tolerance=1e-9)
    report.add("monotone-decrease", monotone_ok,
               statistic=0.0 if monotone_ok else 1.0, tolerance=0.0)

    violations = 0
    betas = np.repeat((0.05, 0.25, 2.0), 20)
    for n, idx in _orders(4 + np.arange(betas.size) % 9):
        rows = _phase_rows(n, betas[idx, None], [root.split(2000 + j) for j in idx])
        violations += _wrap_violations(*rows)[0]
    report.add("wrap-counts", violations == 0, statistic=float(violations), tolerance=0.0)
    return report


def _phase_rows(n: int, beta, streams):
    """One matrix of order ``n`` per stream (``beta`` one value or a column
    of one per stream) and its Pruefer phases on ``linspace(0, 1.5 lam_max,
    200)[1:]``, from one recurrence pass: ``(b, mu, theta)`` of shapes
    ``(rows, n-1)``, ``(rows, 199)`` and ``(rows, 199, n-1)``."""
    b = antisym_tridiagonal_rows(n, beta, streams)
    mu = np.linspace(0.0, 1.5 * positive_spectrum_batch(b)[:, 0], 200, axis=-1)[:, 1:]
    theta = sturm._phases(np.repeat(b, mu.shape[1], axis=0), mu.ravel())
    return b, mu, theta.reshape(mu.shape + (n - 1,))


def _wrap_violations(b: np.ndarray, mu: np.ndarray, theta: np.ndarray) -> tuple[int, int]:
    """Entries of Pruefer phase tables off the branch that an independent
    eigenvalue count fixes or risen along the grid, and entries skipped as
    too close to call, summed over the matrices ``b`` ``(rows, n-1)`` with
    ascending positive grids ``mu`` ``(rows, points)`` and phases ``theta``
    ``(rows, points, n-1)``.

    ``theta_i(mu)`` must lie in ``(-K pi, -(K-1) pi]`` (up to rounding of
    ``K pi``) with ``K = [i odd] + #(lambda(T_{i-2}) <= mu)``, the eigenvalues
    of the order-(i-2) trailing matrices taken from one bidiagonal SVD of
    all rows, not from a Sturm count.  It must also not rise above its exact
    value at mu = 0 or its value at the previous point, which tells a phase
    at ``-K pi`` from one a full pi higher at ``-(K-1) pi``.  Entries within
    1e-10 relative of such an eigenvalue are skipped.
    """
    mu = mu[:, :, None]
    start = sturm._anchor_phases(b.shape[1] + 1)
    violations = skipped = 0
    for i in range(2, b.shape[1] + 2):
        lam = positive_spectrum_batch(b[:, :max(i - 3, 0)])[:, None, :]
        near = np.any(np.abs(mu - lam) <= 1e-10 * lam, axis=2)
        k = i % 2 + np.sum(lam <= mu, axis=2)
        tol = 1e-12 * (k + 1)
        th = theta[:, :, i - 2]
        inside = (th >= -k * math.pi - tol) & (th <= -(k - 1) * math.pi + tol)
        after_near = np.pad(near[:, :-1], ((0, 0), (1, 0)))
        inside &= (np.diff(th, axis=1, prepend=start[i - 2]) <= tol) | after_near
        violations += int(np.sum(~inside & ~near))
        skipped += int(np.sum(near))
    return violations, skipped


def run_dixon_anderson(seed: int) -> VerificationReport:
    report = VerificationReport(suite="dixon-anderson", seed=seed)
    bound = 1e-6
    cases = [
        ("arcsine m=1", [1.0, 0.0], [0.5, 0.5]),
        ("m=1 generic", [2.0, 0.5], [1.5, 0.75]),
        ("m=1 singular", [1.0, -1.0], [0.25, 0.6]),
        ("m=2 generic", [3.0, 1.0, 0.0], [1.0, 1.0, 1.0]),
        ("m=2 singular", [2.0, 1.0, 0.0], [0.75, 0.5, 1.25]),
    ]
    for name, a, s in cases:
        lhs, rhs = densities.dixon_anderson_check(a, s)
        rel = abs(lhs - rhs) / abs(rhs)
        report.add(name, rel <= bound, statistic=rel, tolerance=bound)
    value, _ = densities.dixon_anderson_check([1.0, 0.0], [0.5, 0.5])
    report.add("arcsine equals pi", abs(value - math.pi) <= bound * math.pi,
               statistic=abs(value - math.pi), tolerance=bound * math.pi)
    return report


def run_normalization(seed: int) -> VerificationReport:
    report = VerificationReport(suite="normalization", seed=seed)
    mass_bound = 1e-4
    for n in (2, 3, 4, 5):
        for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
            mass = densities.eigenvalue_density_total_mass(n, beta)
            report.add(f"total-mass n={n} beta={beta:g}",
                       abs(mass - 1.0) <= mass_bound,
                       statistic=abs(mass - 1.0), tolerance=mass_bound)
    selberg_bound = 1e-12
    worst = 0.0
    for beta in _BETAS:
        for m in range(1, 21):
            even, odd = densities.selberg_consistency_check(beta, m)
            worst = max(worst, even, odd)
    report.add("selberg-consistency", worst <= selberg_bound, statistic=worst,
               tolerance=selberg_bound)
    worst = max(_singular_value_residual(n, beta)
                for n in range(2, 14) for beta in (0.05, 0.25, 0.5, 1.0, 2.0, 4.0))
    report.add("laguerre singular values", worst <= 1e-12, statistic=worst,
               tolerance=1e-12)
    return report


def _singular_value_residual(n: int, beta: float) -> float:
    """Worst difference, relative to ``max(1, |log density|)`` on a fixed grid,
    between the singular-value law of the block that
    :func:`transform.laguerre_map_batch` reads order ``n`` off and the
    order-``n`` positive-spectrum law at ``sigma = sqrt(2) lam``.  The block
    is Laguerre with ``a = (n-1) beta / 4`` for even ``n``; for odd ``n`` the
    C-matrix has the Laguerre law with ``a = n beta / 4``."""
    k = n // 2
    a = (n - 1) * beta / 4.0 if n % 2 == 0 else n * beta / 4.0
    lam = np.linspace(0.4, 2.0, 5)[:, None] * np.arange(k, 0, -1) / math.sqrt(k)
    lhs = densities._logpdf_singular_values_rows(math.sqrt(2.0) * lam, k, a, beta)
    rhs = densities._logpdf_positive_spectrum_rows(lam, n, beta) - k / 2.0 * math.log(2.0)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


def run_householder(seed: int, reps: int = 2000) -> VerificationReport:
    """Householder reduction of dense draws lands on the tridiagonal law."""
    report = VerificationReport(suite="householder", seed=seed)
    n = 6
    dense = dense_antisym_gue_rows(n, seed_streams((seed, (10, i)) for i in range(reps)))
    b_sq = householder_reduce_batch(dense) ** 2
    for k in range(1, n):
        _add_ks(report, f"b_{k}^2 gamma({k}/2)",
                ks_one_sample(b_sq[:, k - 1], lambda x, kk=k: gammainc(kk / 2.0, x)))
    return report


SUITES = {
    "identities": run_identities,
    "shuffle": run_shuffle,
    "cholesky": run_cholesky,
    "jacobian": run_jacobian,
    "vandermonde": run_vandermonde,
    "distributions": run_distributions,
    "sturm-prufer": run_sturm_prufer,
    "dixon-anderson": run_dixon_anderson,
    "normalization": run_normalization,
    "householder": run_householder,
}


def run_suite(name: str, seed: int) -> list[VerificationReport]:
    if name == "all":
        return [runner(seed) for runner in SUITES.values()]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](seed)]
