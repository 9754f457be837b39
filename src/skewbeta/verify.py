"""Verification suites: deterministic identity checks and desk-scale
statistical reproductions, each producing a :class:`VerificationReport`."""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betainc, gammainc

from . import chain, densities, sturm, transform
from .ensembles import (AntisymTridiagonal, LowerBidiagonal,
                        antisym_tridiagonal_batch, build_antisym_tridiagonal,
                        build_c_matrix, dense_antisym_gue_rows,
                        householder_reduce_batch)
from .spectral import (DegeneracyError, _first_component_sq_batch,
                       moment_equations_check, positive_spectrum,
                       positive_spectrum_batch, secular_check)
from .stats import VerificationReport, ks_one_sample, ks_two_sample
from .streams import RandomStream, sample_gamma

P_THRESHOLD = 1e-3

_BETAS = (0.5, 1.0, 2.0, 4.0)


def _draw_with_spectrum(n: int, beta: float, stream: RandomStream,
                        min_relgap: float = 0.0):
    """Sample a matrix whose spectrum passes the degeneracy guards, redrawing
    (on split subkeys) in the rare near-degenerate cases at small beta.

    ``min_relgap`` additionally requires every squared-eigenvalue gap (and
    the distance to zero) to exceed that fraction of ``lam_max**2``; exact
    identities verified in floating point lose roughly the reciprocal of
    the relative gap in precision, so conditioning must be bounded for a
    tight residual check to be meaningful.
    """
    for attempt in range(100):
        try:
            t = build_antisym_tridiagonal(n, beta, stream.split(attempt))
            sd = positive_spectrum(t)
        except DegeneracyError:
            continue
        if min_relgap > 0.0:
            lam_sq = sd.lam ** 2
            gaps = -np.diff(lam_sq)
            scale = lam_sq[0]
            if lam_sq[-1] < min_relgap * scale or \
                    (gaps.size and np.min(gaps) < min_relgap * scale):
                continue
            # tiny first components are kept out too: the reference routes
            # the identities compare them against (the eigenvectors of
            # _first_component_residual, the secular sum) resolve them only
            # to absolute accuracy
            if np.min(sd.q) < 1e-2 or (sd.z is not None and sd.z < 1e-2):
                continue
        return t, sd
    raise DegeneracyError(f"no well-separated spectrum after 100 draws (n={n})")


def _random_pairs(rng: np.random.Generator, count: int, n_max: int = 12):
    for _ in range(count):
        yield int(rng.integers(2, n_max + 1)), float(rng.choice(_BETAS))


def run_identities(seed: int, count: int = 200) -> VerificationReport:
    """Exact spectral and factorization identities on random matrices."""
    report = VerificationReport(suite="identities", seed=seed)
    root = RandomStream(seed)
    rng = np.random.default_rng(seed)
    worst = {"vandermonde": 0.0, "secular": 0.0, "first-components": 0.0,
             "frobenius": 0.0, "moments": 0.0, "shuffle": 0.0, "cholesky": 0.0}
    for i, (n, beta) in enumerate(_random_pairs(rng, count)):
        stream = root.split(i)
        t, sd = _draw_with_spectrum(n, beta, stream, min_relgap=1e-6)
        worst["vandermonde"] = max(worst["vandermonde"],
                                   transform.vandermonde_identity_check(t, sd))
        worst["secular"] = max(worst["secular"],
                               secular_check(t, sd, rng))
        worst["first-components"] = max(worst["first-components"],
                                        _first_component_residual(t, sd))
        worst["frobenius"] = max(worst["frobenius"], _frobenius_residual(t, sd))
        worst["moments"] = max(worst["moments"],
                               float(np.max(moment_equations_check(t, sd))))
        k = max(2, n // 2)
        blk = _random_square_bidiagonal(k, stream)
        worst["shuffle"] = max(worst["shuffle"],
                               transform.shuffle_conjugation_check(blk))
        c = build_c_matrix(k, beta, stream)
        top = sample_gamma((2 * k + 1) * beta / 4.0, stream)
        worst["cholesky"] = max(worst["cholesky"],
                                transform.reversed_cholesky_residual(c, top))
    bounds = {"vandermonde": 1e-9, "secular": 1e-9, "first-components": 1e-8,
              "frobenius": 1e-10, "moments": 1e-9, "shuffle": 0.0, "cholesky": 1e-12}
    for name, value in worst.items():
        report.add(name, value <= bounds[name], statistic=value,
                   tolerance=bounds[name])
    return report


def _random_square_bidiagonal(k: int, stream: RandomStream) -> LowerBidiagonal:
    d = 0.25 + stream.generator.random(k)
    e = 0.25 + stream.generator.random(k - 1)
    return LowerBidiagonal(d, e, rows=k)


def _first_component_residual(t: AntisymTridiagonal, sd) -> float:
    """Compare the product-formula first components against eigenvectors."""
    diag, sup = t.symmetric_counterpart()
    vals, vecs = eigh_tridiagonal(diag, sup)
    order = np.argsort(vals)[::-1]
    first = np.abs(vecs[0, order[:t.n // 2]])
    return float(np.max(np.abs(first - sd.q)))


def _frobenius_residual(t: AntisymTridiagonal, sd) -> float:
    """Sum of squared off-diagonals equals sum of squared positive eigenvalues."""
    lhs = float(np.sum(t.b ** 2))
    rhs = float(np.sum(sd.lam ** 2))
    return abs(lhs - rhs) / max(1.0, abs(rhs))


def run_shuffle(seed: int, count: int = 50) -> VerificationReport:
    report = VerificationReport(suite="shuffle", seed=seed)
    root = RandomStream(seed, (1,))
    worst_orth = 0
    worst_resid = 0.0
    for k in range(1, 11):
        q = transform.asps(k)
        m = q.matrix()
        worst_orth = max(worst_orth, int(np.max(np.abs(m @ m.T - np.eye(2 * k,
                                                                        dtype=np.int64)))))
    for i in range(count):
        k = 2 + i % 9
        blk = _random_square_bidiagonal(k, root.split(i))
        worst_resid = max(worst_resid, transform.shuffle_conjugation_check(blk))
    report.add("orthogonality", worst_orth == 0, statistic=float(worst_orth),
               tolerance=0.0)
    report.add("conjugation", worst_resid <= 0.0, statistic=worst_resid,
               tolerance=0.0)
    return report


def run_cholesky(seed: int, count: int = 100) -> VerificationReport:
    report = VerificationReport(suite="cholesky", seed=seed)
    root = RandomStream(seed, (2,))
    worst = 0.0
    for i in range(count):
        stream = root.split(i)
        k = 1 + i % 8
        beta = _BETAS[i % 4]
        c = build_c_matrix(k, beta, stream)
        top = sample_gamma((2 * k + 1) * beta / 4.0, stream)
        worst = max(worst, transform.reversed_cholesky_residual(c, top))
    bound = 1e-12
    report.add("reindex-vs-direct", worst <= bound, statistic=worst, tolerance=bound)
    return report


def _jacobian_point(n: int, beta: float, stream: RandomStream):
    """Random spectrum with enough margin from the normalization boundary
    for finite-difference probing of the eliminated coordinate."""
    for attempt in range(100):
        t, sd = _draw_with_spectrum(n, beta, stream.split(attempt))
        margin = sd.z ** 2 if sd.z is not None else 2.0 * sd.q[-1] ** 2
        if margin > 1e-3 and np.min(sd.q) > 1e-3:
            return t, sd
    raise DegeneracyError("no interior spectrum found for jacobian probing")


def run_jacobian(seed: int, count: int = 50) -> VerificationReport:
    report = VerificationReport(suite="jacobian", seed=seed)
    root = RandomStream(seed, (3,))
    bound = 1e-5
    for n in (2, 3, 4, 5):
        worst = 0.0
        for i in range(count):
            stream = root.split(n, i)
            t, sd = _jacobian_point(n, 2.0, stream)
            analytic = transform.jacobian_analytic(t, sd)
            target = analytic / (2.0 * sd.q[-1]) if n % 2 == 0 else analytic / sd.z
            numeric = transform.jacobian_numeric(sd)
            worst = max(worst, abs(numeric - target) / target)
        report.add(f"n={n}", worst <= bound, statistic=worst, tolerance=bound)
    return report


def run_vandermonde(seed: int, count: int = 200) -> VerificationReport:
    report = VerificationReport(suite="vandermonde", seed=seed)
    root = RandomStream(seed, (4,))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, (n, beta) in enumerate(_random_pairs(rng, count)):
        t, sd = _draw_with_spectrum(n, beta, root.split(i), min_relgap=1e-6)
        worst = max(worst, transform.vandermonde_identity_check(t, sd))
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
    return report


def _add_ks(report: VerificationReport, name: str, res) -> None:
    report.add(name, res.p_value >= P_THRESHOLD, statistic=res.statistic,
               tolerance=P_THRESHOLD, p_value=res.p_value)


def run_sturm_prufer(seed: int, pairs: int = 1000) -> VerificationReport:
    report = VerificationReport(suite="sturm-prufer", seed=seed)
    root = RandomStream(seed, (9,))
    rng = np.random.default_rng(seed + 9)
    mismatches = 0
    for i in range(pairs):
        n = int(rng.integers(2, 13))
        beta = float(rng.choice(_BETAS))
        t, sd = _draw_with_spectrum(n, beta, root.split(i))
        mu = float(rng.uniform(0.0, 1.2 * sd.lam[0]))
        expected = int(np.sum(sd.lam <= mu))
        if sturm.count_positive_leq(t, mu) != expected:
            mismatches += 1
    report.add("eigenvalue-count", mismatches == 0, statistic=float(mismatches),
               tolerance=0.0)

    anchor_worst = 0.0
    monotone_ok = True
    for i in range(20):
        n = 4 + i % 7
        t = build_antisym_tridiagonal(n, 2.0, root.split(1000 + i))
        sd = positive_spectrum(t)
        grid = np.linspace(0.0, 1.5 * sd.lam[0], 200)[1:]
        phases = sturm.prufer_phases(t, grid)
        idx = np.arange(2, n + 1)
        expect0 = np.where(idx % 2 == 0, math.pi / 2.0, 0.0)
        start = sturm.prufer_phases(t, np.array([1e-300]))[0].theta
        anchor_worst = max(anchor_worst, float(np.max(np.abs(start - expect0))))
        stacked = np.stack([p.theta for p in phases])
        if np.any(np.diff(stacked, axis=0) >= 0):
            monotone_ok = False
    report.add("anchor-phases", anchor_worst <= 1e-9,
               statistic=anchor_worst, tolerance=1e-9)
    report.add("monotone-decrease", monotone_ok,
               statistic=0.0 if monotone_ok else 1.0, tolerance=0.0)
    return report


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
    for n in (2, 3, 4):
        for beta in (1.0, 2.0, 4.0):
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
    worst = 0.0
    for scale in np.linspace(0.4, 2.0, 5):
        lam = scale * np.arange(k, 0, -1) / math.sqrt(k)
        lhs = densities.logpdf_singular_values(math.sqrt(2.0) * lam, k, a, beta).log_value
        rhs = (densities.logpdf_positive_spectrum(lam, n, beta).log_value
               - k / 2.0 * math.log(2.0))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def run_householder(seed: int, reps: int = 2000) -> VerificationReport:
    """Householder reduction of dense draws lands on the tridiagonal law."""
    report = VerificationReport(suite="householder", seed=seed)
    root = RandomStream(seed, (10,))
    n = 6
    dense = dense_antisym_gue_rows(n, [root.split(i) for i in range(reps)])
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
