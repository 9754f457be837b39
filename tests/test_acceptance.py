"""Acceptance gate: the ten headline checks, one printed line per criterion.

Deterministic criteria reuse the verification suites at their stated
tolerances; the statistical criteria run at full scale (1e5 replicates,
1e4 reductions) with fixed seeds.
"""

import time

import numpy as np
import pytest
from scipy.special import betainc, gammainc

from skewbeta import verify
from skewbeta.chain import chain_sample_batch
from skewbeta.densities import logpdf_positive_spectrum
from skewbeta.ensembles import (antisym_tridiagonal_batch, dense_antisym_gue_rows,
                                householder_reduce_batch)
from skewbeta.spectral import _first_component_sq_batch, positive_spectrum_batch
from skewbeta.stats import ks_one_sample, ks_two_sample, moment_test, quadrature_cdf
from skewbeta.streams import RandomStream
from skewbeta.transform import laguerre_map_batch

SEED = 20260823
P_MIN = 1e-3


def _report_line(idx: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {idx:2d}] {status}: {label} ({detail})")


def _suite_criterion(idx, label, runner, budget_s, **kwargs):
    start = time.monotonic()
    report = runner(SEED, **kwargs)
    elapsed = time.monotonic() - start
    worst = [f"{c.name}={c.statistic:.3g}" for c in report.cases
             if c.status == "fail"]
    passed = report.all_passed and elapsed < budget_s
    _report_line(idx, label, passed,
                 f"{len(report.cases)} cases, {elapsed:.1f}s"
                 + (f", failures: {', '.join(worst)}" if worst else ""))
    assert report.all_passed, f"failed cases: {worst}"
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget {budget_s}s"


def test_criterion_1_identity_suite():
    _suite_criterion(1, "deterministic identity suite", verify.run_identities,
                     budget_s=30.0)


def test_criterion_2_jacobian_suite():
    _suite_criterion(2, "finite-difference vs analytic jacobian",
                     verify.run_jacobian, budget_s=60.0)


def test_criterion_3_three_sampler_equivalence():
    start = time.monotonic()
    reps = 100000
    root = RandomStream(SEED, (100,))
    failures = []
    p_worst = 1.0
    for n, beta in ((4, 2.0), (5, 2.0), (4, 1.0), (5, 4.0)):
        key = int(10 * n + beta)
        direct = positive_spectrum_batch(
            antisym_tridiagonal_batch(n, beta, root.split(0, key), reps))
        routes = {
            "chain": chain_sample_batch(n, beta, root.split(1, key), reps),
            "laguerre-map": positive_spectrum_batch(
                laguerre_map_batch(n, beta, root.split(2, key), reps)),
        }
        samples = {"direct": direct, **routes}
        names = list(samples)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                for col, stat in ((0, "lambda_max"), (-1, "lambda_min")):
                    res = ks_two_sample(samples[a][:, col], samples[b][:, col])
                    p_worst = min(p_worst, res.p_value)
                    if res.p_value < P_MIN:
                        failures.append(f"{a}-vs-{b} {stat} (n={n}, beta={beta:g}): "
                                        f"p={res.p_value:.2e}")
    elapsed = time.monotonic() - start
    _report_line(3, "three-sampler equivalence", not failures and elapsed < 300.0,
                 f"worst p={p_worst:.3g}, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_4_exact_marginals():
    reps = 100000
    root = RandomStream(SEED, (101,))
    # n=2: the positive eigenvalue has CDF gammainc(beta/4, x^2)
    beta = 2.0
    lam2 = positive_spectrum_batch(
        antisym_tridiagonal_batch(2, beta, root.split(0), reps))[:, 0]
    res2 = ks_one_sample(lam2, lambda x: gammainc(beta / 4.0, x ** 2))
    # n=3, beta=2: eigenvalue vs the quadrature CDF of the closed-form density
    lam3 = positive_spectrum_batch(
        antisym_tridiagonal_batch(3, 2.0, root.split(1), reps))[:, 0]
    cdf3 = quadrature_cdf(lambda x: logpdf_positive_spectrum([x], 3, 2.0).log_value,
                          1e-9, 8.0)
    res3 = ks_one_sample(lam3, cdf3)
    passed = res2.p_value >= P_MIN and res3.p_value >= P_MIN
    _report_line(4, "exact marginal CDFs", passed,
                 f"n=2 p={res2.p_value:.3g}, n=3 p={res3.p_value:.3g}")
    assert passed


def test_criterion_5_first_component_marginals():
    reps = 100000
    root = RandomStream(SEED, (102,))
    b4 = antisym_tridiagonal_batch(4, 2.0, root.split(0), reps)
    u = _first_component_sq_batch(b4)
    res4 = ks_one_sample(u, lambda x: np.clip(x, 0.0, 1.0))
    b3 = antisym_tridiagonal_batch(3, 2.0, root.split(1), reps)
    v = _first_component_sq_batch(b3)
    res3 = ks_one_sample(v, lambda x: betainc(1.0, 0.5, np.clip(x, 0.0, 1.0)))
    passed = res4.p_value >= P_MIN and res3.p_value >= P_MIN
    _report_line(5, "doubled first-component laws", passed,
                 f"n=4 uniform p={res4.p_value:.3g}, "
                 f"n=3 beta(1,1/2) p={res3.p_value:.3g}")
    assert passed


def test_criterion_6_householder_reduction_law():
    reps, n = 10000, 8
    root = RandomStream(SEED, (103,))
    dense = dense_antisym_gue_rows(n, [root.split(i) for i in range(reps)])
    b_sq = householder_reduce_batch(dense) ** 2
    p_values = []
    for k in range(1, n):
        res = ks_one_sample(b_sq[:, k - 1], lambda x, kk=k: gammainc(kk / 2.0, x))
        p_values.append(res.p_value)
    passed = min(p_values) >= P_MIN
    _report_line(6, "dense reduction lands on the tridiagonal law", passed,
                 f"min p over b_1..b_{n - 1}: {min(p_values):.3g}")
    assert passed, p_values


def test_criterion_7_normalization_and_selberg():
    _suite_criterion(7, "normalization quadrature and log-gamma identity",
                     verify.run_normalization, budget_s=120.0)


def test_criterion_8_interlaced_integral():
    _suite_criterion(8, "interlaced-region integral vs closed form",
                     verify.run_dixon_anderson, budget_s=60.0)


def test_criterion_9_sturm_prufer():
    _suite_criterion(9, "eigenvalue counting and phase monotonicity",
                     verify.run_sturm_prufer, budget_s=120.0)


@pytest.mark.parametrize("n,beta", [(4, 2.0), (7, 1.0)])
def test_criterion_10_second_moment(n, beta):
    reps = 100000
    b = antisym_tridiagonal_batch(n, beta, RandomStream(SEED, (104, n)), reps)
    # sum lam^2 = sum b_k^2 is a sum of independent gammas with total
    # shape beta*n*(n-1)/8, so mean and variance both equal that value
    target = beta * n * (n - 1) / 8.0
    z = moment_test(np.sum(b ** 2, axis=1), target, target)
    passed = abs(z) <= 3.0
    _report_line(10, f"second-moment identity (n={n}, beta={beta:g})", passed,
                 f"z={z:.2f}")
    assert passed
