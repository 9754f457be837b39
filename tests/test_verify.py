"""Tests for the verification suites and their reporting contract."""

import numpy as np
import pytest

from skewbeta import transform, verify
from skewbeta.ensembles import antisym_tridiagonal_batch
from skewbeta.spectral import positive_spectrum, positive_spectrum_batch
from skewbeta.ensembles import AntisymTridiagonal
from skewbeta.streams import RandomStream

SEED = 20260823


class TestHelpers:
    def test_positive_spectrum_batch_matches_scalar(self):
        b = antisym_tridiagonal_batch(5, 2.0, RandomStream(0), 16)
        batch = positive_spectrum_batch(b)
        for i in range(16):
            sd = positive_spectrum(AntisymTridiagonal(b[i]))
            assert np.allclose(batch[i], sd.lam, atol=1e-12)

    def test_draw_with_spectrum_respects_relgap(self):
        t, sd = verify._draw_with_spectrum(8, 0.5, RandomStream(1),
                                           min_relgap=1e-6)
        lam_sq = sd.lam ** 2
        assert np.min(-np.diff(lam_sq)) >= 1e-6 * lam_sq[0]
        assert np.min(sd.q) >= 1e-2


class TestSuitesPass:
    @pytest.mark.parametrize("name", sorted(verify.SUITES))
    def test_suite_green(self, suite_run, name):
        report, _ = suite_run(name)
        assert report.all_passed, [c.name for c in report.cases
                                   if c.status == "fail"]

    def test_run_suite_all(self, monkeypatch):
        # "all" runs every suite once, in the order of verify.SUITES
        calls = []

        def stub(name):
            def runner(seed):
                calls.append((name, seed))
                return name
            return runner
        monkeypatch.setattr(verify, "SUITES", {name: stub(name) for name in "bac"})
        assert verify.run_suite("all", SEED) == ["b", "a", "c"]
        assert calls == [("b", SEED), ("a", SEED), ("c", SEED)]

    def test_run_suite_unknown(self):
        with pytest.raises(KeyError):
            verify.run_suite("nope", SEED)

    @pytest.mark.parametrize("seed", [5, 14, 19, 31])
    def test_cholesky_suite_at_ill_conditioned_seeds(self, seed):
        # at these seeds the subtracting recursion and a Cholesky factor of
        # the Gram matrix each erred by about 1e-12
        report = verify.run_cholesky(seed)
        assert report.all_passed, report.cases[0].statistic

    def test_householder_suite(self):
        report = verify.run_householder(SEED, reps=600)
        assert report.all_passed, [c.name for c in report.cases
                                   if c.status == "fail"]


class TestFailureInjection:
    def test_impossible_tolerance_reports_failure(self, monkeypatch):
        # a residual far above the 1e-12 bound must fail the case
        monkeypatch.setattr(transform, "reversed_cholesky_residual",
                            lambda c, top: 1.0)
        report = verify.run_cholesky(SEED, count=5)
        assert report.failures == 1 and not report.all_passed

    def test_reports_are_seed_deterministic(self, suite_run):
        report, _ = suite_run("cholesky")
        assert report.to_json() == verify.run_cholesky(report.seed).to_json()
