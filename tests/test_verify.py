"""Tests for the verification suites and their reporting contract."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from skewbeta import sturm, transform, verify
from skewbeta.ensembles import (_c_matrix_chis, antisym_tridiagonal_batch,
                                build_antisym_tridiagonal)
from skewbeta.spectral import SpectralData, positive_spectrum, positive_spectrum_batch
from skewbeta.ensembles import AntisymTridiagonal
from skewbeta.streams import RandomStream, gamma_table

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


def _reference_draw(n, beta, stream, min_relgap=0.0):
    """The one-row redraw loop that _spectrum_draws replaced."""
    for attempt in range(100):
        try:
            t = build_antisym_tridiagonal(n, beta, stream.split(attempt))
            sd = positive_spectrum(t)
        except verify.DegeneracyError:
            continue
        if min_relgap > 0.0:
            lam_sq = sd.lam ** 2
            gaps = -np.diff(lam_sq)
            scale = lam_sq[0]
            if lam_sq[-1] < min_relgap * scale or \
                    (gaps.size and np.min(gaps) < min_relgap * scale):
                continue
            if np.min(sd.q) < 1e-2 or (sd.z is not None and sd.z < 1e-2):
                continue
        return t, sd
    raise verify.DegeneracyError(f"no well-separated spectrum after 100 draws (n={n})")


def _reference_jacobian_point(n, beta, stream):
    """The one-row redraw loop that _jacobian_draws replaced."""
    for attempt in range(100):
        t, sd = _reference_draw(n, beta, stream.split(attempt))
        margin = sd.z ** 2 if sd.z is not None else 2.0 * sd.q[-1] ** 2
        if margin > 1e-3 and np.min(sd.q) > 1e-3:
            return t, sd
    raise verify.DegeneracyError("no interior spectrum found for jacobian probing")


def _assert_same_outcomes(got, expected):
    for one, ref in zip(got, expected, strict=True):
        if isinstance(ref, Exception):
            assert type(one) is type(ref) and str(one) == str(ref)
            continue
        (t, sd), (t_ref, sd_ref) = one, ref
        assert np.array_equal(t.b, t_ref.b) and np.array_equal(sd.lam, sd_ref.lam)
        assert np.array_equal(sd.q, sd_ref.q) and sd.z == sd_ref.z


def _one_row_outcomes(call, streams):
    """``call(i, stream)`` for every stream: its ``(t, sd)`` or the exception
    it raised."""
    out = []
    for i, stream in enumerate(streams):
        try:
            out.append(call(i, stream))
        except ValueError as exc:  # DegeneracyError is a ValueError
            out.append(exc)
    return out


def _as_outcome(n, rows):
    """The ``(t, sd)`` of a one-row draw."""
    b, lam, q, z = rows
    return AntisymTridiagonal(b[0]), SpectralData(n, lam[0], q[0],
                                                  float(z[0]) if n % 2 else None)


def _assert_batch_matches(batch, references, first_draw):
    """A batch draw raises a class among those its references raise, or,
    when every reference succeeds, its rows equal them bit for bit; returns
    how many rows were redrawn and the exception classes raised."""
    raised = {type(r) for r in references if isinstance(r, Exception)}
    if raised:
        with pytest.raises(ValueError) as exc:  # DegeneracyError is a ValueError
            batch()
        assert type(exc.value) in raised
        return 0, raised
    b, lam, q, z = batch()
    redrawn = 0
    for i, (t, sd) in enumerate(references):
        assert np.array_equal(b[i], t.b) and np.array_equal(lam[i], sd.lam)
        assert np.array_equal(q[i], sd.q)
        assert np.array_equal(z[i], np.nan if sd.z is None else sd.z, equal_nan=True)
        redrawn += not np.array_equal(b[i], first_draw(i))
    return redrawn, raised


class TestRowForms:
    """A batch draw equals the one-row redraw loops it replaced wherever
    none of them raises; on one row it raises exactly what the loop
    raises."""

    @pytest.mark.parametrize("n,betas,min_relgap,raises", [
        (4, [0.1, 2.0, 0.5, 0.1] * 10, 1e-6, set()),  # no q deflated to 0 at n <= 4
        (12, [0.05] * 30, 0.0, {ValueError}),
        (7, [0.25, 1.0] * 15, 1e-6, set()),
        (4, [2.0] * 3, 1.0, {verify.DegeneracyError}),  # never accepted
        (12, [0.05, 2.0, 0.5, 0.05] * 10, 1e-6, {ValueError}),  # dbdsqr's q = 0 after redraws
    ])
    def test_spectrum_draws_equal_one_row_calls(self, n, betas, min_relgap, raises):
        streams = [RandomStream(5).split(i) for i in range(len(betas))]
        references = _one_row_outcomes(
            lambda i, s: _reference_draw(n, betas[i], s, min_relgap), streams)
        _assert_same_outcomes(_one_row_outcomes(
            lambda i, s: verify._draw_with_spectrum(n, betas[i], s, min_relgap), streams),
            references)
        redrawn, raised = _assert_batch_matches(
            lambda: verify._spectrum_draws(n, betas, streams, min_relgap), references,
            lambda i: antisym_tridiagonal_batch(n, betas[i], streams[i].split(0), None))
        assert raised == raises
        assert redrawn > 0 or min_relgap == 0.0 or raises

    @pytest.mark.parametrize("n,beta", [(3, 0.1), (5, 0.1), (4, 2.0), (13, 0.05)])
    def test_jacobian_draws_equal_one_row_calls(self, n, beta):
        # dbdsqr deflates a small q to exactly 0 at n = 13, which raises;
        # the port that solves n <= 5 keeps it positive
        streams = [RandomStream(5).split(i) for i in range(30)]
        references = _one_row_outcomes(lambda i, s: _reference_jacobian_point(n, beta, s),
                                       streams)
        _assert_same_outcomes(_one_row_outcomes(
            lambda i, s: _as_outcome(n, verify._jacobian_draws(n, beta, [s])), streams),
            references)
        redrawn, raised = _assert_batch_matches(
            lambda: verify._jacobian_draws(n, beta, streams), references,
            lambda i: antisym_tridiagonal_batch(n, beta, streams[i].split(0, 0), None))
        assert redrawn > 0 or beta == 2.0 or raised
        assert raised == ({ValueError} if n == 13 else set())

    def test_empty_batches(self):
        # no draws: every case passes with statistic 0, as the loops did
        for report in (verify.run_identities(SEED, count=0), verify.run_jacobian(SEED, count=0),
                       verify.run_vandermonde(SEED, count=0),
                       verify.run_sturm_prufer(SEED, pairs=0)):
            assert report.all_passed and report.cases[0].statistic == 0.0


def _reference_eigenvalue_count(seed: int, pairs: int = 1000) -> int:
    """The one-pair loop the eigenvalue-count case replaced."""
    root = RandomStream(seed, (9,))
    rng = np.random.default_rng(seed + 9)
    mismatches = 0
    for i in range(pairs):
        n = int(rng.integers(2, 13))
        beta = float(rng.choice(verify._BETAS))
        t, sd = verify._draw_with_spectrum(n, beta, root.split(i))
        mu = float(rng.uniform(0.0, 1.2 * sd.lam[0]))
        expected = int(np.sum(sd.lam <= mu))
        if sturm._count_positive_leq_rows(t.b[None, :], np.array([mu]))[0] != expected:
            mismatches += 1
    return mismatches


def _reference_vandermonde(seed: int, count: int = 200) -> float:
    """The one-pair loop the vandermonde suite replaced."""
    root = RandomStream(seed, (4,))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, (n, beta) in enumerate(verify._random_pairs(rng, count)):
        t, sd = verify._draw_with_spectrum(n, beta, root.split(i), min_relgap=1e-6)
        z = np.array([np.nan if sd.z is None else sd.z])
        worst = max(worst, float(transform._vandermonde_residual_rows(
            t.b[None, :], sd.lam[None, :], sd.q[None, :], z)[0]))
    return worst


def _reference_shuffle_rows(seed: int, count: int = 50) -> list[bytes]:
    """The ``(d, e)`` rows of the one-block loop the conjugation case
    replaced: block ``i`` of order ``2 + i % 9`` on ``root.split(i)``."""
    root = RandomStream(seed, (1,))
    rows = []
    for i in range(count):
        k, gen = 2 + i % 9, root.split(i).generator
        d = 0.25 + gen.random(k)
        rows.append(np.concatenate([d, 0.25 + gen.random(k - 1)]).tobytes())
    return rows


def _reference_cholesky_rows(seed: int, count: int = 100) -> list[bytes]:
    """The ``(d, e, top)`` rows of the one-block loop the cholesky suite
    replaced: C-matrix ``i``, then its extra squared entry, on
    ``root.split(i)``."""
    root = RandomStream(seed, (2,))
    rows = []
    for i in range(count):
        stream = root.split(i)
        k, beta = 1 + i % 8, verify._BETAS[i % 4]
        d, e = _c_matrix_chis(k, beta, [stream])
        top = gamma_table([(2 * k + 1) * beta / 4.0], [stream])
        rows.append(np.concatenate([d[0], e[0], top[0]]).tobytes())
    return rows


def _record_calls(monkeypatch, module, name):
    """Wrap ``module.name`` to record the row count of each call."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)
    monkeypatch.setattr(module, name, spy)
    return calls


def _record_rows(monkeypatch, module, name):
    """Replace ``module.name`` by a spy that records the rows of its
    arguments, each row as the bytes of its arguments' rows side by side."""
    rows = []
    real = getattr(module, name)

    def spy(*args):
        m = len(args[0])
        rows.extend(r.tobytes() for r in np.concatenate(
            [np.reshape(a, (m, -1)) for a in args], axis=1))
        return real(*args)
    monkeypatch.setattr(module, name, spy)
    return rows


def _reference_phase_cases(seed: int) -> list[float]:
    """The one-matrix loops the anchor-phases, monotone-decrease and
    wrap-counts cases replaced: their three statistics."""
    root = RandomStream(seed, (9,))
    anchor_worst, monotone_ok = 0.0, True
    for i in range(20):
        n = 4 + i % 7
        t = build_antisym_tridiagonal(n, 2.0, root.split(1000 + i))
        grid = np.linspace(0.0, 1.5 * positive_spectrum(t).lam[0], 200)[1:]
        theta = sturm.prufer_phases(t, grid)
        start = sturm.prufer_phases(t, np.array([1e-300]))[0]
        anchor_worst = max(anchor_worst, float(np.max(np.abs(start - sturm._anchor_phases(n)))))
        monotone_ok &= not np.any(np.diff(theta, axis=0) >= 0)
    violations = 0
    for j, beta in enumerate(np.repeat((0.05, 0.25, 2.0), 20)):
        t = build_antisym_tridiagonal(4 + j % 9, beta, root.split(2000 + j))
        grid = np.linspace(0.0, 1.5 * positive_spectrum_batch(t.b[None, :])[0, 0], 200)[1:]
        theta = sturm.prufer_phases(t, grid)
        violations += verify._wrap_violations(t.b[None, :], grid[None, :], theta[None])[0]
    return [anchor_worst, 0.0 if monotone_ok else 1.0, float(violations)]


def _record_phases(monkeypatch):
    """Replace ``sturm._phases`` by a spy that records, for every point, the
    bytes of its matrix's ``b``, the point and the phases there."""
    rows = []
    real = sturm._phases

    def spy(b, mu):
        theta = real(b, mu)
        b = np.broadcast_to(b, (mu.size, b.shape[-1]))
        rows.extend(r.tobytes() for r in np.concatenate([b, mu[:, None], theta], axis=1))
        return theta
    monkeypatch.setattr(sturm, "_phases", spy)
    return rows


class TestDrawOrder:
    """The batched suites check the matrices, spectra and points of the
    one-pair loops they replaced, bit for bit: every row the row form gets
    is a row it got, one row per call, in the loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigenvalue_count_matches_one_pair_loop(self, seed, monkeypatch):
        rows = _record_rows(monkeypatch, sturm, "_count_positive_leq_rows")
        case = verify.run_sturm_prufer(seed).cases[0]
        batched = sorted(rows)
        rows.clear()
        assert case.name == "eigenvalue-count"
        assert case.statistic == float(_reference_eigenvalue_count(seed))
        assert len(rows) == 1000 and batched == sorted(rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_phase_cases_match_one_matrix_loop(self, seed, monkeypatch):
        rows = _record_phases(monkeypatch)
        cases = verify.run_sturm_prufer(seed).cases[1:]
        batched = sorted(rows)
        rows.clear()
        assert [c.name for c in cases] == ["anchor-phases", "monotone-decrease", "wrap-counts"]
        assert [c.statistic for c in cases] == _reference_phase_cases(seed)
        assert len(rows) == 20 * 200 + 60 * 199 and batched == sorted(rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vandermonde_matches_one_pair_loop(self, seed, monkeypatch):
        rows = _record_rows(monkeypatch, transform, "_vandermonde_residual_rows")
        case = verify.run_vandermonde(seed).cases[0]
        batched = sorted(rows)
        rows.clear()
        assert abs(case.statistic - _reference_vandermonde(seed)) <= 1e-13
        assert len(rows) == 200 and batched == sorted(rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffle_matches_one_block_loop(self, seed, monkeypatch):
        rows = _record_rows(monkeypatch, transform, "shuffle_conjugation_check")
        calls = _record_calls(monkeypatch, transform, "shuffle_conjugation_check")
        assert verify.run_shuffle(seed).all_passed
        assert sorted(calls) == [5] * 4 + [6] * 5  # one call per order 2..10
        assert sorted(rows) == sorted(_reference_shuffle_rows(seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cholesky_matches_one_block_loop(self, seed, monkeypatch):
        rows = _record_rows(monkeypatch, transform, "reversed_cholesky_residual")
        calls = _record_calls(monkeypatch, transform, "reversed_cholesky_residual")
        assert verify.run_cholesky(seed).all_passed
        assert sorted(calls) == [12] * 4 + [13] * 4  # one call per k = 1..8
        assert sorted(rows) == sorted(_reference_cholesky_rows(seed))

    def test_mu_from_uniform_draw(self):
        # the eigenvalue-count case forms rng.uniform(0, 1.2 lam) from
        # rng.random() as 0 + 1.2 lam U, which is the same double
        lam = np.random.default_rng(1).gamma(0.5, size=20000)
        uniform, unit = np.random.default_rng(2), np.random.default_rng(2)
        expected = [uniform.uniform(0.0, 1.2 * v) for v in lam]
        assert np.array_equal(0.0 + 1.2 * lam * [unit.random() for _ in lam], expected)


class TestIdentityRows:
    """The identity checks of the ``identities`` suite on rows of spectral
    data."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_rows_equal_one_row_calls(self, n):
        betas = [0.5, 1.0, 2.0, 4.0] * 3
        rows = verify._spectrum_draws(n, betas, [RandomStream(6).split(i) for i in range(12)],
                                      min_relgap=1e-6)
        x = verify._secular_points(*rows, np.random.default_rng(n))
        forms = (lambda *r: verify._secular_residual_rows(*r[:4], r[4]),
                 lambda *r: verify._moment_residual_rows(*r[:4]),
                 lambda *r: verify._first_component_residual_rows(*r[:4]))
        for form in forms:
            batch = form(*rows, x)
            one = np.concatenate([form(*(a[i:i + 1] for a in rows + (x,))) for i in range(12)])
            assert batch.shape[0] == 12 and np.array_equal(batch, one)

    def test_perturbed_q_fails_first_components(self, monkeypatch):
        real = verify._spectrum_draws

        def perturbed(n, *args, **kwargs):
            b, lam, q, z = real(n, *args, **kwargs)
            if n == 7:
                q = q.copy()
                q[0, 0] += 1e-6
            return b, lam, q, z
        monkeypatch.setattr(verify, "_spectrum_draws", perturbed)
        case = {c.name: c for c in verify.run_identities(SEED).cases}["first-components"]
        assert case.status == "fail" and abs(case.statistic - 1e-6) <= 1e-8


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
                            lambda d, e, top: 1.0)
        report = verify.run_cholesky(SEED, count=5)
        assert report.failures == 1 and not report.all_passed

    def test_reports_are_seed_deterministic(self, suite_run):
        report, _ = suite_run("cholesky")
        again = verify.run_cholesky(report.seed)
        assert json.dumps(asdict(report)) == json.dumps(asdict(again))
