"""Tests for the bordered-matrix chain sampler and its rational-root solver."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from skewbeta import chain
from skewbeta.chain import (RootBracketError, chain_sample,
                            chain_sample_batch, chain_sample_rows,
                            chain_step_up, chain_trajectory, secular_roots,
                            step_down)
from skewbeta.stats import ks_one_sample
from skewbeta.streams import ParameterError, RandomStream, gamma_table

from moments import moment_test


def _row_roots(constant, a, c) -> np.ndarray:
    """Roots of ``constant - sum c_j / (y - a_j)`` for one row of poles."""
    return secular_roots(constant, np.array([a], dtype=float), np.array([c], dtype=float))[0]


class TestRationalRoots:
    def test_single_pole_closed_form(self):
        # 1 - c/(y - a) = 0  =>  y = a + c
        roots = _row_roots(1, [2.0], [0.7])
        assert roots == pytest.approx([2.7], rel=1e-13)

    def test_two_pole_constant0_closed_form(self):
        # -c1/(y-a1) - c2/(y-a2) = 0  =>  y = (c1 a2 + c2 a1)/(c1 + c2)
        a1, a2, c1, c2 = 3.0, 1.0, 0.4, 1.6
        roots = _row_roots(0, [a1, a2], [c1, c2])
        assert roots == pytest.approx([(c1 * a2 + c2 * a1) / (c1 + c2)], rel=1e-12)

    def test_root_count_and_interlacing_constant1(self):
        a = np.array([5.0, 3.0, 1.0])
        c = np.array([0.5, 1.5, 0.25])
        roots = _row_roots(1, a, c)
        assert roots.size == 3
        assert roots[0] > a[0] > roots[1] > a[1] > roots[2] > a[2]

    def test_root_count_and_interlacing_constant0(self):
        a = np.array([5.0, 3.0, 1.0])
        c = np.array([0.5, 1.5, 0.25])
        roots = _row_roots(0, a, c)
        assert roots.size == 2
        assert a[0] > roots[0] > a[1] > roots[1] > a[2]

    @pytest.mark.parametrize("tiny", [1e-5, 1e-9, 1e-13])
    def test_root_near_lower_pole(self, tiny):
        # a tiny weight pins one root exponentially close to its pole; the
        # anchored solve must still resolve it to full relative precision
        hi, lo = _row_roots(1, [1.69, 0.0], [1.0, tiny])
        assert 0.0 < lo < 2.0 * tiny
        assert hi > 1.69
        # near the pole the root satisfies c/(y - a) ~ remaining terms, so
        # lo ~ tiny / (1 + 1/1.69) to first order
        assert lo == pytest.approx(tiny / (1.0 + 1.0 / 1.69), rel=1e-3)

    def test_root_near_upper_pole(self):
        # constant=0 with a lopsided weight puts the root near the upper pole
        a1, a2, c1, c2 = 4.41, 0.81, 1e-8, 1.0
        roots = _row_roots(0, [a1, a2], [c1, c2])
        expected = (c1 * a2 + c2 * a1) / (c1 + c2)
        assert roots[0] == pytest.approx(expected, rel=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_roots_interlace(self, seed):
        gen = np.random.default_rng(seed)
        p = int(gen.integers(1, 6))
        a = np.sort(gen.uniform(0.0, 10.0, p))[::-1]
        if p > 1 and np.min(-np.diff(a)) < 1e-9:
            return
        c = gen.gamma(1.0, size=p) + 1e-12
        roots = _row_roots(1, a, c)
        bounds = np.concatenate([[np.inf], a])
        assert np.all(roots < bounds[:-1]) and np.all(roots > bounds[1:])


class TestChainSteps:
    def test_step_up_sizes(self):
        s = RandomStream(0)
        lam = chain_step_up(np.zeros(0), 1, 2.0, s.split(0))
        assert lam.size == 1
        lam = chain_step_up(lam, 2, 2.0, s.split(1))
        assert lam.size == 1
        lam = chain_step_up(lam, 3, 2.0, s.split(2))
        assert lam.size == 2

    def test_step_up_wrong_size(self):
        with pytest.raises(ParameterError):
            chain_step_up([1.0, 0.5], 2, 2.0, RandomStream(0))

    def test_step_up_interlaces(self):
        prev = np.array([2.0, 1.0])
        new = chain_step_up(prev, 4, 2.0, RandomStream(1))
        assert new[0] > prev[0] > new[1] > prev[1]

    def test_step_down_interlaces(self):
        lam = np.array([2.0, 1.0])
        down = step_down(lam, 3, 2.0, RandomStream(2))
        assert down.size == 1 and lam[0] > down[0] > lam[1]

    def test_step_down_terminal(self):
        assert step_down([1.0], 1, 2.0, RandomStream(3)).size == 0

    def test_step_down_rejects_unordered(self):
        with pytest.raises(ParameterError):
            step_down([1.0, 2.0], 3, 2.0, RandomStream(3))

    @pytest.mark.parametrize("lam", [[2.0, -1.0], [2.0, 0.0], [np.inf, 1.0], [2.0, np.nan]])
    def test_steps_reject_a_spectrum_outside_the_support(self, lam):
        # -1 would be squared into the pole 1 and give an answer
        msg = "finite, positive and strictly descending"
        with pytest.raises(ParameterError, match=msg):
            chain_step_up(lam, 4, 2.0, RandomStream(1))
        with pytest.raises(ParameterError, match=msg):
            step_down(lam, 3, 2.0, RandomStream(1))

    @pytest.mark.parametrize("beta", [0.25, 2.0])
    def test_batched_step_down_law(self, beta):
        # order 3 to 2: poles lam^2 and 0 with Dirichlet(beta/2, beta/4)
        # weights put x^2 / lam^2 ~ beta(beta/4, beta/2); order 4 to 3: poles
        # lam_1^2 > lam_2^2 with Dirichlet(beta/2, beta/2) put the root's
        # position in the gap ~ beta(beta/2, beta/2)
        reps = 20000
        y = chain._step_down_sq(np.array([[1.69]]), 3, beta, RandomStream(9), reps)
        assert y.shape == (reps, 1)
        res = ks_one_sample(y[:, 0] / 1.69, lambda u: betainc(beta / 4.0, beta / 2.0, u))
        assert res.p_value > 1e-3
        y = chain._step_down_sq(np.array([[4.0, 1.0]]), 4, beta, RandomStream(10), reps)
        assert y.shape == (reps, 1)
        res = ks_one_sample((y[:, 0] - 1.0) / 3.0, lambda u: betainc(beta / 2.0, beta / 2.0, u))
        assert res.p_value > 1e-3

    def test_trajectory_states(self):
        states = chain_trajectory(5, 2.0, RandomStream(4))
        assert len(states) == 5
        assert [lam.size for lam in states] == [0, 1, 1, 2, 2]
        assert all(isinstance(lam, np.ndarray) for lam in states)

    def test_sample_deterministic(self):
        a = chain_sample(6, 2.0, RandomStream(5))
        b = chain_sample(6, 2.0, RandomStream(5))
        assert np.array_equal(a, b)

    def test_size_bound(self):
        with pytest.raises(ParameterError):
            chain_sample(1, 2.0, RandomStream(0))


def _dense_border_spectrum(lam_prev, w, b) -> np.ndarray:
    """Reference for one border step: the positive eigenvalues, from a dense
    eigensolver, of the real symmetric arrowhead matrix equivalent (by a
    diagonal unitary) to the bordered anti-symmetric matrix with eigenvalue
    pairs ``+-lam_prev`` (plus 0 when ``b`` is given), border weight ``w``
    on each pair and ``b`` on the zero eigenvalue."""
    lam_prev = np.asarray(lam_prev, dtype=float)
    w = np.asarray(w, dtype=float)
    tail_diag, tail_border = ([], []) if b is None else ([0.0], [b])
    diag = np.concatenate([lam_prev, -lam_prev, tail_diag])
    border = np.concatenate([w, w, tail_border])
    arrow = np.diag(np.append(diag, 0.0))
    arrow[:-1, -1] = border
    arrow[-1, :-1] = border
    eig = np.linalg.eigvalsh(arrow)
    return np.sort(eig[eig > 1e-13 * max(1.0, np.max(np.abs(eig)))])[::-1]


class TestBorderMatrixCheck:
    @pytest.mark.parametrize("lam,w,b", [
        ([1.5], [0.7], None),
        ([2.0, 0.8], [0.3, 1.1], None),
        ([1.5], [0.7], 0.4),
        ([], [], 0.9),
    ])
    def test_rational_route_matches_dense(self, lam, w, b):
        # the squared roots of 1 - sum 2 w^2 / (y - lam^2) (- b^2 / y)
        poles = np.asarray(lam, dtype=float) ** 2
        weights = 2.0 * np.asarray(w, dtype=float) ** 2
        if b is not None:
            poles = np.append(poles, 0.0)
            weights = np.append(weights, b ** 2)
        got = np.sqrt(_row_roots(1, poles, weights))
        expected = _dense_border_spectrum(lam, w, b)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-10


class TestBatchSampler:
    def test_shape(self):
        out = chain_sample_batch(5, 2.0, RandomStream(6), 32)
        assert out.shape == (32, 2)
        assert np.all(np.diff(out, axis=1) < 0) and np.all(out > 0)

    def test_sum_of_squares_moment(self):
        # E[sum lam^2] = Var = beta n (n-1)/8 (sum of independent gammas)
        n, beta, reps = 6, 2.0, 100000
        out = chain_sample_batch(n, beta, RandomStream(7), reps)
        target = beta * n * (n - 1) / 8.0
        z = moment_test(np.sum(out ** 2, axis=1), target, target)
        assert abs(z) < 4.0

    def test_invalid_reps(self):
        with pytest.raises(ParameterError):
            chain_sample_batch(4, 2.0, RandomStream(0), 0)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("n", [2, 7, 10])
    def test_rows_equal_one_stream_chains(self, n, beta):
        # row i draws its border weights on streams[i] with the calls of
        # the one-row chain, and the batched root solve is exact per row
        root = RandomStream(5)
        streams = [root.split(i) for i in range(16)]
        rows = chain_sample_rows(n, beta, streams)
        assert rows.shape == (16, n // 2)
        for i, row in enumerate(rows):
            assert np.array_equal(row, chain_sample(n, beta, root.split(i)))


def _oracle_root(constant, a, c, i):
    """Root of ``constant - sum c_j/(y - a_j)`` just above pole ``i`` (above
    the top pole for ``i = 0``) by bisection in 60-digit arithmetic on the
    offset from the nearer pole, geometric while the bracket spans more
    than a factor of 4."""
    with mp.workdps(60):
        A = [mp.mpf(float(x)) for x in a]
        C = [mp.mpf(float(x)) for x in c]

        def f(k, tau):
            return constant - mp.fsum(cj / (tau - (aj - A[k])) for aj, cj in zip(A, C))

        floor = mp.mpf(10) ** -400  # below every double offset
        if i == 0:
            k, lo, hi = 0, floor, mp.fsum(C)
        else:
            half = (A[i - 1] - A[i]) / 2
            k, lo, hi = (i, floor, half) if f(i, half) > 0 else (i - 1, -half, -floor)
        while abs(hi - lo) > mp.mpf(10) ** -45 * min(abs(lo), abs(hi)):
            if max(abs(lo), abs(hi)) > 4 * min(abs(lo), abs(hi)):
                mid = mp.sqrt(lo * hi) * mp.sign(lo)
            else:
                mid = (lo + hi) / 2
            if f(k, mid) < 0:
                lo = mid
            else:
                hi = mid
        return A[k] + (lo + hi) / 2


def _assert_matches_oracle(constant, poles, weights):
    roots = secular_roots(constant, poles, weights)
    assert roots.shape == (poles.shape[0], poles.shape[1] - 1 + constant)
    for a, c, row in zip(poles, weights, roots):
        for i, got in zip(range(1 - constant, a.size), row):
            ref = _oracle_root(constant, a, c, i)
            assert float(abs(mp.mpf(float(got)) - ref) / abs(ref)) <= 1e-13
    return roots


class TestSharedSolver:
    @pytest.mark.parametrize("beta", [0.05, 0.25, 2.0])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_random_weights_match_oracle(self, beta, constant):
        # chain-like rows: squared spectra over a zero pole, border weights
        # Gamma(beta/2) on each pair and Gamma(beta/4) on the zero pole
        stream = RandomStream(31, (int(100 * beta), constant))
        rows, p = 6, 6
        poles = np.zeros((rows, p))
        poles[:, :-1] = -np.sort(-gamma_table([2.0 * beta], [stream], (rows, p - 1))[0, 0],
                                 axis=1)
        weights = np.concatenate([gamma_table([beta / 2.0], [stream], (rows, p - 1))[0, 0],
                                  gamma_table([beta / 4.0], [stream], (rows, 1))[0, 0]], axis=1)
        assert np.all(weights > 0) and np.all(np.diff(poles, axis=1) < 0)
        _assert_matches_oracle(constant, poles, weights)

    @pytest.mark.parametrize("constant,a,c", [
        (1, [1.69, 0.0], [1.0, 1e-14]),             # hugs the zero pole
        (1, [3.0, 1.0, 0.0], [0.5, 1e-15, 0.7]),    # hugs an interior pole
        (0, [4.41, 0.81, 0.0], [1e-15, 1.0, 0.3]),  # hugs the upper pole
        (0, [2.0, 1e-20, 0.0], [1.0, 1e-30, 1.0]),  # inside a gap of 1e-20
        # a subnormal weight on the upper pole beside normal ones: the
        # bound c_L / (C + phi) at the midpoint would overflow there
        (0, [1.0, 0.5, 0.0], [5e-324, 0.5, 0.3]),
        (0, [2.0, 1.0, 0.0], [5e-324, 0.5, 0.5]),
    ])
    def test_roots_near_poles_match_oracle(self, constant, a, c):
        poles, weights = np.array([a]), np.array([c])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = _assert_matches_oracle(constant, poles, weights)
        assert np.min(np.abs(roots[0][:, None] - poles[0][None, :])) < 1e-13

    @pytest.mark.parametrize("p,constant", [(1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("beta", [0.002, 0.01, 0.05, 0.25, 2.0, 8.0])
    def test_few_pole_closed_form_matches_oracle(self, beta, p, constant):
        # chain-like rows; every other one over a zero pole, and the second
        # half scaled by 10^U(-150, 150).  Wherever the root and its gap are
        # normal the closed form is good to a few ulps; rows with a zero
        # weight are the next test's
        rows = 24
        stream = RandomStream(41, (int(1000 * beta), p, constant))
        poles = -np.sort(-gamma_table([2.0 * beta], [stream], (rows, p))[0, 0], axis=1)
        poles[::2, -1] = 0.0
        weights = gamma_table([beta / 2.0], [stream], (rows, p))[0, 0]
        scale = 10.0 ** np.random.default_rng(int(1000 * beta)).uniform(-150, 150, (rows, 1))
        scale[:rows // 2] = 1.0
        poles, weights = poles * scale, weights * scale
        roots = secular_roots(constant, poles, weights)
        tiny, checked = np.finfo(float).tiny, 0
        for a, c, row in zip(poles, weights, roots):
            if not np.all(c > 0):
                continue
            for i, got in zip(range(1 - constant, p), row):
                if got >= tiny and (i == 0 or a[i - 1] - a[i] >= tiny):
                    ref = _oracle_root(constant, a, c, i)
                    assert float(abs(mp.mpf(float(got)) - ref) / abs(ref)) <= 1e-15
                    checked += 1
        assert checked >= 6

    def test_few_pole_rows_below_the_normal_range_keep_the_iteration(self):
        # a gap or a lower root's offset below the normal range goes to the
        # iteration, so such rows keep its floor: a zero weight puts its
        # root one smallest subnormal above the pole, not on it
        tiny, sub = np.finfo(float).tiny, np.nextafter(0.0, 1.0)
        a2 = [[1.0, 0.0], [2.0, 0.5], [3.0 * tiny, tiny], [1.5 * tiny, 0.5 * tiny],
              [1e-310, 0.0]]
        a = np.array([pole for pole in a2 for _ in range(4)])
        c = np.array([[0.7, c1] for _ in a2 for c1 in (0.0, sub, 2.9e-320, 1e-310)])
        for constant in (0, 1):
            assert np.array_equal(secular_roots(constant, a, c),
                                  chain._iterated(constant, a, c))
        assert secular_roots(1, a[:1], c[:1])[0, 1] == sub
        a1 = np.array([[0.0], [0.0], [0.0], [1.0]])
        c1 = np.array([[0.0], [sub], [1e-310], [1e-310]])
        assert np.array_equal(secular_roots(1, a1, c1), chain._iterated(1, a1, c1))

    @staticmethod
    def _chain_rows(rows, p, seed):
        """Chain-like rows at beta = 0.5: squared spectra over a zero pole,
        Gamma(beta/2) weights and Gamma(beta/4) on the zero pole."""
        rng = np.random.default_rng(seed)
        poles = np.zeros((rows, p))
        poles[:, :-1] = -np.sort(-rng.gamma(1.0, size=(rows, p - 1)), axis=1)
        weights = rng.gamma(0.25, size=(rows, p))
        weights[:, -1] = rng.gamma(0.125, size=rows)
        return poles, weights

    @pytest.mark.parametrize("p", [3, 12, 200, 1000])
    @pytest.mark.parametrize("constant", [0, 1])
    def test_rows_across_blocks_and_the_pool_equal_one_row_calls(self, monkeypatch, p,
                                                                 constant):
        # three blocks of rows; the stragglers of the first two are pooled
        # with their state and solved with those of the last.  At p = 200
        # and 1000 a block is one row, of more roots than the pool's cap of
        # _BLOCK // p; at 1000 one row's stragglers can exceed it too
        rows = 2 * (chain._BLOCK // (p * max(p, 8))) + 3
        poles, weights = self._chain_rows(rows, p, 100 * p + constant)
        handed_on = []
        iterate = chain._iterate

        def spy(*args, **kwargs):
            left = iterate(*args, **kwargs)
            handed_on.append(left is not None)
            return left

        monkeypatch.setattr(chain, "_iterate", spy)
        roots = secular_roots(constant, poles, weights)
        assert sum(handed_on) >= 2
        monkeypatch.undo()
        for a, c, row in zip(poles, weights, roots):
            assert np.array_equal(secular_roots(constant, a[None], c[None])[0], row)

    def test_pooled_roots_count_their_block_rounds(self, monkeypatch):
        # a root takes the same rounds pooled or not, so the batch and the
        # one-row calls (one block each, nothing pooled) run out at the same
        # _MAX_ITER
        poles, weights = self._chain_rows(2 * (chain._BLOCK // 144) + 3, 12, 7)

        def solves(max_iter, a, c):
            monkeypatch.setattr(chain, "_MAX_ITER", max_iter)
            try:
                secular_roots(1, a, c)
            except RootBracketError:
                return False
            return True

        least = next(m for m in range(1, 101) if solves(m, poles, weights))
        assert least > 2
        assert all(solves(least, a[None], c[None]) for a, c in zip(poles, weights))
        assert not all(solves(least - 1, a[None], c[None]) for a, c in zip(poles, weights))

    def test_zero_width_gap_returns_the_pole(self):
        roots = secular_roots(1, np.array([[2.0, 1.0, 1.0, 0.0]]),
                              np.array([[0.5, 0.3, 0.4, 0.2]]))
        assert roots[0, 2] == 1.0
        assert roots[0, 1] > 1.0 > roots[0, 3] > 0.0

    def test_rows_without_a_root_to_solve(self):
        # constant 0 with one pole has no root; a zero-width gap keeps its pole
        assert secular_roots(0, np.array([[1.0]]), np.array([[1.0]])).shape == (1, 0)
        roots = secular_roots(0, np.array([[1.0, 1.0]]), np.array([[0.5, 0.5]]))
        assert np.array_equal(roots, [[1.0]])

    def test_zero_weight_root_sits_on_its_pole(self):
        # an underflowed weight: the root it would carry falls onto the pole
        roots = secular_roots(1, np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert roots[0, 0] == pytest.approx(2.0, rel=1e-14)  # 1 - 1/(y - 1) = 0
        assert 0.0 <= roots[0, 1] < np.finfo(float).tiny

    @pytest.mark.parametrize("a,c", [
        ([[1.0, 2.0]], [[1.0, 1.0]]),   # ascending poles
        ([[2.0, 1.0]], [[1.0, -1.0]]),  # negative weight
        ([[2.0, 1.0]], [[1.0]]),        # shape mismatch
    ])
    def test_rejects_malformed_input(self, a, c):
        with pytest.raises(ParameterError):
            secular_roots(1, np.array(a), np.array(c))

    def test_unconverged_roots_raise(self, monkeypatch):
        monkeypatch.setattr(chain, "_MAX_ITER", 1)
        with pytest.raises(RootBracketError):
            secular_roots(1, np.array([[3.0, 1.0, 0.0]]), np.array([[0.5, 1.5, 0.25]]))

    @pytest.mark.parametrize("n,beta", [pytest.param(24, beta, id=str(beta))
                                        for beta in (0.05, 0.25, 0.5)] + [
        # the orders whose every step is solved in closed form; at n = 3 and
        # 4, beta = 0.01 some rows keep lambda = 0: the top root over the
        # zero pole returns that pole when its weight underflows (the
        # chain's floor below the double range; a RuntimeWarning still fails)
        pytest.param(n, beta, marks=pytest.mark.xfail(
            n < 5 and beta == 0.01, raises=AssertionError, strict=True,
            reason="lambda = 0 where a weight over the zero pole underflows"))
        for n in (3, 4, 5) for beta in (0.01, 0.05)])
    def test_batch_chain_emits_no_runtime_warning(self, n, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = chain_sample_batch(n, beta, RandomStream(8), 2000)
        assert np.all(np.isfinite(out)) and np.all(out > 0)
        assert np.all(np.diff(out, axis=1) < 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 11])
    def test_scalar_chain_is_row_zero_of_batch(self, n):
        for seed in range(3):
            lam = chain_sample(n, 0.5, RandomStream(seed))
            assert np.array_equal(lam, chain_sample_batch(n, 0.5, RandomStream(seed), 1)[0])
            assert np.array_equal(lam, chain_trajectory(n, 0.5, RandomStream(seed))[-1])
