"""Tests for the seedable stream layer and its distribution conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewbeta import chain, verify
from skewbeta.ensembles import dense_antisym_gue_rows
from skewbeta.streams import (_PASS_MIN_STREAMS, ParameterError, RandomStream, gamma_table,
                              seed_state, seed_streams)


def _gamma(shape, stream, size=None):
    return gamma_table([shape], [stream], size)[0, 0]


def _chi_tilde(k, stream, size=None):
    return gamma_table([k / 2.0], [stream], size, scale=1.0)[0, 0]


def _standard_chi(k, stream, size=None):
    return gamma_table([k / 2.0], [stream], size, scale=2.0)[0, 0]


class TestRandomStream:
    def test_same_seed_reproduces(self):
        a = RandomStream(123).generator.random(10)
        b = RandomStream(123).generator.random(10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStream(1).generator.random(10)
        b = RandomStream(2).generator.random(10)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = RandomStream(7).split(3, 1).generator.random(5)
        b = RandomStream(7).split(3, 1).generator.random(5)
        assert np.array_equal(a, b)

    def test_split_children_are_distinct(self):
        root = RandomStream(7)
        a = root.split(0).generator.random(5)
        b = root.split(1).generator.random(5)
        assert not np.array_equal(a, b)

    def test_split_extends_key_path(self):
        s = RandomStream(5).split(2).split(4)
        assert s.keys == (2, 4)

    def test_integer_like_keys_are_normalized(self):
        s = RandomStream(np.uint64(5), [np.int64(2)]).split(np.int32(4))
        assert s == RandomStream(5, (2, 4)) and hash(s) == hash(RandomStream(5, (2, 4)))
        assert type(s.seed) is int and all(type(k) is int for k in s.keys)

    @pytest.mark.parametrize("seed,keys,name", [
        (-1, (), "seed"), (1.5, (), "seed"), ("3", (), "seed"),
        (0, (-2,), "key"), (0, (1, 1.7), "key"), (0, (None,), "key"),
    ])
    def test_rejects_bad_seed_and_keys(self, seed, keys, name):
        with pytest.raises(ParameterError, match=name):
            RandomStream(seed, keys)

    def test_split_rejects_negative_and_float_keys(self):
        root = RandomStream(3)
        with pytest.raises(ParameterError, match="-1"):
            root.split(-1)
        with pytest.raises(ParameterError, match="1.7"):
            root.split(1.7)

    def test_generator_is_built_on_first_access(self):
        s = RandomStream(4).split(1)
        assert s._gen is None
        assert s.generator is s.generator


def _numpy_generator(seed, keys):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=keys)))


def _assert_numpy_streams(streams, pairs):
    assert [(s.seed, s.keys) for s in streams] == [(sd, tuple(k)) for sd, k in pairs]
    for s, (seed, keys) in zip(streams, pairs):
        want = _numpy_generator(seed, keys)
        assert np.array_equal(s.generator.random(4), want.random(4))
        assert np.array_equal(s.generator.gamma(0.3, 3), want.gamma(0.3, 3))


SEEDS = (0, 1, 3, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 17)
PATHS = ((), (3,), (0, 7), (2**33, 1), (5, 2**70, 6))


class TestSeedStreams:
    """The one-pass seeding equals numpy's SeedSequence bit for bit."""

    def test_state_words_equal_seed_sequence(self):
        pairs = [(seed, keys) for seed in SEEDS for keys in PATHS]
        words = seed_state([RandomStream(*p) for p in pairs])
        assert words.dtype == np.uint64 and words.shape == (len(pairs), 4)
        for row, (seed, keys) in zip(words, pairs):
            want = np.random.SeedSequence(seed, spawn_key=keys).generate_state(4, np.uint64)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_word_counts_in_one_call(self, seed):
        # depths 0-3 and keys of one, two and three 32-bit words side by side
        pairs = [(seed, keys) for keys in PATHS + ((1, 2, 3), (2**64, 0, 2**32))] * 3
        streams = seed_streams(pairs)
        assert all(s._state is not None for s in streams)
        _assert_numpy_streams(streams, pairs)

    @pytest.mark.parametrize("count", [0, 1, 2, 1000])
    def test_counts(self, count):
        pairs = [(7, (i,)) for i in range(count)]
        streams = seed_streams(pairs)
        assert len(streams) == count
        assert streams == [RandomStream(7).split(i) for i in range(count)]
        for row, (seed, keys) in zip(seed_state(streams), pairs):
            want = np.random.SeedSequence(seed, spawn_key=keys).generate_state(4, np.uint64)
            assert np.array_equal(row, want)
        idx = sorted({0, count // 2, count - 1}) if count else []
        _assert_numpy_streams([streams[i] for i in idx], [pairs[i] for i in idx])

    def test_grandchildren_split_on_numpy(self):
        children = seed_streams((2**64 + 5, (0, i)) for i in range(10))
        for i, child in enumerate(children):
            _assert_numpy_streams([child.split(3), child.split(2**40, 1)],
                                  [(2**64 + 5, (0, i, 3)), (2**64 + 5, (0, i, 2**40, 1))])

    def test_generators_are_built_on_first_draw(self):
        streams = seed_streams((1, (i,)) for i in range(20))
        assert all(s._gen is None for s in streams)
        first = streams[3].generator
        assert streams[3].generator is first
        assert all(s._gen is None for j, s in enumerate(streams) if j != 3)

    def test_validates_pairs(self):
        with pytest.raises(ParameterError, match="seed"):
            seed_streams([(-1, (i,)) for i in range(20)])
        with pytest.raises(ParameterError, match="key"):
            seed_streams([(1, (i - 10,)) for i in range(20)])

    def test_redraw_rows_equal_one_row_loop(self):
        # accept a row when its attempt's first uniform is below 0.3: rows
        # leave over many attempts, so the pending list crosses from the
        # one-pass seeding to numpy's
        streams = [RandomStream(9, (4,)).split(i) for i in range(40)]
        sizes = []

        def draw(rows, attempt_streams):
            sizes.append(len(rows))
            u = np.array([s.generator.random() for s in attempt_streams])
            keys = np.array([s.keys[-1] for s in attempt_streams], dtype=float)
            return (u[:, None], keys[:, None]), u < 0.3

        u, attempts = verify._redraw_rows(streams, draw, "never")
        for i, stream in enumerate(streams):
            attempt = next(a for a in range(100)
                           if stream.split(a).generator.random() < 0.3)
            assert attempts[i, 0] == attempt
            assert u[i, 0] == stream.split(attempt).generator.random()
        assert sizes[0] >= _PASS_MIN_STREAMS > min(sizes)


class TestGamma:
    @pytest.mark.parametrize("shape", [0.125, 0.5, 1.0, 2.5, 10.0])
    def test_moments(self, shape):
        x = _gamma(shape, RandomStream(0), size=200000)
        assert np.all(x > 0)
        assert np.mean(x) == pytest.approx(shape, rel=0.02)
        assert np.var(x) == pytest.approx(shape, rel=0.05)

    def test_small_shape_has_mass_near_zero(self):
        x = _gamma(0.1, RandomStream(1), size=50000)
        # P(X < 1e-4) = gammainc(0.1, 1e-4) ~ 0.42 for shape 0.1
        assert np.mean(x < 1e-4) > 0.3

    @pytest.mark.parametrize("shape", [0.0, -1.0])
    def test_invalid_shape(self, shape):
        with pytest.raises(ParameterError):
            _gamma(shape, RandomStream(0))


class TestChiConventions:
    def test_chi_tilde_second_moment(self):
        # E[x^2] = k/2 under the rate-1 gamma convention
        x = _chi_tilde(3.0, RandomStream(2), size=200000)
        assert np.mean(x ** 2) == pytest.approx(1.5, rel=0.02)

    def test_standard_chi_second_moment(self):
        # E[x^2] = k under the standard convention
        x = _standard_chi(3.0, RandomStream(3), size=200000)
        assert np.mean(x ** 2) == pytest.approx(3.0, rel=0.02)

    def test_conventions_differ_by_sqrt2(self):
        tilde = _chi_tilde(4.0, RandomStream(4), size=200000)
        std = _standard_chi(4.0, RandomStream(5), size=200000)
        assert np.mean(std) == pytest.approx(np.sqrt(2.0) * np.mean(tilde), rel=0.02)

    @pytest.mark.parametrize("shape", [0.0125, 0.125, 0.5, 1.0, 2.5])
    def test_chi_follow_gamma_draws(self, shape):
        # the generator calls of the gamma draw, in the same order: bit-equal
        # square roots from shape 1 up; below it the boost is taken in log
        # space, which moves a value by ulps (up to about eps*|log g|)
        streams = [RandomStream(11) for _ in range(3)]
        g = _gamma(shape, streams[0], size=20000)
        tilde = _chi_tilde(2.0 * shape, streams[1], size=20000)
        std = _standard_chi(2.0 * shape, streams[2], size=20000)
        assert len({s.generator.random() for s in streams}) == 1
        if shape >= 1.0:
            assert np.array_equal(tilde, np.sqrt(g))
            assert np.array_equal(std, np.sqrt(2.0 * g))
        else:
            normal = g >= np.finfo(float).tiny
            assert np.allclose(tilde[normal], np.sqrt(g[normal]), rtol=1e-12, atol=0.0)
            assert np.allclose(std[normal], np.sqrt(2.0 * g[normal]), rtol=1e-12, atol=0.0)

    def test_small_shape_never_underflows(self):
        # shape 0.0125 is beta = 0.05 on the first off-diagonal: u**80
        # underflows to 0 on about 1e-4 of draws, its log-space square root
        # does not
        g = _gamma(0.0125, RandomStream(12), size=200000)
        tilde = _chi_tilde(0.025, RandomStream(12), size=200000)
        std = _standard_chi(0.025, RandomStream(12), size=200000)
        assert np.count_nonzero(g == 0.0) > 0
        assert np.all(tilde > 0) and np.all(std > 0)

    def test_invalid_degrees(self):
        with pytest.raises(ParameterError):
            _chi_tilde(0.0, RandomStream(0))
        with pytest.raises(ParameterError):
            _standard_chi(-2.0, RandomStream(0))


def _per_column_reference(shapes, streams, size, scale):
    """The table of :func:`gamma_table` drawn one column at a time, each
    cell with its own generator calls and its own transform."""
    rows = []
    for stream, row in zip(streams, np.broadcast_to(shapes, (len(streams), shapes.shape[-1]))):
        gen, cells = stream.generator, []
        for a in row.tolist():
            if a >= 1.0:
                g = gen.gamma(a, size=size)
                cells.append(g if scale is None else np.sqrt(scale * g))
                continue
            boost = gen.gamma(a + 1.0, size=size)
            u = np.array(gen.random(size=size))  # the array power at every size
            cells.append(boost * u ** (1.0 / a) if scale is None
                         else np.exp(0.5 * (np.log(scale * boost) + np.log(u) / a)))
        rows.append(cells)
    tail = () if size is None else (size,)
    return np.array(rows, dtype=float).reshape((len(streams), shapes.shape[-1]) + tail)


class TestGammaTable:
    @pytest.mark.parametrize("scale", [None, 1.0, 2.0])
    @pytest.mark.parametrize("size", [None, 7])
    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 4.0])
    def test_equals_per_column_draws(self, beta, size, scale):
        # shapes k*beta/4 fall on both sides of 1 (exactly 1 at beta=4, k=1;
        # the exponent 1/a = 2 of a = 0.5 at beta=2, k=1)
        shapes = np.arange(1, 12) * (beta / 4.0)
        for streams in ([RandomStream(21)], [RandomStream(22).split(i) for i in range(5)]):
            table = gamma_table(shapes, streams, size, scale)
            fresh = [RandomStream(s.seed, s.keys) for s in streams]
            reference = _per_column_reference(shapes, fresh, size, scale)
            assert table.shape == reference.shape
            assert table.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("scale", [None, 1.0, 2.0])
    @pytest.mark.parametrize("size", [None, 3])
    def test_per_row_shapes(self, size, scale):
        betas = np.array([0.05, 0.5, 2.0, 4.0, 0.5, 2.0])
        shapes = np.arange(1, 9) * (betas[:, None] / 4.0)
        streams = [RandomStream(23).split(i) for i in range(betas.size)]
        table = gamma_table(shapes, streams, size, scale)
        for i, stream in enumerate(streams):
            fresh = RandomStream(stream.seed, stream.keys)
            row = _per_column_reference(shapes[i], [fresh], size, scale)[0]
            assert table[i].tobytes() == row.tobytes()

    def test_one_cell_wrappers(self):
        # a size=None draw is the size=1 draw of the same stream, bit for bit
        # (below shape 1 both raise U to 1/a with the array power)
        for scale in (None, 1.0, 2.0):
            for shape in (0.3, 0.5, 0.7, 2.5):
                stream, fresh = RandomStream(24), RandomStream(24)
                got = [gamma_table([shape], [stream], None, scale) for _ in range(200)]
                want = [gamma_table([shape], [fresh], 1, scale)[..., 0] for _ in range(200)]
                assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.inf, np.nan])
    def test_rejects_nonpositive_and_nonfinite_shapes(self, bad):
        with pytest.raises(ParameterError, match="positive and finite"):
            gamma_table([1.0, bad], [RandomStream(0)], None, 1.0)

    def test_no_streams(self):
        assert gamma_table([0.5, 2.0], [], None, 1.0).shape == (0, 2)
        assert gamma_table([0.5, 2.0], [], 4).shape == (0, 2, 4)


def _dirichlet_weights(m, beta, stream, reps):
    """The Dirichlet weights ``chain._step_down_sq`` draws for ``reps`` rows
    of an order-``m`` spectrum, as it hands them to its root solve."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain, "secular_roots", lambda constant, poles, weights: seen.append(weights))
        chain._step_down_sq(np.arange(m // 2, 0, -1.0)[None, :], m, beta, stream, reps)
    return seen[0]


class TestDirichlet:
    """The projection step's Dirichlet draw: rate-1 gammas of shape
    ``beta/2`` per pole pair (and ``beta/4`` on the zero pole at odd
    order), normalized by their sum."""

    @given(st.floats(0.4, 10.0), st.integers(2, 12))  # shapes in [0.1, 5]
    @settings(max_examples=30, deadline=None)
    def test_sums_to_one(self, beta, m):
        x = _dirichlet_weights(m, beta, RandomStream(6), 1)[0]
        assert x.size == m // 2 + m % 2
        assert np.sum(x) == pytest.approx(1.0, abs=1e-12)
        assert np.all(x > 0)

    def test_batch_shape(self):
        x = _dirichlet_weights(5, 2.0, RandomStream(7), 40)
        assert x.shape == (40, 3)
        assert np.allclose(np.sum(x, axis=1), 1.0)

    def test_mean_matches_parameters(self):
        # order 5 at beta = 4: parameters (2, 2, 1)
        s = np.array([2.0, 2.0, 1.0])
        x = _dirichlet_weights(5, 4.0, RandomStream(8), 100000)
        assert np.allclose(np.mean(x, axis=0), s / s.sum(), atol=0.01)


class TestNormalAndBeta:
    def test_normal_moments(self):
        # the dense draw's strict-upper entries are N[0, 1/2]; 200,028 of them
        a = dense_antisym_gue_rows(633, [RandomStream(9)])[0]
        x = a[np.triu_indices(633, k=1)]
        assert np.mean(x) == pytest.approx(0.0, abs=0.01)
        assert np.var(x) == pytest.approx(0.5, rel=0.03)
