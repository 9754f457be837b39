"""Seedable, splittable random streams and the distribution conventions used
throughout the package.

Two chi conventions coexist in the literature this package follows:

* ``chi_tilde(k)`` is the square root of a rate-1 gamma variable of shape
  ``k/2`` (density proportional to ``x**(k-1) * exp(-x**2)``),
* ``standard_chi(k)`` is the usual chi variable (density proportional to
  ``x**(k-1) * exp(-x**2/2)``), equal in distribution to
  ``sqrt(2) * chi_tilde(k)``.

Both come from one kernel, :func:`gamma_table`, whose ``scale`` names the
convention: ``scale=1.0`` draws ``chi_tilde`` and ``scale=2.0`` draws
``standard_chi``.  Each matrix constructor passes the scale of the
convention it uses.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class ParameterError(ValueError):
    """Raised for out-of-domain distribution parameters."""


def _nonnegative(value, name: str) -> int:
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be a non-negative integer, got {value!r}") from None
    if value < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {value}")
    return value


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random stream identified by a seed and an integer key path.

    The same ``(seed, keys)`` pair always reproduces the same sample
    sequence: numpy's ``PCG64`` seeded by
    ``SeedSequence(entropy=seed, spawn_key=keys)``.  Distinct key paths give
    independent-quality streams, so parallel replicates can each use
    ``root.split(replicate_index)`` without sharing state.

    The generator is built on the first ``.generator`` access and cached,
    so a stream that only hands out children never pays for seeding.
    :func:`seed_streams` builds many streams at once and computes their
    seed-sequence hashes in one numpy pass; a stream made there builds its
    generator from those words, bit for bit the generator numpy's
    ``SeedSequence`` gives.  ``split`` makes one stream, for which numpy's
    own ``SeedSequence`` is cheaper than the pass's fixed cost.
    """

    seed: int
    keys: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False,
                                             compare=False)
    _state: np.ndarray | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        # numpy's check would fire only at the first draw, and the seeding
        # pass does not coerce at all
        object.__setattr__(self, "seed", _nonnegative(self.seed, "seed"))
        object.__setattr__(self, "keys", tuple(_nonnegative(k, "stream key")
                                               for k in self.keys))

    def split(self, *keys: int) -> "RandomStream":
        """Return an independent stream with the key path extended by ``keys``."""
        return RandomStream(self.seed, self.keys + keys)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = (np.random.SeedSequence(entropy=self.seed, spawn_key=self.keys)
                   if self._state is None else _SeedWords(self._state))
            object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(seq)))
        return self._gen


class _SeedWords(ISeedSequence):
    """The 4 uint64 words ``PCG64`` asks of its seed sequence, precomputed."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self.words


# numpy's SeedSequence (O'Neill's seed_seq_fe) over a pool of 4 uint32 words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]
# below this many streams, numpy's SeedSequence per stream costs less than
# the pass's fixed cost
_PASS_MIN_STREAMS = 8


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """``(2, calls)``: the constant each hash call XORs in and the one it
    multiplies by; they follow from the call count alone."""
    out, x = [], init
    for _ in range(calls):
        y = x * mult & _MASK32
        out.append((x, y))
        x = y
    table = np.array(out, dtype=np.uint32).reshape(calls, 2).T
    table.flags.writeable = False  # shared by every caller
    return table


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, at least one."""
    out = [n & _MASK32]
    n >>= 32
    while n:
        out.append(n & _MASK32)
        n >>= 32
    return out


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    v ^= v >> _SHIFT
    return v


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> _SHIFT
    return r


def seed_state(streams) -> np.ndarray:
    """``(len(streams), 4)`` uint64: row ``i`` is
    ``SeedSequence(entropy=s.seed, spawn_key=s.keys).generate_state(4, np.uint64)``
    for ``s = streams[i]``, all rows in one pass of 32-bit numpy arithmetic.

    A row's entropy is its seed's words, zero-padded to the pool size, then
    its keys' words.  The pool takes the first 4 words through ``hashmix``,
    mixes every word into every other, then mixes in each further word;
    ``generate_state`` hashes the pool out to 8 words.  Each hash call's
    constants depend only on its index, so rows share them, and a row whose
    entropy ends early keeps its pool from there on.
    """
    padded, entropy = {}, []
    for stream in streams:
        row = padded.get(stream.seed)
        if row is None:  # the rows of one call mostly share their seed
            row = padded[stream.seed] = _words(stream.seed)
            row += [0] * (_POOL - len(row))
        row = row.copy()
        for k in stream.keys:
            if k <= _MASK32:
                row.append(k)
            else:
                row += _words(k)
        entropy.append(row)
    lens = np.array([len(row) for row in entropy], dtype=int)
    width = int(lens.max(initial=_POOL))
    e = np.array([row + [0] * (width - len(row)) for row in entropy],
                 dtype=np.uint32).reshape(len(entropy), width)
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (width - _POOL))
    pool = _hashmix(e[:, :_POOL], xor[:_POOL], mul[:_POOL])
    c = _POOL
    for s in range(_POOL):
        dst = _OTHERS[s]
        h = _hashmix(pool[:, s:s + 1], xor[c:c + _POOL - 1], mul[c:c + _POOL - 1])
        pool[:, dst] = _mix(pool[:, dst], h)
        c += _POOL - 1
    for s in range(_POOL, width):
        mixed = _mix(pool, _hashmix(e[:, s:s + 1], xor[c:c + _POOL], mul[c:c + _POOL]))
        c += _POOL
        live = lens > s
        pool = mixed if live.all() else np.where(live[:, None], mixed, pool)
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(np.concatenate([pool, pool], axis=1), xor, mul)
    # numpy reads the 32-bit words as little-endian pairs
    return state.astype("<u4").view("<u8").astype(np.uint64)


def seed_streams(pairs) -> list[RandomStream]:
    """``[RandomStream(seed, keys) for seed, keys in pairs]``, the streams'
    seed words computed by :func:`seed_state` in one pass."""
    streams = [RandomStream(seed, keys) for seed, keys in pairs]
    if len(streams) >= _PASS_MIN_STREAMS:
        for stream, words in zip(streams, seed_state(streams)):
            object.__setattr__(stream, "_state", words)
    return streams


def gamma_table(shapes, streams, size=None, scale=None):
    """Rate-1 gamma draws ``G``, or chis ``sqrt(scale * G)``, one row per
    stream: shape ``(len(streams), cols) + size`` for ``shapes`` of shape
    ``(cols,)``, shared by every row, or ``(len(streams), cols)``.

    Row ``i`` is filled on ``streams[i]``, column by column, with bare calls:
    ``gamma(a)`` from shape 1 up, else ``gamma(a + 1)`` and ``random()`` for
    the boost ``Gamma(a) ~ Gamma(a+1) * U**(1/a)``, which avoids the rejection
    pathologies of direct small-shape sampling; one transform then serves the
    whole table.  A chi takes the boost in log space, so it underflows to 0
    only where its own log falls below about -745, the double floor.  With a
    ``size`` the draws land in the table itself (see :func:`_sized_table`).
    """
    shapes = np.asarray(shapes, dtype=float)
    flat = shapes.ravel().tolist()
    # shape by shape: finite shapes can have an infinite sum
    if not all(0.0 < a < math.inf for a in flat):  # NaN fails both tests
        raise ParameterError(f"gamma shapes must be positive and finite, got {shapes}")
    rows = shapes.tolist() if shapes.ndim == 2 else [flat] * len(streams)
    cells = shapes if shapes.ndim == 2 else shapes[None].repeat(len(streams), axis=0)
    if size is not None:
        return _sized_table(cells, rows, streams, tuple(np.atleast_1d(size)), scale)
    boost, u = [], []
    for stream, row in zip(streams, rows):
        gen = stream.generator
        gamma, random = gen.gamma, gen.random
        for a in row:
            if a < 1.0:
                boost.append(gamma(a + 1.0, size=size))
                u.append(random(size))
            else:
                boost.append(gamma(a, size=size))
    boost = np.array(boost).reshape(cells.shape)
    small = cells < 1.0
    a, u = cells[small], np.array(u)
    if scale is not None:  # in place: no second table
        boost *= scale
        g = boost[small]
        np.sqrt(boost, out=boost)
        if u.size:
            boost[small] = np.exp(0.5 * (np.log(g) + np.log(u) / a))
        return boost
    for shape in set(a.tolist()):
        # a Python-float exponent, as one column's draw takes it
        boost[cells == shape] *= u[a == shape] ** (1.0 / shape)
    return boost


# elements per block of the sized table's boost transform: bounds its
# temporaries
_BOOST_BLOCK = 1 << 16


def _sized_table(cells, rows, streams, tail, scale):
    """:func:`gamma_table` with ``size``: each cell's draws are written into
    the ``cells.shape + tail`` table and each small shape's uniforms into one
    array of the small cells, which the transform then overwrites block by
    block (``_BOOST_BLOCK`` elements, contiguous) before it is copied into place.
    So the working memory is the table, the uniforms and a few blocks, and
    every value is bit for bit that of the one-transform table (``gamma(a)``
    is ``standard_gamma(a)`` times 1.0)."""
    table = np.empty(cells.shape + tail)
    small = cells < 1.0
    u = np.empty((np.count_nonzero(small),) + tail)
    slots = iter(u)
    for stream, row, out in zip(streams, rows, table):
        gen = stream.generator
        gamma, random = gen.standard_gamma, gen.random
        for a, cell in zip(row, out):
            if a < 1.0:
                gamma(a + 1.0, size=tail, out=cell)
                random(tail, out=next(slots))
            else:
                gamma(a, size=tail, out=cell)
    if scale is not None:
        table *= scale
    flat = table.reshape(cells.size, math.prod(tail))
    if u.size:
        idx, a = np.flatnonzero(small), cells[small]
        u = u.reshape(idx.size, flat.shape[1])
        span = min(u.shape[1], _BOOST_BLOCK)
        step = max(1, _BOOST_BLOCK // u.shape[1])  # cells per block
        for s in range(0, idx.size, step):
            for t in range(0, u.shape[1], span):
                x, g = u[s:s + step, t:t + span], flat[idx[s:s + step], t:t + span]
                if scale is not None:
                    np.log(x, out=x)
                    x /= a[s:s + step, None]
                    x += np.log(g, out=g)
                    x *= 0.5
                    np.exp(x, out=x)
                    continue
                shapes = a[s:s + step]
                for shape in set(shapes.tolist()):
                    sel = shapes == shape
                    x[sel] **= 1.0 / shape
                x *= g
    if scale is not None:
        np.sqrt(table, out=table)
    if u.size:
        flat[idx] = u
    return table
