"""Seedable, splittable random streams and the distribution conventions used
throughout the package.

Two chi conventions coexist in the literature this package follows:

* ``chi_tilde(k)`` is the square root of a rate-1 gamma variable of shape
  ``k/2`` (density proportional to ``x**(k-1) * exp(-x**2)``),
* ``standard_chi(k)`` is the usual chi variable (density proportional to
  ``x**(k-1) * exp(-x**2/2)``), equal in distribution to
  ``sqrt(2) * chi_tilde(k)``.

Both are exposed as separate named operations so that every matrix
constructor can state which convention it uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """Raised for out-of-domain distribution parameters."""


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random stream identified by a seed and an integer key path.

    The same ``(seed, keys)`` pair always reproduces the same sample
    sequence.  Distinct key paths give independent-quality streams, so
    parallel replicates can each use ``root.split(replicate_index)``
    without sharing state.
    """

    seed: int
    keys: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.keys)
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(ss)))

    def split(self, *keys: int) -> "RandomStream":
        """Return an independent stream with the key path extended by ``keys``."""
        return RandomStream(self.seed, self.keys + tuple(int(k) for k in keys))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def gamma_table(shapes, streams, size=None, scale=None):
    """Rate-1 gamma draws ``G``, or chis ``sqrt(scale * G)``, one row per
    stream: shape ``(len(streams), cols) + size`` for ``shapes`` of shape
    ``(cols,)``, shared by every row, or ``(len(streams), cols)``.

    Row ``i`` is filled on ``streams[i]``, column by column, with bare calls:
    ``gamma(a)`` from shape 1 up, else ``gamma(a + 1)`` and ``random()`` for
    the boost ``Gamma(a) ~ Gamma(a+1) * U**(1/a)``, which avoids the rejection
    pathologies of direct small-shape sampling; one transform then serves the
    whole table.  A chi takes the boost in log space, so it underflows to 0
    only where its own log falls below about -745, the double floor.
    """
    shapes = np.asarray(shapes, dtype=float)
    flat = shapes.ravel().tolist()
    # a NaN or an infinity makes the sum non-finite
    if flat and not (math.isfinite(sum(flat)) and min(flat) > 0):
        raise ParameterError(f"gamma shapes must be positive and finite, got {shapes}")
    rows = shapes.tolist() if shapes.ndim == 2 else [flat] * len(streams)
    boost, u = [], []
    for stream, row in zip(streams, rows):
        gamma, random = stream.generator.gamma, stream.generator.random
        for a in row:
            if a < 1.0:
                boost.append(gamma(a + 1.0, size=size))
                u.append(random(size))
            else:
                boost.append(gamma(a, size=size))
    tail = () if size is None else tuple(np.atleast_1d(size))
    cells = shapes if shapes.ndim == 2 else shapes[None].repeat(len(streams), axis=0)
    boost = np.array(boost).reshape(cells.shape + tail)
    small = cells < 1.0
    a, u = cells[small], np.array(u).reshape((-1,) + tail)
    if scale is not None:  # in place: no second table at large sizes
        boost *= scale
        a, g = a.reshape(a.shape + (1,) * len(tail)), boost[small]
        np.sqrt(boost, out=boost)
        if u.size:
            boost[small] = np.exp(0.5 * (np.log(g) + np.log(u) / a))
        return boost
    for shape in set(a.tolist()):
        # a Python-float exponent, as one column's draw takes it; a
        # size=None draw is a Python float, and so is its power
        e, drawn = 1.0 / shape, u[a == shape]
        boost[cells == shape] *= drawn ** e if tail else np.array([x ** e for x in drawn.tolist()])
    return boost


def sample_gamma(shape, stream: RandomStream, size=None):
    """Draw from the rate-1 gamma density ``u**(shape-1) * exp(-u) / Gamma(shape)``;
    the one-cell case of :func:`gamma_table`."""
    return gamma_table([shape], [stream], size)[0, 0]


def sample_chi_tilde(k, stream: RandomStream, size=None):
    """Square root of a rate-1 gamma with shape ``k/2``; ``E[x**2] = k/2``."""
    return gamma_table([k / 2.0], [stream], size, scale=1.0)[0, 0]


def sample_standard_chi(k, stream: RandomStream, size=None):
    """Standard chi variable with ``k`` degrees; equals sqrt(2)*chi_tilde(k) in law."""
    return gamma_table([k / 2.0], [stream], size, scale=2.0)[0, 0]


def sample_dirichlet(s, stream: RandomStream, size=None):
    """Dirichlet draw obtained by normalizing independent rate-1 gammas.

    ``size`` (if given) is the number of independent draws; the result then
    has shape ``(size, len(s))``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ParameterError("dirichlet parameter must be a nonempty 1-d sequence")
    # parameters last and contiguous, so the sum adds them in its usual order
    g = np.ascontiguousarray(np.moveaxis(gamma_table(s, [stream], size)[0], 0, -1))
    return g / np.sum(g, axis=-1, keepdims=True)


def sample_normal(mean, variance, stream: RandomStream, size=None):
    if not variance > 0:
        raise ParameterError(f"variance must be positive, got {variance}")
    return stream.generator.normal(mean, np.sqrt(variance), size=size)
