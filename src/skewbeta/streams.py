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


def sample_gamma(shape, stream: RandomStream, size=None):
    """Draw from the rate-1 gamma density ``u**(shape-1) * exp(-u) / Gamma(shape)``.

    Shapes below 1 use the boost identity ``Gamma(a) ~ Gamma(a+1) * U**(1/a)``,
    which avoids the rejection pathologies of direct small-shape sampling.
    """
    shape = float(shape)
    if not shape > 0:
        raise ParameterError(f"gamma shape must be positive, got {shape}")
    gen = stream.generator
    if shape >= 1.0:
        return gen.gamma(shape, size=size)
    boost = gen.gamma(shape + 1.0, size=size)
    u = gen.random(size=size)
    return boost * u ** (1.0 / shape)


def _sqrt_gamma(shape: float, scale: float, stream: RandomStream, size):
    """``sqrt(scale * G)`` for ``G`` a rate-1 gamma of the given shape, with the
    generator calls of :func:`sample_gamma`.  Below shape 1 the boost is taken
    in log space, ``exp((log(scale * boost) + log(u) / shape) / 2)``, so the
    result does not underflow to 0 where ``u**(1/shape)`` alone would.  It
    still underflows to 0 where its own log falls below about -745, the
    double floor, which small shapes reach."""
    gen = stream.generator
    if shape >= 1.0:
        return np.sqrt(scale * gen.gamma(shape, size=size))
    boost = gen.gamma(shape + 1.0, size=size)
    u = gen.random(size=size)
    return np.exp(0.5 * (np.log(scale * boost) + np.log(u) / shape))


def sample_chi_tilde(k, stream: RandomStream, size=None):
    """Square root of a rate-1 gamma with shape ``k/2``; ``E[x**2] = k/2``."""
    k = float(k)
    if not k > 0:
        raise ParameterError(f"chi-tilde degrees must be positive, got {k}")
    return _sqrt_gamma(k / 2.0, 1.0, stream, size)


def sample_standard_chi(k, stream: RandomStream, size=None):
    """Standard chi variable with ``k`` degrees; equals sqrt(2)*chi_tilde(k) in law."""
    k = float(k)
    if not k > 0:
        raise ParameterError(f"chi degrees must be positive, got {k}")
    return _sqrt_gamma(k / 2.0, 2.0, stream, size)


def sample_dirichlet(s, stream: RandomStream, size=None):
    """Dirichlet draw obtained by normalizing independent rate-1 gammas.

    ``size`` (if given) is the number of independent draws; the result then
    has shape ``(size, len(s))``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ParameterError("dirichlet parameter must be a nonempty 1-d sequence")
    if not np.all(s > 0):
        raise ParameterError("dirichlet parameters must all be positive")
    cols = [sample_gamma(si, stream, size=size) for si in s]
    g = np.stack(cols, axis=-1)
    return g / np.sum(g, axis=-1, keepdims=True)


def sample_normal(mean, variance, stream: RandomStream, size=None):
    if not variance > 0:
        raise ParameterError(f"variance must be positive, got {variance}")
    return stream.generator.normal(mean, np.sqrt(variance), size=size)
