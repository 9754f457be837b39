"""Anti-symmetric tridiagonal beta-ensemble toolkit.

Random matrix constructors, spectral maps, closed-form eigenvalue
densities, Sturm/Pruefer machinery and cross-verification suites for the
anti-symmetric Gaussian beta-ensemble in reduced tridiagonal form.
"""

__version__ = "0.1.0"

from .ensembles import (AntisymTridiagonal, DenseAntisym, EnsembleSpec,
                        build_antisym_tridiagonal, build_dense_antisym_gue,
                        householder_reduce)
from .spectral import SpectralData, positive_spectrum, reconstruct_tridiagonal
from .streams import RandomStream

__all__ = [
    "AntisymTridiagonal",
    "DenseAntisym",
    "EnsembleSpec",
    "RandomStream",
    "SpectralData",
    "build_antisym_tridiagonal",
    "build_dense_antisym_gue",
    "householder_reduce",
    "positive_spectrum",
    "reconstruct_tridiagonal",
    "__version__",
]
