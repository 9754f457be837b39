"""Test helper: the z-score of a sample mean against its law."""

import math

import numpy as np

from skewbeta.streams import ParameterError


def moment_test(sample, target_mean: float, target_variance: float) -> float:
    """Z-score of the sample mean against a target mean, with the standard
    error computed from the *target* variance."""
    sample = np.asarray(sample, dtype=float)
    if sample.size < 100:
        raise ParameterError("need at least 100 observations")
    if not target_variance > 0:
        raise ParameterError("target variance must be positive")
    se = math.sqrt(target_variance / sample.size)
    return float((np.mean(sample) - target_mean) / se)
