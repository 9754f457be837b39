"""Goodness-of-fit machinery: KS tests, moment z-scores, quadrature CDFs,
and the machine-readable verification report format."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov

from .streams import ParameterError


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n_x: int
    n_y: int | None
    p_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.statistic <= 1.0:
            raise ValueError("KS statistic must lie in [0, 1]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")


def _ks_pvalue(d: float, en: float) -> float:
    """Asymptotic Kolmogorov p-value with the small-sample argument correction."""
    root = math.sqrt(en)
    return float(kolmogorov((root + 0.12 + 0.11 / root) * d))


def ks_two_sample(x, y) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ParameterError("samples must be nonempty")
    pooled = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, pooled, side="right") / x.size
    cdf_y = np.searchsorted(y, pooled, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    en = x.size * y.size / (x.size + y.size)
    return KSResult(statistic=d, n_x=x.size, n_y=y.size, p_value=_ks_pvalue(d, en))


def ks_one_sample(x, cdf) -> KSResult:
    """One-sample Kolmogorov-Smirnov test against a callable CDF."""
    x = np.sort(np.asarray(x, dtype=float))
    if x.size == 0:
        raise ParameterError("sample must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    if np.any(np.diff(f) < -1e-12):
        raise ParameterError("cdf must be monotone on the sample")
    grid = np.arange(1, x.size + 1) / x.size
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / x.size))))
    return KSResult(statistic=min(d, 1.0), n_x=x.size, n_y=None,
                    p_value=_ks_pvalue(min(d, 1.0), float(x.size)))


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


QUADRATURE_POINTS = 20001


def quadrature_cdf(log_pdf, lo: float, hi: float):
    """Monotone interpolated CDF built from a 1-d log-density by trapezoidal
    accumulation on a uniform grid of ``QUADRATURE_POINTS`` points;
    renormalized to end at 1."""
    if not hi > lo:
        raise ParameterError("need hi > lo")
    grid = np.linspace(lo, hi, QUADRATURE_POINTS)
    pdf = np.exp(np.asarray([log_pdf(g) for g in grid], dtype=float))
    steps = np.diff(grid) * 0.5 * (pdf[1:] + pdf[:-1])
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    total = cum[-1]
    if not total > 0:
        raise ParameterError("density mass vanishes on the given interval")
    cum /= total

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), grid, cum, left=0.0, right=1.0)

    return cdf


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str
    statistic: float | None = None
    tolerance: float | None = None
    p_value: float | None = None

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"invalid status {self.status!r}")


@dataclass
class VerificationReport:
    suite: str
    seed: int
    cases: list[CaseResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, statistic: float | None = None,
            tolerance: float | None = None, p_value: float | None = None) -> None:
        self.cases.append(CaseResult(name=name, status="pass" if passed else "fail",
                                     statistic=statistic, tolerance=tolerance,
                                     p_value=p_value))

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def all_passed(self) -> bool:
        return self.failures == 0 and len(self.cases) > 0

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "seed": self.seed,
            "cases": [{
                "name": c.name,
                "status": c.status,
                "statistic": c.statistic,
                "tolerance": c.tolerance,
                "p_value": c.p_value,
            } for c in self.cases],
        }, indent=2)
