"""Goodness-of-fit machinery: KS tests, quadrature CDFs and the
machine-readable verification report format."""

from __future__ import annotations

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


# pooled values per block of the two-sample statistic: bounds its temporaries
_KS_BLOCK = 1 << 16


def ks_two_sample(x, y) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test with asymptotic p-value.

    The empirical CDFs of the two sorted samples are read at every pooled
    value, a block of values at a time: ``np.searchsorted(..., "right")``
    counts the values of each sample up to it, so the counts of a run of
    ties are those of its last entry.  NaNs sort last and form one run.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise ParameterError("samples must be nonempty")
    d = 0.0
    for sample in (x, y):
        for s in range(0, sample.size, _KS_BLOCK):
            at = sample[s:s + _KS_BLOCK]
            gap = np.searchsorted(x, at, "right") / x.size
            gap -= np.searchsorted(y, at, "right") / y.size
            d = max(d, float(np.max(np.abs(gap, out=gap))))
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


def _tanh_sinh(lo: float, hi: float, step: float):
    """Tanh-sinh (double-exponential) rule on (lo, hi), after Takahasi & Mori
    (Publ. RIMS 9, 1974): ``x = (lo+hi)/2 + (hi-lo)/2 * tanh(pi/2 sinh t)``
    for t on a grid of ``step`` over ``[-6.5, 6.5]``.

    Returns the nodes, their distances to ``lo`` and to ``hi`` and the
    weights, dropping nodes whose weight or nearer distance underflows.  The
    distances come in closed form, never as a difference of nearby numbers,
    so algebraic endpoint factors of an integrand cause no cancellation.
    """
    t = step * np.arange(-round(6.5 / step), round(6.5 / step) + 1)
    u = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * np.abs(u))
    near, far = (hi - lo) * e / (1.0 + e), (hi - lo) / (1.0 + e)
    w = step * math.pi * (hi - lo) * np.cosh(t) * e / (1.0 + e) ** 2
    keep = (w > 0) & (near > 0)
    d_lo, d_hi = np.where(u < 0, near, far)[keep], np.where(u < 0, far, near)[keep]
    return np.where(u[keep] < 0, lo + d_lo, hi - d_hi), d_lo, d_hi, w[keep]


def _tanh_sinh_t(d_lo, d_hi):
    """The rule's variable t at distances ``d_lo``, ``d_hi`` from the ends."""
    return np.arcsinh((np.log(d_lo) - np.log(d_hi)) / math.pi)


def quadrature_cdf(log_pdf, lo: float, hi: float):
    """CDF on (lo, hi) of a 1-d log-density, renormalized to end at 1.

    ``log_pdf`` is called once, on the 1-d array of nodes of the tanh-sinh
    rule with step h = 1/128, which resolves integrable endpoint
    singularities, and returns one log-density per node.  The CDF is the
    antiderivative of a piecewise cubic Hermite interpolant of the integrand
    g in the rule's variable t, read at t(x); t(x) comes from the distance
    to the nearer endpoint, which is exact there.  The interpolant lives on
    the rule's grid t_k = k h, with slopes g'_k from fourth-order central
    differences (g is 0 past the kept nodes, where the rule's weight
    underflows), and is integrated in closed form: at the nodes the
    antiderivative sums the cell integrals
    ``h (g_k + g_{k+1}) / 2 + h^2 (g'_k - g'_{k+1}) / 12``.
    """
    if not hi > lo:
        raise ParameterError("need hi > lo")
    step = 1.0 / 128.0
    nodes, d_lo, d_hi, w = _tanh_sinh(lo, hi, step)
    # t recomputed from the distances drifts by up to 3e-5 at the ends, where
    # the distances are subnormal; the grid index it rounds to is exact.  The
    # rule drops nodes at its two ends only, so the kept ones are consecutive
    k = np.rint(_tanh_sinh_t(d_lo, d_hi) / step)
    assert (np.diff(k) == 1).all()
    log_f = np.asarray(log_pdf(nodes), dtype=float)
    if log_f.shape != nodes.shape:
        raise ParameterError("log_pdf must return one value per node")
    g = np.exp(log_f + np.log(w / step))
    if not np.isfinite(g).all():
        raise ParameterError("log_pdf must be finite or -inf at every node")
    padded = np.concatenate([np.zeros(2), g, np.zeros(2)])
    slope = (padded[:-4] - 8.0 * padded[1:-3] + 8.0 * padded[3:-1] - padded[4:]) / 12.0  # h g'
    mass = np.zeros(g.size)  # the antiderivative at the nodes, over h
    np.cumsum((g[:-1] + g[1:]) / 2.0 + (slope[:-1] - slope[1:]) / 12.0, out=mass[1:])
    total = float(mass[-1])
    if not total > 0:
        raise ParameterError("density mass vanishes on the given interval")

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.array(x >= hi, dtype=float)
        inside = (x > lo) & (x < hi)
        near = np.minimum(x[inside] - lo, hi - x[inside])
        t_x = np.copysign(_tanh_sinh_t((hi - lo) - near, near), x[inside] - (lo + hi) / 2.0)
        s = np.clip(t_x / step - k[0], 0.0, k.size - 1)  # grid units from the first node
        j = np.minimum(s.astype(np.intp), k.size - 2)  # the cell [t_j, t_{j+1}]
        th = s - j
        th2 = th * th
        th3 = th2 * th
        # the cubic's antiderivative from t_j over h at th = (t - t_j) / h:
        # the Hermite basis integrates to th - th^3 + th^4/2, th^3 - th^4/2
        # (values) and th^2/2 - 2 th^3/3 + th^4/4, th^4/4 - th^3/3 (slopes)
        mid = th3 * (1.0 - th / 2.0)
        a = (g[j] * (th - mid) + g[j + 1] * mid
             + slope[j] * th2 * (0.5 - th * (2.0 / 3.0 - th / 4.0))
             + slope[j + 1] * th3 * (th / 4.0 - 1.0 / 3.0))
        out[inside] = np.clip((mass[j] + a) / total, 0.0, 1.0)
        return out

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
