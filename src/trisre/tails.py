"""Empirical tail machinery and the scalar tail-constant estimators.

Covers the survival function, the Hill estimator, the regression that
extracts a log-power slowly varying factor, and two independent routes to
the tail constant of a recursion X = A X' + B: the perpetuity partial-sum
limit, a scan over a step source of (A, B) with finite variance, which
predict uses for every Kesten-Goldie constant, and the implicit-renewal
(one-step difference) formula, which takes a stationary sampler, has
finite variance only for alpha < 2 and serves as the reference that the
scan is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Dist
from .errors import (ArgumentOutOfRange, DegenerateTail, InsufficientSupport,
                     NonPositiveOrderStat)
from .estimates import EstimateWithError, RunningMoments, merge_chunks
from .rng import CHUNK, RngStream, map_chunks
from .tilting import CouplingRate, _scan_factors, _study_from_pairs


@dataclass
class EmpiricalTail:
    """Sorted-descending sample values under a sign convention.

    convention "absolute" stores |x|; "positive" stores x (its tail is
    P(X > t)); "negative" stores -x (its tail is P(-X > t)). The values
    are one copy of the samples, sorted in place."""

    values: np.ndarray
    convention: str

    def __init__(self, samples, convention: str = "absolute"):
        samples = np.asarray(samples, dtype=float)
        if samples.size < 2:
            raise ValueError("need at least 2 samples")
        if convention == "absolute":
            data = np.abs(samples)
        elif convention == "positive":
            data = samples.copy()
        elif convention == "negative":
            data = -samples
        else:
            raise ValueError("convention must be absolute|positive|negative")
        data.sort()
        self.values = data[::-1]
        self.convention = convention

    @property
    def count(self) -> int:
        return self.values.size


def ccdf(tail: EmpiricalTail, x: float) -> float:
    """Fraction of samples strictly above x."""
    ascending = tail.values[::-1]
    idx = np.searchsorted(ascending, x, side="right")
    return float(tail.count - idx) / tail.count


def hill(tail: EmpiricalTail, k: int) -> EstimateWithError:
    """Hill estimator from the top k log-spacings; SE = alpha_hat/sqrt(k).

    Uses order-statistic ratios, so rescaling the sample by a power of
    two leaves the estimate bit-identical."""
    if not 2 <= k < tail.count:
        raise ValueError("need 2 <= k < sample count")
    top = tail.values[:k + 1]
    if top[k] <= 0.0:
        raise NonPositiveOrderStat("top-(k+1) order statistics must be > 0")
    ratios = top[:k] / top[k]
    s = float(np.sum(np.log(ratios)))
    if s <= 0.0:
        raise DegenerateTail("top order statistics coincide")
    a = k / s
    return EstimateWithError(a, a / math.sqrt(k), k)


def default_log_grid(tail: EmpiricalTail, points: int = 20,
                     lo_q: float = 0.90, hi_q: float = 0.9999) -> np.ndarray:
    """Geometric grid between the lo_q and hi_q empirical quantiles."""
    ascending = tail.values[::-1]

    def quantile(q: float) -> float:
        # np.quantile's linear interpolation, read off the sorted values
        pos = q * (ascending.size - 1)
        i = min(int(pos), ascending.size - 2)
        return float(ascending[i]
                     + (pos - i) * (ascending[i + 1] - ascending[i]))

    lo, hi = quantile(lo_q), quantile(hi_q)
    if not (lo > 0 and hi > lo):
        raise InsufficientSupport("tail quantiles do not span a positive range")
    return np.geomspace(lo, hi, points)


def log_factor_regression(tail: EmpiricalTail, alpha: float,
                          x_grid: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope of log(x^alpha * ccdf(x)) on log log x.

    The slope estimates the exponent of a (log x)^beta factor multiplying
    an x^{-alpha} tail; alpha comes from theory, never from this fit.
    Returns (beta_hat, intercept, r2)."""
    x_grid = np.asarray(x_grid, dtype=float)
    floor = 50.0 / tail.count
    xs, ys = [], []
    for x in x_grid:
        if x <= 1.0:
            continue
        c = ccdf(tail, x)
        if c <= floor:
            continue
        xs.append(math.log(math.log(x)))
        ys.append(alpha * math.log(x) + math.log(c))
    if len(xs) < 5:
        raise InsufficientSupport(
            f"only {len(xs)} usable grid points (need >= 5 with ccdf above "
            f"{floor:.2g} and x > 1)")
    xarr, yarr = np.array(xs), np.array(ys)
    slope, intercept = np.polyfit(xarr, yarr, 1)
    fitted = slope * xarr + intercept
    ss_res = float(np.sum((yarr - fitted) ** 2))
    ss_tot = float(np.sum((yarr - yarr.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# Scalar tail constants
# ---------------------------------------------------------------------------

def goldie_constant_direct(sampler, alpha: float, rho: float, N: int,
                           rng: RngStream, a_signed: bool
                           ) -> tuple[EstimateWithError, EstimateWithError]:
    """One-step difference formula for the tail constants of X = AX' + B.

    sampler(m, rng) -> (a, b, x) arrays of shape (m,). The formula needs
    a independent of x, and a*x + b with the law of x: x is a stationary
    draw and (a, b) one fresh step, with b built from the same stationary
    draw wherever the additive term depends on it. For a multiplier that
    can be negative the two constants coincide and come from the absolute
    version (halved).

    Since |ax + b|^alpha - |ax|^alpha ~ alpha |ax|^{alpha-1} b for large x,
    the summand has finite variance only if E|x|^{2 alpha - 2} < inf, that
    is alpha < 2; at alpha = 2 the divergence is logarithmic and the SE is
    not reliable. goldie_constant_perpetuity estimates the same constants
    with finite variance, also where b depends on the path, and is the
    route predict takes; this formula is the independent reference."""
    if rho <= 0:
        raise ArgumentOutOfRange("rho must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")

    def chunk(paths, sub):
        m = paths.stop - paths.start
        a, b, x = sampler(m, sub)
        ax = a * x
        y = ax + b
        if a_signed:
            zp = zm = (np.abs(y) ** alpha
                       - np.abs(ax) ** alpha) / (2.0 * alpha * rho)
        else:
            zp = (np.maximum(y, 0.0) ** alpha
                  - np.maximum(ax, 0.0) ** alpha) / (alpha * rho)
            zm = (np.maximum(-y, 0.0) ** alpha
                  - np.maximum(-ax, 0.0) ** alpha) / (alpha * rho)
        return RunningMoments(zp), RunningMoments(zm)

    seed = rng.describe()
    c_plus, c_minus = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    return c_plus.estimate(seed), c_minus.estimate(seed)


class PerpetuityConstants(CouplingRate):
    """Tail constants from the perpetuity partial-sum limit: the
    late-window rates, with the raw normalised moments at n and n/2 as a
    convergence diagnostic."""

    c_plus = property(lambda self: self.rate_windowed.plus)
    c_minus = property(lambda self: self.rate_windowed.minus)


def goldie_constant_perpetuity(a_law: Dist, steps, alpha: float, rho: float,
                               n: int, N: int,
                               rng: RngStream) -> PerpetuityConstants:
    """Perpetuity-limit formula: (alpha rho n)^{-1} E[(X_n^+-)^alpha] for
    the partial sums X_n of X = A X' + B, run from zero.

    steps(m, rng) is the step source of (A, B), as in
    tilting._study_from_pairs: stationary.law_steps(a_law, b_law) for
    independent laws, stationary.coord1_steps(model) for the first
    coordinate of a triangular model, whose B = b1 + a12 W2' rides along
    the path. a_law, the law of A, sets the scan's factors.

    At the critical index the naive sample mean of the alpha-moment is
    dominated by unobservably rare paths, so the moments are accumulated
    through per-step increments (exactly unbiased); below it they are
    contracted by E|A|^alpha, because |X_n|^alpha itself can have infinite
    variance. The reported constants use the late-window growth, which
    drops the O(1/n) transient of the full average. Raw averages at n and
    n/2 are returned alongside."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if rho <= 0:
        raise ArgumentOutOfRange("rho must be > 0")
    lam, gamma = _scan_factors(dist.abs_moment(a_law, alpha),
                               dist.sign_moment(a_law, alpha), "E|A|^alpha")
    study = _study_from_pairs(steps, alpha, [n // 2, n], N, rng, lam,
                              step_moment=1.0, gamma=gamma)
    return PerpetuityConstants.from_study(study, alpha * rho)


def grey_constants(p_alpha: float, q_alpha: float, m_abs: float,
                   m_sign: float) -> tuple[float, float]:
    """Closed-form tail constants when the additive term is regularly
    varying and the multiplier is strictly subcritical."""
    if not (p_alpha >= 0 and q_alpha >= 0 and abs(p_alpha + q_alpha - 1.0) < 1e-9):
        raise ArgumentOutOfRange("need p, q >= 0 with p + q = 1")
    if m_abs >= 1.0:
        raise ArgumentOutOfRange("need E|A|^alpha < 1")
    denom2 = 1.0 - m_sign
    if denom2 <= 0.0:
        raise ArgumentOutOfRange("signed-moment denominator must be positive")
    base = 1.0 / (1.0 - m_abs)
    tiltp = (p_alpha - q_alpha) / denom2
    return 0.5 * (base + tiltp), 0.5 * (base - tiltp)
