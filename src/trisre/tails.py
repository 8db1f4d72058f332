"""Empirical tail machinery and the scalar tail-constant estimators.

Covers the survival function, the Hill estimator and the depth of the
top order statistics each reads (so a stream of samples can be folded
into just those, chunk by chunk, in a TailSelection), the regression that
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
import threading
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import Dist
from .errors import (ArgumentOutOfRange, DegenerateTail, InsufficientSupport,
                     NonPositiveOrderStat)
from .estimates import EstimateWithError, RunningMoments, merge_chunks
from .rng import CHUNK, RngStream, map_chunks
from .tilting import CouplingRate, _scan_factors, _study_from_pairs


CONVENTIONS = ("absolute", "positive", "negative")
# the lower quantile of default_log_grid, which sets how deep its reads go
LOG_GRID_LO_Q = 0.90


def _convention(samples: np.ndarray, convention: str) -> np.ndarray:
    """The values whose upper tail is the convention's tail; a new array
    except for "positive", which returns samples itself."""
    if convention == "absolute":
        return np.abs(samples)
    if convention == "positive":
        return samples
    if convention == "negative":
        return -samples
    raise ValueError(f"convention must be one of {CONVENTIONS}")


@dataclass
class EmpiricalTail:
    """Top order statistics of a sample under a sign convention, sorted
    descending.

    convention "absolute" stores |x|; "positive" stores x (its tail is
    P(X > t)); "negative" stores -x (its tail is P(-X > t)). count is the
    sample size n. Built from samples, the tail keeps all n values;
    TailSelection.tail keeps only the top values.size of them, and every
    read that would need a deeper order statistic raises ValueError."""

    values: np.ndarray
    convention: str
    count: int

    def __init__(self, samples, convention: str = "absolute"):
        samples = np.asarray(samples, dtype=float)
        if samples.size < 2:
            raise ValueError("need at least 2 samples")
        data = _convention(samples, convention)
        data = data.copy() if data is samples else data
        data.sort()
        self._set(data, convention, samples.size)

    @classmethod
    def _of(cls, ascending: np.ndarray, convention: str,
            count: int) -> EmpiricalTail:
        """The tail of count samples whose top order statistics are the
        sorted array ascending, held without a copy."""
        tail = cls.__new__(cls)
        tail._set(ascending, convention, count)
        return tail

    def _set(self, ascending: np.ndarray, convention: str,
             count: int) -> None:
        self.values = ascending[::-1]
        self.convention = convention
        self.count = count

    def top(self, depth: int) -> np.ndarray:
        """The top depth order statistics, descending."""
        if depth > self.values.size:
            raise ValueError(f"read of the top {depth} order statistics; the "
                             f"tail keeps {self.values.size} of {self.count}")
        return self.values[:depth]


class TailSelection:
    """Mergeable accumulator of the keep largest values, under a sign
    convention, of samples added in chunks: the top order statistics of
    an EmpiricalTail of all the samples, down to depth keep.

    The kept values do not depend on the order of the chunks (only which
    of +0.0 and -0.0 fills a tie can), and add takes a lock, so worker
    threads may add their chunks as they finish them. Each chunk's top
    keep values are copied into one buffer of 2 keep allocated up front,
    filled from its end; a partition in place trims it to the top keep
    only when the next chunk would not fit, so adding allocates nothing
    beyond the chunk's own size."""

    def __init__(self, convention: str, keep: int):
        if convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if keep < 2:
            raise ValueError("keep must be >= 2")
        self.convention = convention
        self.keep = keep
        self.count = 0
        self._buf = np.empty(2 * keep)
        self._size = 0  # the candidates are _buf[-_size:]
        self._lock = threading.Lock()

    def add(self, samples: np.ndarray) -> None:
        samples = np.asarray(samples, dtype=float)
        data = _convention(samples, self.convention)
        if data.size > self.keep:
            data = np.partition(data, data.size - self.keep)[-self.keep:]
        with self._lock:
            self.count += samples.size
            if self._size + data.size > self._buf.size:
                self._trim()
            start = self._buf.size - self._size - data.size
            self._buf[start:start + data.size] = data
            self._size += data.size

    def _trim(self) -> None:
        if self._size > self.keep:
            self._buf[-self._size:].partition(self._size - self.keep)
            self._size = self.keep

    def tail(self) -> EmpiricalTail:
        """The selection as an EmpiricalTail of count samples, holding a
        sorted copy of the kept values."""
        if self.count < 2:
            raise ValueError("need at least 2 samples")
        self._trim()
        return EmpiricalTail._of(np.sort(self._buf[-self._size:]),
                                 self.convention, self.count)


def hill_depth(n: int) -> int:
    """The k of the Hill fits of run_scenario: n^(2/3) within [2, n - 1];
    hill(tail, k) reads the top k + 1 order statistics."""
    return max(2, min(int(n ** (2.0 / 3.0)), n - 1))


def log_grid_depth(n: int) -> int:
    """Top order statistics that default_log_grid reads at its default
    lo_q, LOG_GRID_LO_Q, for n samples, and with them ccdf at every point
    of its grid."""
    return n - min(int(LOG_GRID_LO_Q * (n - 1)), n - 2)


def ccdf(tail: EmpiricalTail, x: float) -> float:
    """Fraction of samples strictly above x."""
    values = tail.values
    if values.size < tail.count and not values[-1] <= x:
        raise ValueError(f"ccdf at {x!r} is below the {values.size} kept "
                         f"order statistics of {tail.count}")
    idx = np.searchsorted(values[::-1], x, side="right")
    return float(values.size - idx) / tail.count


def hill(tail: EmpiricalTail, k: int) -> EstimateWithError:
    """Hill estimator from the top k log-spacings; SE = alpha_hat/sqrt(k).

    Uses order-statistic ratios, so rescaling the sample by a power of
    two leaves the estimate bit-identical."""
    if not 2 <= k < tail.count:
        raise ValueError("need 2 <= k < sample count")
    top = tail.top(k + 1)
    if top[k] <= 0.0:
        raise NonPositiveOrderStat("top-(k+1) order statistics must be > 0")
    ratios = top[:k] / top[k]
    s = float(np.sum(np.log(ratios)))
    if s <= 0.0:
        raise DegenerateTail("top order statistics coincide")
    a = k / s
    return EstimateWithError(a, a / math.sqrt(k), k)


def default_log_grid(tail: EmpiricalTail, points: int = 20,
                     lo_q: float = LOG_GRID_LO_Q,
                     hi_q: float = 0.9999) -> np.ndarray:
    """Geometric grid between the lo_q and hi_q empirical quantiles."""
    n = tail.count

    def quantile(q: float) -> float:
        # np.quantile's linear interpolation between the ascending order
        # statistics i and i + 1, the descending ones n - 1 - i, n - 2 - i
        pos = q * (n - 1)
        i = min(int(pos), n - 2)
        upper, lower = tail.top(n - i)[-2:]
        return float(lower + (pos - i) * (upper - lower))

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
