"""Empirical tail machinery and the scalar tail-constant formulas.

Covers the survival function, the Hill estimator and the depth of the
top order statistics each reads (so a stream of samples can be folded
into just those, chunk by chunk, in a TailSelection of float64 values
and int32 chain ids), their SEs, clustered by the chains that the
samples are drawn in (one sample a chain unless told otherwise), the
regression that extracts a log-power slowly varying factor, the closed
grey-case constants, and the implicit-renewal (one-step difference)
formula for the tail constant of a recursion X = A X' + B. That formula
takes a stationary sampler, has finite variance only for alpha < 2 and
serves as the reference that the perpetuity scan of every Kesten-Goldie
constant (tilting.goldie_constant_perpetuity) is checked against.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (ArgumentOutOfRange, DegenerateTail, InsufficientSupport,
                     NonPositiveOrderStat)
from .estimates import EstimateWithError, RunningMoments, merge_chunks
from .rng import CHUNK, RngStream, map_chunks


CONVENTIONS = ("absolute", "positive", "negative")
# default_log_grid's points and its lower and upper quantiles; the lower
# one sets how deep its reads go (log_grid_depth)
LOG_GRID_POINTS = 20
LOG_GRID_LO_Q = 0.90
LOG_GRID_HI_Q = 0.9999
# a fit over the log grid uses a point only with this many samples above
GRID_MIN_EXCEEDANCES = 50


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


def _sort(values: np.ndarray, ids: np.ndarray) -> None:
    """Sort values ascending in place, ties of value ranked by chain id,
    and ids with them: one float sort, and a lexsort only when two sorted
    values tie, so ties break the same way whatever the order the values
    came in."""
    order = np.argsort(values)
    values[:] = values[order]
    if np.any(values[1:] == values[:-1]):
        tied = np.lexsort((ids[order], values))
        order = order[tied]
        values[:] = values[tied]
    ids[:] = ids[order]


def _chain_ids(chains, samples: np.ndarray, rows=slice(None)) -> np.ndarray:
    """The int32 chain ids of the rows of samples: chains holds an integer
    id for each sample, those of the rows in [0, 2^31)."""
    chains = np.asarray(chains)
    if chains.shape == samples.shape and chains.dtype.kind in "iu":
        ids = chains[rows]
        if not ids.size or ids.min() >= 0 and (ids.dtype == np.int32
                                               or ids.max() < 2 ** 31):
            return ids.astype(np.int32, copy=False)
    raise ValueError("chains must hold an int32 chain id >= 0 for each "
                     "sample")


def _kept(values: np.ndarray, ids: np.ndarray,
          keep: int) -> tuple[np.ndarray, float]:
    """Mask of the keep largest of more than keep values, ties of value
    ranked by chain id, and the least of them."""
    cut = values.size - keep
    floor = np.partition(values, cut)[cut]
    kept = values >= floor
    extra = np.count_nonzero(kept) - keep
    if extra:
        # the floor value repeats on both sides of the cut: drop the
        # repeats of the least chain ids
        tied = np.flatnonzero(values == floor)
        tied = tied[np.argsort(ids[tied], kind="stable")]
        kept[tied[:extra]] = False
    return kept, floor


@dataclass
class EmpiricalTail:
    """Top order statistics of a sample under a sign convention, sorted
    descending.

    convention "absolute" stores |x|; "positive" stores x (its tail is
    P(X > t)); "negative" stores -x (its tail is P(-X > t)). count is the
    sample size n. Built from samples, the tail keeps all n values;
    TailSelection.tail keeps only the top values.size of them, and every
    read that would need a deeper order statistic raises ValueError.
    values is the reversed view of one contiguous ascending float64
    buffer, which ccdf searches.

    The samples come in independent chains of dependent values: chains
    gives the integer chain id of each sample, and without it each sample
    is its own chain, with its position as id. The tail's chains holds
    the int32 chain id of each kept value (ties of value sorted by id, the
    same way whatever the order of the samples) and chain_sizes the
    number of samples of each chain, by id. hill and ccdf_se give SEs
    clustered by chain, and the tail holds 12 bytes per kept value."""

    values: np.ndarray
    convention: str
    count: int
    chains: np.ndarray
    chain_sizes: np.ndarray

    def __init__(self, samples, convention: str = "absolute", chains=None):
        samples = np.asarray(samples, dtype=float)
        if samples.size < 2:
            raise ValueError("need at least 2 samples")
        data = _convention(samples, convention)
        data = data.copy() if data is samples else data
        ids = (np.arange(samples.size, dtype=np.int32) if chains is None
               else _chain_ids(chains, samples).copy())  # _sort permutes it
        _sort(data, ids)
        self._set(data, convention, samples.size, ids, np.bincount(ids))

    @classmethod
    def _of(cls, ascending: np.ndarray, convention: str, count: int,
            ids: np.ndarray, chain_sizes: np.ndarray) -> EmpiricalTail:
        """The tail of count samples whose top order statistics are the
        sorted array ascending, held without a copy, with their chain ids
        and the chain_sizes of all the samples."""
        tail = cls.__new__(cls)
        tail._set(ascending, convention, count, ids, chain_sizes)
        return tail

    def _set(self, ascending: np.ndarray, convention: str, count: int,
             ids: np.ndarray, chain_sizes: np.ndarray) -> None:
        self.values = ascending[::-1]
        self.chains = ids[::-1]
        self.convention = convention
        self.count = count
        self.chain_sizes = chain_sizes

    def top(self, depth: int) -> np.ndarray:
        """The top depth order statistics, descending."""
        if depth > self.values.size:
            raise ValueError(f"read of the top {depth} order statistics; the "
                             f"tail keeps {self.values.size} of {self.count}")
        return self.values[:depth]


class TailSelection:
    """Mergeable accumulator of the keep largest values, under a sign
    convention, of samples added in chunks: the top order statistics of
    an EmpiricalTail of all the samples, down to depth keep, with their
    chain ids.

    Ties of value break by chain id, so the kept values and ids do not
    depend on the order of the chunks (only which of +0.0 and -0.0 fills
    a tie within one chain can), and add takes a lock, so worker threads
    may add their chunks as they finish them. The candidates sit in a
    float64 value buffer and an int32 chain-id buffer of keep + keep // 4
    + 1 slots each, allocated up front. When they are full, a float
    partition of a copy of the values finds the floor, the keep-th
    largest, and the kept candidates in the first slots move into the
    gaps that the dropped ones leave in the last keep: keep candidates
    are at least the floor, so a later value below it is dropped before
    it is copied. Past the first few chunks, few values get that far, so
    adding allocates little beyond the chunk's own size."""

    def __init__(self, convention: str, keep: int):
        if convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        if keep < 2:
            raise ValueError("keep must be >= 2")
        self.convention = convention
        self.keep = keep
        self.count = 0
        self._values = np.empty(keep + keep // 4 + 1)
        self._ids = np.empty(self._values.size, dtype=np.int32)
        self._size = 0  # the candidates are _values[-_size:], _ids[-_size:]
        self._floor = -np.inf
        self._taken = False  # tail() hands out the buffers
        self._lock = threading.Lock()

    def add(self, samples: np.ndarray, chains: np.ndarray,
            count: int | None = None) -> None:
        """Fold in samples, with chains the integer chain id of each.

        count, when given, is the size of a larger sample that samples
        were picked from (see add_candidates), and samples must hold
        every value of it at or above the selection's floor under its
        convention; the selection counts count samples."""
        samples = np.asarray(samples, dtype=float).ravel()
        if count is None:
            count = samples.size
        elif count < samples.size:
            raise ValueError(f"count {count} is below the {samples.size} "
                             "samples given")
        data = _convention(samples, self.convention)
        # the floor only rises, so a read before the lock is safe
        above = np.flatnonzero(data >= self._floor)
        values = data[above]
        # only values at least the floor can be kept: check only their ids
        ids = _chain_ids(np.ravel(chains), samples, above)
        floor = -np.inf
        if values.size > self.keep:
            kept, floor = _kept(values, ids, self.keep)
            top = np.flatnonzero(kept)
            values, ids = values[top], ids[top]
        with self._lock:
            if self._taken:
                raise ValueError("the selection's tail was taken; it takes "
                                 "no more samples")
            self.count += count
            self._floor = max(self._floor, floor)
            while values.size:
                if self._size == self._values.size:
                    self._trim()
                end = self._values.size - self._size
                n = min(values.size, end)
                self._values[end - n:end] = values[:n]
                self._ids[end - n:end] = ids[:n]
                self._size += n
                values, ids = values[n:], ids[n:]

    def _trim(self) -> None:
        if self._size > self.keep:
            values = self._values[-self._size:]
            ids = self._ids[-self._size:]
            kept, self._floor = _kept(values, ids, self.keep)
            # the kept values ahead of the last keep slots fill the gaps
            # that the dropped ones leave in them
            cut = self._size - self.keep
            src = np.flatnonzero(kept[:cut])
            dst = cut + np.flatnonzero(~kept[cut:])
            values[dst] = values[src]
            ids[dst] = ids[src]
            self._size = self.keep

    def tail(self, chain_sizes: np.ndarray) -> EmpiricalTail:
        """The selection as an EmpiricalTail of count samples, with
        chain_sizes the number of samples of each chain by id, an entry
        for every kept id. The tail sorts the kept values and ids in place
        and holds the buffers, so the selection takes no more samples
        after it."""
        if self.count < 2:
            raise ValueError("need at least 2 samples")
        if chain_sizes.sum() != self.count:
            raise ValueError("chain_sizes must give the samples of each chain")
        self._trim()
        values = self._values[-self._size:]
        ids = self._ids[-self._size:]
        # add checks the ids against 0 and the int32 range, not the sizes
        if (top := int(ids.max())) >= chain_sizes.size:
            raise ValueError(f"kept chain id {top} has no entry in the "
                             f"chain_sizes of {chain_sizes.size} chains")
        self._taken = True
        _sort(values, ids)
        return EmpiricalTail._of(values, self.convention, self.count, ids,
                                 chain_sizes)


def add_candidates(selections: list[TailSelection], samples: np.ndarray,
                   chains: np.ndarray) -> None:
    """Fold samples, with chains the integer chain id of each (of the same
    shape, and possibly a broadcast view), into every selection of one
    coordinate from one pass over them.

    The candidates are the samples that any selection could keep: at
    least its floor under its convention. The positive and absolute
    conventions keep only x >= their floor or more, the negative and
    absolute ones only -x >= their floor or more, so the candidates are
    the x at or above the lowest floor of the first two or at or below
    minus the lowest floor of the last two. Each selection is handed just
    those, with the full sample count, so the kept values, ids and
    counts are those of adding all the samples to each."""
    if not selections:
        return
    samples = np.asarray(samples, dtype=float)
    chains = np.asarray(chains)
    if chains.shape != samples.shape:
        raise ValueError("chains must hold an int32 chain id >= 0 for each "
                         "sample")
    # the floors only rise, so reads before the selections' locks are safe
    up = min((s._floor for s in selections if s.convention != "negative"),
             default=np.inf)
    down = min((s._floor for s in selections if s.convention != "positive"),
               default=np.inf)
    x = samples.ravel()
    at = np.flatnonzero((x >= up) | (x <= -down))
    values, ids = x[at], np.ravel(chains)[at]
    for selection in selections:
        selection.add(values, ids, samples.size)


def hill_depth(n: int) -> int:
    """The k of the Hill fits of run_scenario: n^(2/3) within [2, n - 1];
    hill(tail, k) reads the top k + 1 order statistics."""
    return max(2, min(int(n ** (2.0 / 3.0)), n - 1))


def log_grid_depth(n: int) -> int:
    """Top order statistics that default_log_grid reads at its lower
    quantile, LOG_GRID_LO_Q, for n samples, and with them ccdf at every
    point of its grid."""
    return n - min(int(LOG_GRID_LO_Q * (n - 1)), n - 2)


def _exceedances(tail: EmpiricalTail, x: float) -> int:
    """Number of samples strictly above x."""
    values = tail.values
    if values.size < tail.count and not values[-1] <= x:
        raise ValueError(f"ccdf at {x!r} is below the {values.size} kept "
                         f"order statistics of {tail.count}")
    # values[::-1] is the contiguous ascending buffer
    return values.size - int(np.searchsorted(values[::-1], x, side="right"))


def grid_point_usable(tail: EmpiricalTail, x: float) -> bool:
    """Whether the fits over the log grid use the point x: x > 1, so that
    log x > 0, and at least GRID_MIN_EXCEEDANCES samples above it."""
    return x > 1.0 and _exceedances(tail, x) >= GRID_MIN_EXCEEDANCES


def ccdf(tail: EmpiricalTail, x: float) -> float:
    """Fraction of samples strictly above x."""
    return float(_exceedances(tail, x)) / tail.count


def ccdf_se(tail: EmpiricalTail, x: float) -> float:
    """SE of ccdf(tail, x) = N / n: the cluster-robust
    sqrt(sum_c (N_c - p n_c)^2) / n over the chains c, each with N_c
    exceedances among its n_c samples, as the chains are independent and
    the values within one are not. With one sample per chain it is the
    binomial sqrt(p (1 - p) / n)."""
    hits = _exceedances(tail, x)
    n = tail.count
    p = hits / n
    sizes = tail.chain_sizes
    residual = (np.bincount(tail.chains[:hits],
                            minlength=sizes.size) - p * sizes)
    return math.sqrt(float(np.dot(residual, residual))) / n


def hill(tail: EmpiricalTail, k: int) -> EstimateWithError:
    """Hill estimator from the top k log-spacings.

    alpha_hat = k / S, with S the sum of the log excesses of the top k
    over the (k+1)-th order statistic. The SE is the cluster-robust
    delta-method SE of that ratio from the per-chain (count, sum of log
    excesses) (N_c, S_c) above the threshold taken as fixed:
    sqrt(sum_c (N_c - alpha_hat S_c)^2) / S. With one sample per chain
    it is asymptotically alpha_hat / sqrt(k).

    Uses order-statistic ratios, so rescaling the sample by a power of
    two leaves the estimate and its SE bit-identical."""
    if not 2 <= k < tail.count:
        raise ValueError("need 2 <= k < sample count")
    top = tail.top(k + 1)
    if top[k] <= 0.0:
        raise NonPositiveOrderStat("top-(k+1) order statistics must be > 0")
    logs = np.log(top[:k] / top[k])
    s = float(np.sum(logs))
    if s <= 0.0:
        raise DegenerateTail("top order statistics coincide")
    a = k / s
    # a chain without exceedances adds 0 - alpha_hat * 0
    chain = tail.chains[:k]
    residual = np.bincount(chain) - a * np.bincount(chain, weights=logs)
    se = math.sqrt(float(np.dot(residual, residual))) / s
    return EstimateWithError(a, se, k)


def default_log_grid(tail: EmpiricalTail) -> np.ndarray:
    """Geometric grid of LOG_GRID_POINTS points between the LOG_GRID_LO_Q
    and LOG_GRID_HI_Q empirical quantiles."""
    n = tail.count

    def quantile(q: float) -> float:
        # np.quantile's linear interpolation between the ascending order
        # statistics i and i + 1, the descending ones n - 1 - i, n - 2 - i
        pos = q * (n - 1)
        i = min(int(pos), n - 2)
        upper, lower = tail.top(n - i)[-2:]
        return float(lower + (pos - i) * (upper - lower))

    lo, hi = quantile(LOG_GRID_LO_Q), quantile(LOG_GRID_HI_Q)
    if not (lo > 0 and hi > lo):
        raise InsufficientSupport("tail quantiles do not span a positive range")
    return np.geomspace(lo, hi, LOG_GRID_POINTS)


def log_factor_regression(tail: EmpiricalTail, alpha: float,
                          x_grid: np.ndarray) -> tuple[float, float, float]:
    """Least-squares slope of log(x^alpha * ccdf(x)) on log log x.

    The slope estimates the exponent of a (log x)^beta factor multiplying
    an x^{-alpha} tail; alpha comes from theory, never from this fit.
    Returns (beta_hat, intercept, r2)."""
    xs, ys = [], []
    for x in np.asarray(x_grid, dtype=float):
        if not grid_point_usable(tail, x):
            continue
        c = ccdf(tail, x)
        xs.append(math.log(math.log(x)))
        ys.append(alpha * math.log(x) + math.log(c))
    if len(xs) < 5:
        raise InsufficientSupport(
            f"only {len(xs)} usable grid points (need >= 5 with x > 1 and "
            f"at least {GRID_MIN_EXCEEDANCES} samples above)")
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
    not reliable. tilting.goldie_constant_perpetuity estimates the same
    constants with finite variance, also where b depends on the path, and
    is the route predict takes; this formula is the independent
    reference."""
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

