"""Stationary solution sampling and the cross-coupling partial sums.

The stationary law is reached through the truncated backward series,
evaluated as a forward recursion from zero; the truncation depth comes
from an explicit epsilon-moment bound on the discarded remainder, so every
sample carries a certified error bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import model as mod
from .errors import NotContractive
from .model import TriangularSRE
from .rng import CHUNK, RngStream, map_chunks

_EPS_GRID = np.linspace(0.05, 1.0, 20)
_EPS_PROBE = 1 << 16  # pairs drawn to bound E|B|^eps for a jointly sampled (A, B)


def contraction_exponent(model: TriangularSRE) -> tuple[float, float]:
    """Exponent eps in (0, 1] minimising q = max_i E|A_ii|^eps.

    Raises NotContractive when no grid point gives q < 1.
    """
    d1, d2 = mod.diag_laws(model)
    sup = min(dist.moment_sup(d1), dist.moment_sup(d2),
              dist.moment_sup(model.b1), dist.moment_sup(model.b2),
              mod.offdiag_moment_sup(model))
    best_eps, best_q = None, np.inf
    for eps in _EPS_GRID:
        if eps >= sup:
            break
        q = max(dist.abs_moment(d1, eps), dist.abs_moment(d2, eps))
        if q < best_q:
            best_eps, best_q = float(eps), float(q)
    if best_eps is None or best_q >= 1.0:
        raise NotContractive(
            "no eps in (0,1] gives max_i E|A_ii|^eps < 1")
    return best_eps, best_q


def _series_error_bound(model: TriangularSRE, n: int, eps: float, q: float) -> float:
    """eps-moment bound on everything the depth-n truncation discards.

    Covers the tails of all three backward series and the under-resolution
    of the second coordinate inside the cross series (the n q^{n-1} term).
    """
    cb1 = dist.abs_moment(model.b1, eps)
    cb2 = dist.abs_moment(model.b2, eps)
    ca12 = mod.offdiag_abs_moment(model, eps)
    if q == 0.0:
        geo = 1.0 if n == 1 else 0.0  # 0^0 convention for the n q^{n-1} term
        return geo * ca12 * cb2
    tail = q ** n * (cb1 + cb2 + ca12 * cb2 / (1.0 - q))
    inner = n * q ** (n - 1) * ca12 * cb2
    return (tail + inner) / (1.0 - q)


def _first_depth(bound, target: float) -> int:
    """Smallest n >= 1 with bound(n) < target."""
    n = 1
    while bound(n) >= target:
        n += 1
        if n > 200_000:
            raise NotContractive("truncation depth exceeds 200000; "
                                 "contraction too weak for this tolerance")
    return n


def truncation_depth(model: TriangularSRE, tol: float) -> tuple[int, float]:
    """Smallest depth whose discarded-remainder bound is below tol^eps."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    eps, q = contraction_exponent(model)
    n = _first_depth(lambda k: _series_error_bound(model, k, eps, q),
                     tol ** eps)
    return n, eps


@dataclass
class StationaryBatch:
    w1: np.ndarray
    w2: np.ndarray
    w1_own: np.ndarray    # part driven by b1 through the first diagonal
    w1_cross: np.ndarray  # part fed by the second coordinate via a12
    truncation_depth: int
    truncation_bound: float


def _stationary_chunk(model: TriangularSRE, depth: int, m: int,
                      rng: RngStream) -> tuple[np.ndarray, ...]:
    """The depth-truncated backward series, run forward from zero.

    Step s uses the draws of lag depth - s, so this is the same truncated
    series with draws mapped to lags in reverse order, in O(m) memory. The
    cross part takes the second coordinate from before the current step,
    i.e. resolved from the deeper lags of the same path, which keeps
    w1 = w1_own + w1_cross an identity of partial sums.
    """
    w1_own = np.zeros(m)
    w1_cross = np.zeros(m)
    w2 = np.zeros(m)
    for _ in range(depth):
        batch = mod.draw_innovations(model, m, rng)
        w1_cross = batch.a11 * w1_cross + batch.a12 * w2
        w1_own = batch.a11 * w1_own + batch.b1
        w2 = batch.a22 * w2 + batch.b2
    return w1_own, w1_cross, w2


def sample_stationary_batch(model: TriangularSRE, tol: float, m: int,
                            rng: RngStream,
                            workers: int | None = None) -> StationaryBatch:
    depth, eps = truncation_depth(model, tol)
    bound = _series_error_bound(model, depth, eps,
                                contraction_exponent(model)[1]) ** (1.0 / eps)
    parts = map_chunks(m, CHUNK,
                       lambda sz, sub: _stationary_chunk(model, depth, sz, sub),
                       rng, workers)
    w1_own, w1_cross, w2 = (np.concatenate(col) for col in zip(*parts))
    return StationaryBatch(w1=w1_own + w1_cross, w2=w2, w1_own=w1_own,
                           w1_cross=w1_cross, truncation_depth=depth,
                           truncation_bound=bound)


def iterate_forward(model: TriangularSRE, w0: tuple[np.ndarray, np.ndarray],
                    steps: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Run m parallel chains forward; returns the final states."""
    w1, w2 = np.asarray(w0[0], dtype=float), np.asarray(w0[1], dtype=float)
    m = w1.size
    for _ in range(steps):
        batch = mod.draw_innovations(model, m, rng)
        w1, w2 = mod.step_batch(w1, w2, batch)
    return w1, w2


# ---------------------------------------------------------------------------
# Cross-coupling partial sum: the scalar chain linking the coordinates
# ---------------------------------------------------------------------------

def cross_sum_scan(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Cross sum from draws of shape (n, m): term i carries i-1 first-
    diagonal factors, the off-diagonal entry, then n-i second-diagonal
    factors. The scan keeps a running first-diagonal prefix and folds
    each new step into the accumulator."""
    n, m = a11.shape
    s = np.zeros(m)
    p1 = np.ones(m)
    for k in range(n):
        s = s * a22[k] + p1 * a12[k]
        p1 = p1 * a11[k]
    return s


def sample_cross_sum_batch(model: TriangularSRE, n: int, m: int,
                           rng: RngStream) -> np.ndarray:
    """m draws of the depth-n cross sum over fresh innovation paths."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def chunk(sz, sub):
        s = np.zeros(sz)
        p1 = np.ones(sz)
        for _ in range(n):
            batch = mod.draw_innovations(model, sz, sub)
            s = s * batch.a22 + p1 * batch.a12
            p1 = p1 * batch.a11
        return s

    parts = map_chunks(m, CHUNK, chunk, rng)
    return np.concatenate(parts) if parts else np.zeros(0)


def cross_sum_brute(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Direct triple-product evaluation from given draws of shape (n, m);
    oracle for the scan recursion."""
    n, m = a11.shape
    total = np.zeros(m)
    for i in range(1, n + 1):
        term = np.ones(m)
        for p in range(0, i - 1):
            term = term * a11[p]
        term = term * a12[i - 1]
        for p in range(i, n):
            term = term * a22[p]
        total += term
    return total


# ---------------------------------------------------------------------------
# Univariate perpetuity (used for the scalar tail constants)
# ---------------------------------------------------------------------------

def univariate_model(a_law: dist.Dist, b_law: dist.Dist) -> TriangularSRE:
    """Embed a scalar recursion as the first coordinate of a degenerate
    bivariate model (zero off-diagonal, zero second coordinate)."""
    return mod.IndependentEntries(a11=a_law, a12=dist.Constant(0.0),
                                  a22=dist.Constant(0.0), b1=b_law,
                                  b2=dist.Constant(0.0))


def sample_perpetuity_batch(a_law: dist.Dist, b_law: dist.Dist, tol: float,
                            m: int, rng: RngStream,
                            workers: int | None = None) -> np.ndarray:
    """m stationary draws of the scalar recursion X = A X' + B."""
    batch = sample_stationary_batch(univariate_model(a_law, b_law), tol, m,
                                    rng, workers)
    return batch.w1


def sample_pair_perpetuity_batch(pair_sampler, a_law: dist.Dist, tol: float,
                                 m: int, rng: RngStream) -> np.ndarray:
    """Stationary draws of X = A X' + B for jointly sampled (A, B) pairs.

    pair_sampler(k, rng) must return arrays (a, b) of shape (k,). The
    truncation analysis uses A's declared law plus a Monte Carlo probe of
    E|B|^eps over _EPS_PROBE pairs (safety factor 10).
    """
    eps, q = contraction_exponent(univariate_model(a_law, dist.Constant(1.0)))
    _, b_probe = pair_sampler(_EPS_PROBE, rng.substream(0))
    b_eps = float(np.mean(np.abs(b_probe) ** eps)) * 10.0
    depth = _first_depth(lambda k: q ** k / (1.0 - q) * b_eps, tol ** eps)

    def chunk(sz, sub):
        x = np.zeros(sz)
        p = np.ones(sz)
        for _ in range(depth):
            a, b = pair_sampler(sz, sub)
            x = x + p * b
            p = p * a
        return x

    parts = map_chunks(m, CHUNK, chunk, rng.substream(1))
    return np.concatenate(parts) if parts else np.zeros(0)
