"""Stationary solution sampling and the scalar perpetuity.

The stationary law is reached through the truncated backward series,
evaluated as a forward recursion from zero; the truncation depth comes
from an explicit epsilon-moment bound on the discarded remainder, so every
sample carries a certified error bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import distributions as dist
from . import model as mod
from .errors import NotContractive
from .model import TriangularSRE
from .rng import CHUNK, RngStream, map_chunks

_EPS_GRID = np.linspace(0.05, 1.0, 20)


def contraction_exponent(model: TriangularSRE) -> tuple[float, float]:
    """Exponent eps in (0, 1] minimising q = max_i E|A_ii|^eps.

    Raises NotContractive when no grid point gives q < 1.
    """
    d1, d2 = mod.diag_laws(model)
    sup = mod.entry_moment_sup(model)
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
    """The sample of sample_stationary_batch: the arrays w1 and w2, or,
    for a tails request, tails[coordinate][convention], each the
    EmpiricalTail of a TailSelection (w1 and w2 are then None)."""

    w1: np.ndarray | None
    w2: np.ndarray | None
    truncation_depth: int
    truncation_bound: float
    tails: dict | None = None


def sample_stationary_batch(model: TriangularSRE, tol: float, m: int,
                            rng: RngStream, workers: int | None = None,
                            tails: dict | None = None) -> StationaryBatch:
    """m draws of the depth-truncated backward series, run forward from zero.

    Step s uses the draws of lag depth - s, so this is the same truncated
    series with draws mapped to lags in reverse order. Each chunk keeps
    its first coordinate in two parts: the own part driven by b1 through
    the first diagonal, and the cross part fed via a12 by the second
    coordinate from before the current step, i.e. resolved from the
    deeper lags of the same path. The chunk's (w1, w2) then go to one of
    two folds. Without tails they are written into the arrays w1 and w2,
    the only full-size arrays (empty for m = 0). tails = {"w1": [...],
    "w2": [...]} lists tails.TailSelection accumulators for each
    coordinate, at most one per sign convention: each finished chunk is
    added to them from its worker, so nothing of size m is held, and the
    batch returns their tails. A tail needs m >= 2. The draws are the
    same either way.
    """
    if tails is not None:
        if set(tails) != {"w1", "w2"}:
            raise ValueError(f"tails are requested for coordinates w1 and "
                             f"w2, not {sorted(tails)}")
        for coord, group in tails.items():
            conventions = [s.convention for s in group]
            if len(set(conventions)) < len(conventions):
                raise ValueError(f"tails of {coord} list a sign convention "
                                 f"twice: {conventions}")
        if m < 2:
            raise ValueError(f"a tail needs at least 2 samples, not m = {m}")
    depth, eps = truncation_depth(model, tol)
    bound = _series_error_bound(model, depth, eps,
                                contraction_exponent(model)[1]) ** (1.0 / eps)
    if tails is None:
        w1 = np.empty(m)
        w2 = np.empty(m)

        def fold(paths, x1, x2):
            w1[paths] = x1
            w2[paths] = x2
    else:
        def fold(paths, x1, x2):
            for selection in tails["w1"]:
                selection.add(x1)
            for selection in tails["w2"]:
                selection.add(x2)

    def chunk(paths, sub):
        size = paths.stop - paths.start
        own = np.zeros(size)
        cross = np.zeros(size)
        x2 = np.zeros(size)
        for _ in range(depth):
            batch = mod.draw_innovations(model, size, sub)
            cross = batch.a11 * cross + batch.a12 * x2
            own = batch.a11 * own + batch.b1
            x2 = batch.a22 * x2 + batch.b2
        fold(paths, np.add(own, cross, out=own), x2)

    map_chunks(m, CHUNK, chunk, rng, workers)
    if tails is None:
        return StationaryBatch(w1=w1, w2=w2, truncation_depth=depth,
                               truncation_bound=bound)
    return StationaryBatch(
        w1=None, w2=None, truncation_depth=depth, truncation_bound=bound,
        tails={coord: {s.convention: s.tail() for s in selections}
               for coord, selections in tails.items()})


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
# Univariate perpetuity and the step sources of the tail-constant scans
# ---------------------------------------------------------------------------

def univariate_model(a_law: dist.Dist, b_law: dist.Dist) -> TriangularSRE:
    """Embed a scalar recursion as the first coordinate of a degenerate
    bivariate model (zero off-diagonal, zero second coordinate)."""
    return mod.IndependentEntries(a11=a_law, a12=dist.Constant(0.0),
                                  a22=dist.Constant(0.0), b1=b_law,
                                  b2=dist.Constant(0.0))


def law_steps(a_law: dist.Dist, b_law: dist.Dist):
    """Step source of x = a x + b with independent (A, B), A drawn first:
    steps(m, rng) yields one step's arrays (a, b) of shape (m,) at a time."""
    def steps(m: int, rng: RngStream):
        while True:
            yield dist.sample(a_law, rng, m), dist.sample(b_law, rng, m)

    return steps


def coord1_steps(model: TriangularSRE):
    """Step source of x1 = a11 x1' + (b1 + a12 x2') along the forward
    bivariate chain from zero; each source carries its own x2 per path."""
    def steps(m: int, rng: RngStream):
        x2 = np.zeros(m)
        while True:
            batch = mod.draw_innovations(model, m, rng)
            yield batch.a11, batch.b1 + batch.a12 * x2
            x2 = batch.a22 * x2 + batch.b2

    return steps


def _perpetuity_sums(steps, depth: int, m: int, rng: RngStream,
                     workers: int | None = None) -> np.ndarray:
    """m draws of the depth-step recursion x = a x + b, run from zero.

    steps is a step source of i.i.d. (a, b), fresh for each chunk, so this
    has the law of the backward partial sum
    B_1 + A_1 B_2 + ... + A_1...A_{depth-1} B_depth, with step s using the
    draws of lag depth - s.
    """
    out = np.empty(m)

    def chunk(paths, sub):
        size = paths.stop - paths.start
        x = np.zeros(size)
        for a, b in islice(steps(size, sub), depth):
            x = a * x + b
        out[paths] = x

    map_chunks(m, CHUNK, chunk, rng, workers)
    return out


def sample_perpetuity_batch(a_law: dist.Dist, b_law: dist.Dist, tol: float,
                            m: int, rng: RngStream,
                            workers: int | None = None) -> np.ndarray:
    """m stationary draws of the scalar recursion X = A X' + B, truncated
    at the depth certified for the embedded bivariate model."""
    depth, _ = truncation_depth(univariate_model(a_law, b_law), tol)
    return _perpetuity_sums(law_steps(a_law, b_law), depth, m, rng, workers)
