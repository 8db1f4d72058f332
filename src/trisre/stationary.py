"""Stationary solution sampling.

The stationary law is reached by long chains run forward from zero. The
truncation depth comes from an explicit epsilon-moment bound on what a
recursion over that many lags leaves out of the backward series, and the
bound does not grow with the depth past it. Each chain burns in for the
depth and then keeps CHAIN_LENGTH values, so every value carries the
certified bound, and the burn-in is paid once per chain rather than once
per value. Values of one chain are dependent; their extremes cluster, so
tail reads take their SEs from per-chain sums (see tails).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import model as mod
from .errors import NotContractive
from .model import TriangularSRE
from .rng import CHUNK, RngStream, map_chunks
from .tails import add_candidates

_EPS_GRID = np.linspace(0.05, 1.0, 20)
# Values each stationary chain keeps after its burn-in, and chains per
# work chunk: 1M values make 16130 chains in 4 chunks.
CHAIN_LENGTH = 62
CHAINS_PER_CHUNK = 4096


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
    """Smallest depth whose discarded-remainder bound is below tol^eps and
    past which the bound does not grow, so it covers every deeper
    recursion too: its n q^{n-1} term falls from n >= 1 / log(1/q) on."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    eps, q = contraction_exponent(model)
    n = _first_depth(lambda k: _series_error_bound(model, k, eps, q),
                     tol ** eps)
    if q > 0.0:
        n = max(n, math.ceil(1.0 / math.log(1.0 / q)))
    return n, eps


@dataclass
class StationaryBatch:
    """The sample of sample_stationary_batch: the arrays w1 and w2, or,
    for a tails request, tails[coordinate][convention], each the
    EmpiricalTail of a TailSelection (w1 and w2 are then None).

    The values are chain-major: chain c holds values c * CHAIN_LENGTH up
    to (c + 1) * CHAIN_LENGTH of w1 and w2, in step order, and only the
    last chain may hold fewer."""

    w1: np.ndarray | None
    w2: np.ndarray | None
    truncation_depth: int
    truncation_bound: float
    tails: dict | None = None

    def chain_ids(self) -> np.ndarray:
        """The chain of each value of w1 and w2, as int32."""
        return np.arange(self.w1.size, dtype=np.int32) // CHAIN_LENGTH


def _chain_sizes(m: int) -> np.ndarray:
    """Values each chain of an m-value sample keeps, by chain id: the
    chains of sample_stationary_batch, all CHAIN_LENGTH long but the last."""
    sizes = np.full(-(-m // CHAIN_LENGTH), CHAIN_LENGTH, dtype=np.int32)
    if sizes.size:
        sizes[-1] = m - (sizes.size - 1) * CHAIN_LENGTH
    return sizes


def sample_stationary_batch(model: TriangularSRE, tol: float, m: int,
                            rng: RngStream, workers: int | None = None,
                            tails: dict | None = None) -> StationaryBatch:
    """m stationary values from ceil(m / CHAIN_LENGTH) independent chains.

    Each chain starts from zero and runs model.chain_steps forward. It
    first burns in for the truncation depth, so each value it keeps is a
    recursion over at least that many lags, whose distance to the
    stationary law the bound certifies; it then keeps CHAIN_LENGTH
    steps, the last chain only as many as make m values in all. Values
    of one chain are dependent, so a tail read of them needs the
    chain-clustered SE (tails.hill, tails.ccdf_se).

    The chains are the items of map_chunks, CHAINS_PER_CHUNK to a chunk,
    so the plan depends only on m and any worker count gives the same
    values. A chunk's kept steps go in blocks of about CHUNK values to
    one of two folds. Without tails they are written into the arrays w1
    and w2, in chain-major order (empty for m = 0). tails = {"w1": [...],
    "w2": [...]} lists tails.TailSelection accumulators for each
    coordinate, at most one per sign convention: each block goes to a
    coordinate's selections from its worker through one candidate pass,
    tails.add_candidates, which hands each selection only the values it
    could keep, with their chain ids, and the block's full count, so
    nothing of size m is held, and the batch returns their tails. A tail
    needs m >= 2. The draws are the same either way: model.chain_steps
    draws each law for a block of steps at once, so a chunk draws at
    most one block of steps past its last kept step.
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
    sizes = _chain_sizes(m)
    count = sizes.size
    if tails is None:
        w1 = np.empty(count * CHAIN_LENGTH)
        w2 = np.empty(count * CHAIN_LENGTH)
        rows1 = w1.reshape(count, CHAIN_LENGTH)
        rows2 = w2.reshape(count, CHAIN_LENGTH)

        def fold(chains, first, x1, x2):
            steps = slice(first, first + len(x1))
            rows1[chains, steps] = x1.T
            rows2[chains, steps] = x2.T
    else:
        def fold(chains, first, x1, x2):
            ids = np.broadcast_to(np.arange(chains.start, chains.stop,
                                            dtype=np.int32), x1.shape)
            if chains.stop == count and first + len(x1) > sizes[-1]:
                # the last chain keeps only its share of the m values
                kept = (first + np.arange(len(x1)))[:, None] < sizes[chains]
                ids, x1, x2 = ids[kept], x1[kept], x2[kept]
            add_candidates(tails["w1"], x1, ids)
            add_candidates(tails["w2"], x2, ids)

    def chunk(chains, sub):
        size = chains.stop - chains.start
        # kept steps go to the fold in blocks of about CHUNK values
        block = min(max(1, CHUNK // size), CHAIN_LENGTH)
        block1 = np.empty((block, size))
        block2 = np.empty((block, size))
        x1 = np.zeros(size)
        for step, (a11, u, x2) in zip(range(-depth, CHAIN_LENGTH),
                                      mod.chain_steps(model, size, sub)):
            x1 *= a11
            x1 += u
            if step < 0:
                continue
            row = step % block
            block1[row] = x1
            block2[row] = x2
            if row == block - 1 or step == CHAIN_LENGTH - 1:
                fold(chains, step - row, block1[:row + 1], block2[:row + 1])

    map_chunks(count, CHAINS_PER_CHUNK, chunk, rng, workers)
    if tails is None:
        return StationaryBatch(w1=w1[:m], w2=w2[:m], truncation_depth=depth,
                               truncation_bound=bound)
    return StationaryBatch(
        w1=None, w2=None, truncation_depth=depth, truncation_bound=bound,
        tails={coord: {s.convention: s.tail(sizes) for s in selections}
               for coord, selections in tails.items()})
