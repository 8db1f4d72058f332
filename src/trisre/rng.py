"""Reproducible random streams.

Each stream is numpy's SFC64 generator seeded through a SeedSequence of
the pair (seed, stream_id). That pair is the full key, so a stream can be
reconstructed anywhere and substreams can be assigned to work chunks
independently of how many workers run them.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
# numpy 2 loads numpy.random on first use; load it with trisre, not
# inside the first draw of a run
import numpy.random  # noqa: F401

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; decorrelates nearby stream ids.
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


class RngStream:
    """A named, reconstructible random stream.

    Two instances with the same (seed, stream_id) yield bit-identical
    sample sequences; distinct stream_ids give statistically independent
    streams. The underlying generator is created lazily and advances as
    it is consumed.
    """

    __slots__ = ("seed", "stream_id", "_gen")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK
        self.stream_id = int(stream_id) & _MASK
        self._gen: np.random.Generator | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence([self.seed, self.stream_id])
            self._gen = np.random.Generator(np.random.SFC64(seq))
        return self._gen

    def substream(self, index: int) -> "RngStream":
        """Derive an independent child stream; deterministic in index."""
        child = _splitmix64(self.stream_id ^ _splitmix64(index & _MASK))
        return RngStream(self.seed, child)

    def describe(self) -> str:
        return f"seed={self.seed},stream={self.stream_id}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream({self.describe()})"


def worker_count(text: str, what: str = "workers") -> int:
    """A worker count from text; ValueError unless a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{what} must be a positive integer, not {text!r}")
    return int(text)


def default_workers() -> int:
    """TRISRE_WORKERS when set, else the number of CPUs this process may
    run on (its affinity mask where the platform has one), at most 8."""
    env = os.environ.get("TRISRE_WORKERS")
    if env:
        return worker_count(env, "TRISRE_WORKERS")
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


CHUNK = 1 << 14  # most paths per work chunk, for every chunked sampler and estimator

_CHUNK_TAG = 0x43484B53  # namespaces internal chunk streams away from
                         # any small-index substream the caller derives


def map_chunks(total: int, chunk: int, fn, rng: RngStream, workers: int | None = None):
    """Run fn(paths, substream) over `total` items in chunks.

    paths is the chunk's slice(start, stop) of range(total); its size is
    paths.stop - paths.start, and a chunk may write its result into
    out[paths] of an output the caller allocated once. The plan is even:
    ceil(total / chunk) chunks of total // count items or one more, the
    larger ones first, so no worker idles on a runt. The slices tile
    range(total) in chunk order. The plan depends only on total and
    chunk, and chunk i always receives the same derived stream whatever
    the worker count, so results are reproducible and order-independent.
    Returns the per-chunk results in chunk order.
    """
    count = -(-total // chunk)
    q, r = divmod(total, max(count, 1))
    plan = [slice(i * q + min(i, r), (i + 1) * q + min(i + 1, r))
            for i in range(count)]
    base = rng.substream(_CHUNK_TAG)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(plan) <= 1:
        return [fn(paths, base.substream(i)) for i, paths in enumerate(plan)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(fn, paths, base.substream(i))
                for i, paths in enumerate(plan)]
        return [f.result() for f in futs]
