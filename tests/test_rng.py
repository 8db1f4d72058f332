"""Stream keying, the chunk plan of map_chunks and its worker-count
invariance."""
import itertools
import math
import os

import numpy as np
import pytest

from trisre.estimates import RunningMoments, merge_chunks
from trisre.rng import CHUNK, RngStream, default_workers, map_chunks


TOP = 2 ** 64 - 1


def reference_gen(seed, stream_id):
    ss = np.random.SeedSequence([seed, stream_id])
    return np.random.Generator(np.random.SFC64(ss))


def same_first_draws(stream, ref):
    gen = stream.gen
    return (np.array_equal(gen.integers(0, TOP, size=4, dtype=np.uint64,
                                        endpoint=True),
                           ref.integers(0, TOP, size=4, dtype=np.uint64,
                                        endpoint=True))
            and np.array_equal(gen.standard_normal(16),
                               ref.standard_normal(16)))


@pytest.mark.parametrize("seed, stream_id", [(0, 0), (7, 1), (13, 12345),
                                             (TOP, 0), (1, TOP), (TOP, TOP)])
def test_stream_is_sfc64_keyed_by_seed_sequence(seed, stream_id):
    assert same_first_draws(RngStream(seed, stream_id),
                            reference_gen(seed, stream_id))


def test_stream_key_wraps_to_64_bits():
    assert RngStream(5, -1).stream_id == TOP
    assert same_first_draws(RngStream(5, -1), reference_gen(5, TOP))


def test_substreams_of_the_top_stream_id_are_keyed_the_same_way():
    parent = RngStream(3, TOP)
    children = [parent.substream(i) for i in (0, 1, 2, TOP)]
    ids = [c.stream_id for c in children]
    assert len(set(ids)) == len(ids) and TOP not in ids
    assert all(0 <= i <= TOP for i in ids)
    for child in children + [children[0].substream(TOP)]:
        assert child.seed == 3
        assert same_first_draws(child, reference_gen(3, child.stream_id))


def plan(total):
    return map_chunks(total, CHUNK, lambda paths, sub: paths.stop - paths.start,
                      RngStream(1), workers=1)


@pytest.mark.parametrize("total", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                   20_000, 200_000, 1_000_000])
def test_plan_is_even_and_bounded(total):
    sizes = plan(total)
    assert sum(sizes) == total
    assert len(sizes) == math.ceil(total / CHUNK)
    if sizes:
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= CHUNK


def test_plan_splits_study_sizes_evenly():
    # the full (200k) and quick (20k) constant studies
    assert len(plan(200_000)) == 13 and set(plan(200_000)) == {15_384, 15_385}
    assert plan(20_000) == [10_000, 10_000]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("total", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17,
                                   200_000])
def test_slices_tile_the_paths_in_order_with_the_even_plan(total, workers):
    count = math.ceil(total / CHUNK)
    q, r = divmod(total, max(count, 1))
    sizes = [q + 1] * r + [q] * (count - r)
    slices = map_chunks(total, CHUNK, lambda paths, sub: paths, RngStream(1),
                        workers=workers)
    stops = [s.stop for s in slices]
    assert stops == list(itertools.accumulate(sizes))
    assert [s.start for s in slices] == ([0] + stops)[:-1]
    assert all(s.step is None for s in slices)
    assert sum(sizes) == total


def test_merged_moments_identical_for_any_worker_count():
    def chunk(paths, sub):
        m = paths.stop - paths.start
        x = sub.gen.lognormal(0.0, 1.5, size=m)
        return RunningMoments(x), RunningMoments(x * x)

    total = 3 * CHUNK + 17
    runs = []
    for workers in (1, 2, 3):
        accs = merge_chunks(map_chunks(total, CHUNK, chunk, RngStream(9),
                                       workers=workers))
        runs.append([(a.n, a.mean, a.m2) for a in accs])
    assert runs[0][0][0] == total
    assert runs[0] == runs[1] == runs[2]


def test_default_workers_reads_a_positive_integer(monkeypatch):
    monkeypatch.setenv("TRISRE_WORKERS", "3")
    assert default_workers() == 3
    for bad in ("two", "2.0", "0", "-1"):
        monkeypatch.setenv("TRISRE_WORKERS", bad)
        with pytest.raises(ValueError, match="positive integer"):
            default_workers()


def test_default_workers_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("TRISRE_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                        raising=False)
    assert default_workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)))
    assert default_workers() == 8
    monkeypatch.setenv("TRISRE_WORKERS", "5")
    assert default_workers() == 5


def test_default_workers_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delenv("TRISRE_WORKERS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert default_workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 12)
    assert default_workers() == 8
