"""The chunk plan of map_chunks and its worker-count invariance."""
import math

import numpy as np
import pytest

from trisre import Constant, IndependentEntries, Lognormal
from trisre import model as mod
from trisre.estimates import RunningMoments, merge_chunks
from trisre.regime import _eta_margin, _mixed_moment_mc
from trisre.rng import CHUNK, RngStream, map_chunks


def plan(total):
    return map_chunks(total, CHUNK, lambda m, sub: m, RngStream(1), workers=1)


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


def test_merged_moments_identical_for_any_worker_count():
    def chunk(m, sub):
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


def distinct_diag_model():
    return IndependentEntries(a11=Lognormal(-1.0, 1.0), a12=Lognormal(-1.0, 0.5),
                              a22=Lognormal(-2.0, math.sqrt(2.0)),
                              b1=Constant(1.0), b2=Constant(1.0))


def test_mixed_moment_check_identical_across_worker_counts(monkeypatch):
    model = distinct_diag_model()
    eta = _eta_margin(model, 2.0)
    results = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TRISRE_WORKERS", workers)
        results.append(_mixed_moment_mc(model, 2.0, eta, RngStream(4)))
    assert results[0] == results[1]
    assert results[0][0].status == "pass"


def test_mixed_moment_check_matches_one_pass_statistics(monkeypatch):
    # the merged chunks give the one-pass mean and population-std rel SE
    # of the finite weights, drawn from the same chunk substreams
    monkeypatch.setenv("TRISRE_WORKERS", "2")
    model = distinct_diag_model()
    alpha, eta, n = 2.0, _eta_margin(model, 2.0), 3 * CHUNK + 17
    check, _ = _mixed_moment_mc(model, alpha, eta, RngStream(6), n=n)
    batch = map_chunks(n, CHUNK, lambda m, sub: mod.draw_innovations(model, m, sub),
                       RngStream(6))
    a11, a12, a22 = (np.concatenate([getattr(b, k) for b in batch])
                     for k in ("a11", "a12", "a22"))
    details = []
    for name, a in (("diag", a11), ("offdiag", a12)):
        w = np.abs(a) ** (alpha + eta) * np.abs(a22) ** (-eta)
        w = w[np.isfinite(w)]
        mean_ = float(np.mean(w))
        rel_se = float(np.std(w) / math.sqrt(w.size) / mean_)
        details.append(f"{name}: mean {mean_:.4g}, rel SE {rel_se:.2%}")
    assert check.detail == f"eta={eta:.3g}; " + "; ".join(details)
