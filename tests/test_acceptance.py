"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v` (add -s for the summary
lines). Tolerances are pinned here, not calibrated elsewhere.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries, Lognormal,
                    Normal, ProportionalToDiagonal, SignedLognormal)
from trisre.cli import main as cli_main
from trisre.tails import EmpiricalTail, ccdf, hill, log_factor_regression
from trisre.tilting import StepSource

from oracles import (combined_se, goldie_constant_direct_for_laws,
                     lognormal_ratio_log_drift, perpetuity_sample_batch,
                     sample_pair_perpetuity_batch, sample_perpetuity_batch)


def _report(line: str) -> None:
    print(f"[acceptance] {line}")


# ---------------------------------------------------------------------- 1

def test_c01_tail_index_solver_and_derivative():
    t0 = time.time()
    for mu0, sigma0 in [(-1.0, 1.0), (-2.0, 1.0), (-0.8, 0.6), (-1.3, 1.7)]:
        spec = Lognormal(mu0, sigma0)
        alpha = t.solve_tail_index(spec)
        assert abs(alpha - (-2.0 * mu0 / sigma0 ** 2)) <= 1e-9
        closed = (mu0 + sigma0 ** 2 * alpha) * t.abs_moment(spec, alpha)
        h = 1e-5
        fd = (t.abs_moment(spec, alpha + h)
              - t.abs_moment(spec, alpha - h)) / (2 * h)
        assert abs(fd - closed) <= 1e-6
        assert abs(t.abs_moment_derivative(spec, alpha) - closed) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(f"criterion 1 PASS: solver exact to 1e-9, derivative consistent "
            f"to 1e-6, runtime {elapsed:.3f}s")


# ---------------------------------------------------------------------- 2

def test_c02_univariate_tail_reproduction():
    t0 = time.time()
    x = sample_perpetuity_batch(Lognormal(-1, 1), Constant(1.0), 1e-8,
                                1_000_000, t.RngStream(20_101))
    tail = EmpiricalTail(x, "positive")
    est = hill(tail, 10_000)
    band = max(4 * est.se, 0.2)
    elapsed = time.time() - t0
    assert abs(est.value - 2.0) <= band
    assert elapsed < 60.0
    _report(f"criterion 2 PASS: hill {est.value:.4f} in 2.0 +- {band:.3f}, "
            f"runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------- 3

def _dependent_steps(m, rng):
    while True:
        a = t.sample(Lognormal(-1, 1), rng, m)
        yield a, 1.0 + 0.5 * a


def test_c03_goldie_cross_validation():
    N = 1_000_000
    results = []

    # positive multiplier
    cp_d, _ = goldie_constant_direct_for_laws(
        Lognormal(-1, 1), Constant(1.0), 2.0, 1.0, N, t.RngStream(30_100))
    perp = t.goldie_constant_perpetuity(
        Lognormal(-1, 1), t.law_steps(Lognormal(-1, 1), Constant(1.0)),
        2.0, 1.0, N, t.RngStream(30_200))
    results.append(("positive-A", cp_d, perp.plus))

    # signed multiplier: constants coincide; compare the shared value
    a_law = SignedLognormal(-1, 1, 0.7)
    cp_d, cm_d = goldie_constant_direct_for_laws(
        a_law, Constant(1.0), 2.0, 1.0, N, t.RngStream(30_300))
    assert cp_d.value == cm_d.value
    perp = t.goldie_constant_perpetuity(a_law,
                                        t.law_steps(a_law, Constant(1.0)),
                                        2.0, 1.0, N, t.RngStream(30_400))
    results.append(("signed-A", cp_d, perp.plus))

    # dependent (A, B) pair: B = 1 + A/2
    def sampler(m, rng):
        a, b = next(_dependent_steps(m, rng.substream(0)))
        x = sample_pair_perpetuity_batch(_dependent_steps,
                                         Lognormal(-1, 1), 1e-8, m,
                                         rng.substream(1))
        return a, b, x

    cp_d, _ = t.goldie_constant_direct(sampler, 2.0, 1.0, N,
                                       t.RngStream(30_500), a_signed=False)
    perp = t.goldie_constant_perpetuity(Lognormal(-1, 1),
                                        StepSource(_dependent_steps, True),
                                        2.0, 1.0, N, t.RngStream(30_600))
    results.append(("dependent-pair", cp_d, perp.plus))

    for name, direct, perpetuity in results:
        diff = abs(direct.value - perpetuity.value)
        band = 4 * combined_se(direct, perpetuity)
        assert diff <= band, (name, direct, perpetuity)
        _report(f"criterion 3 [{name}] PASS: direct {direct.value:.4f} vs "
                f"perpetuity {perpetuity.value:.4f} (band {band:.4f})")


# ---------------------------------------------------------------------- 4

def coord1_benchmark():
    return IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-2, 1), b1=Constant(1.0),
                              b2=Constant(1.0))


def test_c04_distinct_indices_first_dominant():
    batch = t.sample_stationary_batch(coord1_benchmark(), 1e-8, 1_000_000,
                                      t.RngStream(40_100))
    h1 = hill(EmpiricalTail(batch.w1, "absolute"), 10_000)
    h2 = hill(EmpiricalTail(batch.w2, "absolute"), 10_000)
    band1 = max(4 * h1.se, 0.2)
    band2 = max(4 * h2.se, 0.4)
    assert abs(h1.value - 2.0) <= band1
    assert abs(h2.value - 4.0) <= band2
    _report(f"criterion 4 PASS: hill(W1) {h1.value:.3f} in 2 +- {band1:.3f}; "
            f"hill(W2) {h2.value:.3f} in 4 +- {band2:.3f}")


# ---------------------------------------------------------------------- 5

def coord2_benchmark():
    # strong coupling and small own noise so the inherited index-2 tail
    # dominates the first coordinate well inside the observable range
    return IndependentEntries(a11=Lognormal(-2, 1), a12=Lognormal(0.0, 0.5),
                              a22=Lognormal(-1, 1), b1=Constant(0.1),
                              b2=Constant(1.0))


def test_c05_distinct_indices_second_dominant():
    model = coord2_benchmark()
    rng = t.RngStream(50_100)
    batch = t.sample_stationary_batch(model, 1e-8, 1_000_000, rng.substream(1))
    h1 = hill(EmpiricalTail(batch.w1, "absolute"), 10_000)
    band = max(4 * h1.se, 0.2)
    assert abs(h1.value - 2.0) <= band

    # predicted inherited constant vs grid-averaged empirical tail weight
    c2p, c2m = [], []
    c2p, c2m = goldie_constant_direct_for_laws(model.a22, model.b2, 2.0, 1.0,
                                               400_000, rng.substream(2))
    snap = t.estimate_coupling_weight(model, 2.0, 60, 400_000,
                                      rng.substream(3))
    pred = c2p.value * snap.plus.value + c2m.value * snap.minus.value

    tail = EmpiricalTail(batch.w1, "positive")
    grid = t.default_log_grid(tail)
    vals = [x ** 2.0 * ccdf(tail, x) for x in grid
            if ccdf(tail, x) * batch.w1.size >= 50]
    emp = float(np.mean(vals))
    ratio = emp / pred
    assert 0.5 <= ratio <= 2.0
    _report(f"criterion 5 PASS: hill(W1) {h1.value:.3f} in 2 +- {band:.3f}; "
            f"constant ratio emp/pred {ratio:.3f} in [0.5, 2.0]")


# ---------------------------------------------------------------------- 6

def test_c06_equal_diagonal_moment_laws():
    n = 2000
    # (a) zero drift: E|M_n|^a / n^{a/2} -> sigma^a E|N|^a = 1
    m_zero = EqualDiagonal(d=Lognormal(-1, 1),
                           a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                           b1=Constant(1.0), b2=Constant(1.0))
    study = t.coupling_sum_moments(m_zero, 2.0, [n], 100_000,
                                   t.RngStream(60_100))
    snap = study.final()
    val = snap.absolute.value / n
    band = max(4 * snap.absolute.se / n, 0.1)
    assert abs(val - 1.0) <= band
    _report(f"criterion 6a PASS: E|M_n|^2/n = {val:.4f} in 1.0 +- {band:.3f}")

    # (b) drift 0.5: E|M_n|^a / n^a -> |mu|^a = 0.25
    m_half = EqualDiagonal(d=Lognormal(-1, 1),
                           a12_mode=ProportionalToDiagonal(Constant(0.5)),
                           b1=Constant(1.0), b2=Constant(1.0))
    study = t.coupling_sum_moments(m_half, 2.0, [n], 1000,
                                   t.RngStream(60_200))
    snap = study.final()
    val = snap.absolute.value / n ** 2
    band = max(4 * snap.absolute.se / n ** 2, 0.025)
    assert abs(val - 0.25) <= band
    _report(f"criterion 6b PASS: E|M_n|^2/n^2 = {val:.6f} in 0.25 +- {band:.3f}")


# ---------------------------------------------------------------------- 7

def distinct_diag_benchmark():
    return IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-2, math.sqrt(2.0)),
                              b1=Constant(1.0), b2=Constant(1.0))


def test_c07_coupling_rate_convergence_and_tail_cross_check():
    model = distinct_diag_benchmark()
    alpha = 2.0
    rng = t.RngStream(70_100)
    # the full averages (alpha k)^{-1} E|M_k|^alpha at k = n/2 and n, and
    # the late-window rate, from one study
    study = t.coupling_sum_moments(model, alpha, [200, 400], 200_000,
                                   rng.substream(1))
    a_h, a_n = (s.scaled(1.0 / (alpha * s.k)).absolute
                for s in study.snapshots)
    slack = 4 * combined_se(a_n, a_h) + 0.05 * abs(a_n.value)
    assert abs(a_n.value - a_h.value) <= slack

    # cross-check against drift * P(|X0| > x) * x^alpha from stationary
    # samples of the reweighted ratio recursion. The source text carries
    # x^{-alpha} here, dimensionally inconsistent with a tail constant;
    # the x^{+alpha} reading is implemented (see README).
    drift = lognormal_ratio_log_drift(model, alpha)
    x0 = perpetuity_sample_batch(model, alpha, 80, 400_000, rng.substream(3))
    q = float(np.quantile(np.abs(x0), 0.999))
    p_tail = float(np.mean(np.abs(x0) > q))
    cross = drift * p_tail * q ** alpha
    ratio = cross / study.rate(alpha).absolute.value
    assert 0.5 <= ratio <= 2.0
    _report(f"criterion 7 PASS: rate {a_n.value:.4f} vs {a_h.value:.4f} "
            f"(slack {slack:.4f}); tail cross-check ratio {ratio:.3f}")


# ---------------------------------------------------------------------- 8

def _synthetic_tail(alpha, beta, n):
    x0 = math.exp(max(1.5, 2.0 * beta / alpha))
    grid = np.geomspace(x0, x0 * 1e8, 40_000)
    s = grid ** (-alpha) * np.log(grid) ** beta
    s = s / s[0]
    u = (np.arange(n) + 0.5) / n
    x = np.interp(-u, -s, grid)
    return EmpiricalTail(x, "positive")


def test_c08_log_factor_regression_calibration():
    t0 = time.time()
    alpha = 2.0
    for beta in (0.0, 1.0, alpha / 2.0, alpha):
        tail = _synthetic_tail(alpha, beta, 1_000_000)
        grid = t.default_log_grid(tail)
        beta_hat, _, _ = log_factor_regression(tail, alpha, grid)
        assert abs(beta_hat - beta) <= 0.15, (beta, beta_hat)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(f"criterion 8 PASS: recovered beta in {{0, 1, a/2, a}} to "
            f"+-0.15, runtime {elapsed:.1f}s")


# ---------------------------------------------------------------------- 9

def test_c09_property_suites_configured():
    import test_properties as props
    from hypothesis import settings

    suites = [name for name in dir(props) if name.startswith("test_")]
    expected = {
        "test_signed_moments_add_to_absolute",
        "test_tilt_identity_against_weighted_mc",
        "test_cross_sum_scan_equals_brute_force",
        "test_chain_sample_is_the_same_at_any_worker_count",
        "test_stream_determinism_under_reseeding",
        "test_moment_bound_envelope_on_eps_grid",
        "test_hill_scale_invariance_binary_exact",
    }
    assert expected <= set(suites)
    assert settings().max_examples >= 200
    _report(f"criterion 9 PASS: {len(expected)} property suites at "
            f"{settings().max_examples} cases each (run by this session)")


# --------------------------------------------------------------------- 10

def test_c10_quick_suite_emits_valid_reports(tmp_path):
    t0 = time.time()
    rc = cli_main(["suite", "--quick", "--out", str(tmp_path),
                   "--workers", "2", "--no-verdict-exit"])
    elapsed = time.time() - t0
    assert rc == 0
    assert elapsed < 300.0
    summary = json.loads((tmp_path / "suite_summary.json").read_text())
    assert summary["schema"] == 1
    assert len(summary["scenarios"]) == 7
    for entry in summary["scenarios"]:
        name = entry["name"]
        data = json.loads((tmp_path / f"{name}.json").read_text())
        for key in ("name", "config", "regime", "prediction", "empirical",
                    "verdicts", "runtime_seconds", "seed_provenance"):
            assert key in data, (name, key)
        assert data["config"]["schema"] == 1
        csv_lines = (tmp_path / f"{name}.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "check_id,predicted,estimated,se,band,pass"
        assert len(csv_lines) == 1 + len(data["verdicts"])
    _report(f"criterion 10 PASS: quick suite in {elapsed:.1f}s, "
            f"7 scenario reports valid")
