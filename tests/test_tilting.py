"""Reweighted-measure estimators: tilt identities, cross-sum moments,
equal-diagonal drift constants, and the critical per-step rate."""
import dataclasses
import math
from itertools import islice

import numpy as np
import pytest

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal, Scaled, SignedLognormal, Uniform)
from trisre import distributions as dist
from trisre import tilting
from trisre.errors import (RegimeMismatch, RequiresEqualDiagonal,
                           RequiresExactTilt, RequiresMuZero, TiltUnsupported,
                           WeightDegenerate)
from trisre.estimates import EstimateWithError
from trisre.rng import CHUNK
from trisre.tilting import (_WINDOW_BIAS, StepSource, _rate_burn_in,
                            _scan_factors, _study_from_pairs, _vu_steps,
                            _window_bias)

from oracles import (combined_se, coord2_grey_weight_sum,
                     lognormal_ratio_log_drift, per_step_law_steps,
                     per_step_lognormal_vu_steps, perpetuity_sample_batch,
                     sample_cross_sum_batch)


def tilt_benchmark():
    # second coordinate at its critical index 2 (lognormal, exact tilt)
    return IndependentEntries(a11=Lognormal(-2, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-1, 1), b1=Constant(1.0),
                              b2=Constant(1.0))


def mild_benchmark():
    # same critical index 2 on the second coordinate, smaller log-variances
    # so that raw product weights stay usable over short horizons
    return IndependentEntries(a11=Lognormal(-2, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-0.5, math.sqrt(0.5)),
                              b1=Constant(1.0), b2=Constant(1.0))


def test_exact_tilt_agrees_with_weighted_mc(monkeypatch):
    m = mild_benchmark()
    alpha = 2.0
    exact = t.coupling_sum_moments(m, alpha, [1, 3], 200_000, t.RngStream(4))
    assert exact.mode == "plain"

    def untiltable(spec, alpha):
        raise TiltUnsupported("forced raw-weight route")

    monkeypatch.setattr(tilting.dist, "tilted", untiltable)
    weighted = t.coupling_sum_moments(m, alpha, [1, 3], 400_000,
                                      t.RngStream(5))
    assert weighted.mode == "weighted_mc"
    for a, b in zip(exact.snapshots + [exact.window],
                    weighted.snapshots + [weighted.window]):
        assert a.k == b.k
        for key in ("absolute", "plus"):
            ea, eb = getattr(a, key), getattr(b, key)
            assert abs(ea.value - eb.value) <= 4 * combined_se(ea, eb), key
        assert b.minus.value == 0.0


def test_raw_weight_route_matches_cross_sum_oracle():
    # a11 takes both signs and a22 = Uniform has no exact tilt; a22 > 0,
    # so the ratio sum and the cross sum share their sign
    m = IndependentEntries(a11=Normal(0, 0.5), a12=Lognormal(-1, 0.5),
                           a22=Uniform(0.2, 1.2), b1=Constant(1.0),
                           b2=Constant(1.0))
    alpha, n = 1.5, 8
    study = t.coupling_sum_moments(m, alpha, [n], 400_000, t.RngStream(35))
    assert study.mode == "weighted_mc"
    cross = sample_cross_sum_batch(m, n, 400_000, t.RngStream(36))
    oracle = {"absolute": np.abs(cross) ** alpha,
              "plus": np.maximum(cross, 0.0) ** alpha,
              "minus": np.maximum(-cross, 0.0) ** alpha}
    for key, vals in oracle.items():
        est = getattr(study.final(), key)
        brute = EstimateWithError(float(vals.mean()),
                                  float(vals.std() / math.sqrt(vals.size)),
                                  vals.size)
        assert abs(est.value - brute.value) <= 4 * combined_se(est, brute), key


def test_raw_weight_route_is_identical_across_worker_counts(monkeypatch):
    m = IndependentEntries(a11=Constant(0.4), a12=Lognormal(-1, 0.5),
                           a22=Uniform(0.2, 1.2), b1=Constant(1.0),
                           b2=Constant(1.0))
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TRISRE_WORKERS", workers)
        study = t.coupling_sum_moments(m, 1.5, [2, 4], 40_000,
                                       t.RngStream(37))
        assert study.mode == "weighted_mc"
        runs.append([s.to_dict() for s in study.snapshots + [study.window]])
    assert runs[0] == runs[1]


def test_weighted_mc_degenerates_on_long_horizons():
    m = IndependentEntries(a11=Constant(0.5), a12=Constant(1.0),
                           a22=Uniform(0.05, 1.5), b1=Constant(0.0),
                           b2=Constant(0.0))
    with pytest.raises(WeightDegenerate):
        t.coupling_sum_moments(m, 3.0, [120], 5000, t.RngStream(6))


@pytest.mark.parametrize("call", [
    lambda rng: t.coupling_sum_moments(mild_benchmark(), 2.0, [3], 0, rng),
    lambda rng: t.estimate_coupling_weight(mild_benchmark(), 2.0, 4, 0, rng),
    lambda rng: t.estimate_coupling_rate(rate_benchmark(), 2.0, 10, 0, rng),
    lambda rng: t.goldie_constant_perpetuity(
        Lognormal(-1, 1), t.law_steps(Lognormal(-1, 1), Constant(1.0)),
        2.0, 1.0, 0, rng),
    lambda rng: t.goldie_constant_direct(
        lambda m, r: (np.ones(m), np.ones(m), np.ones(m)), 2.0, 1.0, 0, rng,
        a_signed=False),
    lambda rng: t.tilted_offdiag_moments(
        EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0)), 2.0, N=0, rng=rng),
], ids=["coupling_sum_moments", "coupling_weight", "coupling_rate",
        "goldie_perpetuity", "goldie_direct", "offdiag_moments"])
def test_estimators_reject_zero_samples(call):
    with pytest.raises(ValueError, match="N must be >= 1"):
        call(t.RngStream(38))


def test_coupling_weight_zero_offdiagonal_is_zero():
    m = IndependentEntries(a11=Lognormal(-2, 1), a12=Constant(0.0),
                           a22=Lognormal(-1, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    snap = t.estimate_coupling_weight(m, 2.0, 20, 1000, t.RngStream(7))
    assert snap.k == 20
    assert snap.absolute.value == 0.0
    assert snap.plus.value == 0.0


def test_coupling_weight_constant_entries_deterministic():
    c, g, alpha = 0.8, 0.4, 1.7
    m = IndependentEntries(a11=Constant(c), a12=Constant(g), a22=Constant(c),
                           b1=Constant(0.0), b2=Constant(0.0))
    for n in (2, 6, 11):
        snap = t.estimate_coupling_weight(m, alpha, n, 50, t.RngStream(8))
        expected = (n * g * c ** (n - 1)) ** alpha
        assert snap.absolute.value == pytest.approx(expected, rel=1e-9)
        assert snap.minus.value == pytest.approx(0.0, abs=1e-12)


def test_coupling_weight_at_horizon_one_matches_offdiag_moment():
    # the conditioned scan's first step adds g(0) = E_t U^alpha2 on every
    # path, so at horizon one it reads the moment itself, with no spread
    m = tilt_benchmark()
    alpha2 = 2.0
    snap = t.estimate_coupling_weight(m, alpha2, 1, 200_000, t.RngStream(9))
    assert snap.k == 1
    target = t.abs_moment(Lognormal(-1, 0.5), alpha2)
    assert snap.absolute.value == pytest.approx(target, rel=1e-14)
    assert snap.absolute.se <= 1e-14 * target


def test_coupling_weight_requires_subcritical_first_diagonal():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    with pytest.raises(RegimeMismatch):
        t.estimate_coupling_weight(m, 4.0, 10, 100, t.RngStream(10))


def test_coupling_weight_monotone_for_nonnegative_entries():
    # the weight's own study, with its half-horizon gauge
    m = tilt_benchmark()
    study = t.coupling_sum_moments(m, 2.0, [20, 40], 100_000, t.RngStream(11))
    half, final = study.snapshots
    assert final == t.estimate_coupling_weight(m, 2.0, 40, 100_000,
                                               t.RngStream(11))
    assert final.absolute.value >= half.absolute.value \
        - 4 * combined_se(final.absolute, half.absolute)


def exact_cross_sum_second_moment(m, n: int) -> float:
    """Closed-form E M_n^2 for independent positive entries: expand the
    double sum over term pairs; every factor is a menu moment."""
    a11, a12, a22 = m.a11, m.a12, m.a22
    lam11 = t.abs_moment(a11, 2.0)
    lam22 = t.abs_moment(a22, 2.0)
    e11, e22, e12 = t.mean(a11), t.mean(a22), t.mean(a12)
    e12_2 = t.abs_moment(a12, 2.0)
    total = 0.0
    for i in range(1, n + 1):
        total += lam11 ** (i - 1) * e12_2 * lam22 ** (n - i)
        for j in range(i + 1, n + 1):
            total += (2 * lam11 ** (i - 1) * (e12 * e11)
                      * (e22 * e11) ** (j - i - 1) * (e22 * e12)
                      * lam22 ** (n - j))
    return total


def test_tilted_moments_match_direct_cross_sum_mc():
    # the whole point of the reweighting: at small n the plain estimator
    # is still usable and the two routes must agree (and match the exact
    # closed-form second moment)
    m = mild_benchmark()
    alpha2, n = 2.0, 5
    exact = exact_cross_sum_second_moment(m, n)
    tilted_est = t.estimate_coupling_weight(m, alpha2, n, 400_000,
                                            t.RngStream(12)).absolute
    direct = sample_cross_sum_batch(m, n, 1_000_000, t.RngStream(13))
    vals = np.abs(direct) ** alpha2
    direct_est = EstimateWithError(float(vals.mean()),
                                   float(vals.std() / math.sqrt(vals.size)),
                                   vals.size)
    assert abs(tilted_est.value - direct_est.value) <= \
        4 * combined_se(tilted_est, direct_est)
    assert abs(tilted_est.value - exact) <= 4 * tilted_est.se
    assert abs(direct_est.value - exact) <= 4 * direct_est.se


def test_offdiag_moments_proportional_closed_forms():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    mu, s2 = t.tilted_offdiag_moments(m, 2.0)
    assert mu.value == 0.0
    assert s2.value == pytest.approx(1.0, rel=1e-12)
    m2 = EqualDiagonal(d=Lognormal(-1, 1),
                       a12_mode=ProportionalToDiagonal(Constant(0.5)),
                       b1=Constant(1.0), b2=Constant(1.0))
    mu2, s22 = t.tilted_offdiag_moments(m2, 2.0)
    assert mu2.value == pytest.approx(0.5, rel=1e-12)
    assert s22.value == pytest.approx(0.25, rel=1e-12)


def test_offdiag_moments_independent_mode_mc_factorizes():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    mu, s2 = t.tilted_offdiag_moments(m, 2.0, N=400_000, rng=t.RngStream(14))
    assert abs(mu.value) <= 4 * mu.se
    # E[A12^2] * E[|A11|^{2-2}] = 1 * 1
    assert abs(s2.value - 1.0) <= 4 * s2.se


def test_offdiag_drift_draws_a_tiltable_diagonal_from_its_tilt():
    # at the index 7.97 the raw weights |d|^alpha of 1M draws have an
    # effective sample size of 26.6; drawn from the tilted law, every
    # draw carries the same weight E|d|^alpha and the sample is whole
    d = Lognormal(-1.34, 0.58)
    m = EqualDiagonal(d=d, a12_mode=IndependentOffDiagonal(Normal(-0.481, 0.279)),
                      b1=Constant(1.0), b2=Constant(1.0))
    alpha = t.solve_tail_index(d)
    mu, s2 = t.tilted_offdiag_moments(m, alpha, rng=t.RngStream(16))
    # E[|d|^alpha a12 / d] = E[a12] E[d^(alpha - 1)] for d > 0
    exact = -0.481 * t.abs_moment(d, alpha - 1.0)
    assert exact == pytest.approx(-0.149018, abs=1e-6)
    assert abs(mu.value - exact) <= 4 * mu.se
    # E[a12^2] E[d^(alpha - 2)]
    exact2 = (0.481 ** 2 + 0.279 ** 2) * t.abs_moment(d, alpha - 2.0)
    assert abs(s2.value - exact2) <= 4 * s2.se
    assert mu.n_samples == s2.n_samples == 1_000_000


def test_offdiag_moments_requires_equal_diagonal():
    with pytest.raises(RequiresEqualDiagonal):
        t.tilted_offdiag_moments(tilt_benchmark(), 2.0)


def test_offdiag_moments_closed_form_matches_weighted_mc():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0.3, 1.0)),
                      b1=Constant(1.0), b2=Constant(1.0))
    mu, s2 = t.tilted_offdiag_moments(m, 2.0)
    rng = t.RngStream(15)
    d = t.sample(Lognormal(-1, 1), rng, 400_000)
    xi = t.sample(Normal(0.3, 1.0), rng, 400_000)
    w = np.abs(d) ** 2.0
    mu_mc = (w * xi).mean()
    mu_se = (w * xi).std() / math.sqrt(d.size)
    s2_mc = (w * xi * xi).mean()
    s2_se = (w * xi * xi).std() / math.sqrt(d.size)
    assert abs(mu.value - mu_mc) <= 4 * mu_se
    assert abs(s2.value - s2_mc) <= 4 * s2_se


def test_clt_constant_values():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    assert t.clt_constant(m, 2.0).value == pytest.approx(1.0, rel=1e-9)
    m4 = EqualDiagonal(d=Lognormal(-1, 1),
                       a12_mode=ProportionalToDiagonal(Normal(0, 2)),
                       b1=Constant(1.0), b2=Constant(1.0))
    assert t.clt_constant(m4, 2.0).value == pytest.approx(4.0, rel=1e-9)
    # alpha = 1 with unit drift-derivative: d = exp(N(-1, 2))
    m1 = EqualDiagonal(d=Lognormal(-1, math.sqrt(2)),
                       a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                       b1=Constant(1.0), b2=Constant(1.0))
    alpha1 = t.solve_tail_index(Lognormal(-1, math.sqrt(2)))
    assert alpha1 == pytest.approx(1.0, abs=1e-9)
    assert t.abs_moment_derivative(Lognormal(-1, math.sqrt(2)), 1.0) == \
        pytest.approx(1.0, rel=1e-12)
    assert t.clt_constant(m1, 1.0).value == pytest.approx(
        math.sqrt(2 / math.pi), rel=1e-9)


def test_clt_constant_rejects_nonzero_drift():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Constant(0.5)),
                      b1=Constant(1.0), b2=Constant(1.0))
    with pytest.raises(RequiresMuZero):
        t.clt_constant(m, 2.0)


def test_weight_series_sums_the_builtin_grey_terms_to_its_horizon():
    # alpha2 = 2, the index of b2; q = max(E a11^2, E a22^2) = e^-1.02 =
    # 0.3606, and 13 is the first k with k q^(k-1) < 1e-4. The entries
    # are positive, so the negative part is exactly 0. The lognormal
    # ratio source is paired, and its scan is conditioned: the main run
    # takes from the pilot's 12.5k paths (6250 pairs) up to the 200k
    # (100k pairs) of a plain scan
    config = next(c for c in t.builtin_scenarios()
                  if c.name == "coord2_dominant_grey")
    exact = coord2_grey_weight_sum(config.model)
    for seed in (1, 2, 3):
        w = t.estimate_weight_series(config.model, 2.0, 200_000,
                                     t.RngStream(seed))
        assert w.k == 13
        pairs = w.absolute.n_samples
        assert 6250 <= pairs < 100_000
        assert w.minus == EstimateWithError(0.0, 0.0, pairs, w.minus.seed)
        assert abs(w.absolute.value - exact) <= 4 * w.absolute.se, seed


def test_perpetuity_sample_geometric_and_degenerate():
    # v = 0.5, u = 1: partial sums 2(1 - 2^{-n})
    m = IndependentEntries(a11=Constant(0.5), a12=Constant(1.0),
                           a22=Constant(1.0), b1=Constant(0.0),
                           b2=Constant(0.0))
    for n in (1, 3, 10):
        x = perpetuity_sample_batch(m, 2.0, n, 1, t.RngStream(16))[0]
        assert x == pytest.approx(2.0 * (1 - 2.0 ** (-n)), rel=1e-12)
    # v = 0: the sum collapses to its first term
    m0 = IndependentEntries(a11=Constant(0.0), a12=Constant(0.7),
                            a22=Constant(1.0), b1=Constant(0.0),
                            b2=Constant(0.0))
    assert perpetuity_sample_batch(m0, 2.0, 5, 1, t.RngStream(17))[0] == \
        pytest.approx(0.7, rel=1e-15)


def test_perpetuity_sample_requires_exact_tilt():
    m = IndependentEntries(a11=Constant(0.5), a12=Constant(1.0),
                           a22=Uniform(0.1, 1.0), b1=Constant(0.0),
                           b2=Constant(0.0))
    with pytest.raises(RequiresExactTilt):
        perpetuity_sample_batch(m, 2.0, 3, 1, t.RngStream(18))


def test_coupling_weight_weighted_fallback_for_untiltable_diagonal():
    m = IndependentEntries(a11=Constant(0.4), a12=Lognormal(-1, 0.5),
                           a22=Uniform(0.2, 1.2), b1=Constant(1.0),
                           b2=Constant(1.0))
    alpha2 = 1.5
    # the weight's own study at n = 3 and its half-horizon gauge 1
    study = t.coupling_sum_moments(m, alpha2, [1, 3], 400_000, t.RngStream(30))
    assert study.mode == "weighted_mc"
    assert study.final() == t.estimate_coupling_weight(m, alpha2, 3, 400_000,
                                                       t.RngStream(30))
    # horizon-1 snapshot: E|M_1|^alpha = E|a12|^alpha
    first = study.snapshots[0]
    assert first.k == 1
    target = t.abs_moment(Lognormal(-1, 0.5), alpha2)
    assert abs(first.absolute.value - target) <= 4 * first.absolute.se
    with pytest.raises(WeightDegenerate):
        t.estimate_coupling_weight(m, alpha2, 200, 5000, t.RngStream(31))


def rate_benchmark():
    return IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-2, math.sqrt(2)),
                              b1=Constant(1.0), b2=Constant(1.0))


def test_coupling_rate_guards():
    with pytest.raises(RegimeMismatch):
        # equal diagonals have their own limit laws
        m = EqualDiagonal(d=Lognormal(-1, 1),
                          a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                          b1=Constant(1.0), b2=Constant(1.0))
        t.estimate_coupling_rate(m, 2.0, 10, 100, t.RngStream(19))
    with pytest.raises(RegimeMismatch):
        # indices differ: not at the shared critical exponent
        t.estimate_coupling_rate(tilt_benchmark(), 2.0, 10, 100,
                                 t.RngStream(20))


def test_coupling_rate_converges_between_horizons():
    # the rate is the growth over the window (b, b + n/2] of one study at
    # the burn-in b and the horizon b + n/2; the full average
    # (alpha k)^{-1} E|M_k|^alpha at that horizon still carries the
    # start-up transient, about 0.4% here, and agrees with it
    alpha, n = 2.0, 200
    b = _rate_burn_in(rate_benchmark(), alpha, n // 2)
    assert b == 3
    study = t.coupling_sum_moments(rate_benchmark(), alpha, [b, b + n // 2],
                                   50_000, t.RngStream(21))
    rate = t.estimate_coupling_rate(rate_benchmark(), alpha, n, 50_000,
                                    t.RngStream(21))
    assert rate == study.rate(alpha)
    assert rate.k == b + n // 2
    a_n = study.final().scaled(1.0 / (alpha * rate.k)).absolute
    slack = 4 * combined_se(a_n, rate.absolute) + 0.05 * abs(a_n.value)
    assert abs(a_n.value - rate.absolute.value) <= slack
    # all-positive entries: negative side vanishes
    assert rate.minus.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n, horizon", [(400, 202), (200, 103)],
                         ids=["full", "quick"])
def test_coupling_rate_burns_in_as_long_as_its_bias_bound_needs(n, horizon):
    # the built-in mn_horizon at full and quick size: the window keeps its
    # n/2 steps, after a burn-in of 2 and 3 steps
    config = next(c for c in t.builtin_scenarios(quick=n == 200)
                  if c.name == "distinct_diag_equal_index")
    assert config.mn_horizon == n
    rate = t.estimate_coupling_rate(config.model, 2.0, n, 100,
                                    t.RngStream(54))
    assert rate.k == horizon


def test_rate_needs_two_horizons():
    study = t.coupling_sum_moments(rate_benchmark(), 2.0, [5], 100,
                                   t.RngStream(45))
    assert study.window is None
    with pytest.raises(ValueError, match="two horizons"):
        study.rate(2.0)


def test_coupling_rate_matches_tail_of_ratio_perpetuity():
    # independent check of the per-step rate against the stationary tail
    # of the reweighted ratio recursion: rate ~ drift * P(X > x) x^alpha
    model = rate_benchmark()
    alpha = 2.0
    rate = t.estimate_coupling_rate(model, alpha, 200, 100_000,
                                    t.RngStream(22))
    drift = lognormal_ratio_log_drift(model, alpha)
    assert drift == pytest.approx(3.0, rel=1e-12)
    x = perpetuity_sample_batch(model, alpha, 60, 400_000, t.RngStream(24))
    q = np.quantile(np.abs(x), 0.999)
    p_tail = float(np.mean(np.abs(x) > q))
    cross = drift * p_tail * q ** alpha
    ratio = cross / rate.absolute.value
    assert 0.5 <= ratio <= 2.0


def lognormal_moment(law, k: float) -> float:
    """E X^k for X = Lognormal(mu, sigma), any real k."""
    return math.exp(k * law.mu + 0.5 * (k * law.sigma) ** 2)


def scan_second_moment(ev, ev2, eu, eu2, evu, n: int) -> float:
    """E X_n^2 for X_k = V_k X_{k-1} + U_k from X_0 = 0, with (V_k, U_k)
    i.i.d.: E X_k = E V E X_{k-1} + E U and
    E X_k^2 = E V^2 E X_{k-1}^2 + 2 E[VU] E X_{k-1} + E U^2."""
    m1 = m2 = 0.0
    for _ in range(n):
        m1, m2 = ev * m1 + eu, ev2 * m2 + 2.0 * evu * m1 + eu2
    return m2


def tilted_ratio_moments(model) -> dict:
    """Moments of the ratio pair (V, U) = (a11/a22, a12/a22) under the
    2-tilt of a22 for lognormal entries, as scan_second_moment takes them."""
    a22 = t.tilted(model.a22, 2.0)

    def e(law, k):
        return lognormal_moment(law, k)

    return dict(
        ev=e(model.a11, 1) * e(a22, -1), ev2=e(model.a11, 2) * e(a22, -2),
        eu=e(model.a12, 1) * e(a22, -1), eu2=e(model.a12, 2) * e(a22, -2),
        evu=e(model.a11, 1) * e(model.a12, 1) * e(a22, -2))


def test_strict_coupling_scan_matches_closed_form_at_alpha_two():
    # coord2_dominant_kg: the tilted ratio V = LN(-3, sqrt 2) has
    # E V^3 = 1, so |X|^2 has tail index 1.5 and a per-path mean of
    # |X_n|^2 would have infinite variance; the contracted scan does not
    model = next(c.model for c in t.builtin_scenarios(quick=True)
                 if c.name == "coord2_dominant_kg")
    alpha, n = 2.0, 30
    assert t.abs_moment(model.a22, alpha) == pytest.approx(1.0, rel=1e-12)
    exact = scan_second_moment(n=n, **tilted_ratio_moments(model))
    study = t.coupling_sum_moments(model, alpha, [n], 200_000, t.RngStream(32))
    assert study.mode == "plain"
    snap = study.final().absolute
    assert abs(snap.value - exact) <= 4 * snap.se
    assert study.final().minus.value == pytest.approx(0.0, abs=1e-12)


def test_perpetuity_sample_mean_matches_closed_form():
    # coord2_dominant_kg's tilted ratio pair: E X_k = E V E X_{k-1} + E U
    model = next(c.model for c in t.builtin_scenarios(quick=True)
                 if c.name == "coord2_dominant_kg")
    alpha, n = 2.0, 30
    a22 = t.tilted(model.a22, alpha)
    ev = lognormal_moment(model.a11, 1) * lognormal_moment(a22, -1)
    eu = lognormal_moment(model.a12, 1) * lognormal_moment(a22, -1)
    exact = 0.0
    for _ in range(n):
        exact = ev * exact + eu
    x = perpetuity_sample_batch(model, alpha, n, 200_000, t.RngStream(34))
    assert abs(x.mean() - exact) <= 4 * x.std() / math.sqrt(x.size)


def test_strict_perpetuity_scan_matches_closed_form_at_alpha_two():
    # E A^2 = e^-1 < 1 but E A^4 = e^2 > 1: strictly contracting at
    # alpha = 2, with infinite-variance |X_n|^2
    a_law, b_law = Lognormal(-1.5, 1.0), Lognormal(0.0, 0.5)
    alpha, n = 2.0, 30
    ea, ea2 = lognormal_moment(a_law, 1), lognormal_moment(a_law, 2)
    eb, eb2 = lognormal_moment(b_law, 1), lognormal_moment(b_law, 2)
    exact = scan_second_moment(ea, ea2, eb, eb2, ea * eb, n)
    # the scan behind goldie_constant_perpetuity at an explicit horizon
    lam, gamma = _scan_factors(t.abs_moment(a_law, alpha),
                               t.sign_moment(a_law, alpha), "E|A|^alpha")
    study = _study_from_pairs(t.law_steps(a_law, b_law), alpha, [n // 2, n],
                              200_000, t.RngStream(33), lam,
                              step_moment=1.0, gamma=gamma)
    snap = study.final().absolute
    assert abs(snap.value - exact) <= 4 * snap.se
    assert study.final().minus.value == pytest.approx(0.0, abs=1e-12)


def builtin_model(name: str):
    return next(c.model for c in t.builtin_scenarios(quick=True)
                if c.name == name)


def test_lognormal_ratio_pair_has_the_bivariate_normal_log_law():
    # coord2_dominant_kg under the alpha = 2 tilt of a22: log V = N11 - N22'
    # and log U = N12 - N22' share the tilted a22's log-variance. Partners
    # are dependent, so the moments and their SEs come from one half
    model = builtin_model("coord2_dominant_kg")
    a22 = t.tilted(model.a22, 2.0)
    source = _vu_steps(model, 2.0)
    assert source.paired
    v, u = next(source(800_000, t.RngStream(40)))
    lv, lu = np.log(v), np.log(u)
    mu_v, mu_u = model.a11.mu - a22.mu, model.a12.mu - a22.mu
    # path i + h mirrors path i about the mean of the log pair
    np.testing.assert_allclose(lv[400_000:], 2 * mu_v - lv[:400_000],
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(lu[400_000:], 2 * mu_u - lu[:400_000],
                               rtol=0, atol=1e-12)
    lv, lu = lv[:400_000], lu[:400_000]
    c22 = a22.sigma ** 2
    cases = (
        (lv, mu_v),
        (lu, mu_u),
        ((lv - lv.mean()) ** 2, model.a11.sigma ** 2 + c22),
        ((lu - lu.mean()) ** 2, model.a12.sigma ** 2 + c22),
        ((lv - lv.mean()) * (lu - lu.mean()), c22),
    )
    for vals, exact in cases:
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 4 * se, (vals.mean(), exact)


def test_lognormal_ratio_pair_draws_one_normal_per_path_step():
    # 1000 paths are 500 antithetic pairs: the first step of each block of
    # B steps draws the block's B * 2 * 500 normals in one call
    model = builtin_model("distinct_diag_equal_index")
    rows = dist.step_block(1000)
    assert rows > 1
    for steps, blocks in ((1, 1), (rows, 1), (rows + 1, 2)):
        used, ref = t.RngStream(41), t.RngStream(41)
        source = _vu_steps(model, 2.0)(1000, used)
        for _ in range(steps):
            next(source)
        ref.gen.standard_normal((blocks * rows, 2, 500))
        np.testing.assert_array_equal(used.gen.random(8), ref.gen.random(8))
    with pytest.raises(ValueError, match="even"):
        next(_vu_steps(model, 2.0)(999, t.RngStream(41)))


@pytest.mark.parametrize("m", [1000, 5000])
def test_blocked_step_sources_yield_their_per_step_arrays(m):
    # a law of one draw per value, drawn for a block of steps in one call,
    # consumes its stream as one call per step would: three whole blocks
    # and one step of a fourth are bit-identical to the per-step sources
    model = builtin_model("distinct_diag_equal_index")
    tilted = dist.tilted(model.a22, 2.0)
    pairs = [(t.law_steps(a, b), per_step_law_steps(a, b)) for a, b in (
        (Lognormal(-1, 1), Constant(1.0)),
        (Normal(0.5, 1), Constant(-2.0)),
        (Scaled(Uniform(0, 1), 2.0), Constant(0.5)))]
    pairs.append((_vu_steps(model, 2.0),
                  per_step_lognormal_vu_steps(model.a11, model.a12, tilted)))
    n = 3 * dist.step_block(m) + 1
    for blocked, per_step in pairs:
        assert (blocked.signed, blocked.paired) == (per_step.signed,
                                                    per_step.paired)
        steps = 0
        for got, want in zip(islice(blocked(m, t.RngStream(43)), n),
                             islice(per_step(m, t.RngStream(43)), n)):
            assert len(got) == len(want) == 2
            for a, b in zip(got, want):
                assert a.shape == (m,)
                np.testing.assert_array_equal(a, b)
            steps += 1
        assert steps == n


def test_lognormal_fast_path_matches_generic_ratio_draws(monkeypatch):
    # Scaled(., 1.0) keeps the law of a22 but routes the study through the
    # three-draw sampler
    model = builtin_model("distinct_diag_equal_index")
    generic = dataclasses.replace(model, a22=Scaled(model.a22, 1.0))
    fast = t.coupling_sum_moments(model, 2.0, [30], 100_000, t.RngStream(42))
    slow = t.coupling_sum_moments(generic, 2.0, [30], 100_000, t.RngStream(42))
    assert fast.mode == slow.mode == "telescoped"
    for key in ("absolute", "plus"):
        a, b = getattr(fast.final(), key), getattr(slow.final(), key)
        assert a.value != b.value
        assert abs(a.value - b.value) <= 4 * combined_se(a, b)
    # V, U > 0: the telescoped scan's negative part is exactly 0
    assert fast.final().minus.value == slow.final().minus.value == 0.0
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TRISRE_WORKERS", workers)
        study = t.coupling_sum_moments(model, 2.0, [30], 100_000,
                                       t.RngStream(42))
        runs.append(study.final().to_dict())
    assert runs[0] == runs[1] == fast.final().to_dict()


def _nonnegative_sources():
    """name: (source, alpha) of step sources that yield no negative v or u."""
    kg = builtin_model("coord1_dominant_kg")
    distinct = builtin_model("distinct_diag_equal_index")
    untiltable = IndependentEntries(a11=Constant(0.4), a12=Lognormal(-1, 0.5),
                                    a22=Uniform(0.2, 1.2), b1=Constant(1.0),
                                    b2=Constant(1.0))
    drift = EqualDiagonal(d=Lognormal(-1, 1),
                          a12_mode=ProportionalToDiagonal(Constant(0.5)),
                          b1=Constant(1.0), b2=Constant(1.0))
    return {
        "lognormal": (_vu_steps(distinct, 2.0), 2.0),
        "generic": (_vu_steps(dataclasses.replace(
            distinct, a22=Scaled(distinct.a22, 1.0)), 2.0), 2.0),
        "law": (t.law_steps(Lognormal(-1, 1), Constant(1.0)), 2.0),
        "coord1": (t.coord1_steps(kg), 2.0),
        "equal_diagonal": (_vu_steps(drift, 2.0), 2.0),
        "weighted_mc": (_vu_steps(untiltable, 1.5), 1.5),
    }


@pytest.mark.parametrize("name, contraction, step_moment", [
    ("lognormal", 1.0, 0.8), ("generic", 0.9, 1.0), ("law", 1.0, 1.0),
    ("coord1", 0.95, 1.1), ("equal_diagonal", 1.0, 1.0),
    ("weighted_mc", 0.5, 1.2)])
def test_single_accumulator_scan_matches_the_sign_split(name, contraction,
                                                        step_moment):
    # a nonnegative source scans one accumulator; the same steps through
    # a source that declares itself signed take the sign split, and every
    # snapshot and the window agree bit for bit, over two chunks. The
    # split is plain, so a ratio source's table is dropped: with it the
    # unsigned scan would be conditioned
    source, alpha = _nonnegative_sources()[name]
    assert not source.signed
    source = dataclasses.replace(source, table=None)
    split = dataclasses.replace(source, signed=True)
    runs = [_study_from_pairs(s, alpha, [3, 8], 20_000, t.RngStream(43),
                              contraction, step_moment, contraction)
            for s in (source, split)]
    assert runs[0].mode == runs[1].mode
    for a, b in zip(runs[0].snapshots + [runs[0].window],
                    runs[1].snapshots + [runs[1].window]):
        assert a == b
        assert a.plus.value != 0.0 and a.minus.value == 0.0 == a.minus.se
        # a paired source's SE and sample count refer to pairs
        assert a.absolute.n_samples == (10_000 if source.paired else 20_000)


def test_paired_scan_takes_its_se_from_pair_means():
    # halves that are exact copies: each pair mean is one path's value, so
    # the pair SE is sqrt 2 times the SE of the same values read as
    # independent paths. 20k paths are two chunks of 10k paths (5k pairs)
    # either way, so both reads scan the same values
    base = t.law_steps(Lognormal(-1.5, 1.0), Lognormal(0.0, 0.5))

    def copies(m, rng):
        for a, b in base(m // 2, rng):
            yield np.tile(a, 2), np.tile(b, 2)

    paired = StepSource(copies, base.signed, paired=True)
    per_path = StepSource(copies, base.signed)
    lam = t.abs_moment(Lognormal(-1.5, 1.0), 2.0)
    runs = [_study_from_pairs(s, 2.0, [5, 10], 20_000, t.RngStream(46), lam,
                              1.0, lam) for s in (paired, per_path)]
    for a, b in zip(runs[0].snapshots + [runs[0].window],
                    runs[1].snapshots + [runs[1].window]):
        pa, pb = a.absolute, b.absolute
        assert pa.value == pb.value
        assert pa.se == pytest.approx(math.sqrt(2.0) * pb.se, rel=1e-14)
        assert (pa.n_samples, pb.n_samples) == (10_000, 20_000)


def test_paired_scan_rounds_an_odd_path_count_up_to_whole_pairs():
    # the plain scan of the paired source, without its table
    source = dataclasses.replace(
        _vu_steps(builtin_model("distinct_diag_equal_index"), 2.0),
        table=None)
    study = _study_from_pairs(source, 2.0, [4], 2 * CHUNK + 1,
                              t.RngStream(47), 1.0, 1.0, 1.0)
    assert study.final().absolute.n_samples == CHUNK + 1


def exact_window_rate(model, start: int, width: int) -> float:
    """The alpha = 2 coupling rate over the window (start, start + width]:
    the growth of E_t X_k^2 there, halved."""
    moments = tilted_ratio_moments(model)
    growth = (scan_second_moment(n=start + width, **moments)
              - scan_second_moment(n=start, **moments)) / width
    return growth / 2.0


def limit_rate(model) -> float:
    """lim (2k)^-1 E_t X_k^2 = (E_t U^2 + 2 E_t[VU] E_t X) / 2, with
    E_t X = E_t U / (1 - E_t V)."""
    m = tilted_ratio_moments(model)
    return (m["eu2"] + 2.0 * m["evu"] * m["eu"] / (1.0 - m["ev"])) / 2.0


def slow_rate_model():
    # a11 and a22 share the law LN(-0.105, sqrt 0.105), so E a^2 = 1, and
    # the tilted ratio couples at E_t V = e^-0.105 = 0.900 per step
    a = Lognormal(-0.105, math.sqrt(0.105))
    return IndependentEntries(a11=a, a12=Lognormal(-1, 0.5), a22=a,
                              b1=Constant(1.0), b2=Constant(1.0))


@pytest.mark.parametrize("model, r, burn_in", [
    (builtin_model("distinct_diag_equal_index"), math.exp(-1.5), 2),
    (slow_rate_model(), math.exp(-0.105), 38)], ids=["builtin", "slow_ratio"])
def test_rate_burn_in_bounds_the_exact_window_bias(model, r, burn_in):
    # at alpha = 2 the window bias of the ratio recursion is exact from its
    # moment recursion; it stays inside the envelope the burn-in is sized
    # by at every burn-in (down to 1e-9, above the recursion's rounding),
    # and the chosen one is the first within 1e-3
    assert t.classify(model).theorem_case == "distinct_diag_equal_index"
    assert tilted_ratio_moments(model)["ev"] == pytest.approx(r, rel=1e-12)
    limit = limit_rate(model)
    for width in (10, 100, 200):
        b = 1
        while (envelope := _window_bias(r, b - 1, width)) > 1e-9:
            bias = exact_window_rate(model, b, width) / limit - 1.0
            assert -envelope <= bias < 0.0, (width, b)
            b += 1
        b = _rate_burn_in(model, 2.0, width)
        assert _window_bias(r, b - 1, width) <= _WINDOW_BIAS
        assert b == 1 or _window_bias(r, b - 2, width) > _WINDOW_BIAS
    assert _rate_burn_in(model, 2.0, 200) == burn_in
    if burn_in == 2:
        # the full-size window (2, 202] reads 1.0e-4 low
        bias = exact_window_rate(model, 2, 200) / limit - 1.0
        assert bias == pytest.approx(-1.0e-4, abs=1e-5)


def test_rate_burn_in_refuses_past_its_cap():
    # E_t V = e^-0.001: a bias below 1e-3 would need thousands of steps
    a = Lognormal(-0.001, math.sqrt(0.001))
    m = IndependentEntries(a11=a, a12=Lognormal(-1, 0.5), a22=a,
                           b1=Constant(1.0), b2=Constant(1.0))
    with pytest.raises(RegimeMismatch, match="burn-in beyond 1000"):
        t.estimate_coupling_rate(m, 2.0, 400, 100, t.RngStream(55))


def test_coupling_rate_matches_the_exact_window_rate_at_a_short_horizon():
    # distinct_diag_equal_index at alpha = 2: the rate over the window that
    # runs, (b, b + n/2], of E_t X_k^2, X_k = V_k X_{k-1} + U_k under the
    # tilt of a22, is exact from the moment recursion; the antithetic
    # conditioned scan's pair SE must cover it. Its main run takes from
    # the pilot's 12.5k paths (6250 pairs) up to the plain scan's 200k
    model = builtin_model("distinct_diag_equal_index")
    assert limit_rate(model) == pytest.approx(0.161476, abs=5e-7)
    assert exact_window_rate(model, 2, 200) == pytest.approx(0.161460,
                                                             abs=5e-7)
    n = 40
    b = _rate_burn_in(model, 2.0, n // 2)
    exact = exact_window_rate(model, b, n // 2)
    for seed in (51, 52, 53):
        rate = t.estimate_coupling_rate(model, 2.0, n, 200_000,
                                        t.RngStream(seed))
        assert rate.k == b + n // 2
        assert 6250 <= rate.absolute.n_samples < 100_000
        assert abs(rate.absolute.value - exact) <= 4 * rate.absolute.se, seed


def test_step_sources_flag_every_law_that_can_go_negative():
    ln, c1 = Lognormal(-1, 1), Constant(1.0)
    signed = [
        _vu_steps(IndependentEntries(a11=SignedLognormal(-1, 1, 0.7),
                                     a12=Lognormal(-1, 0.5), a22=ln,
                                     b1=c1, b2=c1), 2.0),
        _vu_steps(EqualDiagonal(d=ln,
                                a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                                b1=c1, b2=c1), 2.0),
        t.law_steps(ln, Normal(1, 1)),
        t.coord1_steps(IndependentEntries(a11=ln, a12=Lognormal(-1, 0.5),
                                          a22=Lognormal(-2, 1), b1=c1,
                                          b2=Normal(1, 1))),
    ]
    assert all(s.signed for s in signed)
    # those flagged nonnegative yield no negative v, u (or weight)
    for name, (source, _) in _nonnegative_sources().items():
        assert not source.signed
        for arrays in islice(source(1000, t.RngStream(44)), 100):
            assert all(np.all(a >= 0) for a in arrays), name


# ---------------------------------------------------------------------------
# Conditioned scans: the increment table and the two-stage run
# ---------------------------------------------------------------------------

def _table_at(table, offset: float) -> np.ndarray:
    """x at every node of the table's grid (offset 0), or at the given
    share of the way to the next node."""
    rows = table.coef.shape[1]
    return np.exp(table.start + (np.arange(rows) + offset) * table.step)


def _read(table, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    assert table.fill(x, out).size == 0
    return out


def _exact_mean_increment(model, alpha: float, x: np.ndarray) -> np.ndarray:
    """g(x) at alpha = 1 or 2 for positive entries: E(a11 x + a12)^alpha /
    E a22^alpha - m x^alpha, with m = E a11^alpha / E a22^alpha expanded
    out, so only the cross terms remain."""
    lam22 = t.abs_moment(model.a22, alpha)
    if alpha == 1.0:
        return np.full_like(x, t.mean(model.a12) / lam22)
    return (2 * t.mean(model.a11) * t.mean(model.a12) * x
            + t.abs_moment(model.a12, 2.0)) / lam22


@pytest.mark.parametrize("name", ["distinct_diag_equal_index",
                                  "coord2_dominant_kg"])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_increment_table_matches_the_exact_mean_increment(name, alpha):
    # the table holds g(x) = E[z_k | X_{k-1} = x] with the step moment m;
    # the scan's contraction c is m off the critical band, where the form
    # E(a11 x + a12)^a / E a22^a - c x^a is the same function. At
    # alpha = 1 log g is constant and the cubic reads it exactly anywhere;
    # at alpha = 2 it is exact at the nodes, and between them within the
    # stated bound 3/1024 step^4 (the softplus shape of log g)
    model = builtin_model(name)
    table = _vu_steps(model, alpha).table
    assert table.alpha == alpha
    assert table.at_zero == pytest.approx(
        t.abs_moment(model.a12, alpha) / t.abs_moment(model.a22, alpha),
        rel=1e-15)
    x = _table_at(table, 0.0)
    np.testing.assert_allclose(_read(table, x),
                               _exact_mean_increment(model, alpha, x),
                               rtol=1e-10, atol=0)
    x = _table_at(table, 0.5)
    err = np.abs(_read(table, x) / _exact_mean_increment(model, alpha, x)
                 - 1.0).max()
    if alpha == 1.0:
        assert err <= 1e-10
    else:
        assert 1e-8 < err <= 3 / 1024 * table.step ** 4


def test_increment_table_interpolation_error_falls_with_the_fourth_power(
        monkeypatch):
    # halving the grid step cuts the cubic's error 16-fold, and each
    # error stays within its bound 3/1024 step^4 at alpha = 2
    model = builtin_model("distinct_diag_equal_index")
    errors = []
    for step in (0.125, 0.0625):
        monkeypatch.setattr(tilting, "_TABLE_STEP", step)
        table = _vu_steps(model, 2.0).table
        assert table.step == step
        x = _table_at(table, 0.5)
        err = np.abs(_read(table, x) / _exact_mean_increment(model, 2.0, x)
                     - 1.0).max()
        assert err <= 3 / 1024 * step ** 4
        errors.append(err)
    assert 12.0 <= errors[0] / errors[1] <= 20.0


def test_increment_table_matches_a_plain_mean_at_alpha_one_and_a_half():
    # off the integer indices g has no closed form: at a fixed x it is the
    # mean of the plain increment over one step's draws. The three-draw
    # source (a22 scaled by 1) keeps the draws independent across paths
    model = builtin_model("distinct_diag_equal_index")
    generic = dataclasses.replace(model, a22=Scaled(model.a22, 1.0))
    alpha = 1.5
    source = _vu_steps(generic, alpha)
    assert not source.paired and source.table is not None
    v, u = next(source(1_000_000, t.RngStream(60)))
    for log_x in (-3.0, 0.0, 3.0):
        x = math.exp(log_x)
        z = (v * x + u) ** alpha - (v * x) ** alpha
        g = _read(source.table, np.array([x]))[0]
        se = z.std() / math.sqrt(z.size)
        assert abs(g - z.mean()) <= 4 * se, log_x


def test_paths_off_a_narrow_grid_take_the_plain_increment(monkeypatch):
    # a grid one unit of log x either side of its centre: fill reports
    # every x outside [start, start + rows step), and the scan adds those
    # paths' plain increments; the conditioned E X_8^2 stays unbiased
    monkeypatch.setattr(tilting, "_TABLE_HALF_WIDTH", 1.0)
    model = builtin_model("distinct_diag_equal_index")
    source = _vu_steps(model, 2.0)
    table = source.table
    rows = table.coef.shape[1]
    assert rows == 16
    x = np.exp(table.start + table.step * np.array([-1.0, 0.0, 8.5, 15.9,
                                                    16.0, 30.0]))
    out = np.empty_like(x)
    assert table.fill(x, out).tolist() == [0, 4, 5]
    exact = scan_second_moment(n=8, **tilted_ratio_moments(model))
    study = t.coupling_sum_moments(model, 2.0, [8], 200_000, t.RngStream(61))
    assert study.conditioned
    snap = study.final().absolute
    assert abs(snap.value - exact) <= 4 * snap.se


def test_a_grid_no_path_reaches_gives_the_plain_scan_bit_for_bit():
    # every step after the first is off the grid, and the first step's
    # g(0) = 1 is the plain increment of u = 1 from X_0 = 0: the pilot
    # reads a variance ratio of 1, so the main run takes all N paths on
    # the plain scan's stream, and every estimate is the plain one
    base = t.law_steps(Lognormal(-1.5, 1.0), Constant(1.0))
    unreachable = tilting.IncrementTable(2.0, 1.0, 700.0, 1.0,
                                         np.zeros((4, 1)))
    lam = t.abs_moment(Lognormal(-1.5, 1.0), 2.0)
    runs = [_study_from_pairs(s, 2.0, [3, 9], 40_000, t.RngStream(62), lam,
                              1.0, lam)
            for s in (base, dataclasses.replace(base, table=unreachable))]
    assert [r.conditioned for r in runs] == [False, True]
    for a, b in zip(runs[0].snapshots + [runs[0].window, runs[0].total],
                    runs[1].snapshots + [runs[1].window, runs[1].total]):
        assert a == b
        assert a.absolute.n_samples == 40_000


def test_a_source_without_a_rule_runs_the_plain_scan_on_every_path():
    # a Uniform a12 has no quadrature rule: no table, and the scan is the
    # plain one on all N paths, as before conditioning existed
    m = IndependentEntries(a11=Lognormal(-2, 1), a12=Uniform(0.2, 1.0),
                           a22=Lognormal(-1, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    assert _vu_steps(m, 2.0).table is None
    study = t.coupling_sum_moments(m, 2.0, [5, 10], 30_001, t.RngStream(63))
    assert not study.conditioned and study.mode == "plain"
    for snap in study.snapshots + [study.window, study.total]:
        assert snap.absolute.n_samples == 30_001


def test_conditioned_main_run_is_the_same_at_any_worker_count(monkeypatch):
    # 640k paths: the pilot's 40k paths are 20k pairs in three chunks, and
    # the main run at least as many; its size and every estimate are the
    # same at one and two workers
    model = builtin_model("distinct_diag_equal_index")
    runs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("TRISRE_WORKERS", workers)
        study = t.coupling_sum_moments(model, 2.0, [2, 30], 640_000,
                                       t.RngStream(64))
        assert study.conditioned
        runs.append([s.to_dict() for s in
                     study.snapshots + [study.window, study.total]])
    assert runs[0] == runs[1]
    assert 20_000 <= runs[0][0]["absolute"]["n_samples"] < 320_000


def test_weight_series_se_is_that_of_the_per_path_total():
    # the series is the study's total, whose SE counts the shared paths;
    # the snapshots' SEs in quadrature understate it, since every snapshot
    # of a path grows from the same draws
    config = next(c for c in t.builtin_scenarios(quick=True)
                  if c.name == "coord2_dominant_grey")
    w = t.estimate_weight_series(config.model, 2.0, 20_000, t.RngStream(65))
    study = t.coupling_sum_moments(config.model, 2.0, list(range(1, 14)),
                                   20_000, t.RngStream(65))
    assert w == study.total
    assert w.absolute.value == pytest.approx(
        sum(s.absolute.value for s in study.snapshots), rel=1e-12)
    quadrature = math.sqrt(sum(s.absolute.se ** 2 for s in study.snapshots))
    assert w.absolute.se > quadrature
