"""Empirical tails, Hill, log-factor regression, scalar tail constants."""
import math
import sys
import threading

import numpy as np
import pytest

import trisre as t
from trisre import Constant, IndependentEntries, Lognormal, SignedLognormal
from trisre.errors import (ArgumentOutOfRange, DegenerateTail,
                           InsufficientSupport, NonPositiveOrderStat)
from trisre.errors import RegimeMismatch
from trisre.estimates import EstimateWithError
from trisre.scenarios import (_GOLDIE_HORIZON, AsymptoticPrediction,
                              _goldie_horizon, _tail_constant_fit,
                              _window_bias)
from trisre.tails import (EmpiricalTail, TailSelection, ccdf, ccdf_se,
                          default_log_grid, hill, hill_depth,
                          log_factor_regression, log_grid_depth)

from oracles import (combined_se, coord1_window_bias,
                     goldie_constant_direct_for_laws)


def test_ccdf_examples():
    tail = EmpiricalTail(np.array([3.0, 2.0, 1.0]), "positive")
    assert ccdf(tail, 1.5) == pytest.approx(2.0 / 3.0)
    assert ccdf(tail, 0.0) == 1.0
    assert ccdf(tail, 5.0) == 0.0


def test_read_depths_at_a_million_samples():
    # the Hill fit reads the top 10^4, the log grid from the 0.90 quantile
    assert hill_depth(1_000_000) + 1 == 10_000
    assert log_grid_depth(1_000_000) == 100_001
    assert hill_depth(3) == 2 and log_grid_depth(3) == 2


def test_selection_keeps_the_top_values_in_any_chunk_order():
    # one sample a chain, the chain id its position
    x = np.array([5.0, -7.0, 1.0, 3.0, -2.0, 9.0, 3.0, 0.5])
    ids, sizes = np.arange(x.size), np.ones(x.size, dtype=np.int64)
    for pieces in ([ids], [ids[:3], ids[3:]], [ids[5:], ids[:2], ids[2:5]]):
        selection = TailSelection("absolute", 4)
        for piece in pieces:
            selection.add(x[piece], piece)
        tail = selection.tail(sizes)
        assert tail.count == 8 and tail.convention == "absolute"
        np.testing.assert_array_equal(tail.values, [9.0, 7.0, 5.0, 3.0])
        np.testing.assert_array_equal(tail.chains, [5, 1, 0, 6])
    negative = TailSelection("negative", 3)
    negative.add(x, ids)
    np.testing.assert_array_equal(negative.tail(sizes).values,
                                  [7.0, 2.0, -0.5])


def test_selection_reads_below_the_kept_depth_raise():
    g = t.RngStream(9).gen
    x = g.random(20_000) ** -0.5
    full = EmpiricalTail(x, "positive")
    ids = np.arange(x.size)
    shallow = TailSelection("positive", 50)
    shallow.add(x, ids)
    tail = shallow.tail(full.chain_sizes)
    assert hill(tail, 49) == hill(full, 49)
    with pytest.raises(ValueError, match="top 51 order statistics"):
        hill(tail, 50)
    with pytest.raises(ValueError, match="keeps 50 of 20000"):
        default_log_grid(tail)
    floor = tail.values[-1]
    assert ccdf(tail, floor) == ccdf(full, floor) == 49 / 20_000
    with pytest.raises(ValueError, match="below the 50 kept"):
        ccdf(tail, np.nextafter(floor, 0.0))
    # one value short of the log grid's depth raises; at it, the grid and
    # the regression are the full sample's
    for keep, ok in ((log_grid_depth(20_000) - 1, False),
                     (log_grid_depth(20_000), True)):
        selection = TailSelection("positive", keep)
        selection.add(x, ids)
        selected = selection.tail(full.chain_sizes)
        if not ok:
            with pytest.raises(ValueError):
                default_log_grid(selected)
            continue
        grid = default_log_grid(selected)
        np.testing.assert_array_equal(grid, default_log_grid(full))
        assert log_factor_regression(selected, 2.0, grid) == \
            log_factor_regression(full, 2.0, grid)


def test_selection_loses_no_chunk_added_from_many_threads():
    # more threads than cores and a short switch interval: a lost update
    # of count or of the kept values would show against the full sample
    x = t.RngStream(10).gen.standard_normal(64 * 500)
    pieces = np.split(np.arange(x.size), 64)
    selection = TailSelection("absolute", 700)

    def add_every_eighth(start):
        for piece in pieces[start::8]:
            selection.add(x[piece], piece)

    threads = [threading.Thread(target=add_every_eighth, args=(i,))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    full = EmpiricalTail(x, "absolute")
    tail = selection.tail(full.chain_sizes)
    assert tail.count == x.size
    np.testing.assert_array_equal(tail.values, full.values[:700])
    np.testing.assert_array_equal(tail.chains, full.chains[:700])


def test_selection_rejects_bad_arguments():
    with pytest.raises(ValueError, match="convention"):
        TailSelection("upper", 10)
    with pytest.raises(ValueError, match="keep"):
        TailSelection("absolute", 1)
    selection = TailSelection("absolute", 10)
    selection.add(np.ones(1), np.zeros(1, dtype=np.int32))
    with pytest.raises(ValueError, match="at least 2 samples"):
        selection.tail(np.ones(1, dtype=np.int32))


def test_selection_breaks_ties_by_chain_id_in_any_chunk_order():
    # five values tie at 2.0 across chains; the top 4 keep 3.0 and the
    # three ties of the largest chain ids, as the tail of the full sample
    x = np.array([2.0, 3.0, 2.0, 2.0, 1.0, 2.0, 2.0])
    ids = np.array([4, 0, 1, 6, 2, 5, 3], dtype=np.int32)
    full = EmpiricalTail(x, "positive", chains=ids)
    np.testing.assert_array_equal(full.values[:4], [3.0, 2.0, 2.0, 2.0])
    np.testing.assert_array_equal(full.chains[:4], [0, 6, 5, 4])
    np.testing.assert_array_equal(full.chain_sizes, np.ones(7))
    for order in ([0, 1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0],
                  [3, 0, 6, 1, 5, 2, 4]):
        selection = TailSelection("positive", 4)
        for i in order:
            selection.add(x[i:i + 1], ids[i:i + 1])
        tail = selection.tail(full.chain_sizes)
        np.testing.assert_array_equal(tail.values, full.values[:4])
        np.testing.assert_array_equal(tail.chains, full.chains[:4])


def test_selection_checks_chain_sizes_and_takes_no_samples_after_its_tail():
    selection = TailSelection("absolute", 3)
    selection.add(np.ones(4), np.arange(4))
    with pytest.raises(ValueError, match="chain_sizes"):
        selection.tail(np.array([1, 1, 1]))
    assert selection.tail(np.ones(4, dtype=np.int32)).chains.size == 3
    with pytest.raises(ValueError, match="tail was taken"):
        selection.add(np.ones(4), np.arange(4))
    for bad in (np.arange(3), np.arange(4) - 1, np.arange(4.0)):
        with pytest.raises(ValueError, match="chain id"):
            EmpiricalTail(np.ones(4), chains=bad)


def test_selection_checks_chain_ids_as_the_tail_does():
    # one integer id >= 0 in the int32 range per sample: a selection
    # that may keep every value refuses the ids that EmpiricalTail
    # refuses, and keeps nothing of the chunk, where it would misalign
    # extra ids or wrap 2**31 + 5 to a negative int32
    x = np.array([5.0, 6.0])
    for ids in ([0, 1, 2], [0], [2 ** 31 + 5, -1], [3, -1], [0.0, 1.0]):
        selection = TailSelection("absolute", 2)
        with pytest.raises(ValueError, match="chain id"):
            selection.add(x, np.array(ids))
        assert selection.count == 0
        with pytest.raises(ValueError, match="chain id"):
            EmpiricalTail(x, chains=np.array(ids))
    # the largest int32 id is kept as it is; two chain sizes do not
    # index it, so the tail refuses them
    selection = TailSelection("absolute", 2)
    selection.add(x, np.array([2 ** 31 - 1, 0]))
    assert selection.count == 2
    with pytest.raises(ValueError, match=f"chain id {2 ** 31 - 1} "):
        selection.tail(np.ones(2, dtype=np.int32))


def test_selection_tail_needs_a_size_for_every_kept_chain():
    # the sizes sum to the count, but chain 7 has none: the tail refuses
    # them, and still takes sizes that index every kept id
    selection = TailSelection("absolute", 4)
    selection.add(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 1, 7, 1]))
    with pytest.raises(ValueError, match="chain id 7 "):
        selection.tail(np.array([2, 2], dtype=np.int32))
    tail = selection.tail(np.array([1, 2, 0, 0, 0, 0, 0, 1], dtype=np.int32))
    np.testing.assert_array_equal(tail.chains, [1, 7, 1, 0])


def test_hill_clustered_se_counts_a_repeated_value_once():
    # every value twice in one chain carries no more information than
    # once: Hill at 2k of the doubled sample has the estimate and the
    # clustered SE of Hill at k of the single sample with one chain per
    # value, while with one chain per sample the SE falls by sqrt(2)
    x = t.RngStream(12).gen.random(5000) ** (-1.0 / 1.5)
    single = EmpiricalTail(x, "positive", chains=np.arange(x.size))
    double = EmpiricalTail(np.concatenate((x, x)), "positive",
                           chains=np.tile(np.arange(x.size), 2))
    plain = EmpiricalTail(np.concatenate((x, x)), "positive")
    k = 400
    one, two = hill(single, k), hill(double, 2 * k)
    assert two.value == pytest.approx(one.value, rel=1e-12)
    assert two.se == pytest.approx(one.se, rel=1e-12)
    # the sandwich SE of independent values is near alpha_hat / sqrt(k)
    assert one.se == pytest.approx(one.value / math.sqrt(k), rel=0.15)
    assert hill(plain, 2 * k).se == pytest.approx(one.se / math.sqrt(2),
                                                  rel=1e-12)


def test_ccdf_se_clusters_by_chain():
    # one value per chain is the binomial SE; the doubled sample, each
    # value twice in one chain, keeps the single sample's SE
    x = t.RngStream(13).gen.standard_normal(3000)
    single = EmpiricalTail(x, "absolute")
    double = EmpiricalTail(np.concatenate((x, x)), "absolute",
                           chains=np.tile(np.arange(x.size), 2))
    for q in (0.5, 0.9, 0.99):
        y = float(np.quantile(np.abs(x), q))
        p = ccdf(single, y)
        binomial = math.sqrt(p * (1.0 - p) / x.size)
        assert ccdf_se(single, y) == pytest.approx(binomial, rel=1e-9)
        assert ccdf_se(double, y) == pytest.approx(binomial, rel=1e-9)
    assert ccdf_se(double, 1e9) == ccdf_se(single, 1e9) == 0.0


def test_unchained_sample_is_chains_of_one():
    # without chain ids each sample is its own chain, the id its position:
    # the same tail, bit for bit, as with those ids given
    x = t.RngStream(14).gen.standard_normal(4000).round(2)  # with ties
    for conv in t.tails.CONVENTIONS:
        plain = EmpiricalTail(x, conv)
        given = EmpiricalTail(x, conv, chains=np.arange(x.size))
        for name in ("values", "chains", "chain_sizes"):
            a, b = getattr(plain, name), getattr(given, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert plain.chains.dtype == np.int32
        np.testing.assert_array_equal(plain.chain_sizes, np.ones(x.size))
        for k in (10, 200):
            assert hill(plain, k) == hill(given, k)
        for y in (0.5, 1.5, 2.5):
            assert ccdf_se(plain, y) == ccdf_se(given, y)


def test_hill_on_exact_pareto_transform():
    alpha = 2.0
    g = t.RngStream(1).gen
    u = g.random(1_000_000)
    samples = u ** (-1.0 / alpha)  # inverse-transform standard Pareto
    tail = EmpiricalTail(samples, "positive")
    k = 10_000
    est = hill(tail, k)
    assert abs(est.value - alpha) <= 4 * est.se
    # one sample a chain: the delta-method SE sqrt(sum (1 - a L_i)^2) / S
    # of the log excesses L_i, near alpha_hat / sqrt(k)
    top = np.sort(samples)[::-1][:k + 1]
    logs = np.log(top[:k] / top[k])
    s = logs.sum()
    se = math.sqrt(np.sum((1.0 - est.value * logs) ** 2)) / s
    assert est.value == pytest.approx(k / s, rel=1e-12)
    assert est.se == pytest.approx(se, rel=1e-12)
    assert est.se == pytest.approx(est.value / math.sqrt(k), rel=0.05)


def test_hill_se_decreases_with_k_on_pareto():
    g = t.RngStream(2).gen
    samples = g.random(100_000) ** (-0.5)
    tail = EmpiricalTail(samples, "positive")
    ses = [hill(tail, k).se for k in (100, 1000, 10_000)]
    assert ses[0] > ses[1] > ses[2]


def test_hill_degenerate_and_nonpositive():
    flat = EmpiricalTail(np.full(100, 2.0), "positive")
    with pytest.raises(DegenerateTail):
        hill(flat, 10)
    mixed = EmpiricalTail(np.concatenate([np.ones(5), -np.ones(95)]),
                          "positive")
    with pytest.raises(NonPositiveOrderStat):
        hill(mixed, 20)


def test_hill_scale_invariance_exact_for_binary_scalings():
    g = t.RngStream(3).gen
    samples = g.random(10_000) ** (-0.4)
    tail = EmpiricalTail(samples, "positive")
    base = hill(tail, 500)
    for j in (-3, 1, 7):
        scaled = EmpiricalTail(samples * 2.0 ** j, "positive")
        est = hill(scaled, 500)
        assert est.value == base.value  # bit-identical: ratios cancel


def synthetic_tail(alpha: float, beta: float, n: int, seed: int,
                   x0: float | None = None) -> EmpiricalTail:
    """Deterministic quantile sample from P(X > x) = S(x)/S(x0) with
    S(x) = x^{-alpha} (log x)^beta, monotone beyond e^{beta/alpha}."""
    if x0 is None:
        x0 = math.exp(max(1.5, 2.0 * beta / alpha))
    grid = np.geomspace(x0, x0 * 1e8, 40_000)
    s = grid ** (-alpha) * np.log(grid) ** beta
    s = s / s[0]
    u = (np.arange(n) + 0.5) / n  # exact quantile levels
    # invert the monotone (grid, s) table: s decreasing in x
    x = np.interp(-u, -s, grid)
    return EmpiricalTail(x, "positive")


def test_log_factor_regression_recovers_exponents():
    alpha = 2.0
    for beta in (0.0, 1.0):
        tail = synthetic_tail(alpha, beta, 1_000_000, seed=0)
        grid = t.default_log_grid(tail)
        beta_hat, _, r2 = log_factor_regression(tail, alpha, grid)
        tol = 0.10 if beta == 0.0 else 0.15
        assert abs(beta_hat - beta) <= tol
        assert r2 > 0.9 or beta == 0.0


def test_log_factor_regression_constant_multiplier_shifts_intercept():
    alpha, c = 2.0, 3.0
    tail1 = synthetic_tail(alpha, 0.0, 400_000, seed=0)
    # scaling samples by c^{1/alpha} multiplies the survival function by c
    tail2 = EmpiricalTail(tail1.values * c ** (1.0 / alpha), "positive")
    grid = np.geomspace(float(np.quantile(tail2.values, 0.92)),
                        float(np.quantile(tail1.values, 0.999)), 20)
    b1, i1, _ = log_factor_regression(tail1, alpha, grid)
    b2, i2, _ = log_factor_regression(tail2, alpha, grid)
    assert b2 == pytest.approx(b1, abs=0.1)
    assert i2 - i1 == pytest.approx(math.log(c), abs=0.1)


def test_default_log_grid_quantiles_match_numpy():
    x = t.RngStream(13).gen.lognormal(0.0, 2.0, size=100_003)
    tail = EmpiricalTail(x, "absolute")
    grid = t.default_log_grid(tail)
    ref = np.geomspace(np.quantile(x, 0.9), np.quantile(x, 0.9999), 20)
    np.testing.assert_allclose(grid, ref, rtol=1e-12, atol=0.0)


def test_grid_fits_agree_on_a_point_with_exactly_the_floor_of_exceedances():
    # move the sample around one log-grid point so that exactly 50 values
    # lie above it, leaving the grid's quantiles where they are: the
    # log-factor regression and the tail-constant fit both use that point
    alpha, n = 2.0, 10_000
    x = t.RngStream(15).gen.random(n) ** (-1.0 / alpha)
    grid = default_log_grid(EmpiricalTail(x, "positive"))
    hits = np.array([np.count_nonzero(x > g) for g in grid])
    g = grid[np.argmin(np.abs(hits - 50))]
    y = np.sort(x)[::-1]
    y[:50] = np.maximum(y[:50], np.nextafter(g, np.inf))
    y[50:] = np.minimum(y[50:], g)
    tail = EmpiricalTail(y, "positive")
    np.testing.assert_array_equal(default_log_grid(tail), grid)
    assert np.count_nonzero(y > g) == t.tails.GRID_MIN_EXCEEDANCES == 50
    usable = [v for v in grid if v > 1 and np.count_nonzero(y > v) >= 50]
    assert g in usable and len(usable) >= 5
    p = np.array([ccdf(tail, v) for v in usable])
    logs = np.log(usable)
    slope, intercept = np.polyfit(np.log(logs), alpha * logs + np.log(p), 1)
    beta_hat, icpt, _ = log_factor_regression(tail, alpha, grid)
    assert beta_hat == pytest.approx(slope, rel=1e-12)
    assert icpt == pytest.approx(intercept, rel=1e-12)
    prediction = AsymptoticPrediction(alpha, 0.0, EstimateWithError(1.0),
                                      EstimateWithError(0.0), "test", "test")
    fit = _tail_constant_fit(tail, prediction)
    assert fit["grid_points"] == len(usable)
    assert fit["empirical"] == pytest.approx(
        np.mean(np.array(usable) ** alpha * p), rel=1e-12)


def test_log_factor_regression_insufficient_support():
    tail = EmpiricalTail(np.array([1.0, 2.0, 3.0, 4.0]), "positive")
    with pytest.raises(InsufficientSupport):
        log_factor_regression(tail, 2.0, np.array([1.5, 2.5, 3.5]))


def test_goldie_direct_zero_noise_gives_zero():
    cp, cm = goldie_constant_direct_for_laws(
        Lognormal(-1, 1), Constant(0.0), 2.0, 1.0, 10_000, t.RngStream(4))
    assert cp.value == 0.0
    assert cm.value == 0.0


def test_goldie_direct_signed_case_returns_equal_constants():
    cp, cm = goldie_constant_direct_for_laws(
        SignedLognormal(-1, 1, 0.5), Constant(1.0), 2.0, 1.0, 50_000,
        t.RngStream(5))
    assert cp.value == cm.value
    assert cp.se == cm.se


def test_goldie_direct_matches_exact_constant_alpha_two():
    # A = Lognormal(-1,1), B = 1, alpha = 2: the one-step difference is
    # E[2 A X B + B^2]/(alpha rho) = E[A] E[X] + 1/2 with
    # E X = E B/(1 - E A); closed form.
    ea = math.exp(-0.5)
    exact = ea / (1 - ea) + 0.5
    cp, cm = goldie_constant_direct_for_laws(
        Lognormal(-1, 1), Constant(1.0), 2.0, 1.0, 400_000, t.RngStream(6))
    assert abs(cp.value - exact) <= 4 * cp.se
    assert cm.value == 0.0


def test_goldie_perpetuity_zero_noise():
    res = t.goldie_constant_perpetuity(
        Lognormal(-1, 1), t.law_steps(Lognormal(-1, 1), Constant(0.0)),
        2.0, 1.0, 50, 1000, t.RngStream(7))
    assert res.c_plus.value == 0.0
    assert res.c_minus.value == 0.0


def test_goldie_perpetuity_zero_multiplier_sanity():
    # A = 0: partial sums collapse to one noise draw; the normalised
    # moment at n is E[(B^+-)^alpha]/(alpha rho n)
    alpha, rho, n = 2.0, 1.0, 10
    res = t.goldie_constant_perpetuity(
        Constant(0.0), t.law_steps(Constant(0.0), Lognormal(0, 1)),
        alpha, rho, n, 50_000, t.RngStream(8))
    target = t.abs_moment(Lognormal(0, 1), alpha) / (alpha * rho * n)
    assert abs(res.rate_at_n.plus.value - target) <= \
        4 * res.rate_at_n.plus.se
    assert res.rate_at_n.minus.value == 0.0


@pytest.mark.parametrize("a_law", [Lognormal(-1, 1),
                                   Lognormal(-2, math.sqrt(2.0)),
                                   Lognormal(-0.25, 0.5)])
def test_goldie_perpetuity_at_predict_horizon_matches_exact_constant(a_law):
    # the route predict takes for the second coordinate's constant; with
    # B = 1 and alpha = 2, c+ = (E[A] E[X] + 1/2) / rho as in the direct
    # test above: 2.041494 for LN(-1, 1) (rho = 1), 0.540988 for
    # LN(-2, sqrt 2) (rho = 2) and 32.0420 for LN(-0.25, 0.5) (rho = 1/4),
    # whose E[A] = 0.8825 would leave the scan 11.5% low at n = 24
    rho = t.abs_moment_derivative(a_law, 2.0)
    ea = t.mean(a_law)
    exact = (ea / (1 - ea) + 0.5) / rho
    res = t.goldie_constant_perpetuity(a_law, t.law_steps(a_law, Constant(1.0)),
                                       2.0, rho, _goldie_horizon(a_law, 2.0),
                                       400_000, t.RngStream(13))
    assert abs(res.c_plus.value - exact) <= 4 * res.c_plus.se
    assert res.c_minus.value == 0.0


def test_goldie_horizon_bounds_the_late_window_bias():
    # alpha = 2, B = 1: the exact window bias is -2 E[A]^k / (1 + E[A])
    # averaged over k in (n/2, n]; the built-in a22 laws keep the floor
    assert _window_bias(math.exp(-0.5), 20) == pytest.approx(1.284e-3,
                                                             rel=1e-3)
    assert _window_bias(math.exp(-0.5), 24) == pytest.approx(3.954e-4,
                                                             rel=1e-3)
    assert _window_bias(math.exp(-0.125), 24) == pytest.approx(0.1153,
                                                               rel=1e-3)
    for a_law in (Lognormal(-1, 1), Lognormal(-2, math.sqrt(2.0))):
        assert _goldie_horizon(a_law, 2.0) == _GOLDIE_HORIZON
    assert _goldie_horizon(Lognormal(-0.49, 0.7), 2.0) == 44
    assert _goldie_horizon(Lognormal(-0.25, 0.5), 2.0) == 84
    with pytest.raises(RegimeMismatch):
        _goldie_horizon(Lognormal(-0.005, 0.1), 1.0)


@pytest.mark.parametrize("m, horizon, bias_at_24", [
    (IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                        a22=Lognormal(-2, 1), b1=Constant(1.0),
                        b2=Constant(1.0)), _GOLDIE_HORIZON, -5.30e-4),
    (IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(1, 0.5),
                        a22=Lognormal(-0.2, 0.2), b1=Constant(1.0),
                        b2=Lognormal(0, 1)), 72, -0.1175),
], ids=["coord1_dominant_kg", "slow_a22"])
def test_goldie_horizon_grows_with_a_slow_second_coordinate(m, horizon,
                                                            bias_at_24):
    # the first coordinate's B = b1 + a12 x2' is fed by x2, which the
    # chain also runs from zero. In the built-in model the a11 = LN(-1, 1)
    # rate dominates and the horizon keeps the floor; a22 = LN(-0.2, 0.2)
    # couples at E[a22] = 0.835 per step, and the exact alpha = 2 window
    # bias, -11.7% at n = 24, needs n = 72
    assert _goldie_horizon(m.a11, 2.0, m.a22) == horizon
    assert coord1_window_bias(m, 24) == pytest.approx(bias_at_24, rel=1e-3)
    # the exact bias at the horizon stays inside the envelope it is sized by
    r_feed = max(t.mean(m.a22), t.abs_moment(m.a22, 2.0))
    envelope = _window_bias(t.mean(m.a11), horizon, r_feed)
    assert abs(coord1_window_bias(m, horizon)) <= envelope <= 1e-3
    # a second coordinate near its own critical index is refused
    with pytest.raises(RegimeMismatch):
        _goldie_horizon(m.a11, 2.0, Lognormal(-0.005, 0.05))


def test_goldie_perpetuity_symmetric_noise_balances_signs():
    res = t.goldie_constant_perpetuity(
        Lognormal(-1, 1), t.law_steps(Lognormal(-1, 1),
                                      SignedLognormal(0, 0.5, 0.5)),
        2.0, 1.0, 100, 100_000, t.RngStream(9))
    assert abs(res.c_plus.value - res.c_minus.value) <= \
        4 * combined_se(res.c_plus, res.c_minus)


def test_goldie_cross_estimator_consistency():
    # the two independent routes to the same constant must agree
    a_law, b_law = Lognormal(-1, 1), Constant(1.0)
    cp_d, _ = goldie_constant_direct_for_laws(a_law, b_law, 2.0, 1.0,
                                              200_000, t.RngStream(10))
    res = t.goldie_constant_perpetuity(a_law, t.law_steps(a_law, b_law),
                                       2.0, 1.0, 400, 200_000, t.RngStream(11))
    assert abs(cp_d.value - res.c_plus.value) <= \
        4 * combined_se(cp_d, res.c_plus)


def test_goldie_positivity_of_summed_constants():
    cp, cm = goldie_constant_direct_for_laws(
        SignedLognormal(-1, 1, 0.7), Constant(1.0), 2.0, 1.0, 200_000,
        t.RngStream(12))
    total = cp.value + cm.value
    se = combined_se(cp, cm)
    assert total - 4 * se > 0


def test_grey_constants():
    cp, cm = t.grey_constants(0.5, 0.5, 0.3, 0.3)
    assert cp == cm == pytest.approx(1.0 / (2 * 0.7))
    cp, cm = t.grey_constants(1.0, 0.0, 0.0, 0.0)
    assert (cp, cm) == (1.0, 0.0)
    cp, cm = t.grey_constants(1.0, 0.0, 0.5, 0.5)
    assert cp == pytest.approx(2.0)
    assert cm == pytest.approx(0.0)
    with pytest.raises(ArgumentOutOfRange):
        t.grey_constants(0.5, 0.5, 1.0, 0.5)
    with pytest.raises(ArgumentOutOfRange):
        t.grey_constants(0.7, 0.7, 0.3, 0.3)
