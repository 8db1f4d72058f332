"""Prediction dispatch, scenario runner, report emission, CLI."""
import dataclasses
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal, SignedLognormal, TwoSidedPareto)
from trisre.cli import main as cli_main
from trisre.errors import RegimeMismatch, UnsupportedRegime
from trisre.estimates import EstimateWithError, sum_of_products
from trisre.model import diag_laws
from trisre.rng import CHUNK
from trisre.stationary import CHAIN_LENGTH, CHAINS_PER_CHUNK
from trisre.scenarios import (ScenarioConfig, ScenarioReport, Verdict,
                              _hill_block, _log_factor_fit,
                              _tail_constant_fit, builtin_scenarios,
                              emit_report, load_config, predict, run_scenario,
                              scenario_prediction, scenario_regime)
from trisre.tails import CONVENTIONS, EmpiricalTail, hill_depth

from oracles import (coord1_goldie_sum, coord2_grey_weight_sum,
                     coord2_kg_constant, distinct_diag_constant,
                     goldie_constant_direct_for_laws,
                     grey_constants)


def w2_goldie(m, report, N, rng):
    """W2's Kesten-Goldie constants, as predict estimates them."""
    a22 = diag_laws(m)[1]
    return t.goldie_constant_perpetuity(a22, t.law_steps(a22, m.b2),
                                        report.alpha2, report.rho2, N, rng)


def test_predict_rejects_degenerate_offdiagonal():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(0.0),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    with pytest.raises(UnsupportedRegime):
        predict(m, constant_samples=1000)


def test_predict_grey_first_coordinate_closed_form():
    m = IndependentEntries(a11=Lognormal(-1, 0.8), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1),
                           b1=TwoSidedPareto(2.0, 1.0, 0.5),
                           b2=Constant(1.0))
    pred = predict(m, constant_samples=1000, rng=t.RngStream(1))
    # symmetric heavy noise kills the signed correction
    m_abs = t.abs_moment(Lognormal(-1, 0.8), 2.0)
    assert pred.c_plus.value == pytest.approx(1.0 / (2 * (1 - m_abs)),
                                             rel=1e-12)
    assert pred.c_plus == pred.c_minus
    assert pred.log_beta == 0.0
    assert pred.tail_index == pytest.approx(2.0)
    assert pred.ell_scale == pytest.approx(1.0)


@pytest.mark.parametrize("a11", [Lognormal(-1, 0.7),
                                 SignedLognormal(-1, 0.7, 0.3),
                                 t.Scaled(t.Uniform(-1.0, 0.6), 0.9)])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_predict_grey_first_coordinate_matches_grey_closed_form(a11, p):
    # the noise's tail weights carried by the exact weight series give
    # Grey's closed form, up to rounding
    m = IndependentEntries(a11=a11, a12=Lognormal(-1.5, 0.5),
                           a22=Lognormal(-2, 1),
                           b1=TwoSidedPareto(2.0, 2.0, p), b2=Constant(1.0))
    report = t.classify(m, t.RngStream(1))
    assert report.theorem_case == "coord1_dominant_grey"
    pred = predict(m, report=report, rng=t.RngStream(1))
    exact = grey_constants(p, 1.0 - p, t.abs_moment(a11, 2.0),
                           t.sign_moment(a11, 2.0))
    for c, ref in zip((pred.c_plus, pred.c_minus), exact):
        assert c.exact
        assert c.value == pytest.approx(ref, rel=1e-15, abs=1e-300)
    assert pred.constant_formula == "rv_noise_closed_form"
    assert pred.ell_scale == 4.0


def test_predict_grey_second_coordinate_refuses_a_truncated_series():
    # max E|a_ii|^2 = 0.980: the term bound C i q^{i-1} is still 3.7 C at
    # the 200-term cap, where the weights are about 0.05 each, so summing
    # 200 terms would drop a tail of the same order as the sum
    m = IndependentEntries(a11=Lognormal(-2, 1), a12=Lognormal(0, 0.5),
                           a22=Lognormal(-0.1, 0.3), b1=Constant(0.1),
                           b2=TwoSidedPareto(2.0, 2.0, 0.7))
    report = t.classify(m, t.RngStream(2))
    assert report.theorem_case == "coord2_dominant_grey"
    with pytest.raises(RegimeMismatch, match="term bound"):
        predict(m, report=report, constant_samples=1000, rng=t.RngStream(3))


def test_predict_log_beta_menu_and_positivity():
    # every built-in scenario predicts a log exponent in {0, a/2, a, 1}
    # and a strictly positive summed tail constant (beyond 4 SE)
    for config in builtin_scenarios(quick=True):
        rng = t.RngStream(7)
        pred = predict(config.model, constant_samples=20_000, mn_horizon=60,
                       weight_horizon=30, rng=rng)
        a = pred.tail_index
        assert any(abs(pred.log_beta - b) < 1e-12
                   for b in (0.0, a / 2.0, a, 1.0))
        total = pred.c_plus.value + pred.c_minus.value
        se = pred.c_plus.se + pred.c_minus.se
        assert total - 4 * se > 0, (config.name, total, se)


def test_predict_equal_diag_zero_drift_combines_factors():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    pred = predict(m, constant_samples=50_000, rng=t.RngStream(2))
    assert pred.log_beta == pytest.approx(1.0)  # alpha/2 with alpha = 2
    # clt factor is exactly 1 here, so c_+ = c_2/2
    assert pred.c_plus.value == pytest.approx(pred.c_minus.value)
    assert pred.c_plus.value > 0


def test_predict_zero_drift_takes_the_case_from_the_report():
    # classify's drift estimate reads 0.00036 +- 0.00099 at seed 16, so
    # the case is zero drift; predict's own draw (substream 6) reads
    # 0.0031 +- 0.0010, and clt_constant takes only the dispersion from
    # it: sigma^2 = 1 and rho1 = 1 make the constant half of W2's Goldie
    # constant 2.041494
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    config = ScenarioConfig(name="zero_drift_mc", model=m,
                            constant_samples=1000, seed=16)
    report = scenario_regime(config)
    assert report.theorem_case == "equal_diag_zero_drift"
    pred = scenario_prediction(config, report)
    assert pred.constant_formula == "gaussian_limit_constant"
    assert pred.c_plus == pred.c_minus
    assert abs(pred.c_plus.value - 2.041494 / 2) <= 4 * pred.c_plus.se
    rng = t.RngStream(16).substream(2)
    weight = t.clt_constant(m, 2.0, rng=rng.substream(6))
    c2 = w2_goldie(m, report, 1000, rng.substream(5))
    assert pred.c_plus == sum_of_products(
        [(c2.absolute, weight)]).scaled(0.5)


def test_predict_zero_drift_carries_the_dispersion_se():
    # the Gaussian-limit constant scales as sigma2^(alpha/2), so a Monte
    # Carlo dispersion adds alpha/2 times its relative SE to the
    # constant's, in quadrature with the SE that W2's constants give it
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    config = ScenarioConfig(name="zero_drift_mc", model=m,
                            constant_samples=1000, seed=16)
    report = scenario_regime(config)
    pred = scenario_prediction(config, report)
    rng = t.RngStream(16).substream(2)
    _, second = t.tilted_offdiag_moments(m, report.alpha1,
                                         rng=rng.substream(6))
    assert isinstance(second, EstimateWithError) and second.se > 0
    c2 = w2_goldie(m, report, 1000, rng.substream(5))
    half = t.clt_constant(m, report.alpha1, rng.substream(6)).value / 2
    c2_se = c2.absolute.se * half
    rel = report.alpha1 / 2 * second.se / second.value
    assert pred.c_plus.value == pytest.approx(c2.absolute.value * half,
                                              rel=1e-12)
    assert pred.c_plus.se == pytest.approx(
        math.hypot(c2_se, pred.c_plus.value * rel), rel=1e-12)
    assert pred.c_plus.se > c2_se * (1 + 1e-4)
    assert pred.c_minus == pred.c_plus


def test_predict_nonzero_drift_carries_the_drift_se():
    # the drift-limit constants scale as |mu|^alpha, so a Monte Carlo
    # drift adds alpha times its relative SE to their SEs, in quadrature
    # with the SE that W2's constants give them, and joins its seed
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0.5, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    config = ScenarioConfig(name="nonzero_drift_mc", model=m,
                            constant_samples=4000, seed=16)
    report = scenario_regime(config)
    assert report.theorem_case == "equal_diag_nonzero_drift"
    mu, alpha = report.offdiag_drift, report.alpha1
    assert mu.value > 0 and mu.se > 0
    pred = scenario_prediction(config, report)
    c2 = w2_goldie(m, report, 4000, t.RngStream(16).substream(2).substream(5))
    c2p, c2m = c2.plus, c2.minus
    factor = mu.value ** alpha * report.rho1 ** -alpha
    rel = alpha * mu.se / mu.value
    for c, c2 in ((pred.c_plus, c2p), (pred.c_minus, c2m)):
        assert c.value == pytest.approx(c2.value * factor, rel=1e-12)
        assert c.se == pytest.approx(
            math.hypot(c2.se * factor, c.value * rel), rel=1e-12)
        assert c.seed == f"{c2.seed}+{mu.seed}"
    assert pred.c_plus.se > c2p.se * factor * (1 + 1e-3)


def test_every_estimated_builtin_constant_names_its_seed():
    for config in builtin_scenarios(quick=True):
        pred = scenario_prediction(config)
        for c in (pred.c_plus, pred.c_minus):
            if not c.exact:
                assert c.seed.startswith(f"seed={config.seed},"), config.name


def test_reports_write_exact_constants_as_numbers(tmp_path):
    # the wire format of a constant: an exact one (a closed form) is its
    # bare number, an estimated one the object {value, se, n_samples,
    # seed}; the benchmark reads an SE only from the objects
    configs = {c.name: c for c in builtin_scenarios(quick=True)}
    docs = {}
    for name in ("coord1_dominant_grey", "equal_diag_zero_drift",
                 "equal_diag_nonzero_drift", "coord1_dominant_kg"):
        emit_report(run_scenario(configs[name], workers=1), tmp_path,
                    ("json",))
        docs[name] = json.loads((tmp_path / f"{name}.json").read_text())
    grey = docs["coord1_dominant_grey"]["prediction"]
    assert type(grey["c_plus"]) is float and type(grey["c_minus"]) is float
    for name in ("equal_diag_zero_drift", "equal_diag_nonzero_drift"):
        assert type(docs[name]["regime"]["offdiag_drift"]) is float, name
    for name in ("equal_diag_zero_drift", "equal_diag_nonzero_drift",
                 "coord1_dominant_kg"):
        for key in ("c_plus", "c_minus"):
            c = docs[name]["prediction"][key]
            assert set(c) == {"value", "se", "n_samples", "seed"}, (name, key)
            assert c["n_samples"] > 0
    assert docs["coord1_dominant_kg"]["regime"]["offdiag_drift"] is None
    # a Monte Carlo drift is an object too
    mc = EqualDiagonal(d=Lognormal(-1, 1),
                       a12_mode=IndependentOffDiagonal(Normal(0, 1)),
                       b1=Constant(1.0), b2=Constant(1.0))
    drift = json.loads(json.dumps(scenario_regime(ScenarioConfig(
        name="mc_drift", model=mc, seed=16)).to_dict()))["offdiag_drift"]
    assert set(drift) == {"value", "se", "n_samples", "seed"}
    assert drift["se"] > 0


def test_predict_sign_dispatch_consistency():
    # with positive a22 and a sign-symmetric off-diagonal, the signed-weight
    # formula must match the absolute-weight formula used for signed a22
    m = IndependentEntries(a11=Lognormal(-2, 1), a12=Normal(0, 1),
                           a22=Lognormal(-1, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    rng = t.RngStream(3)
    pred = predict(m, constant_samples=100_000, weight_horizon=40, rng=rng)
    # symmetric off-diagonal: the two signed constants coincide within MC
    cp, cm = pred.c_plus, pred.c_minus
    comb = math.hypot(cp.se, cm.se)
    assert abs(cp.value - cm.value) <= 4 * comb
    # and each equals half of the absolute-route total within MC error
    w_abs = t.estimate_coupling_weight(m, 2.0, 40, 100_000,
                                       rng.substream(50)).absolute
    c2p, c2m = goldie_constant_direct_for_laws(m.a22, m.b2, 2.0, 1.0, 100_000,
                                               rng.substream(51))
    absolute_route = (c2p.value + c2m.value) * w_abs.value / 2.0
    assert abs(cp.value - absolute_route) <= \
        4 * math.hypot(cp.se, c2p.se * w_abs.value, w_abs.se * c2p.value)


@pytest.mark.parametrize("d, exact", [(Lognormal(-1, 1), 0.510374),
                                      (Lognormal(-0.25, 0.5), 128.168)])
def test_predict_equal_diag_drift_constant_matches_closed_form(d, exact):
    # c+ = |mu|^alpha rho1^{-alpha} c2+ with mu = 0.5 and the alpha = 2
    # Goldie constant of W2 = d W2' + 1: 2.041494 * 0.5^2 for
    # equal_diag_nonzero_drift's d = LN(-1, 1) (rho1 = 1), and
    # 32.0420 * 0.5^2 * 16 for LN(-0.25, 0.5) (rho1 = 1/4), whose
    # E[d] = 0.8825 leaves the scan 11.5% low at the floor horizon 24
    m = EqualDiagonal(d=d, a12_mode=ProportionalToDiagonal(Constant(0.5)),
                      b1=Constant(1.0), b2=Constant(1.0))
    pred = predict(m, rng=t.RngStream(14))
    assert pred.source == "equal_diag_nonzero_drift"
    assert abs(pred.c_plus.value - exact) <= 4 * pred.c_plus.se
    assert pred.c_minus.value == 0.0


def test_predict_coord1_couples_x_with_second_coordinate():
    # W1 = a11 W1' + B with B = b1 + a12 W2': the scan runs the bivariate
    # chain, so x1 and the x2 inside B come from one path. At alpha = 2,
    # rho = 1 and positive entries c+ = (2 E[a11] E[W1 B] + E[B^2]) / 2;
    # an independent x2 would drop the 2 E[a11] E[a12] Cov(W1, W2) /
    # (alpha rho) term (about 10%). a22 = LN(-0.2, 0.2) contracts slowly,
    # so the horizon grows to 72, where the window bias is -0.063%
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(1, 0.5),
                           a22=Lognormal(-0.2, 0.2), b1=Constant(1.0),
                           b2=Lognormal(0, 1))
    exact = coord1_goldie_sum(m)
    assert exact == pytest.approx(2638.1, abs=0.1)
    pred = predict(m, constant_samples=200_000, rng=t.RngStream(5))
    assert pred.constant_formula == "perpetuity_scan_signed_parts"
    assert abs(pred.c_plus.value - exact) <= 4 * pred.c_plus.se
    assert pred.c_minus.value == 0.0


def test_predict_coord1_builtin_matches_closed_form_at_four_seeds():
    # the perpetuity scan over the forward bivariate chain: finite
    # variance at alpha = 2, where the one-step formula's SE is not
    # reliable (its reported SE was 0.0246 at the built-in seed). The
    # entries are positive, so the negative part is exactly 0
    config = next(c for c in builtin_scenarios()
                  if c.name == "coord1_dominant_kg")
    exact = coord1_goldie_sum(config.model)
    assert exact == pytest.approx(4.88384, abs=1e-5)
    for seed in (config.seed, 1, 2, 3):
        pred = scenario_prediction(dataclasses.replace(config, seed=seed))
        assert abs(pred.c_plus.value - exact) <= 4 * pred.c_plus.se, seed
        assert pred.c_plus.se < 0.0246
        assert pred.c_minus.value == 0.0


def test_predict_coord2_kg_builtin_matches_closed_form_at_three_seeds():
    # W2's Goldie constant 2.04149 times E_t X^2 = 2.37163 of the tilted
    # ratio perpetuity; positive entries make the negative part exactly 0
    config = next(c for c in builtin_scenarios()
                  if c.name == "coord2_dominant_kg")
    exact = coord2_kg_constant(config.model)
    assert exact == pytest.approx(4.84167, abs=1e-5)
    for seed in (config.seed, 1, 2):
        pred = scenario_prediction(dataclasses.replace(config, seed=seed))
        assert abs(pred.c_plus.value - exact) <= 4 * pred.c_plus.se, seed
        assert pred.c_minus.value == 0.0


def test_predict_coord2_grey_builtin_matches_closed_form_at_three_seeds():
    # b2's tail weights (0.7, 0.3) times the weight series 3.52631
    config = next(c for c in builtin_scenarios()
                  if c.name == "coord2_dominant_grey")
    total = coord2_grey_weight_sum(config.model)
    assert total == pytest.approx(3.52631, abs=1e-5)
    p = config.model.b2.p_pos
    for seed in (config.seed, 1, 2):
        pred = scenario_prediction(dataclasses.replace(config, seed=seed))
        assert abs(pred.c_plus.value - p * total) <= 4 * pred.c_plus.se, seed
        assert abs(pred.c_minus.value - (1 - p) * total) \
            <= 4 * pred.c_minus.se, seed


def test_predict_distinct_diag_builtin_matches_closed_form_at_three_seeds():
    # (alpha / rho1) c2 r = 2 x 0.540988 x 0.161476, W2's Goldie constant
    # times the coupling rate of the tilted ratio perpetuity. The estimate
    # is right-skewed, so a seed's SE often understates the spread; the z
    # read -0.42, -0.59 and -2.28 at these seeds, where W2's Goldie scan
    # now carries most of the SE: the conditioned rate scan's is 0.1%.
    # The positive entries make the negative part exactly 0
    config = next(c for c in builtin_scenarios()
                  if c.name == "distinct_diag_equal_index")
    exact = distinct_diag_constant(config.model)
    assert exact == pytest.approx(0.174713, abs=1e-6)
    for seed in (config.seed, 1, 2):
        pred = scenario_prediction(dataclasses.replace(config, seed=seed))
        assert abs(pred.c_plus.value - exact) <= 4 * pred.c_plus.se, seed
        assert pred.c_minus.value == 0.0


def test_predict_coord1_signed_a11_halves_the_absolute_constant():
    # a11 negative with probability 0.2: the two constants coincide and
    # each is half of c+ + c- = 2.59311, the one-step expectation with the
    # signed mean E[a11] = 0.364
    m = IndependentEntries(a11=SignedLognormal(-1, 1, 0.8),
                           a12=Lognormal(-1, 0.5), a22=Lognormal(-2, 1),
                           b1=Constant(1.0), b2=Constant(1.0))
    report = t.classify(m, t.RngStream(1))
    assert report.theorem_case == "coord1_dominant_kg"
    assert report.alpha1 == pytest.approx(2.0)
    exact = coord1_goldie_sum(m)
    assert exact == pytest.approx(2.59311, abs=1e-5)
    pred = predict(m, report=report, rng=t.RngStream(1))
    assert pred.constant_formula == "perpetuity_scan_absolute_halved"
    assert pred.c_plus == pred.c_minus
    assert abs(pred.c_plus.value - exact / 2) <= 4 * pred.c_plus.se


def test_predict_sign_flip_switches_formula():
    # signing the second diagonal switches the inherited-constant formula
    # to the absolute-halved route with equal signed constants
    m = IndependentEntries(a11=Lognormal(-2, 1),
                           a12=Normal(0, 1),
                           a22=SignedLognormal(-1, 1, 0.5),
                           b1=Constant(1.0), b2=Constant(1.0))
    pred = predict(m, constant_samples=20_000, weight_horizon=30,
                   rng=t.RngStream(4))
    assert pred.constant_formula == "inherited_absolute_weight_halved"
    assert pred.c_plus.value == pred.c_minus.value


def assert_same_estimate(c, expected):
    assert c.value == pytest.approx(expected.value, rel=1e-12)
    assert c.se == pytest.approx(expected.se, rel=1e-12)
    assert (c.n_samples, c.seed) == (expected.n_samples, expected.seed)


def test_predict_signed_w2_halves_the_scan_absolute_with_its_own_se():
    # a signed a22 flips W2's sign: each constant is half of c2_abs w_abs,
    # and c2_abs is the Goldie scan's per-path sum with its own SE, not
    # c2+ + c2- with their SEs in quadrature
    m = IndependentEntries(a11=Lognormal(-2, 1), a12=Lognormal(0, 0.5),
                           a22=SignedLognormal(-1, 1, 0.7), b1=Constant(0.1),
                           b2=Constant(1.0))
    report = t.classify(m, t.RngStream(1))
    assert report.theorem_case == "coord2_dominant_kg"
    rng = t.RngStream(5)
    pred = predict(m, report=report, constant_samples=20_000,
                   weight_horizon=30, rng=rng)
    assert pred.constant_formula == "inherited_absolute_weight_halved"
    c2 = w2_goldie(m, report, 20_000, rng.substream(2))
    w = t.estimate_coupling_weight(m, report.alpha2, 30, 20_000,
                                   rng.substream(3))
    assert c2.minus.value > 0
    assert_same_estimate(pred.c_plus, sum_of_products(
        [(c2.absolute, w.absolute)]).scaled(0.5))
    assert pred.c_minus == pred.c_plus


def test_predict_signed_zero_drift_diagonal_reads_the_scan_absolute():
    m = EqualDiagonal(d=SignedLognormal(-1, 1, 0.7),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    report = t.classify(m, t.RngStream(1))
    assert report.theorem_case == "equal_diag_zero_drift"
    rng = t.RngStream(5)
    pred = predict(m, report=report, constant_samples=20_000, rng=rng)
    c2 = w2_goldie(m, report, 20_000, rng.substream(5))
    weight = t.clt_constant(m, report.alpha1, rng.substream(6))
    assert c2.minus.value > 0 and weight.exact
    assert_same_estimate(pred.c_plus, sum_of_products(
        [(c2.absolute, weight)]).scaled(0.5))
    assert pred.c_minus == pred.c_plus


def test_constants_sum_verdict_adds_the_ses_of_one_estimate():
    # in zero drift c+ and c- are one estimate, so their sum has twice
    # its SE, not sqrt(2) times
    config = next(c for c in builtin_scenarios(quick=True)
                  if c.name == "equal_diag_zero_drift")
    report = run_scenario(config, workers=1)
    verdict = next(v for v in report.verdicts
                   if v.check_id == "constants_sum_positive")
    c_plus = report.prediction["c_plus"]
    assert report.prediction["c_minus"] == c_plus
    assert verdict.se == 2 * c_plus["se"]


def quick_config(seed=123):
    return ScenarioConfig(
        name="smoke",
        model=IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                                 a22=Lognormal(-2, 1), b1=Constant(1.0),
                                 b2=Constant(1.0)),
        n_samples=10_000, constant_samples=10_000, mn_horizon=50,
        weight_horizon=30, seed=seed)


def test_run_scenario_smoke_completes_fast_with_all_sections():
    t0 = time.time()
    report = run_scenario(quick_config(), workers=2)
    assert time.time() - t0 < 10.0
    d = report.to_dict()
    for key in ("name", "config", "regime", "prediction", "empirical",
                "verdicts", "runtime_seconds", "seed_provenance"):
        assert key in d
    assert d["empirical"]["w2"]["n"] == 10_000
    assert len(report.verdicts) >= 3


def test_run_scenario_deterministic_given_seed(monkeypatch):
    # more constant samples than one chunk, so predict's estimators split
    # their work into chunks that run in parallel under two workers
    config = quick_config(seed=77)
    config.constant_samples = CHUNK + 4_000
    monkeypatch.setenv("TRISRE_WORKERS", "1")
    r1 = run_scenario(config, workers=1)
    monkeypatch.setenv("TRISRE_WORKERS", "2")
    r2 = run_scenario(config, workers=2)
    j1 = json.dumps(r1.to_dict(), sort_keys=True, default=str)
    j2 = json.dumps(r2.to_dict(), sort_keys=True, default=str)
    # byte-identical numeric fields apart from wall-clock runtime
    d1, d2 = json.loads(j1), json.loads(j2)
    d1.pop("runtime_seconds"), d2.pop("runtime_seconds")
    assert d1 == d2


def test_run_scenario_merges_tails_across_chunks_as_the_full_sample():
    # four stationary chunks of chains: the report is the same at one and
    # two workers, and its empirical block is that of the tails of the
    # full arrays that sample_stationary_batch returns without a tails
    # request, with the Hill SEs clustered by chain
    config = dataclasses.replace(
        quick_config(seed=31),
        n_samples=3 * CHAINS_PER_CHUNK * CHAIN_LENGTH + 17)
    reports = [run_scenario(config, workers=w).to_dict() for w in (1, 2)]
    for r in reports:
        r.pop("runtime_seconds")
    assert reports[0] == reports[1]
    empirical = reports[0]["empirical"]
    batch = t.sample_stationary_batch(
        config.model, config.tol, config.n_samples,
        t.RngStream(config.seed).substream(3), workers=2)
    k = hill_depth(config.n_samples)
    chains = batch.chain_ids()
    for coord, w in (("w1", batch.w1), ("w2", batch.w2)):
        full = {conv: EmpiricalTail(w, conv, chains=chains)
                for conv in CONVENTIONS}
        assert empirical[coord] == _hill_block(full, k)
        alpha_hat = empirical[coord]["absolute"]["alpha_hat"]
        assert empirical[coord]["absolute"]["se"] > alpha_hat / math.sqrt(k)
    prediction = scenario_prediction(config)
    assert empirical["log_factor_regression"] == _log_factor_fit(
        EmpiricalTail(batch.w1, "absolute"), prediction.tail_index)
    assert "beta_hat" in empirical["log_factor_regression"]
    assert empirical["tail_constant_plus"] == _tail_constant_fit(
        EmpiricalTail(batch.w1, "positive"), prediction)
    assert "empirical" in empirical["tail_constant_plus"]


def test_config_numbers_follow_the_wire_format():
    base = builtin_scenarios(quick=True)[0]
    for field, value in (("n_samples", 5000.9), ("constant_samples", 2000.5),
                         ("n_samples", "5000"), ("seed", True),
                         ("mn_horizon", None), ("weight_horizon", math.inf),
                         ("tol", "1e-8"), ("tol", False)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            dataclasses.replace(base, **{field: value})
    # an integral float or a numpy integer becomes an int, as on the wire
    config = dataclasses.replace(base, n_samples=5000.0, seed=np.int64(7))
    assert type(config.n_samples) is int and config.n_samples == 5000
    assert type(config.seed) is int and config.seed == 7
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_emit_report_round_trip(tmp_path):
    report = run_scenario(quick_config(), workers=1)
    paths = emit_report(report, tmp_path)
    jpath = [p for p in paths if p.suffix == ".json"][0]
    loaded = json.loads(jpath.read_text())
    assert loaded == json.loads(json.dumps(report.to_dict(), sort_keys=True))
    cpath = [p for p in paths if p.suffix == ".csv"][0]
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "check_id,predicted,estimated,se,band,pass"
    assert len(lines) == 1 + len(report.verdicts)


def test_emit_report_writes_json_for_numpy_law_parameters(tmp_path):
    config = dataclasses.replace(quick_config(), model=IndependentEntries(
        a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
        a22=t.Uniform(np.float64(-1.2), np.float64(0.3)), b1=Constant(1.0),
        b2=Constant(1.0)))
    report = run_scenario(config, workers=1)
    jpath = [p for p in emit_report(report, tmp_path) if p.suffix == ".json"][0]
    with open(jpath, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["regime"]["sign_case"]["a22_negative_possible"] is True


def test_emit_report_empty_verdicts(tmp_path):
    report = ScenarioReport(name="empty", config={}, regime={},
                            prediction=None, prediction_error=None,
                            empirical={}, verdicts=[], runtime_seconds=0.0,
                            seed_provenance="seed=0")
    paths = emit_report(report, tmp_path)
    cpath = [p for p in paths if p.suffix == ".csv"][0]
    assert cpath.read_text().strip() == "check_id,predicted,estimated,se,band,pass"


def test_emit_report_writes_all_or_nothing(tmp_path):
    # a numpy bool is not JSON: the report raises before any file opens,
    # so no new JSON or CSV appears and an older report is left whole
    def report(name, empirical):
        return ScenarioReport(name=name, config={}, regime={},
                              prediction=None, prediction_error=None,
                              empirical=empirical, verdicts=[],
                              runtime_seconds=0.0, seed_provenance="seed=0")

    old = emit_report(report("kept", {"flag": True}), tmp_path)
    before = {p: p.read_bytes() for p in old}
    for name in ("fresh", "kept"):
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_report(report(name, {"flag": np.bool_(True)}), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv",
                                                          "kept.json"]
    assert {p: p.read_bytes() for p in old} == before


def test_config_json_round_trip(tmp_path):
    config = quick_config()
    p = tmp_path / "config.json"
    p.write_text(json.dumps(config.to_dict()))
    loaded = load_config(p)
    assert loaded == config
    configs = builtin_scenarios(quick=True) + builtin_scenarios(quick=False)
    assert len(configs) == 14
    for c in configs:
        text = json.dumps(c.to_dict())
        assert ScenarioConfig.from_dict(json.loads(text)) == c
    bad = dict(config.to_dict(), schema=99)
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_config(p)


def test_config_numbers_accept_integral_floats_and_integers():
    # an integer field takes an integral float; a float field and a law
    # parameter take an integer
    d = quick_config().to_dict()
    d.update(n_samples=1e6, seed=7.0)
    d["model"]["a11"] = {"kind": "lognormal", "mu": -1, "sigma": 1}
    config = ScenarioConfig.from_dict(d)
    assert type(config.n_samples) is int and config.n_samples == 1_000_000
    assert type(config.seed) is int and config.seed == 7
    assert config.model.a11 == Lognormal(-1.0, 1.0)
    assert type(config.model.a11.mu) is float
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_readme_config_schema_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Config schema:", 1)[1]
    config, equal_diag = (json.loads(block) for block in
                          re.findall(r"```json\n(.*?)```", section, re.S)[:2])
    assert ScenarioConfig.from_dict(config).model == IndependentEntries(
        a11=Lognormal(-1.0, 1.0), a12=Lognormal(-1.0, 0.5),
        a22=Lognormal(-2.0, 1.0), b1=Constant(1.0), b2=Constant(1.0))
    factor_law = equal_diag["a12_mode"]["factor_law"]
    for mode in (equal_diag["a12_mode"], {"mode": "independent",
                                          "a12": factor_law}):
        model = ScenarioConfig.from_dict(dict(config, model=dict(
            equal_diag, a12_mode=mode))).model
        assert isinstance(model, EqualDiagonal)
        assert t.model_to_dict(model) == dict(equal_diag, a12_mode=mode)


def test_cli_run_and_classify(tmp_path, capsys):
    config = quick_config()
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(config.to_dict()))
    rc = cli_main(["classify", str(cpath)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theorem_case"] == "coord1_dominant_kg"

    rc = cli_main(["run", str(cpath), "--samples", "5000", "--workers", "1",
                   "--out", str(tmp_path / "out"), "--no-verdict-exit"])
    assert rc == 0
    assert (tmp_path / "out" / "smoke.json").exists()
    assert (tmp_path / "out" / "smoke.csv").exists()


@pytest.mark.parametrize("samples", ["0", "-5", "1", "2"])
def test_cli_run_rejects_nonpositive_samples_as_usage_error(tmp_path, capsys,
                                                            samples):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "coord1_dominant_grey", "--samples", samples,
                  "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "sample counts must be positive" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["run", "coord1_dominant_grey"],
                                     ["suite", "--quick"]])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_cli_nonpositive_workers_is_usage_error(tmp_path, capsys, command,
                                                workers):
    with pytest.raises(SystemExit) as exc:
        cli_main(command + ["--workers", workers, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["run", "coord1_dominant_grey"],
                                     ["suite", "--quick"]])
@pytest.mark.parametrize("env", ["two", "1.5", "0"])
def test_cli_invalid_worker_env_is_usage_error(tmp_path, capsys, monkeypatch,
                                               command, env):
    monkeypatch.setenv("TRISRE_WORKERS", env)
    with pytest.raises(SystemExit) as exc:
        cli_main(command + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "TRISRE_WORKERS must be a positive integer" in \
        capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "predict", "classify"])
def test_cli_bad_config_is_usage_error(tmp_path, capsys, command):
    d = quick_config().to_dict()
    d["n_samples"] = 0
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    cases = [(str(p), "sample counts must be positive"),
             (str(tmp_path / "missing.json"), "config file not found"),
             (str(tmp_path), "invalid config")]
    name_error = "name must be a non-empty string without a path separator"
    for field, value, message in (("mn_horizon", 1, "mn_horizon >= 2"),
                                  ("out_dir", 5, "out_dir must be a string"),
                                  ("n_samples", math.inf, "n_samples must "
                                   "be an integral JSON number, not inf"),
                                  ("n_samples", 5000.9, "n_samples must be "
                                   "an integral JSON number, not 5000.9"),
                                  ("n_samples", "1000", "n_samples must be "
                                   "an integral JSON number, not '1000'"),
                                  ("seed", True, "seed must be an integral "
                                   "JSON number, not True"),
                                  ("tol", "1e-8", "tol must be a JSON number"),
                                  ("n_sample", 50, "unknown keys ['n_sample']"),
                                  ("name", "../escaped", name_error),
                                  ("name", 7, name_error)):
        bad = tmp_path / f"{field}_{len(cases)}.json"
        bad.write_text(json.dumps(dict(quick_config().to_dict(),
                                       **{field: value})))
        cases.append((str(bad), message))
    # law records: non-finite parameters, an unknown tag, a missing key
    for entry, law, message in (
            ("a22", {"kind": "lognormal", "mu": math.nan, "sigma": 1.0},
             "law parameters must be finite"),
            ("b2", {"kind": "constant", "c": math.inf},
             "law parameters must be finite"),
            ("a11", {"kind": "gamma", "shape": 2.0}, "unknown kind 'gamma'"),
            ("a11", {"kind": "lognormal", "mu": -1.0}, "KeyError: 'sigma'"),
            ("a22", {"kind": "lognormal", "mu": -1, "sigma": 1, "sigm": 3},
             "unknown keys ['sigm']"),
            ("a22", {"kind": "lognormal", "mu": "-1", "sigma": 1},
             "mu must be a JSON number"),
            ("a22", {"kind": "lognormal", "mu": -1, "sigma": True},
             "sigma must be a JSON number"),
            ("b3", {"kind": "constant", "c": 1.0}, "unknown keys ['b3']")):
        d = quick_config().to_dict()
        d["model"][entry] = law
        bad = tmp_path / f"{entry}_{len(cases)}.json"
        bad.write_text(json.dumps(d))
        cases.append((str(bad), message))
    # an a12_mode record with a key its mode does not have
    d = next(c for c in builtin_scenarios(quick=True)
             if isinstance(c.model, EqualDiagonal)).to_dict()
    d["model"]["a12_mode"]["scale"] = 2.0
    (tmp_path / "a12_mode.json").write_text(json.dumps(d))
    cases.append((str(tmp_path / "a12_mode.json"), "unknown keys ['scale']"))
    for name, text in (("list.json", "[1, 2]"), ("null.json", "null")):
        (tmp_path / name).write_text(text)
        cases.append((str(tmp_path / name), "config must be a JSON object"))
    for arg, message in cases:
        with pytest.raises(SystemExit) as exc:
            cli_main([command, arg])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_cli_predict_builtin(capsys):
    rc = cli_main(["predict", "coord1_dominant_grey"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tail_index"] == pytest.approx(2.0)


@pytest.mark.parametrize("config", ["coord2_dominant_kg", "seed_123"])
def test_cli_classify_and_predict_reproduce_run(tmp_path, capsys, config):
    # classify and predict draw from the config's seed, as run does; the
    # default streams give coord2_dominant_kg a c_plus of 4.7605, not
    # run's 4.5759
    if config == "seed_123":
        config = str(tmp_path / "c.json")
        Path(config).write_text(json.dumps(quick_config(seed=123).to_dict()))
    blocks = {}
    for command in ("classify", "predict"):
        assert cli_main([command, config]) == 0
        blocks[command] = json.loads(capsys.readouterr().out)
    assert cli_main(["run", config, "--samples", "2000", "--workers", "1",
                     "--format", "json", "--out", str(tmp_path / "out"),
                     "--no-verdict-exit"]) == 0
    report = json.loads(Path(capsys.readouterr().out.split()[0]).read_text())
    assert json.dumps(blocks["classify"], sort_keys=True) == \
        json.dumps(report["regime"], sort_keys=True)
    assert json.dumps(blocks["predict"], sort_keys=True) == \
        json.dumps(report["prediction"], sort_keys=True)


def test_cli_predict_unsupported_model_exits_2(tmp_path, capsys):
    config = quick_config()
    d = config.to_dict()
    d["model"]["a12"] = {"kind": "constant", "c": 0.0}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    rc = cli_main(["predict", str(p)])
    assert rc == 2
    assert "prediction unavailable" in capsys.readouterr().err


def test_cli_run_verdict_exit_code(tmp_path, capsys):
    # at tiny sample sizes at least one verdict fails for this model;
    # without --no-verdict-exit the run must signal it
    config = ScenarioConfig(
        name="tiny",
        model=EqualDiagonal(d=Lognormal(-1, 1),
                            a12_mode=ProportionalToDiagonal(Constant(0.5)),
                            b1=Constant(1.0), b2=Constant(1.0)),
        n_samples=2000, constant_samples=2000, mn_horizon=40,
        weight_horizon=20, seed=5)
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(config.to_dict()))
    rc = cli_main(["run", str(p), "--workers", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_cli_format_selection(tmp_path):
    config = quick_config()
    p = tmp_path / "c.json"
    p.write_text(json.dumps(config.to_dict()))
    rc = cli_main(["run", str(p), "--samples", "3000", "--workers", "1",
                   "--out", str(tmp_path / "o"), "--format", "csv",
                   "--no-verdict-exit"])
    assert rc == 0
    assert (tmp_path / "o" / "smoke.csv").exists()
    assert not (tmp_path / "o" / "smoke.json").exists()
