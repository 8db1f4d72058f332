"""Tail-index solving and regime classification."""
import json
import math
import typing

import numpy as np
import pytest

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal, SignedLognormal, TwoSidedPareto,
                    Uniform)
from trisre import distributions as dist
from trisre import model as mod
from trisre.distributions import log_moment
from trisre.errors import NoRoot, NotContractive
from trisre.regime import (CASE_COORD1_KG, CASE_DISTINCT_DIAG_EQUAL_INDEX,
                           CASE_EQUAL_DIAG_NONZERO_DRIFT,
                           CASE_EQUAL_DIAG_ZERO_DRIFT, CASE_UNSUPPORTED,
                           _INDEX_RTOL, _INDEX_TOL)
from trisre.rng import RngStream
from trisre.scenarios import builtin_scenarios, scenario_regime

from oracles import reference_tail_index


def test_solve_tail_index_lognormal_closed_form():
    assert t.solve_tail_index(Lognormal(-1, 1)) == pytest.approx(2.0, abs=1e-9)
    assert t.solve_tail_index(Lognormal(-2, 1)) == pytest.approx(4.0, abs=1e-9)
    assert t.solve_tail_index(Lognormal(-0.5, 0.5)) == pytest.approx(
        4.0, abs=1e-9)


def test_solve_tail_index_sign_blind():
    for p in (0.0, 0.3, 1.0):
        assert t.solve_tail_index(SignedLognormal(-1, 1, p)) == \
            pytest.approx(2.0, abs=1e-9)


def test_solve_tail_index_root_correctness_across_menu():
    specs = [Lognormal(-0.7, 0.9), SignedLognormal(-1.3, 1.1, 0.2),
             TwoSidedPareto(3.0, 0.5, 0.6),
             t.Scaled(Lognormal(-1.0, 0.8), 0.9)]
    for spec in specs:
        alpha = t.solve_tail_index(spec)
        assert abs(t.abs_moment(spec, alpha) - 1.0) <= 1e-9


def _sweep_laws(n: int, seed: int):
    """n random diagonal laws from the menu; some are not contractive or
    have no index."""
    g = np.random.default_rng(seed)
    for i in range(n):
        mu, sigma, p = g.uniform(-3.0, -0.05), g.uniform(0.1, 2.0), g.random()
        kind = i % 5
        if kind == 0:
            yield Lognormal(mu, sigma)
        elif kind == 1:
            yield SignedLognormal(mu, sigma, p)
        elif kind == 2:
            yield t.Scaled(Lognormal(mu, sigma), g.uniform(-3.0, 3.0))
        elif kind == 3:
            a, b = sorted(g.uniform(-3.0, 3.0, size=2))
            yield Uniform(a, b)
        else:
            yield TwoSidedPareto(g.uniform(0.5, 6.0), g.uniform(0.05, 1.5), p)


def test_solve_tail_index_matches_full_precision_brentq(monkeypatch):
    """Each root lies within the solver's stopping tolerance of scipy's
    brentq run to full precision, after at most 16 Newton steps: the
    evaluations of g after the first one at beta > 0 where it is positive
    (the drift check reads g at 0, where it rounds to about 0)."""
    values = []

    def recorded(spec, beta):
        out = log_moment(spec, beta)
        if beta > 0.0:
            values.append(out[0])
        return out

    monkeypatch.setattr(dist, "log_moment", recorded)
    builtin = {law for config in t.builtin_scenarios(quick=True)
               for law in mod.diag_laws(config.model)}
    solved = 0
    for spec in [*builtin, *_sweep_laws(500, seed=29)]:
        values.clear()
        try:
            ours = t.solve_tail_index(spec)
        except (NoRoot, NotContractive) as exc:
            with pytest.raises(type(exc)):
                reference_tail_index(spec)
            continue
        first = next((i for i, g in enumerate(values) if g > 0.0),
                     len(values) - 1)
        assert len(values) - 1 - first <= 16, spec
        assert type(ours) is float, spec
        ref = reference_tail_index(spec)
        assert abs(ours - ref) <= (_INDEX_TOL + _INDEX_RTOL * ref) / 2.0, spec
        solved += 1
    assert solved >= 350


def test_solve_tail_index_pins_every_builtin_diagonal_root():
    """The roots the x ** 2 fast path and the critical band key on. At
    LN(-2, sqrt 2), g(2.0) = 8.9e-16 and the float root is
    1.9999999999999996, where np.power is several times slower than at
    2.0: a solver that moved this root would slow W2's Goldie scan in
    distinct_diag_equal_index."""
    assert t.solve_tail_index(Lognormal(-1, 1)) == 2.0
    assert t.solve_tail_index(Lognormal(-2, 1)) == 4.0
    assert t.solve_tail_index(Lognormal(-2, math.sqrt(2.0))) == 2.0


def test_solve_tail_index_errors():
    with pytest.raises(NotContractive):
        t.solve_tail_index(Lognormal(0.1, 0.1))
    with pytest.raises(NotContractive):
        t.solve_tail_index(Constant(2.0))
    with pytest.raises(NoRoot):
        t.solve_tail_index(Constant(0.5))
    with pytest.raises(NoRoot):
        t.solve_tail_index(Uniform(-0.5, 0.5))


def test_log_moment_is_convex_across_menu():
    specs = [Lognormal(-1, 1), SignedLognormal(-1, 1, 0.4), Normal(0, 0.8),
             Uniform(-0.9, 0.9), TwoSidedPareto(5.0, 0.5, 0.5),
             t.Scaled(Lognormal(-1, 0.5), 0.7)]
    from trisre.distributions import moment_sup
    for spec in specs:
        hi = min(moment_sup(spec) * 0.9, 6.0)
        betas = np.linspace(0.05, hi, 50)
        g = np.array([math.log(t.abs_moment(spec, b)) for b in betas])
        second = g[2:] - 2 * g[1:-1] + g[:-2]
        assert np.all(second >= -1e-7)


def test_derivative_positive_at_root():
    for spec in (Lognormal(-1, 1), Lognormal(-2, 1),
                 SignedLognormal(-1.5, 1.2, 0.5)):
        alpha = t.solve_tail_index(spec)
        assert t.abs_moment_derivative(spec, alpha) > 0


def test_derivative_examples():
    assert t.abs_moment_derivative(Lognormal(-1, 1), 2.0) == \
        pytest.approx(1.0, rel=1e-12)
    assert t.abs_moment_derivative(Lognormal(-2, 1), 4.0) == \
        pytest.approx(2.0, rel=1e-12)
    c, alpha = 0.5, 1.3
    assert t.abs_moment_derivative(Constant(c), alpha) == \
        pytest.approx(c ** alpha * math.log(c), rel=1e-12)
    assert t.abs_moment_derivative(Constant(c), alpha) < 0


def test_classify_distinct_indices():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.theorem_case == CASE_COORD1_KG
    assert rep.alpha1 == pytest.approx(2.0, abs=1e-9)
    assert rep.alpha2 == pytest.approx(4.0, abs=1e-9)
    assert rep.regime1 == rep.regime2 == "kesten_goldie"
    assert rep.rho1 == pytest.approx(1.0, rel=1e-9)
    assert rep.rho2 == pytest.approx(2.0, rel=1e-9)


def test_classify_equal_diagonal_zero_drift():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.theorem_case == CASE_EQUAL_DIAG_ZERO_DRIFT
    assert rep.diagonal_relation == "equal_as"
    assert rep.offdiag_drift.value == 0.0


def test_classify_drift_of_narrow_normal_factor():
    # a12 = xi * d with xi ~ N(10, 0.1^2): the tilted drift is
    # E[xi] E|d|^2 = 10, though xi's mass sits 100 sd away from 0
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(10.0, 0.1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.theorem_case == CASE_EQUAL_DIAG_NONZERO_DRIFT
    assert rep.offdiag_drift.value == pytest.approx(10.0, rel=1e-12)


def test_classify_zero_offdiagonal_unsupported():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(0.0),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.theorem_case == CASE_UNSUPPORTED
    assert rep.check("offdiag_nondegenerate").status == "fail"


def test_classify_grey_coordinate():
    m = IndependentEntries(a11=Lognormal(-1, 0.8), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1),
                           b1=TwoSidedPareto(2.0, 1.0, 0.7),
                           b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.regime1 == "grey"
    assert rep.alpha1 == pytest.approx(2.0)
    assert rep.regime2 == "kesten_goldie"
    assert rep.theorem_case == "coord1_dominant_grey"


def test_classify_deterministic():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, math.sqrt(2)), b1=Constant(1.0),
                           b2=Constant(1.0))
    r1 = t.classify(m, t.RngStream(99))
    r2 = t.classify(m, t.RngStream(99))
    assert r1.to_dict() == r2.to_dict()


SIGNED_COORD1 = IndependentEntries(a11=SignedLognormal(-1, 1, 0.8),
                                   a12=Lognormal(-1, 0.5),
                                   a22=Lognormal(-2, 1), b1=Constant(1.0),
                                   b2=Constant(1.0))


def test_classify_signed_first_coordinate_states_distinctness_condition():
    rep = t.classify(SIGNED_COORD1)
    assert rep.theorem_case == CASE_COORD1_KG
    chk = rep.check("component_tail_distinctness")
    assert chk.status == "unverifiable"
    assert "E[|U|^a - |A11 U|^a]" in chk.detail
    assert "own part" in chk.detail and "cross part" in chk.detail
    assert t.classify(SIGNED_COORD1, RngStream(1)).to_dict() \
        == t.classify(SIGNED_COORD1, RngStream(2)).to_dict()


def test_distinctness_condition_follows_the_chain_sign():
    # only a22 can be negative: W2 and so b1 + a12 W2' change sign, and
    # W1 goes negative, so the condition applies as it does for a11
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=SignedLognormal(-2, 1, 0.5), b1=Constant(1.0),
                           b2=Constant(1.0))
    rep = t.classify(m)
    assert rep.theorem_case == CASE_COORD1_KG
    assert rep.check("component_tail_distinctness").status == "unverifiable"
    assert mod.chain_signed(m) and t.coord1_steps(m).signed
    w1 = t.sample_stationary_batch(m, 1e-8, 20_000, RngStream(1)).w1
    assert (w1 < 0).any()
    # a nonnegative chain states no condition
    kg = next(c.model for c in builtin_scenarios(quick=True)
              if c.name == "coord1_dominant_kg")
    assert not mod.chain_signed(kg)
    with pytest.raises(KeyError):
        t.classify(kg).check("component_tail_distinctness")


def test_classify_draws_nothing_on_the_signed_first_coordinate_model(
        monkeypatch):
    def no_draws(self):
        raise AssertionError(f"classify drew from {self.describe()}")

    monkeypatch.setattr(RngStream, "gen", property(no_draws))
    rep = t.classify(SIGNED_COORD1)
    assert rep.check("component_tail_distinctness").status == "unverifiable"


def test_mixed_moment_condition_does_not_depend_on_the_seed():
    # both indices 1; E|A11|^{1.1}|A22|^{-0.1} is finite but its sample
    # mean over 1M draws has a relative SE near 12%, so only a check
    # decided from the laws gives the same verdict at every seed
    m = IndependentEntries(a11=Lognormal(-6.125, 3.5), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-0.5, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    reps = [t.classify(m, RngStream(seed)) for seed in (1, 2, 3)]
    for rep in reps:
        assert rep.alpha1 == pytest.approx(1.0, abs=1e-9)
        assert rep.alpha2 == pytest.approx(1.0, abs=1e-9)
        assert rep.theorem_case == CASE_DISTINCT_DIAG_EQUAL_INDEX
        assert rep.check("negative_moment_mix").status == "pass"
    assert reps[0].to_dict() == reps[1].to_dict() == reps[2].to_dict()


def test_mixed_moment_detail_carries_the_exact_moments():
    (config,) = [c for c in builtin_scenarios()
                 if c.name == CASE_DISTINCT_DIAG_EQUAL_INDEX]
    detail = scenario_regime(config).check("negative_moment_mix").detail
    # alpha = 2, eta = 0.1: E|LN(-1, s)|^{2.1} = exp(-2.1 + 2.205 s^2)
    assert detail.startswith("eta=0.1; ")
    assert f"E|A11|^(a+eta) = {math.exp(0.105):.4g}" in detail
    assert f"E|A12|^(a+eta) = {math.exp(-1.54875):.4g}" in detail
    assert "E|A22|^(-eta) finite" in detail


def test_classify_draws_nothing_on_builtin_models(monkeypatch):
    def no_draws(self):
        raise AssertionError(f"classify drew from {self.describe()}")

    monkeypatch.setattr(RngStream, "gen", property(no_draws))
    cases = {scenario_regime(c).theorem_case for c in builtin_scenarios()}
    assert len(cases) == 7 and CASE_UNSUPPORTED not in cases


def test_menu_is_the_families_the_mixed_moment_argument_covers():
    # _mixed_moment_check takes E|A22|^{-eta} < inf for eta < 1 from the
    # menu: each family is bounded away from zero or has a density bounded
    # near it. A new family must be checked against that argument.
    assert set(typing.get_args(dist.Dist)) == {
        dist.Constant, dist.Normal, dist.Lognormal, dist.SignedLognormal,
        dist.TwoSidedPareto, dist.Uniform, dist.Scaled}


def test_classify_reads_the_exact_top_lyapunov_exponent():
    # products of i.i.d. upper-triangular matrices grow at the top exponent
    # max(E log|a11|, E log|a22|), read off the laws without simulation
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    chk = t.classify(m).check("lyapunov_negative")
    assert chk.status == "pass"
    assert chk.detail == "E log|A11| = -1, E log|A22| = -2"
    unstable = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                                  a22=Lognormal(0.1, 1), b1=Constant(1.0),
                                  b2=Constant(1.0))
    assert t.classify(unstable).check("lyapunov_negative").status == "fail"


# Models the config loader accepts, each of which made classify raise; the
# report now says which condition fails.

@pytest.mark.parametrize("spec", [Constant(0.1), Uniform(0.15, 0.19)])
def test_solve_tail_index_reads_an_underflowing_moment_as_below_one(spec):
    # 0.1^512 == 0.0 in floats, whose log raised a math domain error
    with pytest.raises(NoRoot, match="stays below 1"):
        t.solve_tail_index(spec)
    m = IndependentEntries(a11=spec, a12=Constant(1.0), a22=Lognormal(-1, 1),
                           b1=Constant(1.0), b2=Constant(1.0))
    report = t.classify(m)
    assert report.regime1 is None and report.theorem_case == CASE_UNSUPPORTED
    assert "stays below 1" in report.check("grey_coord1").detail


def test_solve_tail_index_has_no_root_below_its_search_start():
    # E|A|^beta = exp(beta^2 0.32 - beta 1e-300) passes 1 near 3e-300, and
    # the bracket [1e-6, hi] has no sign change
    with pytest.raises(NoRoot, match="already at beta"):
        t.solve_tail_index(Lognormal(-1e-300, 0.8))


def test_solve_tail_index_stops_short_of_the_moment_bound():
    # E|A|^beta < 1 up to the Pareto index, and the last grid points
    # round up to the index, where the moment diverges
    with pytest.raises(NoRoot, match="stays below 1"):
        t.solve_tail_index(t.Scaled(TwoSidedPareto(1.5, 0.25, 0.5), 1e-20))


def test_grey_coordinate_needs_a_finite_diagonal_moment():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(1.0),
                           a22=TwoSidedPareto(1.0, 1.0, 1.0),
                           b1=Constant(1.0), b2=TwoSidedPareto(2.0, 1.0, 0.5))
    report = t.classify(m)
    assert report.regime2 is None and report.alpha2 is None
    assert report.check("grey_coord2").status == "fail"
    assert report.theorem_case == CASE_UNSUPPORTED


def test_grey_zero_diagonal_reports_rho_as_null():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(1.0),
                           a22=Constant(0.0), b1=Constant(1.0),
                           b2=TwoSidedPareto(2.0, 1.0, 0.5))
    report = t.classify(m)
    assert (report.regime2, report.alpha2, report.rho2) == ("grey", 2.0, None)
    assert report.theorem_case == CASE_UNSUPPORTED
    assert report.to_dict()["rho2"] is None


def test_equal_diagonal_drift_needs_the_ratio_moments():
    m = EqualDiagonal(Lognormal(-1, 1),
                      ProportionalToDiagonal(TwoSidedPareto(1.0, 1.0, 0.5)),
                      Constant(1.0), Constant(1.0))
    report = t.classify(m)
    assert report.offdiag_drift is None
    assert report.theorem_case == CASE_UNSUPPORTED
    drift = report.check("offdiag_drift")
    assert drift.status == "fail" and "Pareto index 1" in drift.detail


def test_equal_diagonal_drift_needs_weights_that_reach_the_tilt():
    # at the index 190.3 the weights |d|^alpha of 1M draws of d carry
    # none of the tilted measure (the largest |d| is near 0.76, and
    # 0.76^190 ~ 1e-23), so a Monte Carlo drift near 0 +- 0 is no evidence
    # of a zero drift
    m = EqualDiagonal(t.Scaled(Normal(1.3, 0.5), 0.2),
                      IndependentOffDiagonal(Uniform(-1.0, 2.5)),
                      Constant(1.0), Constant(1.0))
    report = t.classify(m)
    assert report.alpha1 == pytest.approx(190.29950721482754, rel=1e-12)
    assert report.offdiag_drift is None
    assert report.theorem_case == CASE_UNSUPPORTED
    drift = report.check("offdiag_drift")
    assert drift.status == "fail" and "effective sample size" in drift.detail


def test_kesten_goldie_index_past_float_range_is_found():
    # |f|^beta underflows and the inner moment overflows near beta = 126,
    # which once stopped the search there; log E|A|^beta =
    # beta (mu + log|f|) + sigma^2 beta^2 / 2 has its root at 127.05
    d = t.Scaled(Lognormal(-0.0033, 0.3), -0.0033)
    m = EqualDiagonal(d, ProportionalToDiagonal(Lognormal(0.0, 0.3)),
                      Constant(0.0), Constant(-0.95))
    report = t.classify(m)
    k = 0.0033 - math.log(0.0033)  # -(mu + log|f|)
    assert report.regime1 == "kesten_goldie"
    assert report.alpha1 == pytest.approx(2.0 * k / 0.09, rel=1e-9)
    # rho = E|A|^alpha log|A| is the log moment's slope there, k
    assert 0.0 < report.rho1 < math.inf
    assert report.rho1 == pytest.approx(k, rel=1e-9)
    assert report.theorem_case == CASE_EQUAL_DIAG_NONZERO_DRIFT


@pytest.mark.parametrize("sigma, factor", [(0.3, 1e-3), (0.5, 1e-6)])
def test_solve_tail_index_of_a_scaled_law_whose_inner_moment_overflows(
        sigma, factor):
    # log E|A|^beta = beta log f + sigma^2 beta^2 / 2; at the root the
    # inner moment E X^beta = f^-beta is far past float range
    alpha = t.solve_tail_index(t.Scaled(Lognormal(0.0, sigma), factor))
    exact = 2.0 * abs(math.log(factor)) / sigma ** 2
    assert abs(alpha / exact - 1.0) <= 1e-9


@pytest.mark.parametrize("spec, index", [
    (Normal(0.1, 0.08), 374.70370898122245),
    (t.Scaled(Normal(1.3, 0.5), 0.2), 190.29950721482754)])
def test_solve_tail_index_of_a_normal_with_a_large_index(spec, index):
    # 40-digit mpmath roots; where the Normal rule split its nodes at the
    # density's mode, they were too coarse for the peak of |x|^beta times
    # the density, and the roots were off by 3e-5 and 1.4e-5 (relative)
    assert t.solve_tail_index(spec) == pytest.approx(index, rel=1e-12)


@pytest.mark.parametrize("spec", [Lognormal(-1.0, 0.05),
                                  Lognormal(-0.01, 0.005)])
def test_solve_tail_index_above_512(spec):
    # index 2 |mu| / sigma^2 = 800, past the grid's old end at 2^9 = 512
    exact = 2.0 * abs(spec.mu) / spec.sigma ** 2
    assert abs(t.solve_tail_index(spec) - exact) <= 1e-9


def test_solve_tail_index_ends_its_grid_at_8192():
    # index 2 / 1e-4 = 20000, past the grid's end: no root, as documented
    with pytest.raises(NoRoot, match="stays below 1"):
        t.solve_tail_index(Lognormal(-1.0, 0.01))


@pytest.mark.parametrize("a22, regime2", [
    (Uniform(-5.0, 5.0), None), (Normal(0.0, 5.0), None),
    (Lognormal(1.0, 1.0), None),
    (t.Scaled(Lognormal(0.0, 0.3), 1e-3), "kesten_goldie")],
    ids=["uniform", "normal", "lognormal", "scaled"])
def test_classify_reports_on_a_pareto_noise_past_float_range(a22, regime2):
    # E|a22|^500, the grey condition's moment, passes float range, which
    # raised OverflowError; the condition now reads its log
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(1.0), a22=a22,
                           b1=Constant(1.0),
                           b2=TwoSidedPareto(500.0, 1.0, 0.5))
    report = t.classify(m)
    json.dumps(report.to_dict(), allow_nan=False)
    assert report.regime2 == regime2
    if regime2 is None:
        assert report.check("grey_coord2").detail == (
            "B regularly varying but E|A|^alpha >= 1")


def test_sign_summary_holds_plain_bools_for_numpy_parameters():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Uniform(np.float64(-1.2), np.float64(0.3)),
                           b1=Constant(1.0), b2=Constant(1.0))
    sign = t.classify(m).sign_case
    assert all(type(v) is bool for v in sign.to_dict().values())
