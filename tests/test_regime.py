"""Tail-index solving and regime classification."""
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
from trisre.errors import NoRoot, NotContractive
from trisre.regime import (CASE_COORD1_KG, CASE_DISTINCT_DIAG_EQUAL_INDEX,
                           CASE_EQUAL_DIAG_NONZERO_DRIFT,
                           CASE_EQUAL_DIAG_ZERO_DRIFT, CASE_UNSUPPORTED)
from trisre.rng import RngStream
from trisre.scenarios import builtin_scenarios, scenario_regime

from oracles import scipy_tail_index


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


def test_solve_tail_index_bit_identical_to_scipy_brentq():
    builtin = {law for config in t.builtin_scenarios(quick=True)
               for law in mod.diag_laws(config.model)}
    solved = 0
    for spec in [*builtin, *_sweep_laws(500, seed=29)]:
        try:
            ours = t.solve_tail_index(spec)
        except (NoRoot, NotContractive) as exc:
            with pytest.raises(type(exc)):
                scipy_tail_index(spec)
            continue
        assert ours == scipy_tail_index(spec), spec
        solved += 1
    assert solved >= 350
    # the root that the x ** 2 fast path and the critical band key on
    assert t.solve_tail_index(Lognormal(-1, 1)) == 2.0


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
