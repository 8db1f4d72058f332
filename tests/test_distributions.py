"""Distribution layer: sampling, moments, tilting.

Frozen reference values were computed with 40-digit mpmath quadrature,
independent of the scipy routines under test.
"""
import math

import numpy as np
import pytest
from scipy import integrate

import trisre as t
from trisre import (Constant, Lognormal, Normal, Scaled, SignedLognormal,
                    TwoSidedPareto, Uniform)
from trisre.errors import LogMomentUndefined, MomentDiverges, TiltUnsupported


def test_sample_constant_and_scaled():
    rng = t.RngStream(1)
    assert t.sample(Constant(3.0), rng) == 3.0
    assert t.sample(Scaled(Constant(2.0), -1.5), rng) == -3.0


def test_sample_lognormal_mean_matches_closed_form():
    rng = t.RngStream(2)
    x = t.sample(Lognormal(0.0, 1.0), rng, size=1_000_000)
    target = math.exp(0.5)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - target) <= 3 * se


def test_sample_determinism_and_stream_independence():
    a = t.sample(Lognormal(-1, 1), t.RngStream(5, 9), size=100)
    b = t.sample(Lognormal(-1, 1), t.RngStream(5, 9), size=100)
    c = t.sample(Lognormal(-1, 1), t.RngStream(5, 10), size=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_two_sided_pareto_tail_split():
    rng = t.RngStream(3)
    spec = TwoSidedPareto(2.0, 1.5, 0.7)
    x = t.sample(spec, rng, size=200_000)
    assert np.all(np.abs(x) >= 1.5)
    frac_pos = np.mean(x > 0)
    assert abs(frac_pos - 0.7) < 0.01


def test_abs_moment_lognormal_closed_form():
    assert t.abs_moment(Lognormal(-1, 1), 2.0) == pytest.approx(1.0, abs=1e-12)
    assert t.abs_moment(Lognormal(0.3, 0.7), 1.9) == pytest.approx(
        math.exp(0.3 * 1.9 + 0.5 * (0.7 * 1.9) ** 2), rel=1e-14)


def test_abs_moment_lognormal_matches_quadrature():
    # density-level quadrature as an independent route to the closed form
    mu, sigma, beta = -0.6, 0.8, 2.3

    def dens(x):
        return (math.exp(-0.5 * ((math.log(x) - mu) / sigma) ** 2)
                / (x * sigma * math.sqrt(2 * math.pi)))

    val, _ = integrate.quad(lambda x: x ** beta * dens(x), 0, np.inf,
                            epsabs=1e-12, epsrel=1e-12, limit=300)
    assert t.abs_moment(Lognormal(mu, sigma), beta) == pytest.approx(
        val, rel=1e-10)


def test_abs_moment_zeroth_is_one():
    specs = [Constant(0.0), Normal(1, 2), Lognormal(0, 1),
             SignedLognormal(0, 1, 0.3), TwoSidedPareto(1.5, 1, 0.5),
             Uniform(-1, 2), Scaled(Normal(0, 1), 3.0)]
    for spec in specs:
        assert t.abs_moment(spec, 0.0) == 1.0


def test_abs_moment_normal():
    assert t.abs_moment(Normal(0, 1), 2.0) == pytest.approx(1.0, rel=1e-12)
    # mpmath oracle, 40 dps
    assert t.abs_moment(Normal(0.7, 1.3), 1.6) == pytest.approx(
        1.64967989398670365, rel=1e-9)
    assert t.abs_moment(Normal(-0.4, 0.9), 2.5) == pytest.approx(
        1.18358808659919719, rel=1e-9)


def test_abs_moment_uniform_against_oracle():
    assert t.abs_moment(Uniform(-0.3, 1.1), 1.7) == pytest.approx(
        0.352441172002978043, rel=1e-12)


def test_abs_moment_pareto_and_divergence():
    spec = TwoSidedPareto(2.0, 1.0, 0.5)
    assert t.abs_moment(spec, 1.0) == pytest.approx(2.0)
    with pytest.raises(MomentDiverges):
        t.abs_moment(spec, 2.0)
    with pytest.raises(MomentDiverges):
        t.abs_moment(spec, 2.5)


def test_signed_moments_examples():
    assert t.signed_moment(Lognormal(-1, 1), 2.0, "plus") == pytest.approx(1.0)
    assert t.signed_moment(Lognormal(-1, 1), 2.0, "minus") == 0.0
    assert t.signed_moment(SignedLognormal(-1, 1, 0.5), 2.0, "plus") == \
        pytest.approx(0.5, rel=1e-12)
    assert t.signed_moment(Constant(-2.0), 1.0, "minus") == pytest.approx(2.0)
    assert t.signed_moment(Constant(-2.0), 1.0, "plus") == 0.0
    # mpmath oracle
    assert t.signed_moment(Normal(0.7, 1.3), 1.6, "plus") == pytest.approx(
        1.36996599035575022, rel=1e-9)


def test_signed_moments_scaled_flip():
    spec = Scaled(SignedLognormal(0.2, 0.5, 0.8), -2.0)
    plus = t.signed_moment(spec, 1.3, "plus")
    inner_minus = t.signed_moment(SignedLognormal(0.2, 0.5, 0.8), 1.3, "minus")
    assert plus == pytest.approx(2.0 ** 1.3 * inner_minus, rel=1e-12)


def test_normal_sign_probabilities_match_tabulated_phi():
    from trisre.distributions import prob_negative
    # standard normal CDF values Phi(z), tabulated to 16 digits
    phi = {0.5: 0.6914624612740131, 1.0: 0.8413447460685429,
           2.0: 0.9772498680518208}
    for (mean, sd), z in [((1.0, 1.0), 1.0), ((-2.0, 1.0), -2.0),
                          ((0.5, 1.0), 0.5), ((-1.5, 3.0), -0.5)]:
        cdf_z = phi[z] if z > 0 else 1.0 - phi[-z]
        spec = Normal(mean, sd)  # P(X < 0) = Phi(-z), P(X > 0) = Phi(z)
        assert prob_negative(spec) == pytest.approx(1.0 - cdf_z, abs=1e-15)
        assert t.signed_moment(spec, 0.0, "plus") == pytest.approx(
            cdf_z, abs=1e-15)
        assert t.signed_moment(spec, 0.0, "minus") == pytest.approx(
            1.0 - cdf_z, abs=1e-15)
    assert prob_negative(Normal(0.0, 3.0)) == 0.5


def test_log_abs_moment():
    assert t.log_abs_moment(Lognormal(-1, 1)) == -1.0
    assert t.log_abs_moment(Constant(math.e)) == pytest.approx(1.0)
    assert t.log_abs_moment(SignedLognormal(-2, 1, 0.3)) == -2.0
    assert t.log_abs_moment(Normal(0, 1)) == pytest.approx(
        -0.635181422730739085, abs=1e-10)
    assert t.log_abs_moment(Normal(0.7, 1.3)) == pytest.approx(
        -0.234589595668816423, abs=1e-9)
    assert t.log_abs_moment(Uniform(-1, 1)) == pytest.approx(-1.0, abs=1e-12)
    assert t.log_abs_moment(TwoSidedPareto(2.0, 1.0, 0.5)) == pytest.approx(0.5)
    with pytest.raises(LogMomentUndefined):
        t.log_abs_moment(Constant(0.0))
    with pytest.raises(LogMomentUndefined):
        t.log_abs_moment(Scaled(Lognormal(0, 1), 0.0))


def test_tilted_examples():
    assert t.tilted(Lognormal(-1, 1), 2.0) == Lognormal(1.0, 1)
    assert t.tilted(Constant(2.0), 7.3) == Constant(2.0)
    assert t.tilted(SignedLognormal(-1, 1, 0.4), 2.0) == \
        SignedLognormal(1.0, 1, 0.4)
    assert t.tilted(Scaled(Lognormal(0, 1), -2.0), 1.0) == \
        Scaled(Lognormal(1.0, 1), -2.0)
    for spec in (Normal(0, 1), Uniform(0, 1), TwoSidedPareto(2, 1, 0.5)):
        with pytest.raises(TiltUnsupported):
            t.tilted(spec, 1.0)


def test_tilted_lognormal_matches_weighted_density():
    # tilted mean must equal E[|X|^a X]/E|X|^a computed in closed form
    spec = Lognormal(-0.5, 0.8)
    a = 1.7
    tl = t.tilted(spec, a)
    lhs = t.mean(tl)
    rhs = t.abs_moment(spec, a + 1.0) / t.abs_moment(spec, a)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_abs_normal_moment():
    assert t.abs_normal_moment(2.0) == pytest.approx(1.0, rel=1e-12)
    assert t.abs_normal_moment(0.0) == pytest.approx(1.0, rel=1e-12)
    assert t.abs_normal_moment(1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12)
    assert t.abs_normal_moment(1.7) == pytest.approx(
        0.906258460800425119, rel=1e-12)


def test_abs_moment_derivative_closed_vs_fd():
    for spec, beta in [(Lognormal(-1, 1), 2.0), (Lognormal(-2, 1), 4.0),
                       (SignedLognormal(-1, 1, 0.3), 1.2),
                       (TwoSidedPareto(3.0, 0.7, 0.5), 1.1),
                       (Scaled(Lognormal(-1, 1), 2.0), 1.5)]:
        h = 1e-6
        fd = (t.abs_moment(spec, beta + h) - t.abs_moment(spec, beta - h)) / (2 * h)
        assert t.abs_moment_derivative(spec, beta) == pytest.approx(fd, rel=1e-5)


def test_mc_moments_match_closed_form():
    rng = t.RngStream(17)
    cases = [(Lognormal(-1, 1), 1.0), (SignedLognormal(-0.5, 0.7, 0.4), 0.5),
             (Uniform(-2, 3), 1.0), (TwoSidedPareto(3.0, 1.0, 0.6), 1.0)]
    for i, (spec, beta) in enumerate(cases):
        x = t.sample(spec, rng.substream(i), size=1_000_000)
        vals = np.abs(x) ** beta
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - t.abs_moment(spec, beta)) <= 4 * se


def test_dist_serialization_round_trip():
    specs = [Constant(3.0), Normal(0.5, 2.0), Lognormal(-1, 1),
             SignedLognormal(-1, 1, 0.25), TwoSidedPareto(2.5, 0.5, 0.9),
             Uniform(-1, 4), Scaled(Lognormal(0, 1), -0.5)]
    for spec in specs:
        assert t.dist_from_dict(t.dist_to_dict(spec)) == spec
    d = t.dist_to_dict(Lognormal(-1.0, 1.0))
    assert d == {"kind": "lognormal", "mu": -1.0, "sigma": 1.0}


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Normal(0, 0.0)
    with pytest.raises(ValueError):
        Lognormal(0, -1.0)
    with pytest.raises(ValueError):
        SignedLognormal(0, 1, 1.5)
    with pytest.raises(ValueError):
        TwoSidedPareto(0.0, 1, 0.5)
    with pytest.raises(ValueError):
        Uniform(2, 2)
