"""Distribution layer: sampling, moments, tilting.

Frozen reference values were computed with 40-digit mpmath quadrature,
independent of the double-exponential rule under test.
"""
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import trisre as t
from trisre import (Constant, Lognormal, Normal, Scaled, SignedLognormal,
                    TwoSidedPareto, Uniform)
from trisre import distributions as dist
from trisre.errors import LogMomentUndefined, MomentDiverges, TiltUnsupported


def test_sample_constant_and_scaled():
    rng = t.RngStream(1)
    assert t.sample(Constant(3.0), rng, size=1).tolist() == [3.0]
    assert t.sample(Scaled(Constant(2.0), -1.5), rng, size=1).tolist() == [-3.0]


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


class _ZeroGenerator:
    """A generator whose uniforms are all 0, the one value random() can
    return that Pareto inversion must not take to infinity."""

    def random(self, n):
        return np.zeros(n)


class _ZeroStream:
    gen = _ZeroGenerator()


def test_sample_two_sided_pareto_is_finite_at_a_zero_uniform():
    x = t.sample(TwoSidedPareto(2.0, 1.0, 0.7), _ZeroStream(), 3)
    assert x.tolist() == [1.0, 1.0, 1.0]


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


# 40-digit mpmath values over mean/sd in [-8, 100], sd in {0.1, 1.3} and
# beta in [0.05, 7.5]: (mean, sd, beta, E[(X^+)^beta]) for X ~ N(mean, sd^2)
_POSITIVE_PART_GRID = [
    (-0.8, 0.1, 0.05, 4.85900332911218876e-16),
    (-0.8, 0.1, 1, 7.55026241194649891e-18),
    (-0.8, 0.1, 2.5, 3.2695345378197451e-20),
    (-0.8, 0.1, 7.5, 2.7199807798126341e-26),
    (-10.4, 1.3, 0.05, 5.52388163792927111e-16),
    (-10.4, 1.3, 1, 9.81534113553044859e-17),
    (-10.4, 1.3, 2.5, 1.99225217748861339e-17),
    (-10.4, 1.3, 7.5, 6.15376599334916989e-18),
    (-0.3, 0.1, 0.05, 0.00110139089896932818),
    (-0.3, 0.1, 1, 0.0000382154317047723596),
    (-0.3, 0.1, 2.5, 5.4034785865491024e-7),
    (-0.3, 0.1, 7.5, 1.37986836776034126e-11),
    (-3.9, 1.3, 0.05, 0.00125209894929434273),
    (-3.9, 1.3, 1, 0.000496800612162040674),
    (-3.9, 1.3, 2.5, 0.000329254572953498547),
    (-3.9, 1.3, 7.5, 0.00312185552921691725),
    (-0.1, 0.1, 0.05, 0.133884239133968615),
    (-0.1, 0.1, 1, 0.00833154705876862984),
    (-0.1, 0.1, 2.5, 0.00025476047402656549),
    (-0.1, 0.1, 7.5, 4.46463887072989703e-8),
    (-1.3, 1.3, 0.05, 0.152204194989796265),
    (-1.3, 1.3, 1, 0.108310111763992188),
    (-1.3, 1.3, 2.5, 0.155235279898865639),
    (-1.3, 1.3, 7.5, 10.1009327195227649),
    (-0.03, 0.1, 0.05, 0.32777577093998341),
    (-0.03, 0.1, 1, 0.0266761242117209877),
    (-0.03, 0.1, 2.5, 0.00112738109400217379),
    (-0.03, 0.1, 7.5, 4.15376057612982343e-7),
    (-0.39, 1.3, 0.05, 0.372626738410633555),
    (-0.39, 1.3, 1, 0.34678961475237284),
    (-0.39, 1.3, 2.5, 0.686956327698885778),
    (-0.39, 1.3, 7.5, 93.9759235345146502),
    (0.02, 0.1, 0.05, 0.503677607813386281),
    (0.02, 0.1, 1, 0.0506894635863276483),
    (0.02, 0.1, 2.5, 0.00273434295891489419),
    (0.02, 0.1, 7.5, 1.73396251996503945e-6),
    (0.26, 1.3, 0.05, 0.572597979624118548),
    (0.26, 1.3, 1, 0.658963026622259427),
    (0.26, 1.3, 2.5, 1.66613952257909621),
    (0.26, 1.3, 7.5, 392.29687460651547),
    (0.1, 0.1, 0.05, 0.749323836147439053),
    (0.1, 0.1, 1, 0.10833154705876863),
    (0.1, 0.1, 2.5, 0.00871366199776621393),
    (0.1, 0.1, 7.5, 0.000013229621860754611),
    (1.3, 1.3, 0.05, 0.851857037133137478),
    (1.3, 1.3, 1, 1.40831011176399219),
    (1.3, 1.3, 2.5, 5.3095668169713631),
    (1.3, 1.3, 7.5, 2993.10927914676508),
    (0.25, 0.1, 0.05, 0.923125810175425838),
    (0.25, 0.1, 1, 0.25020041371791282),
    (0.25, 0.1, 2.5, 0.0405169216849476939),
    (0.25, 0.1, 7.5, 0.000295276005677167187),
    (3.25, 1.3, 0.05, 1.04944108224316082),
    (3.25, 1.3, 1, 3.25260537833286666),
    (3.25, 1.3, 2.5, 24.6885067333773753),
    (3.25, 1.3, 7.5, 66804.1280245111152),
    (1.0, 0.1, 0.05, 0.999758966944334181),
    (1.0, 0.1, 1, 1.0),
    (1.0, 0.1, 2.5, 1.01873820651135358),
    (1.0, 0.1, 7.5, 1.25905218389450646),
    (13.0, 1.3, 0.05, 1.13656028321100074),
    (13.0, 1.3, 1, 13.0),
    (13.0, 1.3, 2.5, 620.756069934803425),
    (13.0, 1.3, 7.5, 284851737.578665327),
    (3.0, 0.1, 0.05, 1.05643938484056573),
    (3.0, 0.1, 1, 3.0),
    (3.0, 0.1, 2.5, 15.6209309639177206),
    (3.0, 0.1, 7.5, 3891.29311034142205),
    (39.0, 1.3, 0.05, 1.20099652629222504),
    (39.0, 1.3, 1, 39.0),
    (39.0, 1.3, 2.5, 9518.42941779014992),
    (39.0, 1.3, 7.5, 880377809663.143645),
    (10.0, 0.1, 0.05, 1.12201578912477886),
    (10.0, 0.1, 1, 10.0),
    (10.0, 0.1, 2.5, 316.287058352363511),
    (10.0, 0.1, 7.5, 31699904.820176267),
    (130.0, 1.3, 0.05, 1.27554603181256334),
    (130.0, 1.3, 1, 130.0),
    (130.0, 1.3, 2.5, 192725.775924714852),
    (130.0, 1.3, 7.5, 7171881423671082.15),
]
# (mean, sd, E log|X|) on the same (mean, sd) pairs
_LOG_ABS_GRID = [
    (-0.8, 0.1, -0.231149579245133508),
    (-10.4, 1.3, 2.33379977821640323),
    (-0.3, 0.1, -1.27516850026790889),
    (-3.9, 1.3, 1.28978085719362785),
    (-0.1, 0.1, -2.51108091142873996),
    (-1.3, 1.3, 0.0538684460327967728),
    (-0.03, 0.1, -2.89343349321130572),
    (-0.39, 1.3, -0.328484135749768988),
    (0.02, 0.1, -2.91789914098382281),
    (0.26, 1.3, -0.352949783522286074),
    (0.1, 0.1, -2.51108091142873996),
    (1.3, 1.3, 0.0538684460327967728),
    (0.25, 0.1, -1.49734185598166087),
    (3.25, 1.3, 1.06760750147987587),
    (1.0, 0.1, -0.00507764167776545423),
    (13.0, 1.3, 2.55987171578377128),
    (3.0, 0.1, 1.09805580373710667),
    (39.0, 1.3, 3.66300516119864341),
    (10.0, 0.1, 2.30253508549154437),
    (130.0, 1.3, 4.86748444295308111),
]


@pytest.mark.parametrize("mean, sd, beta, value", _POSITIVE_PART_GRID)
def test_normal_positive_part_moment_matches_mpmath_grid(mean, sd, beta, value):
    assert t.signed_moment(Normal(mean, sd), beta, "plus") == pytest.approx(
        value, rel=1e-10)
    assert t.signed_moment(Normal(-mean, sd), beta, "minus") == pytest.approx(
        value, rel=1e-10)


@pytest.mark.parametrize("mean, sd, value", _LOG_ABS_GRID)
def test_normal_log_abs_moment_matches_mpmath_grid(mean, sd, value):
    assert t.log_abs_moment(Normal(mean, sd)) == pytest.approx(value, rel=1e-10)


def test_narrow_normal_far_from_zero():
    # the mass sits 100 sd from 0, where an adaptive rule on (0, inf)
    # never samples: E|X|^4 = m^4 + 6 m^2 s^2 + 3 s^4
    spec = Normal(10.0, 0.1)
    assert t.abs_moment(spec, 4.0) == pytest.approx(10006.0003, rel=1e-12)
    assert t.mean(spec) == pytest.approx(10.0, rel=1e-12)
    # E log X = log m - s^2 / (2 m^2) - 3 s^4 / (4 m^4) - ... (delta method)
    assert t.log_abs_moment(spec) == pytest.approx(
        2.30253508549154437, rel=1e-12)


@pytest.mark.parametrize("m", [1e6, 1e8, 1e12])
def test_unit_normal_millions_of_sd_from_zero(m):
    # the quadrature nodes round at the scale of m, so the Gaussian factor
    # must take s - m from the node offsets; E log X = log m - 1/(2 m^2)
    spec = Normal(m, 1.0)
    assert t.mean(spec) == pytest.approx(m, rel=1e-12)
    assert t.abs_moment(spec, 2.0) == pytest.approx(m * m + 1.0, rel=1e-12)
    assert abs(t.log_abs_moment(spec) - math.log(m)) <= 1e-12


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


# (law, beta, log E|X|^beta, sign of E[sgn(X)|X|^beta]) for one law of
# each family where E|X|^beta passes float range
_PAST_FLOAT_RANGE = [
    (Constant(-10.0), 400.0, 400.0 * math.log(10.0), -1),
    (Normal(0.0, 1.0), 400.0, 200.0 * math.log(2.0) + math.lgamma(200.5)
     - 0.5 * math.log(math.pi), 0),
    (Lognormal(0.0, 1.0), 40.0, 800.0, 1),
    (SignedLognormal(0.0, 1.0, 0.3), 40.0, 800.0, -1),
    (TwoSidedPareto(100.0, 1e10, 0.5), 50.0,
     math.log(2.0) + 50.0 * math.log(1e10), 0),
    (Uniform(-3.0, 2.0), 800.0, 801.0 * math.log(3.0)
     + math.log1p((2.0 / 3.0) ** 801) - math.log(801.0 * 5.0), -1),
    (Scaled(Lognormal(0.0, 1.0), -10.0), 40.0, 40.0 * math.log(10.0) + 800.0,
     -1),
]


@pytest.mark.parametrize("spec, beta, log_value, sign", _PAST_FLOAT_RANGE,
                         ids=[type(case[0]).__name__
                              for case in _PAST_FLOAT_RANGE])
def test_moment_past_float_range_is_inf_and_its_log_finite(spec, beta,
                                                           log_value, sign):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t.abs_moment(spec, beta) == math.inf
        assert t.abs_moment_derivative(spec, beta) == math.inf
        assert t.sign_moment(spec, beta) == (sign * math.inf if sign
                                             else 0.0)
        log_m, slope = t.log_moment(spec, beta)
    assert log_m == pytest.approx(log_value, rel=1e-12)
    assert 0.0 < slope < math.inf


def test_scaled_moment_past_the_inner_float_range():
    # f^beta underflows to 0 and E X^beta overflows, which raised
    # OverflowError; their product is exp(-85)
    spec = Scaled(Lognormal(0.0, 0.3), 1e-3)
    beta = 140.0
    assert t.abs_moment(spec, beta) == pytest.approx(
        math.exp(beta * math.log(1e-3) + 0.045 * beta ** 2), rel=1e-12)


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
    # a mode so close to 0 that nodes on (0, mode) would underflow
    assert t.log_abs_moment(Normal(5e-324, 1)) == pytest.approx(
        -0.635181422730739085, abs=1e-10)
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


def test_hermite_rule_is_exact_on_polynomials_below_twice_its_nodes():
    # E Z^(2k) = (2k - 1)!! for the standard normal, odd moments 0; the
    # rounding is relative to the sum of the terms' magnitudes
    z, w = t.distributions._HERMITE_Z, t.distributions._HERMITE_W
    n = z.size
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    for k in range(2 * n):
        exact = 0.0 if k % 2 else float(math.prod(range(k - 1, 0, -2)))
        scale = float(w @ np.abs(z) ** k)
        assert abs(float(w @ z ** k) - exact) <= 1e-13 * scale, k


def test_log_rule_reproduces_moments_across_its_exponent_range():
    law = Lognormal(-1.0, 1.0)
    y, w = t.distributions.log_rule(law, 0.0, 2.0)
    for p in np.linspace(-0.5, 2.5, 13):
        exact = math.exp(p * law.mu + 0.5 * (p * law.sigma) ** 2)
        assert float(w @ np.exp(p * y)) == pytest.approx(exact, rel=1e-12), p
    y, w = t.distributions.log_rule(Constant(2.0), 0.0, 2.0)
    assert (y.tolist(), w.tolist()) == ([math.log(2.0)], [1.0])


@pytest.mark.parametrize("law", [
    Constant(0.0), Constant(-1.0), Normal(1.0, 0.5), Uniform(0.5, 1.5),
    SignedLognormal(-1.0, 1.0, 0.7), TwoSidedPareto(3.0, 1.0, 1.0),
    Scaled(Lognormal(-1.0, 1.0), 2.0),
    # a rule too wide for 16 nodes: it misses E X^8 at sigma = 3
    Lognormal(0.0, 3.0)])
def test_log_rule_is_none_for_laws_without_an_accurate_rule(law):
    assert t.distributions.log_rule(law, 0.0, 8.0) is None


@pytest.mark.parametrize("law, mean, sd, log, factor", [
    (Normal(0.5, 2.0), 0.5, 2.0, False, 1.0),
    (Lognormal(-1.0, 0.7), -1.0, 0.7, True, 1.0),
    (Scaled(Lognormal(-2.0, 1.0), -1.5), -2.0, 1.0, True, -1.5),
    (Scaled(Scaled(Normal(1.0, 0.5), 2.0), 0.5), 1.0, 0.5, False, 1.0),
])
def test_paired_blocks_mirror_each_normal_between_the_halves(law, mean, sd,
                                                            log, factor):
    # m = 2h paths: each block draws one (rows, h) block of standard
    # normals z, path i takes mean + sd z and path i + h mean - sd z (then
    # the exp and the factor), bit for bit; the next block continues the
    # stream
    rows, m = 4, 10
    blocks = dist.step_blocks(law, t.RngStream(7), rows, m, paired=True)
    ref = t.RngStream(7)
    for _ in range(2):
        shift = sd * ref.gen.standard_normal((rows, m // 2))
        halves = [mean + shift, mean - shift]
        if log:
            halves = [np.exp(x) for x in halves]
        if factor != 1.0:
            halves = [x * factor for x in halves]
        got = next(blocks)
        assert got.shape == (rows, m)
        np.testing.assert_array_equal(got[:, :m // 2], halves[0])
        np.testing.assert_array_equal(got[:, m // 2:], halves[1])


@pytest.mark.parametrize("law", [Uniform(-1.0, 2.0),
                                 TwoSidedPareto(2.0, 1.0, 0.7),
                                 SignedLognormal(-1.0, 1.0, 0.3),
                                 Scaled(Uniform(0.0, 1.0), 3.0)])
def test_paired_blocks_draw_other_laws_independently_in_both_halves(law):
    # a law not driven by one normal fills both halves with independent
    # draws: the paired blocks are the unpaired ones, draw for draw
    rows, m = 4, 10
    paired = dist.step_blocks(law, t.RngStream(8), rows, m, paired=True)
    ref = t.RngStream(8)
    for _ in range(2):
        np.testing.assert_array_equal(next(paired),
                                      dist.sample_steps(law, ref, rows, m))
    # a Constant draws nothing, paired or not
    assert next(dist.step_blocks(Constant(2.5), ref, rows, m,
                                 paired=True)) == 2.5


def test_paired_blocks_need_an_even_number_of_paths():
    for law in (Lognormal(-1.0, 1.0), Uniform(0.0, 1.0), Constant(1.0)):
        with pytest.raises(ValueError, match="even number of paths"):
            next(dist.step_blocks(law, t.RngStream(9), 4, 9, paired=True))
