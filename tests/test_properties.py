"""Property suites: structural identities checked over randomized inputs.

Each suite runs at least 200 derandomized cases.
"""
import json
import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import trisre as t
from trisre import distributions as dist
from trisre import stationary
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal, Scaled, SignedLognormal,
                    TwoSidedPareto, Uniform)

from oracles import cross_sum_brute, cross_sum_scan, log_moment_curvature

settings.register_profile("suite", derandomize=True, max_examples=200,
                          deadline=None)
settings.load_profile("suite")

finite = dict(allow_nan=False, allow_infinity=False)


def lognormal_specs():
    return st.builds(Lognormal,
                     st.floats(-2.0, 1.0, **finite),
                     st.floats(0.3, 1.5, **finite))


def signed_lognormal_specs():
    return st.builds(SignedLognormal,
                     st.floats(-2.0, 1.0, **finite),
                     st.floats(0.3, 1.5, **finite),
                     st.floats(0.0, 1.0, **finite))


def menu_specs():
    return st.one_of(
        lognormal_specs(),
        signed_lognormal_specs(),
        st.builds(Constant, st.floats(-3.0, 3.0, **finite)
                  .filter(lambda c: abs(c) > 1e-3)),
        st.builds(Normal, st.floats(-2.0, 2.0, **finite),
                  st.floats(0.2, 2.0, **finite)),
        st.builds(Uniform, st.floats(-3.0, 1.0, **finite),
                  st.floats(1.1, 4.0, **finite)),
        st.builds(TwoSidedPareto, st.floats(1.0, 5.0, **finite),
                  st.floats(0.2, 2.0, **finite),
                  st.floats(0.0, 1.0, **finite)),
        st.builds(Scaled, lognormal_specs(),
                  st.floats(-2.0, 2.0, **finite)
                  .filter(lambda f: abs(f) > 1e-3)),
    )


@given(menu_specs(), st.floats(0.05, 0.95, **finite))
def test_signed_moments_add_to_absolute(spec, frac):
    from trisre.distributions import moment_sup
    sup = moment_sup(spec)
    beta = frac * min(sup, 5.0)
    total = t.abs_moment(spec, beta)
    split = (t.signed_moment(spec, beta, "plus")
             + t.signed_moment(spec, beta, "minus"))
    assert abs(split - total) <= 1e-9 * max(total, 1.0)


def scaled_menu_specs():
    """All seven families, Scaled wrapping any of them (factor 0 included),
    and the zero point mass."""
    return st.one_of(menu_specs(), st.just(Constant(0.0)),
                     st.builds(Scaled, menu_specs(),
                               st.floats(-2.0, 2.0, **finite)))


def _is_zero_law(spec):
    # structural oracle: the point mass at 0, possibly rescaled
    if isinstance(spec, Scaled):
        return spec.factor == 0.0 or _is_zero_law(spec.inner)
    return isinstance(spec, Constant) and spec.c == 0.0


@given(scaled_menu_specs(), st.floats(0.05, 0.95, **finite))
def test_sign_moment_is_abs_moment_without_negative_part(spec, frac):
    beta = frac * min(dist.moment_sup(spec), 5.0)
    if dist.prob_negative(spec) == 0.0:
        assert t.sign_moment(spec, beta) == t.abs_moment(spec, beta)
    else:
        assert t.sign_moment(spec, beta) <= t.abs_moment(spec, beta)


@given(scaled_menu_specs())
def test_sign_probabilities_sum_to_one_off_the_zero_point_mass(spec):
    total = dist.prob_positive(spec) + dist.prob_negative(spec)
    if _is_zero_law(spec):
        assert total == 0.0
        assert dist.is_zero_pointmass(spec)
    else:
        assert abs(total - 1.0) <= math.ulp(1.0)
        assert not dist.is_zero_pointmass(spec)


@given(st.floats(0.05, 5.0, **finite), st.floats(0.0, 6.0, **finite))
def test_zero_mean_normal_parts_are_exact_halves(sd, beta):
    spec = Normal(0.0, sd)
    half = 0.5 * t.abs_moment(spec, beta)
    assert t.signed_moment(spec, beta, "plus") == half
    assert t.signed_moment(spec, beta, "minus") == half


def classifiable_models():
    """Models the config loader accepts, from every menu law: independent
    entries, and equal diagonals (no zero atom) under both couplings."""
    laws = scaled_menu_specs()
    diagonal = laws.filter(lambda d: not dist.is_zero_pointmass(d))
    return st.one_of(
        st.builds(IndependentEntries, laws, laws, laws, laws, laws),
        st.builds(EqualDiagonal, diagonal,
                  st.one_of(st.builds(ProportionalToDiagonal, laws),
                            st.builds(IndependentOffDiagonal, laws)),
                  laws, laws))


@given(classifiable_models())
def test_classify_reports_on_every_model(model):
    report = t.classify(model)
    json.dumps(report.to_dict(), allow_nan=False)


def tiltable_specs():
    return st.one_of(
        lognormal_specs(),
        signed_lognormal_specs(),
        st.builds(Scaled, lognormal_specs(),
                  st.floats(-2.0, 2.0, **finite)
                  .filter(lambda f: abs(f) > 1e-3)),
    )


@given(tiltable_specs(), st.floats(0.3, 2.0, **finite),
       st.integers(0, 2 ** 32 - 1))
def test_tilt_identity_against_weighted_mc(spec, alpha, seed):
    # mean of f under the tilted law == E[|X|^a f(X)] / E|X|^a
    n = 40_000
    tl = t.tilted(spec, alpha)
    x_t = t.sample(tl, t.RngStream(seed, 1), size=n)
    lhs = np.tanh(x_t)
    x = t.sample(spec, t.RngStream(seed, 2), size=n)
    w = np.abs(x) ** alpha
    rhs = w * np.tanh(x)
    lam = t.abs_moment(spec, alpha)
    diff = lhs.mean() - rhs.mean() / lam
    se = math.hypot(lhs.std() / math.sqrt(n), rhs.std() / math.sqrt(n) / lam)
    assert abs(diff) <= max(4 * se, 1e-12)


@given(st.integers(1, 50), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_cross_sum_scan_equals_brute_force(n, seed, signed):
    g = t.RngStream(seed, 3).gen
    a11 = g.lognormal(-1.0, 1.0, size=(n, 3))
    a22 = g.lognormal(-0.5, 0.8, size=(n, 3))
    if signed:
        a12 = g.normal(0.0, 1.0, size=(n, 3))
    else:
        a12 = g.lognormal(-1.0, 0.5, size=(n, 3))
    fast = cross_sum_scan(a11, a12, a22)
    slow = cross_sum_brute(a11, a12, a22)
    # both sum the same n products; allow rounding relative to the
    # cancellation-free magnitude of the terms
    scale = cross_sum_brute(a11, np.abs(a12), a22)
    assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(scale, 1e-300))


def contractive_models():
    diag = st.one_of(
        st.builds(Lognormal, st.floats(-2.0, -0.5, **finite),
                  st.floats(0.3, 1.0, **finite)),
        st.builds(Constant, st.floats(0.05, 0.9, **finite)),
    )
    noise = st.one_of(
        st.builds(Constant, st.floats(-2.0, 2.0, **finite)),
        st.builds(Normal, st.floats(-1.0, 1.0, **finite),
                  st.floats(0.2, 1.0, **finite)),
    )
    offdiag = st.one_of(
        st.builds(Normal, st.floats(-1.0, 1.0, **finite),
                  st.floats(0.2, 1.0, **finite)),
        st.builds(Lognormal, st.floats(-1.5, 0.0, **finite),
                  st.floats(0.2, 0.8, **finite)),
    )
    return st.builds(IndependentEntries, a11=diag, a12=offdiag, a22=diag,
                     b1=noise, b2=noise)


def constant_models():
    """All-constant models: every chain runs the same values, so values
    tie across chains and only the chain ids order them."""
    value = st.floats(-2.0, 2.0, **finite)
    return st.builds(IndependentEntries,
                     a11=st.builds(Constant, st.floats(0.05, 0.9, **finite)),
                     a12=st.builds(Constant, value),
                     a22=st.builds(Constant, st.floats(0.05, 0.9, **finite)),
                     b1=st.builds(Constant, value),
                     b2=st.builds(Constant, value))


@given(st.one_of(contractive_models(), constant_models()),
       st.integers(0, 2 ** 32 - 1),
       st.integers(2, 8 * stationary.CHAIN_LENGTH), st.integers(2, 150))
def test_chain_sample_is_the_same_at_any_worker_count(model, seed, m, keep):
    # two chains to a chunk, so up to four chunks: the arrays, the
    # selected tails and their chain ids are bit-identical at one and two
    # workers, and the tails are those of the chain-major arrays
    def run(workers, tails=None):
        return t.sample_stationary_batch(model, 1e-6, m, t.RngStream(seed, 4),
                                         workers=workers, tails=tails)

    def request():
        return {coord: [t.TailSelection(c, keep) for c in t.tails.CONVENTIONS]
                for coord in ("w1", "w2")}

    with mock.patch.object(stationary, "CHAINS_PER_CHUNK", 2):
        arrays = [run(w) for w in (1, 2)]
        selected = [run(w, request()) for w in (1, 2)]
    for coord in ("w1", "w2"):
        values = getattr(arrays[0], coord)
        assert values.tobytes() == getattr(arrays[1], coord).tobytes()
        for conv in t.tails.CONVENTIONS:
            one, two = (b.tails[coord][conv] for b in selected)
            assert one.values.tobytes() == two.values.tobytes()
            assert one.chains.tobytes() == two.chains.tobytes()
            full = t.EmpiricalTail(values, conv,
                                   chains=arrays[0].chain_ids())
            np.testing.assert_array_equal(one.values, full.values[:keep])
            np.testing.assert_array_equal(one.chains, full.chains[:keep])
            np.testing.assert_array_equal(one.chain_sizes, full.chain_sizes)


@given(menu_specs(), st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 16))
def test_stream_determinism_under_reseeding(spec, seed, stream):
    a = t.sample(spec, t.RngStream(seed, stream), size=64)
    b = t.sample(spec, t.RngStream(seed, stream), size=64)
    assert np.array_equal(a, b)


@given(st.floats(0.5, 5.0, **finite), st.floats(0.5, 1.5, **finite),
       st.floats(0.05, 0.5, **finite), st.floats(0.0, 1.0, **finite))
def test_moment_bound_envelope_on_eps_grid(alpha, sigma, eps0, p_pos):
    # laws normalised to E|X|^alpha = 1: quadratic envelope around alpha
    mu = -alpha * sigma ** 2 / 2.0
    spec = SignedLognormal(mu, sigma, p_pos)
    rho = t.abs_moment_derivative(spec, alpha)
    c0 = log_moment_curvature(spec, alpha, eps0)
    for eps in np.linspace(0.0, eps0, 9):
        up = t.abs_moment(spec, alpha + eps)
        down = t.abs_moment(spec, alpha - eps)
        assert up <= math.exp(eps * rho + c0 * eps * eps) * (1 + 1e-9)
        assert down <= math.exp(-eps * rho + c0 * eps * eps) * (1 + 1e-9)


@given(st.integers(0, 2 ** 32 - 1), st.integers(-8, 8),
       st.integers(10, 400))
def test_hill_scale_invariance_binary_exact(seed, j, k):
    g = t.RngStream(seed, 5).gen
    samples = g.random(1000) ** (-1.0 / 1.7)
    tail = t.EmpiricalTail(samples, "positive")
    scaled = t.EmpiricalTail(samples * 2.0 ** j, "positive")
    assert t.hill(tail, k).value == t.hill(scaled, k).value


SPECIAL = [0.0, -0.0, 1.0, 2.0, -1.0, 3.5, math.inf, -math.inf]


@st.composite
def tail_samples(draw):
    """Samples with ties, signed zeros and infinities: a short list, or a
    heavy-tailed sample of up to 20000 values rounded into ties, large
    enough for the log-factor regression to find its grid points."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(
            st.one_of(st.sampled_from(SPECIAL),
                      st.floats(-1e3, 1e3, **finite)),
            min_size=3, max_size=60)))
    n = draw(st.integers(3, 20_000))
    g = t.RngStream(draw(st.integers(0, 2 ** 32 - 1)), 11).gen
    x = g.random(n) ** (-1.0 / 1.7) * np.where(g.random(n) < 0.3, -1.0, 1.0)
    x = np.round(x, draw(st.integers(0, 3)))
    specials = draw(st.lists(st.sampled_from(SPECIAL), max_size=5))
    x[:len(specials)] = specials[:n]
    return g.permutation(x)


def outcome(read, *args):
    """repr of a read's result, or the type of what it raised; repr tells
    -0.0 from 0.0 and matches nan with nan (which inf - inf gives)."""
    try:
        with np.errstate(invalid="ignore"):
            out = read(*args)
    except (t.TrisreError, ValueError) as exc:
        return type(exc)
    return repr(out.tolist() if isinstance(out, np.ndarray) else out)


@given(tail_samples(), st.sampled_from(t.tails.CONVENTIONS),
       st.integers(-2, 2), st.lists(st.integers(0, 20_000), max_size=6),
       st.randoms(use_true_random=False), st.lists(st.integers(2, 19_999),
                                                   max_size=3))
def test_selection_tails_read_as_the_full_sample(samples, conv, delta, cuts,
                                                 order, ks):
    # a TailSelection kept at, just above or just below the depth of the
    # reads, fed in chunks in any order with one chain a sample, answers
    # every read within its depth bit for bit as the tail of the full
    # sample, and raises ValueError for every read below it
    n = samples.size
    k = t.tails.hill_depth(n)
    need = max(k + 1, t.tails.log_grid_depth(n))
    keep = max(2, need + delta)
    pieces = np.split(np.arange(n), sorted(c % (n + 1) for c in cuts))
    order.shuffle(pieces)
    selection = t.tails.TailSelection(conv, keep)
    for piece in pieces:
        selection.add(samples[piece], piece)
    full = t.EmpiricalTail(samples, conv)
    tail = selection.tail(full.chain_sizes)
    complete = keep >= n
    assert tail.count == n and tail.values.size == min(keep, n)
    np.testing.assert_array_equal(tail.values, full.values[:keep])
    np.testing.assert_array_equal(tail.chains, full.chains[:keep])

    def check(depth, read, *args):
        expected = (ValueError if depth > keep and not complete
                    else outcome(read, full, *args))
        assert outcome(read, tail, *args) == expected

    for kk in {k, *(j for j in ks if j < n)}:
        check(kk + 1, t.hill, kk)
    check(t.tails.log_grid_depth(n), t.default_log_grid)
    near_floor = full.values[max(keep - 3, 0):keep + 3]
    for x in np.unique(np.concatenate((near_floor, samples[:200]))):
        # exact once the least kept value is at most x
        check(np.count_nonzero(full.values > x) + 1, t.ccdf, x)
    if (keep >= need or complete) and isinstance(
            outcome(t.default_log_grid, full), str):
        with np.errstate(invalid="ignore"):
            grid = t.default_log_grid(full)
        for x in grid:
            check(0, t.ccdf, x)
        check(0, t.log_factor_regression, 1.7, grid)


TIED_VALUES = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0]


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3000),
       st.integers(1, 40), st.integers(2, 60),
       st.sampled_from(t.tails.CONVENTIONS),
       st.lists(st.integers(0, 3000), max_size=8),
       st.randoms(use_true_random=False))
def test_selection_ranks_tied_values_by_chain_id(seed, n, chains, keep, conv,
                                                  cuts, order):
    # few distinct values, so the floor value repeats across the cut of
    # nearly every trim, and a keep smaller than most chunks, so both the
    # chunk's own selection and the buffer's trims rank ties: added in
    # random chunks in a random order, the tail is the top keep of the
    # (value, chain id) order of the whole sample
    g = t.RngStream(seed, 12).gen
    samples = g.choice(TIED_VALUES, n)
    ids = g.integers(0, chains, n).astype(np.int32)
    pieces = np.split(np.arange(n), sorted(c % (n + 1) for c in cuts))
    order.shuffle(pieces)
    selection = t.tails.TailSelection(conv, keep)
    for piece in pieces:
        selection.add(samples[piece], ids[piece])
    tail = selection.tail(np.bincount(ids))
    data = {"absolute": np.abs(samples), "positive": samples,
            "negative": -samples}[conv]
    top = np.lexsort((ids, data))[::-1][:keep]
    assert tail.chains.dtype == np.int32
    np.testing.assert_array_equal(tail.values, data[top])
    np.testing.assert_array_equal(tail.chains, ids[top])


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3000),
       st.integers(1, 40),
       st.lists(st.tuples(st.sampled_from(t.tails.CONVENTIONS),
                          st.integers(2, 400)),
                min_size=1, max_size=3, unique_by=lambda c: c[0]),
       st.lists(st.integers(0, 3000), max_size=8),
       st.randoms(use_true_random=False), st.booleans(), st.booleans())
def test_candidate_pass_keeps_what_each_selection_would(seed, n, chains,
                                                        wanted, cuts, order,
                                                        threads, blocks):
    # the selections of one coordinate fed through one candidate pass, in
    # random chunks (some as 2-row blocks with broadcast chain ids, as the
    # sampler hands them) in a random order, from threads or not, on
    # samples with repeated values and both zeros: each keeps the top of
    # the EmpiricalTail of the whole sample and counts every sample
    g = t.RngStream(seed, 13).gen
    samples = np.where(g.random(n) < 0.5, g.choice(TIED_VALUES, n),
                       3.0 * g.standard_normal(n))
    ids = g.integers(0, chains, n).astype(np.int32)
    pieces = np.split(np.arange(n), sorted(c % (n + 1) for c in cuts))
    order.shuffle(pieces)
    selections = [t.tails.TailSelection(c, keep) for c, keep in wanted]

    def add(piece):
        x, chain = samples[piece], ids[piece]
        if blocks and piece.size % 2 == 0:
            # one chain a column, as the stationary sampler's blocks
            x = x.reshape(2, -1)
            chain = np.broadcast_to(chain[:piece.size // 2], x.shape)
            ids[piece] = chain.ravel()
        t.tails.add_candidates(selections, x, chain)

    if threads:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(add, pieces))
    else:
        for piece in pieces:
            add(piece)
    for selection in selections:
        assert selection.count == n
        tail = selection.tail(np.bincount(ids))
        full = t.EmpiricalTail(samples, selection.convention, chains=ids)
        assert tail.count == n
        np.testing.assert_array_equal(tail.values,
                                      full.values[:selection.keep])
        np.testing.assert_array_equal(tail.chains,
                                      full.chains[:selection.keep])
