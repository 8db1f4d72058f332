"""Model coupling, forward dynamics, stationary sampling, cross sums."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import trisre as t
from trisre import (Constant, EqualDiagonal, IndependentEntries,
                    IndependentOffDiagonal, Lognormal, Normal,
                    ProportionalToDiagonal, SignedLognormal, TwoSidedPareto)
from trisre import distributions as dist
from trisre import model as mod
from trisre.errors import NotContractive
from trisre.rng import CHUNK, map_chunks
from trisre.stationary import (CHAIN_LENGTH, CHAINS_PER_CHUNK,
                               _series_error_bound, contraction_exponent)
from trisre.tails import CONVENTIONS, TailSelection

from oracles import (cross_sum_brute, cross_sum_scan, iterate_forward,
                     sample_cross_sum_batch, sample_pair_perpetuity_batch,
                     sample_perpetuity_batch, stationary_parts, step_batch,
                     univariate_model)


def constant_model(a11, a12, a22, b1, b2):
    return IndependentEntries(a11=Constant(a11), a12=Constant(a12),
                              a22=Constant(a22), b1=Constant(b1),
                              b2=Constant(b2))


def test_draw_innovation_equal_diagonal_constants():
    m = EqualDiagonal(d=Constant(0.5),
                      a12_mode=IndependentOffDiagonal(Constant(1.0)),
                      b1=Constant(0.0), b2=Constant(0.0))
    innov = t.draw_innovations(m, 1, t.RngStream(1))
    assert innov.a11[0] == innov.a22[0] == 0.5
    assert innov.a12[0] == 1.0


def test_draw_innovation_independent_constants():
    m = constant_model(0.1, 0.2, 0.3, 0.4, 0.5)
    innov = t.draw_innovations(m, 1, t.RngStream(1))
    assert (innov.a11[0], innov.a12[0], innov.a22[0], innov.b1[0],
            innov.b2[0]) == (0.1, 0.2, 0.3, 0.4, 0.5)


def test_equal_diagonal_rejects_zero_atom():
    with pytest.raises(ValueError):
        EqualDiagonal(d=Constant(0.0),
                      a12_mode=IndependentOffDiagonal(Constant(1.0)),
                      b1=Constant(0.0), b2=Constant(0.0))


def test_proportional_offdiagonal_ratio_law():
    m = EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0))
    batch = t.draw_innovations(m, 100_000, t.RngStream(7))
    assert np.array_equal(batch.a11, batch.a22)
    ratio = batch.a12 / batch.a11
    ref = t.sample(Normal(0, 1), t.RngStream(8), size=100_000)
    _, p = stats.ks_2samp(ratio, ref)
    assert p > 0.001


def test_step_examples():
    # from zero, x1 = u, so the first step lands on (b1, b2)
    m = constant_model(0.5, 1.0, 0.5, 0.7, -0.3)
    _, u, x2 = next(mod.chain_steps(m, 1, t.RngStream(1)))
    assert (u[0], x2[0]) == (0.7, -0.3)
    # with b = (1, 1) the second step starts at (1, 1), where the matrix
    # part moves the state to (1.5, 0.5) before b is added
    m2 = constant_model(0.5, 1.0, 0.5, 1.0, 1.0)
    steps = mod.chain_steps(m2, 1, t.RngStream(1))
    _, u, x2 = next(steps)
    x1 = u.copy()
    assert (x1[0], x2[0]) == (1.0, 1.0)
    a11, u, x2 = next(steps)
    assert (a11[0] * x1[0] + u[0] - 1.0, x2[0] - 1.0) == (1.5, 0.5)


SLN = SignedLognormal(-1, 1, 0.3)
PARETO = TwoSidedPareto(3.0, 1.0, 0.6)


def _entries(a12):
    return IndependentEntries(a11=Lognormal(-1, 1), a12=a12,
                              a22=Lognormal(-2, 1), b1=Constant(1.0),
                              b2=Constant(1.0))


def _equal(d, a12_mode):
    return EqualDiagonal(d=d, a12_mode=a12_mode, b1=Constant(1.0),
                         b2=Constant(1.0))


# model, its off-diagonal factor laws, E|a12|^2, sup of a12's finite
# moments, a12 = 0 a.s., a12 < 0 possible
OFFDIAG_CASES = [
    (_equal(SLN, ProportionalToDiagonal(Normal(0.5, 1))),
     (Normal(0.5, 1), SLN), 1.25, math.inf, False, True),
    (_equal(SLN, ProportionalToDiagonal(Constant(0.0))),
     (Constant(0.0), SLN), 0.0, math.inf, True, False),
    (_equal(Lognormal(-1, 1), ProportionalToDiagonal(Constant(0.5))),
     (Constant(0.5), Lognormal(-1, 1)), 0.25, math.inf, False, False),
    (_equal(SLN, ProportionalToDiagonal(PARETO)),
     (PARETO, SLN), 3.0, 3.0, False, True),
    (_equal(SLN, IndependentOffDiagonal(Normal(0, 1))),
     (Normal(0, 1),), 1.0, math.inf, False, True),
    (_entries(Normal(0, 1)), (Normal(0, 1),), 1.0, math.inf, False, True),
    (_entries(Constant(0.0)), (Constant(0.0),), 0.0, math.inf, True, False),
    (_entries(PARETO), (PARETO,), 3.0, 3.0, False, True),
]


@pytest.mark.parametrize("model, factors, second, sup, zero, negative",
                         OFFDIAG_CASES)
def test_offdiag_helpers_follow_the_factor_laws(model, factors, second, sup,
                                                zero, negative):
    assert mod.offdiag_factors(model) == factors
    assert mod.offdiag_abs_moment(model, 2.0) == pytest.approx(second,
                                                              rel=1e-9)
    for beta in (0.5, 1.0, 2.0):
        moments = [dist.abs_moment(f, beta) for f in factors]
        product = moments[0] * moments[1] if len(factors) == 2 else moments[0]
        assert mod.offdiag_abs_moment(model, beta) == product
    assert mod.offdiag_moment_sup(model) == sup \
        == min(dist.moment_sup(f) for f in factors)
    assert mod.offdiag_is_zero(model) is zero \
        is any(dist.is_zero_pointmass(f) for f in factors)
    assert mod.offdiag_negative_possible(model) is negative is (
        not zero and any(dist.prob_negative(f) > 0 for f in factors))


@pytest.mark.parametrize("model", [
    IndependentEntries(a11=SignedLognormal(-1, 1, 0.3), a12=Normal(0.5, 1),
                       a22=Lognormal(-2, 1), b1=Normal(1, 1), b2=PARETO),
    _equal(Lognormal(-1, 1), ProportionalToDiagonal(Normal(0, 1))),
])
def test_coord1_steps_replay_the_chain_one_block_at_a_time(model):
    # each law of the coupling is drawn for a block of B steps at once, law
    # after law in draw_innovations' order; each step then forms u from
    # the x2 before it and advances x2. Two whole blocks and half of a
    # third pin the draw order
    m = 1000
    rows = dist.step_block(m)
    assert rows > 1
    source = t.coord1_steps(model)(m, t.RngStream(3))
    chain = mod.chain_steps(model, m, t.RngStream(3))
    rng = t.RngStream(3)

    def block(law):
        return dist.sample(law, rng, rows * m).reshape(rows, m)

    x2 = np.zeros(m)
    for k in range(2 * rows + rows // 2):
        if k % rows == 0:
            if isinstance(model, IndependentEntries):
                a11s, a12s, a22s, b1s, b2s = (
                    block(law) for law in (model.a11, model.a12, model.a22,
                                           model.b1, model.b2))
            else:
                a11s = a22s = block(model.d)
                a12s = block(model.a12_mode.factor_law) * a11s
                b1s, b2s = block(model.b1), block(model.b2)
        row = k % rows
        u = b1s[row] + a12s[row] * x2
        x2 = a22s[row] * x2 + b2s[row]
        a11, got_u = next(source)
        assert np.array_equal(a11, a11s[row])
        assert np.array_equal(got_u, u)
        a11, got_u, got_x2 = next(chain)
        assert np.array_equal(a11, a11s[row])
        assert np.array_equal(got_u, u)
        assert np.array_equal(got_x2, x2)


def test_stationary_sample_replays_chain_steps_over_its_chunks():
    # two chunks of chains, the last chain short: each chain burns in for
    # the depth and keeps CHAIN_LENGTH steps of x1 = a11 x1 + u and x2
    model = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                               a22=Lognormal(-2, 1), b1=Constant(1.0),
                               b2=Normal(1, 1))
    tol, m = 1e-3, (CHAINS_PER_CHUNK + 10) * CHAIN_LENGTH - 17
    got = t.sample_stationary_batch(model, tol, m, t.RngStream(21), workers=1)
    depth, _ = t.truncation_depth(model, tol)

    def chunk(chains, sub):
        size = chains.stop - chains.start
        x1 = np.zeros(size)
        kept1, kept2 = [], []
        for step, (a11, u, x2) in zip(range(-depth, CHAIN_LENGTH),
                                      mod.chain_steps(model, size, sub)):
            x1 = a11 * x1 + u
            if step >= 0:
                kept1.append(x1)
                kept2.append(x2.copy())
        return np.array(kept1).T.ravel(), np.array(kept2).T.ravel()

    count = -(-m // CHAIN_LENGTH)
    parts = map_chunks(count, CHAINS_PER_CHUNK, chunk, t.RngStream(21),
                       workers=1)
    assert len(parts) == 2
    w1, w2 = (np.concatenate(col)[:m] for col in zip(*parts))
    assert np.array_equal(got.w1, w1)
    assert np.array_equal(got.w2, w2)


def test_iterated_steps_reach_fixed_point():
    m = EqualDiagonal(d=Constant(0.5),
                      a12_mode=IndependentOffDiagonal(Constant(0.0)),
                      b1=Constant(1.0), b2=Constant(1.0))
    w1, w2 = iterate_forward(m, (np.array([5.0]), np.array([-3.0])),
                             10_000, t.RngStream(1))
    assert w2[0] == pytest.approx(2.0, abs=1e-12)
    assert w1[0] == pytest.approx(2.0, abs=1e-12)


def test_truncation_depth_lognormal_contraction():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(0.0),
                           a22=Lognormal(-1, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    from trisre.stationary import contraction_exponent
    eps, q = contraction_exponent(m)
    # e^{-eps + eps^2/2} is minimised at the grid edge eps = 1
    assert eps == pytest.approx(1.0)
    assert q == pytest.approx(math.exp(-0.5), rel=1e-12)
    n6, _ = t.truncation_depth(m, 1e-6)
    n8, _ = t.truncation_depth(m, 1e-8)
    assert n8 > n6 >= 1


def test_truncation_depth_constant_halving_matches_geometric_oracle():
    m = constant_model(0.5, 0.0, 0.5, 1.0, 1.0)
    tol = 1e-6
    n, eps = t.truncation_depth(m, tol)
    assert eps == pytest.approx(1.0)
    # direct geometric-series oracle: remainder of sum 0.5^k is 0.5^n * 2;
    # the implementation bound is conservative, never more than a few
    # extra levels beyond the plain geometric depth
    oracle = math.ceil(math.log(2.0 / tol) / math.log(2.0))
    assert oracle <= n <= oracle + 12
    # certified: actual remainder below tol
    assert 0.5 ** n * 2.0 < tol


def test_truncation_depth_terminating_series():
    m = constant_model(0.0, 0.0, 0.0, 1.0, 1.0)
    n, _ = t.truncation_depth(m, 1e-9)
    assert n == 1
    # with live cross term the second coordinate needs one extra level
    m2 = constant_model(0.0, 1.0, 0.0, 1.0, 1.0)
    n2, _ = t.truncation_depth(m2, 1e-9)
    assert n2 == 2


def test_truncation_not_contractive():
    with pytest.raises(NotContractive):
        t.truncation_depth(constant_model(1.5, 0.0, 0.5, 1.0, 1.0), 1e-6)


def test_stationary_zero_offdiagonal_kills_cross_part():
    # with a12 = 0 the first coordinate never sees the second: flipping b2
    # (a constant, which draws nothing, with the same truncation depth)
    # leaves w1 the same bit for bit
    def model(b2):
        return IndependentEntries(a11=Lognormal(-1, 1), a12=Constant(0.0),
                                  a22=Lognormal(-1, 1), b1=Constant(1.0),
                                  b2=Constant(b2))

    n = CHAINS_PER_CHUNK * CHAIN_LENGTH + 1000
    base = t.sample_stationary_batch(model(1.0), 1e-8, n, t.RngStream(3))
    for workers in (1, 2):
        moved = t.sample_stationary_batch(model(-1.0), 1e-8, n,
                                          t.RngStream(3), workers=workers)
        np.testing.assert_array_equal(moved.w1, base.w1)
        assert np.all(moved.w2 != base.w2)
    _, cross, _ = stationary_parts(model(1.0), 1e-8, 1000, t.RngStream(3))
    assert np.all(cross == 0.0)


def test_stationary_all_zero_matrix_one_step():
    m = constant_model(0.0, 1.0, 0.0, 0.7, 1.3)
    s = t.sample_stationary_batch(m, 1e-9, 1, t.RngStream(3))
    assert s.w2[0] == 0.7 * 0 + 1.3  # noise only
    assert s.w1[0] == pytest.approx(0.7 + 1.0 * 1.3, abs=1e-15)


def test_stationary_deterministic_fixed_point():
    m = EqualDiagonal(d=Constant(0.5),
                      a12_mode=IndependentOffDiagonal(Constant(1.0)),
                      b1=Constant(0.0), b2=Constant(1.0))
    tol = 1e-6
    s = t.sample_stationary_batch(m, tol, 1, t.RngStream(4))
    assert s.w2[0] == pytest.approx(2.0, abs=100 * tol)
    assert s.w1[0] == pytest.approx(4.0, abs=100 * tol)
    assert s.truncation_bound < tol


@pytest.mark.parametrize("m", [1, CHUNK + 1])
@pytest.mark.parametrize("a_law,b_law", [
    (Lognormal(-1, 1), Lognormal(-1, 1)),
    (SignedLognormal(-1, 1, 0.7), SignedLognormal(-1, 1, 0.7)),
    (Lognormal(-1, 1), TwoSidedPareto(1.5, 1.0, 0.6)),
])
def test_perpetuity_batch_equals_embedded_stationary_first_coordinate(
        a_law, b_law, m):
    # the scalar sampler skips the bivariate truncated series, but the
    # embedded model's zero entries draw nothing, so the draws and the
    # output are the same
    x = sample_perpetuity_batch(a_law, b_law, 1e-8, m, t.RngStream(6))
    own, cross, _ = stationary_parts(univariate_model(a_law, b_law), 1e-8,
                                     m, t.RngStream(6))
    np.testing.assert_array_equal(x, own + cross)


def test_zero_path_batches_are_empty_with_depth_and_bound_set():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    batch = t.sample_stationary_batch(m, 1e-8, 0, t.RngStream(1))
    for arr in (batch.w1, batch.w2, batch.chain_ids(),
                *stationary_parts(m, 1e-8, 0, t.RngStream(1))):
        assert arr.shape == (0,)
    full = t.sample_stationary_batch(m, 1e-8, 10, t.RngStream(1))
    assert batch.truncation_depth == full.truncation_depth
    assert batch.truncation_bound == full.truncation_bound
    x = sample_perpetuity_batch(Lognormal(-1, 1), Constant(1.0), 1e-8, 0,
                                t.RngStream(1))
    assert x.shape == (0,)


@pytest.mark.parametrize("workers", [1, 2])
def test_stationary_sampler_peak_is_two_outputs_plus_chunks_in_flight(workers):
    # w1 and w2 are allocated once and every chunk writes its blocks of
    # kept steps into its chains' rows, so the traced peak is the two
    # outputs plus what each running chunk holds: its state, one step's
    # innovations, a block of about CHUNK kept values per coordinate and
    # the temporaries, well under 20 arrays of CHUNK values.
    model = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                               a22=Lognormal(-2, 1), b1=Normal(0, 1),
                               b2=Constant(1.0))
    m = 16 * CHUNK
    t.sample_stationary_batch(model, 1e-8, 1, t.RngStream(2), workers=workers)
    tracemalloc.start()
    try:
        batch = t.sample_stationary_batch(model, 1e-8, m, t.RngStream(2),
                                          workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.w1.size == batch.w2.size == m
    assert peak <= 2 * 8 * m + workers * 20 * 8 * CHUNK


@pytest.mark.parametrize("workers", [1, 2])
def test_stationary_tails_peak_is_the_kept_depths_plus_chunks_in_flight(
        workers):
    # a tails request folds each block of kept steps into the selections,
    # so the traced peak is the selections' buffers (12 bytes per slot, a
    # float64 value and an int32 chain id, for 1.25 times the kept
    # values), which each tail sorts and keeps in place, plus the chunks
    # in flight, with no term in m
    model = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                               a22=Lognormal(-2, 1), b1=Normal(0, 1),
                               b2=Constant(1.0))
    m = 16 * CHUNK
    k = t.tails.hill_depth(m)
    deep = max(k + 1, t.tails.log_grid_depth(m))

    def request():
        return {"w1": [TailSelection(c, k + 1 if c == "negative" else deep)
                       for c in CONVENTIONS],
                "w2": [TailSelection(c, k + 1) for c in CONVENTIONS]}

    t.sample_stationary_batch(model, 1e-8, 10, t.RngStream(2),
                              workers=workers, tails=request())
    tracemalloc.start()
    try:
        selections = request()
        batch = t.sample_stationary_batch(model, 1e-8, m, t.RngStream(2),
                                          workers=workers, tails=selections)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.w1 is None and batch.w2 is None
    kept = sum(s.keep for group in selections.values() for s in group)
    for coord, group in selections.items():
        for s in group:
            tail = batch.tails[coord][s.convention]
            assert tail.count == m and tail.values.size == s.keep
    assert peak <= 16 * kept + workers * 20 * 8 * CHUNK


def test_stationary_tails_are_the_tails_of_the_arrays():
    # three chunks of chains, the last chain short: the selections keep
    # the top values and chain ids of the chain-major arrays
    model = IndependentEntries(a11=SignedLognormal(-1, 1, 0.3),
                               a12=Normal(0, 1), a22=Lognormal(-2, 1),
                               b1=Normal(0, 1), b2=Constant(1.0))
    m = 2 * CHAINS_PER_CHUNK * CHAIN_LENGTH + 5
    full = t.sample_stationary_batch(model, 1e-8, m, t.RngStream(4))
    ids = full.chain_ids()
    assert np.array_equal(np.bincount(ids),
                          [CHAIN_LENGTH] * (ids[-1]) + [5])
    for workers in (1, 2):
        batch = t.sample_stationary_batch(
            model, 1e-8, m, t.RngStream(4), workers=workers,
            tails={coord: [TailSelection(c, 300) for c in CONVENTIONS]
                   for coord in ("w1", "w2")})
        assert batch.truncation_depth == full.truncation_depth
        for coord in ("w1", "w2"):
            assert set(batch.tails[coord]) == set(CONVENTIONS)
            for conv, tail in batch.tails[coord].items():
                ref = t.EmpiricalTail(getattr(full, coord), conv, chains=ids)
                np.testing.assert_array_equal(tail.values, ref.values[:300])
                np.testing.assert_array_equal(tail.chains, ref.chains[:300])
                np.testing.assert_array_equal(tail.chain_sizes,
                                              ref.chain_sizes)


def test_stationary_tails_request_is_checked_up_front():
    model = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                               a22=Lognormal(-2, 1), b1=Normal(0, 1),
                               b2=Constant(1.0))

    def request(w1=CONVENTIONS):
        return {"w1": [TailSelection(c, 5) for c in w1],
                "w2": [TailSelection(c, 5) for c in CONVENTIONS]}

    for tails, match in (({"w1": [], "w3": []}, "coordinates w1 and w2"),
                         ({"w2": []}, "coordinates w1 and w2"),
                         (request(("absolute", "absolute")), "twice")):
        with pytest.raises(ValueError, match=match):
            t.sample_stationary_batch(model, 1e-8, 10, t.RngStream(4),
                                      tails=tails)
    for m in (0, 1):
        with pytest.raises(ValueError, match="at least 2 samples"):
            t.sample_stationary_batch(model, 1e-8, m, t.RngStream(4),
                                      tails=request())
        assert t.sample_stationary_batch(model, 1e-8, m,
                                         t.RngStream(4)).w1.size == m


def test_pair_perpetuity_batch_matches_closed_form_moments():
    # dependent pair B = 1 + A/2 with E A^4 = e^-4 < 1, so X^2 has a
    # finite variance; X = A X' + B gives E X = E B / (1 - E A) and
    # E X^2 = (E B^2 + 2 E[AB] E X) / (1 - E A^2)
    a_law = Lognormal(-1.5, 0.5)

    def steps(k, rng):
        while True:
            a = t.sample(a_law, rng, k)
            yield a, 1.0 + 0.5 * a

    ea = math.exp(-1.5 + 0.125)
    ea2 = math.exp(-3.0 + 0.5)
    eb, eb2, eab = 1.0 + 0.5 * ea, 1.0 + ea + 0.25 * ea2, ea + 0.5 * ea2
    ex = eb / (1.0 - ea)
    ex2 = (eb2 + 2.0 * eab * ex) / (1.0 - ea2)
    x = sample_pair_perpetuity_batch(steps, a_law, 1e-8, 200_000,
                                     t.RngStream(7))
    for vals, exact in ((x, ex), (x * x, ex2)):
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 4 * se


def test_builtin_truncation_depths_and_bounds_unchanged():
    # the forward recursion evaluates the same truncated series as the
    # backward one, so the certified depth and bound stay as they were
    expected = {
        "coord1_dominant_kg": (46, 9.043352773306806e-09),
        "coord1_dominant_grey": (30, 5.939174155727832e-09),
        "coord2_dominant_kg": (48, 8.985778997397912e-09),
        "coord2_dominant_grey": (33, 9.439973210493451e-09),
        "equal_diag_zero_drift": (47, 6.443007133563293e-09),
        "equal_diag_nonzero_drift": (46, 6.721141321033828e-09),
        "distinct_diag_equal_index": (46, 9.043352773306806e-09),
    }
    for config in t.builtin_scenarios(quick=True):
        batch = t.sample_stationary_batch(config.model, config.tol, 100,
                                          t.RngStream(1))
        depth, bound = expected[config.name]
        assert batch.truncation_depth == depth
        assert batch.truncation_bound == pytest.approx(bound, rel=1e-12)


def test_builtin_series_bound_does_not_grow_past_the_depth():
    # every value a chain keeps is a recursion over more than the depth's
    # lags, so the reported bound covers it only if the bound does not
    # grow past the depth: its n q^(n-1) term peaks at n = 1 / log(1/q)
    for config in t.builtin_scenarios(quick=True):
        depth, eps = t.truncation_depth(config.model, config.tol)
        q = contraction_exponent(config.model)[1]
        bounds = [_series_error_bound(config.model, n, eps, q)
                  for n in range(depth, depth + 10 * CHAIN_LENGTH)]
        assert all(b <= a for a, b in zip(bounds, bounds[1:])), config.name
        assert depth >= 1.0 / math.log(1.0 / q)


def test_forward_backward_agreement_ks():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    n = 100_000
    back = t.sample_stationary_batch(m, 1e-8, n, t.RngStream(6))
    depth = back.truncation_depth
    zeros = np.zeros(n)
    fw1, fw2 = iterate_forward(m, (zeros, zeros), 10 * depth, t.RngStream(7))
    _, p2 = stats.ks_2samp(back.w2, fw2)
    _, p1 = stats.ks_2samp(back.w1, fw1)
    assert p2 > 1e-3
    assert p1 > 1e-3


def chain_model():
    return IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                              a22=Lognormal(-2, 1), b1=Constant(1.0),
                              b2=Constant(1.0))


def test_chain_sample_tail_agrees_with_the_iid_series_sample():
    # the chain sample has the law of the truncated backward series: its
    # ccdf at three upper quantiles agrees with that of 200k independent
    # series draws within 4 SE, the chain side's SE clustered by chain
    n = 200_000
    batch = t.sample_stationary_batch(chain_model(), 1e-8, n, t.RngStream(21))
    own, cross, w2 = stationary_parts(chain_model(), 1e-8, n, t.RngStream(22))
    for coord, chain_values, iid_values in (("w1", batch.w1, own + cross),
                                            ("w2", batch.w2, w2)):
        chain = t.EmpiricalTail(chain_values, "absolute",
                                chains=batch.chain_ids())
        iid = t.EmpiricalTail(iid_values, "absolute")
        for q in (0.99, 0.999, 0.9999):
            x = float(np.quantile(iid_values, q))
            se = math.hypot(t.ccdf_se(chain, x), t.ccdf_se(iid, x))
            assert abs(t.ccdf(chain, x) - t.ccdf(iid, x)) <= 4 * se, (coord, q)


def test_clustered_ccdf_se_covers_over_seeds_and_the_iid_se_does_not():
    # 200 samples of 100 chains: the z-scores of ccdf(|W1|, x) against
    # their mean over the seeds spread with SD near 1 under the clustered
    # SE, while the binomial SE, which takes the values as independent,
    # understates the spread of the dependent chain values
    m = 100 * CHAIN_LENGTH
    x = 18.0  # about the 0.985 quantile of |W1|
    p, clustered, binomial = [], [], []
    for seed in range(200):
        batch = t.sample_stationary_batch(chain_model(), 1e-8, m,
                                          t.RngStream(seed, 9), workers=1)
        chain = t.EmpiricalTail(batch.w1, "absolute",
                                chains=batch.chain_ids())
        iid = t.EmpiricalTail(batch.w1, "absolute")
        p.append(t.ccdf(chain, x))
        clustered.append(t.ccdf_se(chain, x))
        binomial.append(t.ccdf_se(iid, x))
    p = np.array(p)
    z_clustered = (p - p.mean()) / np.array(clustered)
    z_binomial = (p - p.mean()) / np.array(binomial)
    assert 0.8 <= z_clustered.std(ddof=1) <= 1.25
    assert z_binomial.std(ddof=1) > 1.25


def test_stationarity_in_law_under_one_step():
    m = IndependentEntries(a11=Lognormal(-1, 1), a12=Lognormal(-1, 0.5),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(1.0))
    n = 100_000
    batch = t.sample_stationary_batch(m, 1e-8, n, t.RngStream(8))
    innov = t.draw_innovations(m, n, t.RngStream(9))
    w1_next, w2_next = step_batch(batch.w1, batch.w2, innov)
    fresh = t.sample_stationary_batch(m, 1e-8, n, t.RngStream(10))
    _, p1 = stats.ks_2samp(w1_next, fresh.w1)
    _, p2 = stats.ks_2samp(w2_next, fresh.w2)
    assert p1 > 1e-3
    assert p2 > 1e-3


def test_cross_sum_depth_one_is_offdiagonal_draw():
    m = constant_model(0.9, 0.37, 0.9, 0.0, 0.0)
    assert sample_cross_sum_batch(m, 1, 1, t.RngStream(1))[0] == 0.37


def test_cross_sum_zero_offdiagonal():
    m = constant_model(0.5, 0.0, 0.7, 1.0, 1.0)
    for n in (1, 3, 10):
        assert sample_cross_sum_batch(m, n, 1, t.RngStream(2))[0] == 0.0


def test_cross_sum_constants_closed_form():
    c, g = 0.8, 0.4
    m = constant_model(c, g, c, 0.0, 0.0)
    for n in (1, 2, 5, 17):
        expected = n * g * c ** (n - 1)
        assert sample_cross_sum_batch(m, n, 1, t.RngStream(3))[0] == \
            pytest.approx(expected, rel=1e-13)


def test_cross_sum_scan_matches_brute_force():
    rng = t.RngStream(11)
    for trial in range(5):
        n = [3, 10, 25, 40, 50][trial]
        g = rng.substream(trial).gen
        a11 = g.lognormal(-1, 1, size=(n, 7))
        a12 = g.normal(0, 1, size=(n, 7))
        a22 = g.lognormal(-0.5, 0.5, size=(n, 7))
        fast = cross_sum_scan(a11, a12, a22)
        slow = cross_sum_brute(a11, a12, a22)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-300)


def test_cross_sum_batch_matches_brute_force_on_its_own_draws():
    # replay the draws of sample_cross_sum_batch through its chunk plan
    model = IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                               a22=Lognormal(-0.5, 0.5), b1=Constant(0.0),
                               b2=Constant(0.0))
    for n in (1, 3, 25):
        got = sample_cross_sum_batch(model, n, 7, t.RngStream(12, n))
        (steps,) = map_chunks(7, CHUNK, lambda paths, sub: [
            t.draw_innovations(model, paths.stop - paths.start, sub)
            for _ in range(n)],
            t.RngStream(12, n))
        a11, a12, a22 = (np.array([getattr(b, k) for b in steps])
                         for k in ("a11", "a12", "a22"))
        assert np.allclose(got, cross_sum_brute(a11, a12, a22),
                           rtol=1e-12, atol=1e-300)


def test_model_serialization_round_trip():
    models = [
        IndependentEntries(a11=Lognormal(-1, 1), a12=Normal(0, 1),
                           a22=Lognormal(-2, 1), b1=Constant(1.0),
                           b2=Constant(2.0)),
        EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=ProportionalToDiagonal(Normal(0, 1)),
                      b1=Constant(1.0), b2=Constant(1.0)),
        EqualDiagonal(d=Lognormal(-1, 1),
                      a12_mode=IndependentOffDiagonal(Normal(0, 2)),
                      b1=Constant(1.0), b2=Constant(1.0)),
    ]
    from trisre import model_from_dict, model_to_dict
    for m in models:
        assert model_from_dict(model_to_dict(m)) == m


def test_model_wire_format_is_pinned():
    lognormal = {"kind": "lognormal", "mu": -1.0, "sigma": 1.0}
    one = {"kind": "constant", "c": 1.0}
    m = IndependentEntries(a11=Lognormal(-1.0, 1.0),
                           a12=t.Scaled(Normal(0.0, 2.0), -0.5),
                           a22=SignedLognormal(-2.0, 1.0, 0.25),
                           b1=TwoSidedPareto(2.5, 0.5, 0.9),
                           b2=t.Uniform(-1.0, 4.0))
    assert t.model_to_dict(m) == {
        "coupling": "independent_entries",
        "a11": lognormal,
        "a12": {"kind": "scaled",
                "inner": {"kind": "normal", "mean": 0.0, "sd": 2.0},
                "factor": -0.5},
        "a22": {"kind": "signed_lognormal", "mu": -2.0, "sigma": 1.0,
                "p_pos": 0.25},
        "b1": {"kind": "two_sided_pareto", "alpha": 2.5, "scale": 0.5,
               "p_pos": 0.9},
        "b2": {"kind": "uniform", "a": -1.0, "b": 4.0}}
    modes = [(ProportionalToDiagonal(Constant(0.5)),
              {"mode": "proportional_to_diagonal",
               "factor_law": {"kind": "constant", "c": 0.5}}),
             (IndependentOffDiagonal(Normal(0.0, 1.0)),
              {"mode": "independent",
               "a12": {"kind": "normal", "mean": 0.0, "sd": 1.0}})]
    for mode, wire in modes:
        m = EqualDiagonal(d=Lognormal(-1.0, 1.0), a12_mode=mode,
                          b1=Constant(1.0), b2=Constant(1.0))
        assert t.model_to_dict(m) == {"coupling": "equal_diagonal",
                                      "d": lognormal, "a12_mode": wire,
                                      "b1": one, "b2": one}
