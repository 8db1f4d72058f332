"""Test oracles: slow or brute-force references, the exact moment engine
and test-only samplers that the library does not use."""
import dataclasses
import math
from itertools import islice, product

import numpy as np
from scipy.optimize import brentq

from trisre import distributions as dist
from trisre.distributions import abs_moment
from trisre.errors import (ArgumentOutOfRange, NoRoot, NotContractive,
                           RequiresExactTilt)
from trisre.estimates import EstimateWithError
from trisre.model import (EqualDiagonal, IndependentEntries, InnovationBatch,
                          ProportionalToDiagonal, TriangularSRE, diag_laws,
                          draw_innovations)
from trisre.rng import CHUNK, RngStream, map_chunks
from trisre.stationary import (_first_depth, contraction_exponent,
                               truncation_depth)
from trisre.tails import goldie_constant_direct
from trisre.tilting import StepSource, _tilted_a22, _vu_steps

_EPS_PROBE = 1 << 16  # pairs drawn to bound E|B|^eps for a jointly sampled (A, B)


def reference_tail_index(spec: dist.Dist) -> float:
    """The root of g(beta) = log E|A|^beta by scipy's brentq run to full
    precision, on a bracket [1e-6, hi] found here: hi is the first point
    with g(hi) > 0 of doublings from 1e-6 up to 2^13 or, for a finite
    moment range, of steps halving the gap to its end. Raises as
    solve_tail_index does: NotContractive unless E log|A| < 0, NoRoot
    when g is not negative at 1e-6 or no such hi exists."""
    def g(beta: float) -> float:
        return dist.log_moment(spec, beta)[0]

    if not dist.log_moment(spec, 0.0)[1] < 0.0:
        raise NotContractive("E log|A| >= 0")
    sup = dist.moment_sup(spec)
    if math.isinf(sup):
        betas = [min(1e-6 * 2.0 ** k, 2.0 ** 13) for k in range(1, 34)]
    else:
        betas = [b for k in range(1, 60) if (b := sup - sup * 2.0 ** -k) < sup]
    hi = next((b for b in betas if g(b) > 0.0), None)
    if not g(1e-6) < 0.0 or hi is None:
        raise NoRoot("no sign change of log E|A|^beta")
    # rtol: 4 machine epsilons, the least that brentq accepts
    return brentq(g, 1e-6, hi, xtol=1e-300, rtol=8.9e-16, maxiter=500)


def combined_se(a: EstimateWithError, b: EstimateWithError) -> float:
    return math.hypot(a.se, b.se)


def cross_sum_scan(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Cross sum from draws of shape (n, m): term i carries i-1 first-
    diagonal factors, the off-diagonal entry, then n-i second-diagonal
    factors. The scan keeps a running first-diagonal prefix and folds
    each new step into the accumulator."""
    n, m = a11.shape
    s = np.zeros(m)
    p1 = np.ones(m)
    for k in range(n):
        s = s * a22[k] + p1 * a12[k]
        p1 = p1 * a11[k]
    return s


def lognormal_ratio_log_drift(model: TriangularSRE, alpha: float) -> float:
    """Reweighted E|V|^alpha log|V|, the drift that normalises the tail of
    the ratio perpetuity, for lognormal a11 and a22: under the alpha-tilt
    of a22, V = a11/a22 is lognormal with log-mean mu11 - mu22' and
    log-variance sigma11^2 + sigma22^2."""
    a22 = dist.tilted(model.a22, alpha)
    v = dist.Lognormal(model.a11.mu - a22.mu,
                       math.hypot(model.a11.sigma, a22.sigma))
    return dist.abs_moment_derivative(v, alpha)


def sample_cross_sum_batch(model: TriangularSRE, n: int, m: int,
                           rng: RngStream) -> np.ndarray:
    """m draws of the depth-n cross sum over fresh innovation paths,
    through cross_sum_scan on each chunk's n steps of draws."""
    if n < 1:
        raise ValueError("n must be >= 1")

    def chunk(paths, sub):
        sz = paths.stop - paths.start
        steps = [draw_innovations(model, sz, sub) for _ in range(n)]
        return cross_sum_scan(*(np.array([getattr(b, k) for b in steps])
                                for k in ("a11", "a12", "a22")))

    parts = map_chunks(m, CHUNK, chunk, rng)
    return np.concatenate(parts) if parts else np.zeros(0)


def stationary_parts(model: TriangularSRE, tol: float, m: int,
                     rng: RngStream, workers: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w1_own, w1_cross, w2) of m independent draws of the depth-truncated
    backward series, run forward from zero, by the three-part chunk that
    returns whole arrays to be concatenated: the i.i.d. reference for the
    library's chain sampler.

    The own part is driven by b1 through the first diagonal, the cross
    part is fed via a12 by the second coordinate from before each step;
    their sum is w1."""
    depth, _ = truncation_depth(model, tol)

    def chunk(paths, sub):
        sz = paths.stop - paths.start
        w1_own = np.zeros(sz)
        w1_cross = np.zeros(sz)
        w2 = np.zeros(sz)
        for _ in range(depth):
            batch = draw_innovations(model, sz, sub)
            w1_cross = batch.a11 * w1_cross + batch.a12 * w2
            w1_own = batch.a11 * w1_own + batch.b1
            w2 = batch.a22 * w2 + batch.b2
        return w1_own, w1_cross, w2

    parts = map_chunks(m, CHUNK, chunk, rng, workers)
    if not parts:
        return np.zeros(0), np.zeros(0), np.zeros(0)
    return tuple(np.concatenate(col) for col in zip(*parts))


def step_batch(w1: np.ndarray, w2: np.ndarray, batch: InnovationBatch):
    """One step of the bivariate map, (a11 w1 + a12 w2 + b1, a22 w2 + b2),
    written apart from the library's model.chain_steps."""
    return (batch.a11 * w1 + batch.a12 * w2 + batch.b1,
            batch.a22 * w2 + batch.b2)


def iterate_forward(model: TriangularSRE, w0: tuple[np.ndarray, np.ndarray],
                    steps: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Run parallel chains from w0 for steps steps, without burn-in;
    returns the final states."""
    w1, w2 = np.asarray(w0[0], dtype=float), np.asarray(w0[1], dtype=float)
    for _ in range(steps):
        w1, w2 = step_batch(w1, w2, draw_innovations(model, w1.size, rng))
    return w1, w2


def univariate_model(a_law: dist.Dist, b_law: dist.Dist) -> TriangularSRE:
    """Embed a scalar recursion as the first coordinate of a degenerate
    bivariate model (zero off-diagonal, zero second coordinate)."""
    return IndependentEntries(a11=a_law, a12=dist.Constant(0.0),
                              a22=dist.Constant(0.0), b1=b_law,
                              b2=dist.Constant(0.0))


def per_step_law_steps(a_law: dist.Dist, b_law: dist.Dist) -> StepSource:
    """The step source of x = a x + b on independent paths, one step at a
    time: a, then b, one distributions.sample call each per step; a
    Constant b is drawn once per chunk. tilting.law_steps runs antithetic
    pairs of paths instead (per_step_paired_law_steps replays it)."""
    def steps(m: int, rng: RngStream):
        b = (dist.sample(b_law, rng, m) if isinstance(b_law, dist.Constant)
             else None)
        while True:
            a = dist.sample(a_law, rng, m)
            yield a, dist.sample(b_law, rng, m) if b is None else b

    return StepSource(steps, dist.any_negative(a_law, b_law))


def paired_block(law: dist.Dist, rng: RngStream, rows: int,
                 m: int) -> np.ndarray:
    """rows steps of the law for m = 2h paths in antithetic pairs, an
    array of shape (rows, m), as distributions.step_blocks draws them with
    paired: a Normal, a Lognormal or a Scaled of either draws a (rows, h)
    block of standard normals z, path i takes mean + sd z and path i + h
    mean - sd z, then the exp of a Lognormal and the product of the
    Scaled factors; every other law draws rows * m values independently."""
    factor, inner = 1.0, law
    while isinstance(inner, dist.Scaled):
        factor *= inner.factor
        inner = inner.inner
    if isinstance(inner, dist.Normal):
        mean, sd = inner.mean, inner.sd
    elif isinstance(inner, dist.Lognormal):
        mean, sd = inner.mu, inner.sigma
    else:
        return dist.sample(law, rng, rows * m).reshape(rows, m)
    shift = sd * rng.gen.standard_normal((rows, m // 2))
    out = np.concatenate([mean + shift, mean - shift], axis=1)
    if isinstance(inner, dist.Lognormal):
        out = np.exp(out)
    return out * factor if factor != 1.0 else out


def per_step_paired_law_steps(a_law: dist.Dist,
                              b_law: dist.Dist) -> StepSource:
    """tilting.law_steps drawn one step at a time: a, then b, each one
    paired_block of a single step. A law of one normal per value draws
    its block's normals in one call, so the library's blocked source
    yields the same arrays."""
    def steps(m: int, rng: RngStream):
        while True:
            yield (paired_block(a_law, rng, 1, m)[0],
                   paired_block(b_law, rng, 1, m)[0])

    return StepSource(steps, dist.any_negative(a_law, b_law), paired=True)


def per_step_lognormal_vu_steps(a11: dist.Lognormal, a12: dist.Lognormal,
                                a22: dist.Lognormal) -> StepSource:
    """tilting._lognormal_vu_steps drawn one step at a time: each step
    fills a (2, h) buffer of standard normals for the h pairs of paths,
    mixes it through the Cholesky factor of the log-pair's covariance,
    path i + h taking the mirror of path i, and yields (V, U)."""
    shift = np.array([[a12.mu - a22.mu], [a11.mu - a22.mu]])
    c22 = a22.sigma ** 2
    l11 = math.sqrt(a12.sigma ** 2 + c22)
    l21 = c22 / l11
    l22 = math.sqrt(a11.sigma ** 2 + c22 - l21 ** 2)

    def steps(m: int, rng: RngStream):
        h = m // 2
        g = np.empty((2, h))
        z = np.empty((2, m))
        while True:
            rng.gen.standard_normal(out=g)
            g[1] *= l22
            g[1] += g[0] * l21
            g[0] *= l11
            np.add(shift, g, out=z[:, :h])
            np.subtract(shift, g, out=z[:, h:])
            np.exp(z, out=z)
            yield z[1], z[0]

    return StepSource(steps, False, paired=True)


def _perpetuity_sums(steps, depth: int, m: int, rng: RngStream,
                     workers: int | None = None) -> np.ndarray:
    """m draws of the depth-step recursion x = a x + b, run from zero.

    steps is a step source of i.i.d. (a, b), fresh for each chunk, so this
    has the law of the backward partial sum
    B_1 + A_1 B_2 + ... + A_1...A_{depth-1} B_depth, with step s using the
    draws of lag depth - s.
    """
    out = np.empty(m)

    def chunk(paths, sub):
        size = paths.stop - paths.start
        x = np.zeros(size)
        for a, b in islice(steps(size, sub), depth):
            x = a * x + b
        out[paths] = x

    map_chunks(m, CHUNK, chunk, rng, workers)
    return out


def sample_perpetuity_batch(a_law: dist.Dist, b_law: dist.Dist, tol: float,
                            m: int, rng: RngStream,
                            workers: int | None = None) -> np.ndarray:
    """m stationary draws of the scalar recursion X = A X' + B, truncated
    at the depth certified for the embedded bivariate model, one draw of
    A and B per step (per_step_law_steps), as the embedded model's
    stationary_parts draws them."""
    depth, _ = truncation_depth(univariate_model(a_law, b_law), tol)
    return _perpetuity_sums(per_step_law_steps(a_law, b_law), depth, m, rng,
                            workers)


def perpetuity_sample_batch(model: TriangularSRE, alpha: float, n: int,
                            m: int, rng: RngStream) -> np.ndarray:
    """m draws of the depth-n partial sum of the reweighted ratio
    perpetuity (term i carries i-1 ratio factors), run as the forward
    recursion x = v x + u from zero. Raw step weights give no sample of
    the reweighted law, so a22 must be exactly tiltable.

    The draws are independent, so a naive SE of their mean holds: a
    paired source runs 2 size paths per chunk, and only the first half,
    whose paths are independent of each other, is kept."""
    if _tilted_a22(model, alpha) is None:
        raise RequiresExactTilt("perpetuity samples need an exactly "
                                "tiltable second diagonal law")
    source = _vu_steps(model, alpha)
    if not source.paired:
        return _perpetuity_sums(source, n, m, rng)

    def first_halves(size, sub):
        for v, u in source(2 * size, sub):
            yield v[:size], u[:size]

    return _perpetuity_sums(first_halves, n, m, rng)


def sample_pair_perpetuity_batch(steps, a_law: dist.Dist, tol: float,
                                 m: int, rng: RngStream) -> np.ndarray:
    """Stationary draws of X = A X' + B for jointly sampled i.i.d. (A, B)
    steps.

    steps(k, rng) must yield arrays (a, b) of shape (k,). The truncation
    analysis uses A's declared law plus a Monte Carlo probe of E|B|^eps
    over _EPS_PROBE pairs (safety factor 10).
    """
    eps, q = contraction_exponent(univariate_model(a_law, dist.Constant(1.0)))
    _, b_probe = next(steps(_EPS_PROBE, rng.substream(0)))
    b_eps = float(np.mean(np.abs(b_probe) ** eps)) * 10.0
    depth = _first_depth(lambda k: q ** k / (1.0 - q) * b_eps, tol ** eps)
    return _perpetuity_sums(steps, depth, m, rng.substream(1))


def goldie_constant_direct_for_laws(a_law: dist.Dist, b_law: dist.Dist,
                                    alpha: float, rho: float, N: int,
                                    rng: RngStream, tol: float = 1e-8
                                    ) -> tuple[EstimateWithError, EstimateWithError]:
    """Direct formula with independent (A, B) laws; the stationary input
    is sampled by the truncated backward series. Reference for the
    perpetuity scan: at alpha = 2 its variance diverges logarithmically."""

    def sampler(m, r):
        x = sample_perpetuity_batch(a_law, b_law, tol, m, r.substream(0),
                                    workers=1)
        step = r.substream(1)
        return dist.sample(a_law, step, m), dist.sample(b_law, step, m), x

    return goldie_constant_direct(sampler, alpha, rho, N, rng,
                                  a_signed=dist.prob_negative(a_law) > 0)


# The exact moment engine. A step maps the integer moments of order <= p
# of the chain, E[x1^i x2^j], or of X' = V X + U, E X^r, linearly. From
# that map T come moments from zero, stationary moments and Goldie's
# increment E[(AX + B)^p - (AX)^p]: p rho (c+ + c-) at an even index p,
# p rho c+ for positive A and B (Goldie 1991; Buraczewski, Damek &
# Mikosch 2016, Stochastic Models with Power-Law Tails). Moment vectors
# run from the constant 1 to the top moment, infinite at the index p.

def _power(law: dist.Dist, r: int, beta: float | None = None) -> float:
    """E[sgn(X)^r |X|^beta]; by default beta = r, so E[X^r]."""
    beta = r if beta is None else beta
    if beta == 0 and r % 2 == 0:
        return 1.0
    return (dist.signed_moment(law, beta, "plus")
            + (-1) ** r * dist.signed_moment(law, beta, "minus"))


def _entries(model: TriangularSRE, i: int, j: int, l: int) -> float:
    """E[a11^i a12^j a22^l] of one step, under the model's coupling."""
    if isinstance(model, IndependentEntries):
        return (_power(model.a11, i) * _power(model.a12, j)
                * _power(model.a22, l))
    if isinstance(model.a12_mode, ProportionalToDiagonal):
        return (_power(model.d, i + j + l)
                * _power(model.a12_mode.factor_law, j))
    return _power(model.d, i + l) * _power(model.a12_mode.a12, j)


def _orders(p: int) -> list[tuple[int, int]]:
    """The (i, j) of E[x1^i x2^j], i + j <= p: (0, 0) first, (p, 0) last."""
    return [(i, n - i) for n in range(p + 1) for i in range(n + 1)]


def chain_map(model: TriangularSRE, p: int) -> np.ndarray:
    """T on the chain's moments in the order of _orders(p): the term
    a11^k1 a12^k2 b1^(i-k1-k2) a22^l b2^(j-l) of
    (a11 x1 + a12 x2 + b1)^i (a22 x2 + b2)^j carries E[x1^k1 x2^(k2+l)]."""
    orders = _orders(p)
    T = np.zeros((len(orders), len(orders)))
    for row, (i, j) in enumerate(orders):
        for k1, k2, l in product(range(i + 1), range(i + 1), range(j + 1)):
            if k1 + k2 <= i:
                T[row, orders.index((k1, k2 + l))] += (
                    math.comb(i, k1) * math.comb(i - k1, k2) * math.comb(j, l)
                    * _entries(model, k1, k2, l)
                    * _power(model.b1, i - k1 - k2) * _power(model.b2, j - l))
    return T


def scalar_map(pair, p: int) -> np.ndarray:
    """T on the E X^r, r <= p, of X' = V X + U: T[i, r] is
    C(i, r) E[V^r U^(i-r)], with pair(r, s) = E[V^r U^s]."""
    return np.array([[math.comb(i, r) * pair(r, i - r) if r <= i else 0.0
                      for r in range(p + 1)] for i in range(p + 1)])


def law_pair(a_law: dist.Dist, b_law: dist.Dist):
    """scalar_map's pair for independent V = A and U = B."""
    return lambda r, s: _power(a_law, r) * _power(b_law, s)


def tilted_ratio_pair(model: IndependentEntries, alpha: float):
    """scalar_map's pair for (V, U) = (a11, a12) / a22 under the alpha-tilt
    E_t[f] = E[|a22|^alpha f] / E|a22|^alpha, for r + s <= alpha:
    E[a11^r] E[a12^s] E[sgn(a22)^(r+s) |a22|^(alpha-r-s)] / E|a22|^alpha."""
    lam = dist.abs_moment(model.a22, alpha)
    return lambda r, s: (_power(model.a11, r) * _power(model.a12, s)
                         * _power(model.a22, r + s, alpha - r - s) / lam)


def moments(T: np.ndarray, n: int, start=None) -> np.ndarray:
    """The moment vectors at depths 0, ..., n, one a row, from start (by
    default zero: the constant 1 alone)."""
    rows = [np.eye(len(T))[0] if start is None else start]
    for _ in range(n):
        rows.append(T @ rows[-1])
    return np.array(rows)


def stationary(T: np.ndarray) -> np.ndarray:
    """The stationary moments but the top, m = T m with m[0] = 1, by one
    solve without the top's row and column, which no other row reads."""
    inner = np.eye(len(T) - 2) - T[1:-1, 1:-1]
    return np.concatenate(([1.0], np.linalg.solve(inner, T[1:-1, 0])))


def goldie_increment(T: np.ndarray, m: np.ndarray) -> float:
    """E[(A x + B)^p - (A x)^p] over moments m without the top, one column
    for each x: T's top row without its own term. Below the index it is
    1 - T[-1, -1] times the stationary top moment."""
    return T[-1, :-1] @ m


def window_bias(T: np.ndarray, start: int, stop: int) -> float:
    """Exact relative bias of the top moment's mean growth over (start,
    stop] from zero, at the index, against Goldie's increment; each step's
    growth is formed apart, so no difference of large moments rounds it."""
    m = moments(T, stop - 1)[start:]
    growth = goldie_increment(T, m[:, :-1].T) + (T[-1, -1] - 1) * m[:, -1]
    return growth.mean() / goldie_increment(T, stationary(T)) - 1


def coord1_goldie_sum(model: TriangularSRE) -> float:
    """c+ + c- of the first coordinate at alpha = 2 and rho = 1: Goldie's
    one-step expectation E[(a11 W1 + B)^2 - (a11 W1)^2] / 2 =
    (2 E[a11] E[W1 B] + E[B^2]) / 2 with B = b1 + a12 W2', over the
    stationary moments of W. E[a11] is the signed mean."""
    T = chain_map(model, 2)
    return goldie_increment(T, stationary(T)) / 2


def coord1_window_bias(model: TriangularSRE, n: int) -> float:
    """Exact relative bias at alpha = 2 and rho = 1 of the late-window
    growth of E[x1_k^2] over (n/2, n], the chain run from zero."""
    return window_bias(chain_map(model, 2), n // 2, n)


def w2_goldie_constant(model: TriangularSRE) -> float:
    """W2's Goldie constant at alpha2 = 2 for E a22^2 = 1 (a22 is d for
    equal diagonals): E[(a22 W2 + b2)^2 - (a22 W2)^2] / (2 rho2) =
    (2 E[a22] E[b2] E[W2] + E[b2^2]) / (2 rho2), with
    rho2 = E[a22^2 log a22]."""
    a22 = diag_laws(model)[1]
    T = scalar_map(law_pair(a22, model.b2), 2)
    return (goldie_increment(T, stationary(T))
            / (2 * dist.abs_moment_derivative(a22, 2.0)))


def coord2_kg_constant(model: TriangularSRE) -> float:
    """c+ of the first coordinate at alpha2 = 2 when the second dominates
    (E a22^2 = 1), for positive independent entries and b2 >= 0; c- is 0.

    W1 inherits W2's tail through the cross sum: c+ = c2 E_t[X^2], c2 from
    w2_goldie_constant, X = V X' + U the ratio perpetuity under the tilt
    E_t[f] = E[a22^2 f]; E_t X^2 is Goldie's increment over 1 - E_t V^2."""
    T = scalar_map(tilted_ratio_pair(model, 2.0), 2)
    return (w2_goldie_constant(model) * goldie_increment(T, stationary(T))
            / (1 - T[-1, -1]))


def distinct_diag_constant(model: TriangularSRE) -> float:
    """c+ of the first coordinate at alpha = 2 when distinct diagonals
    share the index (E a11^2 = E a22^2 = 1), for positive independent
    entries and b2 >= 0; c- is 0.

    c+ = (alpha / rho1) c2 r, rho1 = E[a11^2 log a11], c2 from
    w2_goldie_constant. The coupling rate r = lim (alpha k)^-1 E[M_k^2]
    is Goldie's increment of the ratio pair over alpha: under the tilt
    E_t[f] = E[a22^2 f], E[M_k^2] = E_t[X_k^2] for X_k = V_k X_{k-1} + U_k
    from zero, whose growth tends to it, as E_t V^2 = 1."""
    T = scalar_map(tilted_ratio_pair(model, 2.0), 2)
    rate = goldie_increment(T, stationary(T)) / 2
    return (2 / dist.abs_moment_derivative(model.a11, 2.0)
            * w2_goldie_constant(model) * rate)


def equal_diag_constant(model: EqualDiagonal) -> float:
    """c+ of the first coordinate at alpha = 2 for equal diagonals
    (E d^2 = 1), positive d and b2 >= 0. With zero drift it is
    c2 sigma^alpha rho1^(-alpha/2) E|N|^alpha / 2 = c2 sigma^2 / (2 rho1),
    and c- = c+; with a drift mu > 0 it is |mu|^alpha rho1^-alpha c2, and
    c- = 0. c2 is w2_goldie_constant, rho1 = E[d^2 log d], and under the
    tilt E_t[f] = E[d^2 f] the drift mu = E_t[a12/d] = E[d a12] and the
    dispersion sigma^2 = E_t[(a12/d)^2] = E[a12^2]."""
    c2 = w2_goldie_constant(model)
    rho1 = dist.abs_moment_derivative(model.d, 2.0)
    mu = _entries(model, 1, 1, 0)
    if mu == 0.0:
        return c2 * _entries(model, 0, 2, 0) / (2 * rho1)
    return c2 * (max(mu, 0.0) / rho1) ** 2


def cross_sum_second_moments(model: TriangularSRE, n: int) -> np.ndarray:
    """E[M_k^2], k = 0, ..., n, of M_k = (A_1...A_k)_12: the steps are
    i.i.d., so M_k has the law of the first coordinate of A_k...A_1 (0, 1),
    the chain without b1 and b2 from x = (0, 1)."""
    bare = dataclasses.replace(model, b1=dist.Constant(0.0),
                               b2=dist.Constant(0.0))
    start = np.array([float(i == 0) for i, _ in _orders(2)])
    return moments(chain_map(bare, 2), n, start)[:, -1]


def coord2_grey_weight_sum(model: TriangularSRE) -> float:
    """sum_{k >= 1} E[(A_1...A_k)_12^2] for independent entries: the
    alpha2 = 2 weight series of the second-grey case. With positive
    entries and b2 two-sided Pareto with weights (p, q), W1's constants
    are c+ = p times this sum and c- = q times it. The terms contract at
    max(E a11^2, E a22^2) per step, 0.36 for the built-in model, so 400
    terms reach double precision with a wide margin."""
    return float(cross_sum_second_moments(model, 400)[1:].sum())


def cross_sum_brute(a11: np.ndarray, a12: np.ndarray, a22: np.ndarray) -> np.ndarray:
    """Direct triple-product evaluation from given draws of shape (n, m);
    oracle for the scan recursion."""
    n, m = a11.shape
    total = np.zeros(m)
    for i in range(1, n + 1):
        term = np.ones(m)
        for p in range(0, i - 1):
            term = term * a11[p]
        term = term * a12[i - 1]
        for p in range(i, n):
            term = term * a22[p]
        total += term
    return total


def log_moment_curvature(spec, alpha: float, eps0: float,
                         grid: int = 41) -> float:
    """Half the sup of (log E|X|^beta)'' over [alpha-eps0, alpha+eps0].

    With rho = derivative at alpha this gives the quadratic envelope
    E|X|^{alpha +- eps} <= exp(+-eps rho + C eps^2) for 0 <= eps <= eps0,
    valid when E|X|^alpha = 1.
    """
    h = 1e-4
    betas = np.linspace(max(alpha - eps0, h), alpha + eps0, grid)
    worst = 0.0
    for b in betas:
        g = lambda x: math.log(abs_moment(spec, x))
        second = (g(b + h) - 2.0 * g(b) + g(b - h)) / (h * h)
        worst = max(worst, second)
    return worst / 2.0


# Grey (1994): the reference for predict's coord1_dominant_grey route
def grey_constants(p_alpha: float, q_alpha: float, m_abs: float,
                   m_sign: float) -> tuple[float, float]:
    """Closed-form tail constants when the additive term is regularly
    varying and the multiplier is strictly subcritical."""
    if not (p_alpha >= 0 and q_alpha >= 0 and abs(p_alpha + q_alpha - 1.0) < 1e-9):
        raise ArgumentOutOfRange("need p, q >= 0 with p + q = 1")
    if m_abs >= 1.0:
        raise ArgumentOutOfRange("need E|A|^alpha < 1")
    denom2 = 1.0 - m_sign
    if denom2 <= 0.0:
        raise ArgumentOutOfRange("signed-moment denominator must be positive")
    base = 1.0 / (1.0 - m_abs)
    tiltp = (p_alpha - q_alpha) / denom2
    return 0.5 * (base + tiltp), 0.5 * (base - tiltp)
