"""Test oracles: slow or brute-force references and test-only samplers
that the library does not use."""
import math
from itertools import islice
from unittest import mock

import numpy as np
from scipy.optimize import brentq

from trisre import distributions as dist
from trisre import regime
from trisre.distributions import abs_moment
from trisre.errors import RequiresExactTilt
from trisre.estimates import EstimateWithError
from trisre.model import (IndependentEntries, InnovationBatch, TriangularSRE,
                          draw_innovations)
from trisre.rng import CHUNK, RngStream, map_chunks
from trisre.stationary import (_first_depth, contraction_exponent, law_steps,
                               truncation_depth)
from trisre.tails import goldie_constant_direct
from trisre.tilting import _tilted_a22, _vu_steps

_EPS_PROBE = 1 << 16  # pairs drawn to bound E|B|^eps for a jointly sampled (A, B)


def scipy_tail_index(spec: dist.Dist) -> float:
    """solve_tail_index with scipy's brentq in place of the library's
    Brent port: the same function, bracket and tolerances."""
    def scipy_brent(f, xa, xb, xtol, rtol):
        return brentq(f, xa, xb, xtol=xtol, rtol=rtol)

    with mock.patch.object(regime, "_brentq", scipy_brent):
        return regime.solve_tail_index(spec)


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
    at the depth certified for the embedded bivariate model."""
    depth, _ = truncation_depth(univariate_model(a_law, b_law), tol)
    return _perpetuity_sums(law_steps(a_law, b_law), depth, m, rng, workers)


def perpetuity_sample_batch(model: TriangularSRE, alpha: float, n: int,
                            m: int, rng: RngStream) -> np.ndarray:
    """m draws of the depth-n partial sum of the reweighted ratio
    perpetuity (term i carries i-1 ratio factors), run as the forward
    recursion x = v x + u from zero. Raw step weights give no sample of
    the reweighted law, so a22 must be exactly tiltable."""
    if _tilted_a22(model, alpha) is None:
        raise RequiresExactTilt("perpetuity samples need an exactly "
                                "tiltable second diagonal law")
    return _perpetuity_sums(_vu_steps(model, alpha), n, m, rng)


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


def coord1_goldie_sum(model: TriangularSRE) -> float:
    """c+ + c- of the first coordinate at alpha = 2 and rho = 1 for
    independent entries: Goldie's one-step expectation
    (2 E[a11] E[W1 B] + E[B^2]) / 2 with B = b1 + a12 W2', from the
    stationary first and second moments of W, which solve the one-step
    stationarity equations. E[a11] is the signed mean."""
    e = dist.mean

    def e2(law):
        return abs_moment(law, 2.0)

    m = model
    ew2 = e(m.b2) / (1 - e(m.a22))
    ew2sq = (e2(m.b2) + 2 * e(m.a22) * e(m.b2) * ew2) / (1 - e2(m.a22))
    ew1 = (e(m.a12) * ew2 + e(m.b1)) / (1 - e(m.a11))
    ew1w2 = (e(m.a11) * e(m.b2) * ew1 + e(m.a12) * e(m.a22) * ew2sq
             + e(m.a12) * e(m.b2) * ew2 + e(m.b1) * e(m.a22) * ew2
             + e(m.b1) * e(m.b2)) / (1 - e(m.a11) * e(m.a22))
    ew1b = e(m.b1) * ew1 + e(m.a12) * ew1w2
    eb2 = e2(m.b1) + 2 * e(m.b1) * e(m.a12) * ew2 + e2(m.a12) * ew2sq
    return (2 * e(m.a11) * ew1b + eb2) / 2


def coord1_window_bias(model: TriangularSRE, n: int) -> float:
    """Exact relative bias at alpha = 2 and rho = 1 of the late-window
    growth of E[x1_k^2] over (n/2, n], the chain run from zero with
    independent entries: (E x1, E x2, E x1^2, E x2^2, E x1 x2) evolve by
    a linear recursion in the entry moments."""
    e, m = dist.mean, model

    def e2(law):
        return abs_moment(law, 2.0)

    x1 = x2 = x11 = x22 = x12 = 0.0
    second = [0.0]
    for _ in range(n):
        x1, x2, x11, x22, x12 = (
            e(m.a11) * x1 + e(m.a12) * x2 + e(m.b1),
            e(m.a22) * x2 + e(m.b2),
            e2(m.a11) * x11 + e2(m.a12) * x22 + e2(m.b1)
            + 2 * e(m.a11) * (e(m.a12) * x12 + e(m.b1) * x1)
            + 2 * e(m.a12) * e(m.b1) * x2,
            e2(m.a22) * x22 + 2 * e(m.a22) * e(m.b2) * x2 + e2(m.b2),
            e(m.a11) * (e(m.a22) * x12 + e(m.b2) * x1)
            + e(m.a12) * (e(m.a22) * x22 + e(m.b2) * x2)
            + e(m.b1) * (e(m.a22) * x2 + e(m.b2)))
        second.append(x11)
    h = n // 2
    growth = (second[n] - second[h]) / (n - h)
    return growth / (2 * coord1_goldie_sum(model)) - 1


def coord2_kg_constant(model: TriangularSRE) -> float:
    """c+ of the first coordinate at alpha2 = 2 when the second dominates
    (E a22^2 = 1), for positive independent entries and b2 >= 0; c- is 0.

    W1 inherits W2's tail through the cross sum, so c+ = c2 E_t[X^2]:
    - c2 is W2's Goldie constant, E[(a22 W2 + b2)^2 - (a22 W2)^2] /
      (2 rho2) = (2 E[a22] E[b2] E[W2] + E[b2^2]) / (2 rho2), with
      E[W2] = E[b2] / (1 - E[a22]) and rho2 = E[a22^2 log a22].
    - X = V X' + U is the ratio perpetuity, V = a11/a22 and U = a12/a22,
      under the tilt E_t[f] = E[a22^2 f] (E a22^2 = 1). The tilt cancels
      a22 from the moments: E_t V = E a11 E a22, E_t V^2 = E a11^2,
      E_t U = E a12 E a22, E_t U^2 = E a12^2 and E_t UV = E a11 E a12.
    - X' is independent of (V, U), so E_t X = E_t U / (1 - E_t V) and
      E_t X^2 = (E_t U^2 + 2 E_t[UV] E_t X) / (1 - E_t V^2).
    """
    e, m = dist.mean, model

    def e2(law):
        return abs_moment(law, 2.0)

    ew2 = e(m.b2) / (1 - e(m.a22))
    c2 = ((2 * e(m.a22) * e(m.b2) * ew2 + e2(m.b2))
          / (2 * dist.abs_moment_derivative(m.a22, 2.0)))
    ex = e(m.a12) * e(m.a22) / (1 - e(m.a11) * e(m.a22))
    ex2 = (e2(m.a12) + 2 * e(m.a11) * e(m.a12) * ex) / (1 - e2(m.a11))
    return c2 * ex2


def coord2_grey_weight_sum(model: TriangularSRE) -> float:
    """sum_{k >= 1} E[(A_1...A_k)_12^2] for independent entries: the
    alpha2 = 2 weight series of the second-grey case. With positive
    entries and b2 two-sided Pareto with weights (p, q), W1's constants
    are c+ = p times this sum and c- = q times it.

    For P_k = P_{k-1} A_k, (P_k)_11 = (P_{k-1})_11 a11 and (P_k)_12 =
    (P_{k-1})_11 a12 + (P_{k-1})_12 a22, with A_k independent of P_{k-1}.
    So x = E[P11^2], y = E[P11 P12] and z = E[P12^2] follow the linear
    recursion
        x' = E[a11^2] x,
        y' = E[a11] E[a12] x + E[a11] E[a22] y,
        z' = E[a12^2] x + 2 E[a12] E[a22] y + E[a22^2] z,
    from P_0 = I (x = 1, y = z = 0). The terms contract at
    max(E a11^2, E a22^2) per step, 0.36 for the built-in model, so 400
    terms reach double precision with a wide margin."""
    e, m = dist.mean, model

    def e2(law):
        return abs_moment(law, 2.0)

    x, y, z = 1.0, 0.0, 0.0
    total = 0.0
    for _ in range(400):
        x, y, z = (e2(m.a11) * x,
                   e(m.a11) * e(m.a12) * x + e(m.a11) * e(m.a22) * y,
                   e2(m.a12) * x + 2 * e(m.a12) * e(m.a22) * y
                   + e2(m.a22) * z)
        total += z
    return total


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
