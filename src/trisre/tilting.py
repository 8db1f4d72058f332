"""Partial-sum moment scans: one scan engine, its step sources, and the
named estimators that run it, each answering with a SnapshotMoments.

One scan, _study_from_pairs, runs X = V X' + U from zero over a step
source of (V, U): law_steps or coord1_steps for the Kesten-Goldie
perpetuity scan, which sizes its own horizon from the laws; or the ratio
pair V = a11/a22, U = a12/a22 under the |a22|^alpha-weighted measure,
which turns moments of the cross sum into moments of a ratio perpetuity.
When the law of a22 is closed under the tilt that source draws the
reweighted pair exactly; otherwise it draws untilted entries and yields
the step weight |a22|^alpha, which the scan folds into its increments
behind a degeneracy guard.

At the critical index the alpha-moment of the partial sum grows linearly
but a naive sample mean misses the exponentially rare paths that carry
it. The scan instead accumulates the per-step moment increments
(a telescoping identity), which is unbiased for the same expectation with
polynomial variance; contracted by E|V|^alpha, the same scan serves the
strictly contracting case, where |X|^alpha itself can have infinite
variance. See the module tests for the cross-validation.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import distributions as dist
from . import model as mod
from .distributions import Dist
from .errors import (ArgumentOutOfRange, RegimeMismatch, RequiresEqualDiagonal,
                     RequiresExactTilt, RequiresMuZero, TiltUnsupported,
                     WeightDegenerate)
from .estimates import (EstimateWithError, RunningMoments, merge_chunks,
                        sum_of_products)
from .model import EqualDiagonal, ProportionalToDiagonal, TriangularSRE
from .rng import CHUNK, RngStream, map_chunks

_MIN_ESS = 100.0
_CRITICAL_BAND = 1e-6


def _check_ess(weights: RunningMoments) -> None:
    ess = weights.ess()
    if not ess >= _MIN_ESS:
        raise WeightDegenerate(
            f"effective sample size {ess:.1f} < {_MIN_ESS:.0f}; shorten the "
            "horizon or use a tiltable diagonal law")


# ---------------------------------------------------------------------------
# Partial-sum moment studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotMoments:
    k: int
    absolute: EstimateWithError
    plus: EstimateWithError
    minus: EstimateWithError

    def to_dict(self) -> dict:
        return asdict(self)

    def scaled(self, factor: float) -> SnapshotMoments:
        return SnapshotMoments(self.k, self.absolute.scaled(factor),
                               self.plus.scaled(factor),
                               self.minus.scaled(factor))


@dataclass
class PartialSumStudy:
    """Moment estimates of the partial sums at requested horizons, plus
    the growth between the last two of them (used for limit extraction
    at the critical index, where the per-step growth converges); None
    when there is one horizon."""

    snapshots: list[SnapshotMoments]
    window: SnapshotMoments | None
    mode: str

    def final(self) -> SnapshotMoments:
        return self.snapshots[-1]

    def rate(self, scale: float) -> SnapshotMoments:
        """Per-step growth over the window between the last two horizons,
        divided by scale: the late-window rate, which sheds the early
        transient of the full average. Its k is the last horizon."""
        if self.window is None:
            raise ValueError("a rate needs a study at two horizons or more")
        prev, last = self.snapshots[-2:]
        return self.window.scaled(1.0 / (scale * (last.k - prev.k)))


def _snapshot_list(ks: list[int], accs: list[RunningMoments],
                   seed: str) -> list[SnapshotMoments]:
    """SnapshotMoments from consecutive (absolute, plus, minus) triples."""
    return [SnapshotMoments(k, *(a.estimate(seed) for a in accs[3 * j:3 * j + 3]))
            for j, k in enumerate(ks)]


@dataclass(frozen=True)
class StepSource:
    """A step source and its sign flag. source(m, rng) calls draw, a fresh
    generator of each step's arrays (v, u), or (v, u, w), for a chunk of
    m paths. signed is False only when no v or u it yields can be
    negative, which its factory decides from the laws with
    distributions.prob_negative."""

    draw: Callable[[int, RngStream], Iterator[tuple[np.ndarray, ...]]]
    signed: bool

    def __call__(self, m: int, rng: RngStream):
        return self.draw(m, rng)


def law_steps(a_law: Dist, b_law: Dist) -> StepSource:
    """Step source of x = a x + b with independent (A, B), A drawn first:
    steps(m, rng) yields one step's arrays (a, b) of shape (m,) at a time.
    A Constant b, which consumes no random numbers, is drawn once per
    chunk. The source is signed when A or B can be negative."""
    def steps(m: int, rng: RngStream):
        b = (dist.sample(b_law, rng, m) if isinstance(b_law, dist.Constant)
             else None)
        while True:
            a = dist.sample(a_law, rng, m)
            yield a, dist.sample(b_law, rng, m) if b is None else b

    return StepSource(steps, dist.any_negative(a_law, b_law))


def coord1_steps(model: TriangularSRE) -> StepSource:
    """Step source of x1 = a11 x1' + (b1 + a12 x2') along the forward
    bivariate chain from zero, model.chain_steps with x2 dropped. It is
    signed when model.chain_signed says W1 can go negative."""
    def steps(m: int, rng: RngStream):
        for a11, u, _ in mod.chain_steps(model, m, rng):
            yield a11, u

    return StepSource(steps, mod.chain_signed(model))


def _study_from_pairs(steps: StepSource, alpha: float, snapshots: list[int],
                      N: int, rng: RngStream, contraction: float,
                      step_moment: float, gamma: float) -> PartialSumStudy:
    """Core scan over X_{k+1} = U_{k+1} + V_{k+1} X_k.

    steps(m, rng) is the step source: a fresh one per chunk of m paths,
    yielding each step's arrays (v, u). It may carry state along the
    paths (the bivariate chain's second coordinate), as long as V_k is
    independent of X_{k-1}. The scan never writes into the arrays a
    source yields, and reads them only until it asks for the next step,
    so a source may reuse its buffers. Per path it accumulates the moment
    increments z_k = |X_k|^alpha - |V_k X_{k-1}|^alpha as
    s_k = c s_{k-1} + z_k and, split by sign,
    d_k = gamma d_{k-1} + (z_k^+ - z_k^-), with c = contraction =
    E|V|^alpha and gamma = E[sgn(V)|V|^alpha]. Since
    E|V_k X_{k-1}|^alpha = c E|X_{k-1}|^alpha, induction from X_0 = 0
    makes s_k unbiased for E|X_k|^alpha, and d_k for the difference of
    the signed parts. Their variance needs only E|X|^{2 alpha - 2} < inf,
    while the per-path |X_k|^alpha has infinite variance once
    E|V|^{2 alpha} > 1 and, at the critical index (c = 1, mode
    "telescoped"), a mean carried by rare paths. step_moment rescales
    snapshot k by step_moment^k.

    A StepSource that is not signed keeps X_k >= 0, so z_k^- = 0 and,
    with gamma = c, d_k = s_k: the scan then keeps s_k alone, and the
    positive part is s_k and the negative part exactly 0, the same bits
    the split gives.

    A source may yield a third array, the step's raw weight w (mode
    "weighted_mc"). Each increment is then scaled by the running product
    W_k = w_1 ... w_k, and c and gamma are the weighted step moments
    E[w |V|^alpha] and E[w sgn(V)|V|^alpha]: since
    E[W_k |V_k X_{k-1}|^alpha] = E[w |V|^alpha] E[W_{k-1}|X_{k-1}|^alpha],
    s_k is unbiased for E[W_k |X_k|^alpha]. The effective sample size of
    W_k is checked at every snapshot.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = snapshots[-1]
    snap_set = {int(s) for s in snapshots}
    by_sign = steps.signed or gamma != contraction

    def chunk(paths, sub):
        m = paths.stop - paths.start
        # the chunk's own buffers, written in place at every step
        x = np.zeros(m)
        s_acc = np.zeros(m)
        weight = np.ones(m)
        vx = np.empty(m)
        z = np.empty(m)
        if by_sign:
            d_acc = np.zeros(m)
            dz = np.empty(m)
            t = np.empty(m)
        snaps, weights, prev, vals = [], [], None, None
        for k, (v, u, *w) in enumerate(islice(steps(m, sub), n), 1):
            np.multiply(v, x, out=vx)
            np.add(vx, u, out=x)
            if by_sign:
                # z = z^+ + z^- and dz = z^+ - z^- for the increment split
                # by sign, z^+ = (x^+)^a - (vx^+)^a and
                # z^- = (x^-)^a - (vx^-)^a, from t = |vx|^a
                np.abs(x, out=z)
                z **= alpha
                np.copysign(z, x, out=dz)
                np.abs(vx, out=t)
                t **= alpha
                z -= t
                np.copysign(t, vx, out=t)
                dz -= t
            else:
                # x, vx >= 0: z = x^a - vx^a
                np.power(x, alpha, out=z)
                vx **= alpha
                z -= vx
            if w:
                weight *= w[0]
                z *= weight
                if by_sign:
                    dz *= weight
            if contraction != 1.0:
                s_acc *= contraction
            s_acc += z
            if by_sign:
                if gamma != 1.0:
                    d_acc *= gamma
                d_acc += dz
            if k in snap_set:
                scale = step_moment ** k
                if by_sign:
                    up = 0.5 * (s_acc + d_acc) * scale
                    um = 0.5 * (s_acc - d_acc) * scale
                    prev, vals = vals, (up + um, up, um)
                else:
                    up = s_acc * scale
                    prev, vals = vals, (up, up, np.zeros(m))
                snaps += [RunningMoments(val) for val in vals]
                if w:
                    weights.append(RunningMoments(weight))
        if prev is not None:
            snaps += [RunningMoments(b - a) for a, b in zip(prev, vals)]
        return snaps, weights

    parts = map_chunks(N, CHUNK, chunk, rng)
    weights = merge_chunks([w for _, w in parts])
    for acc in weights:
        _check_ess(acc)
    accs = merge_chunks([s for s, _ in parts])
    seed = rng.describe()
    split = 3 * len(snapshots)
    window = (_snapshot_list([n], accs[split:], seed)[0]
              if len(snapshots) > 1 else None)
    mode = ("weighted_mc" if weights
            else "telescoped" if contraction == 1.0 else "plain")
    return PartialSumStudy(
        snapshots=_snapshot_list(snapshots, accs[:split], seed),
        window=window, mode=mode)


def _tilted_a22(model: TriangularSRE, alpha: float) -> Dist | None:
    """The alpha-tilt of the second diagonal's law; None when its family
    is not closed under the tilt."""
    try:
        return dist.tilted(mod.diag_laws(model)[1], alpha)
    except TiltUnsupported:
        return None


def _vu_steps(model: TriangularSRE, alpha: float) -> StepSource:
    """Step source of the ratio pair (V, U) = (a11/a22, a12/a22) under
    the alpha-tilt of a22, signed when any entry it divides can be
    negative (the tilt keeps a22's signs).

    With an exact tilt only the matrix entries are drawn; under the
    proportional equal-diagonal coupling the tilted diagonal cancels from
    both ratios, so a single factor draw per step suffices; with all
    three entries lognormal the pair comes from two correlated normals.
    Without one the entries are drawn untilted and the source also
    yields the step weight |a22|^alpha; callers refuse that route for
    equal diagonals, whose ratio V = 1 sits at the critical index."""
    a22_tilted = _tilted_a22(model, alpha)
    if isinstance(model, EqualDiagonal):
        mode = model.a12_mode
        signed = (dist.any_negative(mode.factor_law)
                  if isinstance(mode, ProportionalToDiagonal)
                  else dist.any_negative(mode.a12, model.d))

        def steps(m: int, rng: RngStream):
            ones = np.ones(m)
            while True:
                if isinstance(mode, ProportionalToDiagonal):
                    yield ones, dist.sample(mode.factor_law, rng, m)
                else:
                    d = dist.sample(a22_tilted, rng, m)
                    yield ones, dist.sample(mode.a12, rng, m) / d

        return StepSource(steps, signed)
    a11_law, a12_law = model.a11, model.a12
    a22_law = model.a22 if a22_tilted is None else a22_tilted
    if all(isinstance(d, dist.Lognormal) for d in (a11_law, a12_law, a22_tilted)):
        return _lognormal_vu_steps(a11_law, a12_law, a22_tilted)

    def steps(m: int, rng: RngStream):
        while True:
            a11 = dist.sample(a11_law, rng, m)
            a12 = dist.sample(a12_law, rng, m)
            a22 = dist.sample(a22_law, rng, m)
            if a22_tilted is None:
                yield a11 / a22, a12 / a22, np.abs(a22) ** alpha
            else:
                yield a11 / a22, a12 / a22

    return StepSource(steps, dist.any_negative(a11_law, a12_law, model.a22))


def _lognormal_vu_steps(a11: dist.Lognormal, a12: dist.Lognormal,
                        a22: dist.Lognormal) -> StepSource:
    """(V, U) = (a11/a22, a12/a22) for lognormal entries, from two normals.

    With a_ij = exp(mu_ij + s_ij N_ij) for independent standard normals
    N_ij, log V = mu11 - mu22 + s11 N11 - s22 N22 and log U = mu12 - mu22
    + s12 N12 - s22 N22 are jointly normal: variances s11^2 + s22^2 and
    s12^2 + s22^2, covariance s22^2. Each step fills one (2, m) buffer of
    standard normals and mixes it through the Cholesky factor of that
    covariance, taken in the order (log U, log V): the same law as the
    three-draw ratio, at two normals and two exps per path-step. The
    pair is positive."""
    shift = np.array([[a12.mu - a22.mu], [a11.mu - a22.mu]])
    c22 = a22.sigma ** 2
    l11 = math.sqrt(a12.sigma ** 2 + c22)
    l21 = c22 / l11
    l22 = math.sqrt(a11.sigma ** 2 + c22 - l21 ** 2)

    def steps(m: int, rng: RngStream):
        z = np.empty((2, m))
        mix = np.empty(m)
        while True:
            rng.gen.standard_normal(out=z)
            z[1] *= l22
            np.multiply(z[0], l21, out=mix)
            z[1] += mix
            z[0] *= l11
            z += shift
            np.exp(z, out=z)
            yield z[1], z[0]

    return StepSource(steps, False)


def _ratio_moments(model: TriangularSRE, alpha: float) -> tuple[float, float]:
    """Reweighted E|V|^alpha = E|a11|^alpha / E|a22|^alpha (the weight
    cancels the denominator's magnitude) and E[sgn(V)|V|^alpha] =
    E[sgn(a11)|a11|^alpha] E[sgn(a22)] / E|a22|^alpha, which is exactly
    the first when V >= 0; V = 1 for equal diagonals."""
    if isinstance(model, EqualDiagonal):
        return 1.0, 1.0
    d1, d2 = mod.diag_laws(model)
    lam22 = dist.abs_moment(d2, alpha)
    return (dist.abs_moment(d1, alpha) / lam22,
            dist.sign_moment(d1, alpha) * dist.sign_moment(d2, 0.0) / lam22)


def _critical_contraction(moment: float, what: str) -> float:
    """Contraction of a moment scan whose step moment is E|V|^alpha: the
    moment itself below the critical band, exactly 1 within it (the
    telescoped scan). Above the band the alpha-moment of the partial sums
    grows exponentially and no Monte Carlo estimator concentrates."""
    if moment > 1.0 + _CRITICAL_BAND:
        raise RegimeMismatch(
            f"{what} {moment:.6g} exceeds 1: the partial-sum moment grows "
            "exponentially and has no Monte Carlo estimator here")
    return 1.0 if moment > 1.0 - _CRITICAL_BAND else moment


def _scan_factors(moment: float, sign_moment: float,
                  what: str) -> tuple[float, float]:
    """(contraction, gamma) of a moment scan from its step moments
    E|V|^alpha and E[sgn(V)|V|^alpha]. Within the critical band both are
    divided by the moment, so the scan telescopes and a sign moment equal
    to the moment (V >= 0) stays equal to the contraction: the negative
    part of a positive scan is then exactly 0."""
    contraction = _critical_contraction(moment, what)
    if contraction == moment:
        return contraction, sign_moment
    return contraction, sign_moment / moment


def coupling_sum_moments(model: TriangularSRE, alpha: float,
                         horizons: list[int], N: int,
                         rng: RngStream) -> PartialSumStudy:
    """E|M_k|^alpha and E[(M_k^+-)^alpha] at the given horizons, where M_k
    is the cross sum, via the reweighted ratio representation.

    Accumulates the per-step moment increments contracted by the ratio
    moment E|V|^alpha (mode "plain" when the contraction is strict,
    "telescoped" at the critical index, where it is taken as 1); refuses
    exponent ranges where the moment grows exponentially (no estimator
    concentrates).
    A second diagonal without an exact tilt takes raw step weights
    |a22|^alpha in the contractive case (mode "weighted_mc"; short
    horizons only, WeightDegenerate guards)."""
    horizons = sorted(set(int(h) for h in horizons))
    if horizons[0] < 1:
        raise ValueError("horizons must be >= 1")
    a22 = mod.diag_laws(model)[1]
    if dist.is_zero_pointmass(a22):
        raise RegimeMismatch("ratio representation needs a second diagonal "
                             "with no atom at zero")
    contraction, gamma = _scan_factors(*_ratio_moments(model, alpha),
                                       "reweighted ratio moment")
    lam22 = dist.abs_moment(a22, alpha)
    if _tilted_a22(model, alpha) is None:
        if contraction == 1.0:
            raise RequiresExactTilt(
                "critical-index moment studies need an exactly tiltable "
                "diagonal law")
        # the raw weights carry E|a22|^alpha per step: the scan factors
        # are E|a11|^alpha and E[sgn(a11)|a11|^alpha] E[sgn(a22)]
        contraction, gamma, lam22 = contraction * lam22, gamma * lam22, 1.0
    return _study_from_pairs(_vu_steps(model, alpha), alpha, horizons, N,
                             rng, contraction, lam22, gamma)


# ---------------------------------------------------------------------------
# Named estimators
# ---------------------------------------------------------------------------

def estimate_coupling_weight(model: TriangularSRE, alpha2: float, n: int,
                             N: int, rng: RngStream) -> SnapshotMoments:
    """Cross-sum moments E|M_n|^{alpha2} and signed parts. The study also
    takes the half-horizon snapshot, as a convergence gauge.

    Requires E|a11|^{alpha2} < 1, the condition under which the moments
    converge to a positive limit when the second coordinate sits at its
    critical index."""
    d1, _ = mod.diag_laws(model)
    lam11 = dist.abs_moment(d1, alpha2)
    if lam11 >= 1.0:
        raise RegimeMismatch(
            f"coupling-weight limit needs E|a11|^alpha2 < 1 (got {lam11:.6g})")
    return coupling_sum_moments(model, alpha2, [max(1, n // 2), n], N,
                                rng).final()


def estimate_coupling_rate(model: TriangularSRE, alpha: float, n: int, N: int,
                           rng: RngStream) -> SnapshotMoments:
    """The rate lim (alpha k)^{-1} E|M_k|^alpha (and signed versions): the
    per-step growth over the window (n/2, n], divided by alpha.

    Valid when the diagonals share the critical index but differ as
    random variables; the telescoped estimator keeps the estimate unbiased
    where the naive mean collapses."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m_ratio = _ratio_moments(model, alpha)[0]
    if _critical_contraction(m_ratio, "reweighted ratio moment") != 1.0:
        raise RegimeMismatch(
            "per-step rate is defined at the critical index "
            f"(reweighted ratio moment {m_ratio:.6g} != 1)")
    if isinstance(model, EqualDiagonal):
        raise RegimeMismatch("distinct diagonals required; the equal-diagonal "
                             "case has its own limit laws")
    return coupling_sum_moments(model, alpha, [n // 2, n], N, rng).rate(alpha)


# Most terms of the weight series; estimate_weight_series raises when the
# geometric term bound has not yet fallen below _WEIGHT_SERIES_TOL there.
_WEIGHT_SERIES_MAX_TERMS = 200
_WEIGHT_SERIES_TOL = 1e-4


def estimate_weight_series(model: TriangularSRE, alpha2: float, N: int,
                           rng: RngStream) -> SnapshotMoments:
    """The weight series sum_{k=1..K} E|(A_1...A_k)_12|^alpha2 and its
    signed parts, summed from one coupling_sum_moments study at horizons
    1..K; k is K.

    Term k is at most C k q^{k-1}, with C = E|a12|^alpha2 the first term
    and q = max(E|a11|^alpha2, E|a22|^alpha2), so the horizon K, the first
    k with k q^{k-1} < _WEIGHT_SERIES_TOL, cuts the series where a term
    is below that share of the first. The snapshots share their paths,
    but their SEs add in quadrature here, as if independent."""
    d1, d2 = mod.diag_laws(model)
    q = max(dist.abs_moment(d1, alpha2), dist.abs_moment(d2, alpha2))
    K = 1
    while K * q ** (K - 1) >= _WEIGHT_SERIES_TOL:
        if K == _WEIGHT_SERIES_MAX_TERMS:
            raise RegimeMismatch(
                f"the weight series term bound {K * q ** (K - 1):.6g} "
                f"E|a12|^alpha2 at {K} terms is above "
                f"{_WEIGHT_SERIES_TOL:g} E|a12|^alpha2: the diagonals "
                f"contract at {q:.6g} per step")
        K += 1
    study = coupling_sum_moments(model, alpha2, list(range(1, K + 1)), N, rng)
    one = EstimateWithError(1.0)

    def total(part: str) -> EstimateWithError:
        return sum_of_products([(getattr(s, part), one)
                                for s in study.snapshots])

    return SnapshotMoments(K, total("absolute"), total("plus"), total("minus"))


# Horizon n of the perpetuity scan behind every Kesten-Goldie constant:
# the smallest even n >= _GOLDIE_HORIZON whose late-window bias
# bound is below _GOLDIE_BIAS (see _goldie_horizon), at most
# _GOLDIE_MAX_HORIZON; the scan's cost grows linearly in n. The floor is
# the horizon of every built-in scenario: for A = LN(-1, 1), B = 1 the
# bias is -0.13% at n = 20, -0.04% at n = 24 and -0.007% at n = 30,
# against a Monte Carlo SE of about 0.3% at 200k samples.
_GOLDIE_HORIZON = 24
_GOLDIE_BIAS = 1e-3
_GOLDIE_MAX_HORIZON = 1000


def _window_bias(r: float, n: int, r_feed: float = 0.0) -> float:
    """Relative bias of the late-window growth over (n/2, n] when the
    per-step growth d_k approaches its limit like the gap
    e_k = r e_{k-1} + r_feed^k, e_0 = 1. At alpha = 2 the exact moment
    recursion gives d_k - d = -2 E[B]^2 E[A]^k / (1 - E[A]), so with
    r = E[A] and no feed (e_k = r^k) this is the bias for constant B and
    a bound for any other B independent of the path."""
    h = n // 2
    gap, total = 1.0, 0.0
    for k in range(1, n + 1):
        gap = r * gap + r_feed ** k
        if k > h:
            total += gap
    return 2.0 * total / ((1.0 + r) * (n - h))


def _goldie_horizon(a_law: Dist, alpha: float,
                    feed_law: Dist | None = None) -> int:
    """Horizon of the perpetuity scan for X = A X' + B at the critical
    index alpha of A.

    The growth d_k = E[g(X_{k-1})], g(x) = E|Ax + B|^alpha - |Ax|^alpha,
    reaches its limit as fast as X_{k-1} couples with X: at the rate
    r = E|A|^s when g is s-Hoelder. For alpha <= 2 any s in [alpha - 1, 1]
    will do and s = alpha / 2 lies there (s = 1, the exact rate E[A], at
    alpha = 2); for alpha > 2 the bound mixes the exponents 1 and
    alpha - 1. Both rates are below 1 strictly inside (0, alpha).

    When B = b1 + a12 Y' is fed by Y = C Y' + b2 (C of law feed_law), run
    from zero alongside X, Y's gap to its stationary copy on the same
    draws, C_1...C_k Y_0, shrinks in s-moment as r_feed^k and enters X's
    gap at every step, which then follows e_k = r e_{k-1} + r_feed^k.
    r_feed is the largest E|C|^s over the exponents above and alpha (the
    top power of B in g); all lie below 1, as alpha is below C's index.
    The exact alpha = 2 window bias stays inside this envelope: -0.053%
    against 0.063% for coord1_dominant_kg at n = 24; -0.063% against
    0.098% at n = 72 for a22 = LN(-0.2, 0.2), -11.7% at n = 24."""
    exps = (alpha / 2.0,) if alpha <= 2.0 else (1.0, alpha - 1.0)
    r = max(dist.abs_moment(a_law, s) for s in exps)
    r_feed = (0.0 if feed_law is None else
              max(dist.abs_moment(feed_law, s) for s in exps + (alpha,)))
    rate, n = max(r, r_feed), _GOLDIE_HORIZON
    while rate >= 1.0 or _window_bias(r, n, r_feed) > _GOLDIE_BIAS:
        if rate >= 1.0 or n >= _GOLDIE_MAX_HORIZON:
            raise RegimeMismatch(
                f"the perpetuity scan contracts at {rate:.6g} per step: a "
                f"late-window bias below {_GOLDIE_BIAS:g} needs a horizon "
                f"beyond {_GOLDIE_MAX_HORIZON}")
        n += 2
    return n


def goldie_constant_perpetuity(a_law: Dist, steps: StepSource, alpha: float,
                               rho: float, N: int, rng: RngStream,
                               feed_law: Dist | None = None
                               ) -> SnapshotMoments:
    """Kesten-Goldie constants of X = A X' + B from the perpetuity limit
    (alpha rho n)^{-1} E[(X_n^+-)^alpha] of its partial sums X_n, run from
    zero: plus and minus are c+ and c-, absolute their sum, and k is the
    horizon n.

    steps(m, rng) is the step source of (A, B): law_steps(a_law, b_law)
    for independent laws, coord1_steps(model) for the first coordinate of
    a triangular model, whose B = b1 + a12 W2' rides along the path with
    W2' fed by a22 (pass its law as feed_law). a_law, the law of A, sets
    the scan's factors, and with feed_law the horizon, _goldie_horizon.

    At the critical index the naive sample mean of the alpha-moment is
    dominated by unobservably rare paths, so the moments are accumulated
    through per-step increments (exactly unbiased); below it they are
    contracted by E|A|^alpha, because |X_n|^alpha itself can have infinite
    variance. The constants are the late-window growth over (n/2, n],
    which drops the O(1/n) transient of the full average."""
    if rho <= 0:
        raise ArgumentOutOfRange("rho must be > 0")
    n = _goldie_horizon(a_law, alpha, feed_law)
    lam, gamma = _scan_factors(dist.abs_moment(a_law, alpha),
                               dist.sign_moment(a_law, alpha), "E|A|^alpha")
    study = _study_from_pairs(steps, alpha, [n // 2, n], N, rng, lam,
                              step_moment=1.0, gamma=gamma)
    return study.rate(alpha * rho)


def tilted_offdiag_moments(model: TriangularSRE, alpha: float,
                           N: int = 1_000_000, rng: RngStream | None = None
                           ) -> tuple[EstimateWithError, EstimateWithError]:
    """Reweighted mean and second moment of a12/a11 for equal diagonals.

    Exact when a12 is proportional to the diagonal with an independent
    factor; weighted Monte Carlo otherwise. These are the drift and
    dispersion of the random walk behind the equal-diagonal limit laws."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not isinstance(model, EqualDiagonal):
        raise RequiresEqualDiagonal(
            "off-diagonal ratio moments need a11 = a22 almost surely")
    lam = dist.abs_moment(model.d, alpha)
    if isinstance(model.a12_mode, ProportionalToDiagonal):
        xi = model.a12_mode.factor_law
        return (EstimateWithError(dist.mean(xi) * lam),
                EstimateWithError(dist.abs_moment(xi, 2.0) * lam))
    if rng is None:
        rng = RngStream(0x0FFD1A6)

    def chunk(paths, sub):
        m = paths.stop - paths.start
        d = dist.sample(model.d, sub, m)
        r = dist.sample(model.a12_mode.a12, sub, m) / d
        w = np.abs(d) ** alpha
        return RunningMoments(w * r), RunningMoments(w * r * r)

    m1, m2 = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    return m1.estimate(rng.describe()), m2.estimate(rng.describe())


def drift_is_zero(drift: EstimateWithError) -> bool:
    """The equal-diagonal case split: a drift within 3 SE of zero, which
    for an exact drift means exactly zero."""
    return abs(drift.value) <= 3.0 * drift.se


def clt_constant(model: TriangularSRE, alpha: float,
                 rng: RngStream | None = None) -> EstimateWithError:
    """Gaussian-limit constant sigma^alpha rho1^{-alpha/2} E|N|^alpha of
    the zero-drift equal-diagonal case, predict's weight there, from the
    dispersion sigma^2 of tilted_offdiag_moments; a Monte Carlo
    dispersion carries its SE in through its power(alpha / 2). The
    regime report decides the case, so only an exact nonzero drift raises
    RequiresMuZero."""
    drift, second = tilted_offdiag_moments(model, alpha, rng=rng)
    if drift.exact and drift.value != 0.0:
        raise RequiresMuZero(f"off-diagonal drift {drift.value:.4g} is not "
                             "zero")
    rho1 = dist.abs_moment_derivative(mod.diag_laws(model)[0], alpha)
    scale = rho1 ** (-alpha / 2.0)
    enorm = dist.abs_normal_moment(alpha)
    sigma = second.power(alpha / 2.0)
    return EstimateWithError(sigma.value * scale * enorm,
                             sigma.se * scale * enorm, sigma.n_samples,
                             sigma.seed)
