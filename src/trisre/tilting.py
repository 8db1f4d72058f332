"""Expectations under the size-biased (|a22|^alpha-weighted) measure.

Reweighting each step by |a22|^alpha turns moments of the cross sum
into moments of partial sums of a ratio perpetuity X = V X' + U with
V = a11/a22 and U = a12/a22. One scan, _study_from_pairs, estimates
them. When the law of a22 is closed under the tilt its step source draws
the reweighted ratio pair exactly; otherwise it draws untilted entries
and yields the step weight |a22|^alpha, which the scan folds into its
increments behind a degeneracy guard.

At the critical index the alpha-moment of the partial sum grows linearly
but a naive sample mean misses the exponentially rare paths that carry
it. The estimators here instead accumulate the per-step moment increments
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
from .errors import (RegimeMismatch, RequiresEqualDiagonal, RequiresExactTilt,
                     RequiresMuZero, TiltUnsupported, WeightDegenerate)
from .estimates import EstimateWithError, RunningMoments, merge_chunks
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
    distributions.prob_negative; any other callable counts as signed."""

    draw: Callable[[int, RngStream], Iterator[tuple[np.ndarray, ...]]]
    signed: bool

    def __call__(self, m: int, rng: RngStream):
        return self.draw(m, rng)


def _study_from_pairs(steps, alpha: float, snapshots: list[int],
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
    by_sign = getattr(steps, "signed", True) or gamma != contraction

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
                             N: int, rng: RngStream) -> PartialSumStudy:
    """Cross-sum moments E|M_n|^{alpha2} and signed parts, with the
    half-horizon snapshot as a convergence gauge.

    Requires E|a11|^{alpha2} < 1, the condition under which the moments
    converge to a positive limit when the second coordinate sits at its
    critical index."""
    d1, _ = mod.diag_laws(model)
    lam11 = dist.abs_moment(d1, alpha2)
    if lam11 >= 1.0:
        raise RegimeMismatch(
            f"coupling-weight limit needs E|a11|^alpha2 < 1 (got {lam11:.6g})")
    horizons = [max(1, n // 2), n] if n > 1 else [1]
    return coupling_sum_moments(model, alpha2, horizons, N, rng)


def _scaled_snapshot(s: SnapshotMoments, factor: float) -> SnapshotMoments:
    return SnapshotMoments(s.k, s.absolute.scaled(factor),
                           s.plus.scaled(factor), s.minus.scaled(factor))


@dataclass(frozen=True)
class CouplingRate:
    """Per-step growth rate of a critical partial-sum moment: the raw
    moments divided by scale*k, plus a late-window rate that sheds the
    early transient."""

    at_n: SnapshotMoments
    at_half: SnapshotMoments
    rate_at_n: SnapshotMoments
    rate_at_half: SnapshotMoments
    rate_windowed: SnapshotMoments

    @classmethod
    def from_study(cls, study: PartialSumStudy, scale: float):
        """The rates of a study at k = n/2 and n, with its window."""
        at_half, at_n = study.snapshots
        return cls(
            at_n=at_n, at_half=at_half,
            rate_at_n=_scaled_snapshot(at_n, 1.0 / (scale * at_n.k)),
            rate_at_half=_scaled_snapshot(at_half, 1.0 / (scale * at_half.k)),
            rate_windowed=_scaled_snapshot(
                study.window, 1.0 / (scale * (at_n.k - at_half.k))))


def estimate_coupling_rate(model: TriangularSRE, alpha: float, n: int, N: int,
                           rng: RngStream) -> CouplingRate:
    """(alpha k)^{-1} E|M_k|^alpha  (and signed versions) at k = n, n/2,
    plus the rate over the window (n/2, n].

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
    study = coupling_sum_moments(model, alpha, [n // 2, n], N, rng)
    return CouplingRate.from_study(study, alpha)


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


def _gaussian_constant(model: TriangularSRE, alpha: float,
                       sigma2: float) -> float:
    """sigma^alpha rho1^{-alpha/2} E|N|^alpha for the dispersion sigma2."""
    d1, _ = mod.diag_laws(model)
    rho1 = dist.abs_moment_derivative(d1, alpha)
    return sigma2 ** (alpha / 2.0) * rho1 ** (-alpha / 2.0) \
        * dist.abs_normal_moment(alpha)


def clt_constant(model: TriangularSRE, alpha: float,
                 rng: RngStream | None = None) -> float:
    """Gaussian-limit constant sigma^alpha rho1^{-alpha/2} E|N|^alpha for
    the zero-drift equal-diagonal case; raises RequiresMuZero when the
    drift of its own draw is not consistent with zero."""
    drift, second = tilted_offdiag_moments(model, alpha, rng=rng)
    if not drift_is_zero(drift):
        raise RequiresMuZero(
            f"off-diagonal drift {drift.value:.4g} +- {drift.se:.2g} "
            "is not consistent with zero")
    return _gaussian_constant(model, alpha, second.value)
