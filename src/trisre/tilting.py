"""Expectations under the size-biased (|a|^alpha-weighted) measure.

Reweighting each step by |a_diag|^alpha turns moments of the cross sum
into moments of partial sums of a ratio perpetuity X = V X' + U with
V = a11/a22 and U = a12/a22. When the diagonal law is closed under the
tilt the reweighted path can be sampled exactly; otherwise raw product
weights are used, with a degeneracy guard.

At the critical index the alpha-moment of the partial sum grows linearly
but a naive sample mean misses the exponentially rare paths that carry
it. The estimators here instead accumulate the per-step moment increments
(a telescoping identity), which is unbiased for the same expectation with
polynomial variance; see the module tests for the cross-validation.
"""
from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class TiltedCoupling:
    """A model together with the diagonal being reweighted at exponent
    alpha; mode records whether the tilt is exact or weight-based."""

    model: TriangularSRE
    diag: str            # "first" | "second"
    alpha: float
    mode: str            # "exact_tilt" | "weighted_mc"
    tilted_diag: Dist | None

    @property
    def diag_law(self) -> Dist:
        d1, d2 = mod.diag_laws(self.model)
        return d1 if self.diag == "first" else d2

    @property
    def step_moment(self) -> float:
        """E|a_diag|^alpha: the per-step scale of the raw-weight measure."""
        return dist.abs_moment(self.diag_law, self.alpha)


def tilted_coupling(model: TriangularSRE, diag: str, alpha: float) -> TiltedCoupling:
    if diag not in ("first", "second"):
        raise ValueError("diag must be 'first' or 'second'")
    d1, d2 = mod.diag_laws(model)
    law = d1 if diag == "first" else d2
    try:
        tl = dist.tilted(law, alpha)
        return TiltedCoupling(model, diag, alpha, "exact_tilt", tl)
    except TiltUnsupported:
        return TiltedCoupling(model, diag, alpha, "weighted_mc", None)


@dataclass
class TiltedPath:
    """One chunk of reweighted paths: ratio arrays of shape (n, m)."""

    v: np.ndarray
    u: np.ndarray
    weights: np.ndarray | None  # per-path raw weights (weighted_mc only)


def _draw_tilted_path(tc: TiltedCoupling, n: int, m: int,
                      rng: RngStream) -> TiltedPath:
    if dist.has_atom_at_zero(mod.diag_laws(tc.model)[1]):
        raise RegimeMismatch("ratio representation needs a second diagonal "
                             "with no atom at zero")
    v = np.empty((n, m))
    u = np.empty((n, m))
    if tc.mode == "exact_tilt":
        tilt = (tc.diag, tc.tilted_diag)
        for k in range(n):
            batch = mod.draw_innovations(tc.model, m, rng, tilt=tilt)
            v[k] = batch.a11 / batch.a22
            u[k] = batch.a12 / batch.a22
        return TiltedPath(v, u, None)
    logw = np.zeros(m)
    for k in range(n):
        batch = mod.draw_innovations(tc.model, m, rng)
        v[k] = batch.a11 / batch.a22
        u[k] = batch.a12 / batch.a22
        a = batch.a11 if tc.diag == "first" else batch.a22
        logw += tc.alpha * np.log(np.abs(a))
    return TiltedPath(v, u, np.exp(logw))


def _check_ess(weights: RunningMoments) -> None:
    ess = weights.ess()
    if not ess >= _MIN_ESS:
        raise WeightDegenerate(
            f"effective sample size {ess:.1f} < {_MIN_ESS:.0f}; shorten the "
            "horizon or use a tiltable diagonal law")


def expect_tilted(model: TriangularSRE, diag: str, alpha: float, f,
                  n: int, N: int, rng: RngStream,
                  mode: str = "auto") -> EstimateWithError:
    """Estimate of the reweighted expectation of a path functional.

    The reweighted expectation carries the raw weight prod |a_diag|^alpha,
    so when E|a_diag|^alpha != 1 the sampled tilted mean is rescaled by
    that moment to the n-th power. f maps a TiltedPath to per-path values.
    mode forces the exact-tilt or raw-weight estimator ("auto" prefers
    the exact tilt whenever the diagonal law supports it).
    """
    tc = tilted_coupling(model, diag, alpha)
    if mode == "weighted_mc":
        tc = TiltedCoupling(model, diag, alpha, "weighted_mc", None)
    elif mode == "exact_tilt" and tc.mode != "exact_tilt":
        raise RequiresExactTilt("diagonal law is not closed under the tilt")
    elif mode not in ("auto", "exact_tilt", "weighted_mc"):
        raise ValueError("mode must be auto|exact_tilt|weighted_mc")
    scale = tc.step_moment ** n

    def chunk(m, sub):
        path = _draw_tilted_path(tc, n, m, sub)
        vals = np.asarray(f(path), dtype=float)
        if path.weights is None:
            return (RunningMoments(scale * vals),)
        # raw-weight estimator is already unnormalised: no extra scale
        return RunningMoments(path.weights * vals), RunningMoments(path.weights)

    accs = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    if tc.mode == "weighted_mc":
        _check_ess(accs[1])
    return accs[0].estimate(rng.describe())


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
        return {"k": self.k, "absolute": self.absolute.to_dict(),
                "plus": self.plus.to_dict(), "minus": self.minus.to_dict()}


@dataclass
class PartialSumStudy:
    """Moment estimates of the partial sums at requested horizons, plus
    the growth over each consecutive window (used for limit extraction
    at the critical index, where the per-step growth converges)."""

    snapshots: list[SnapshotMoments]
    windows: list[SnapshotMoments]
    mode: str

    def final(self) -> SnapshotMoments:
        return self.snapshots[-1]


def _signed_step_stats(v_law_m: float, gamma: float) -> tuple[float, float]:
    mp = 0.5 * (v_law_m + gamma)
    mm = 0.5 * (v_law_m - gamma)
    return mp, mm


def _snapshot_list(ks: list[int], accs: list[RunningMoments],
                   seed: str) -> list[SnapshotMoments]:
    """SnapshotMoments from consecutive (absolute, plus, minus) triples."""
    return [SnapshotMoments(k, *(a.estimate(seed) for a in accs[3 * j:3 * j + 3]))
            for j, k in enumerate(ks)]


def _study_from_pairs(step_sampler, alpha: float, snapshots: list[int],
                      N: int, rng: RngStream, mode: str, step_moment: float,
                      gamma: float) -> PartialSumStudy:
    """Core scan over X_{k+1} = U_{k+1} + V_{k+1} X_k.

    step_sampler(m, rng) -> (v, u) arrays for one step of m paths.
    mode "plain": per-path |X_k|^alpha at each snapshot (valid when the
    v-contraction is strict). mode "telescoped": per-path accumulated
    moment increments, exactly unbiased at the critical index where the
    plain mean is rare-event dominated. step_moment rescales snapshot k
    by step_moment^k (raw-weight convention).
    """
    n = snapshots[-1]
    snap_set = {int(s) for s in snapshots}

    def chunk(m, sub):
        x = np.zeros(m)
        s_acc = np.zeros(m)
        d_acc = np.zeros(m)
        snaps, wins, prev = [], [], None
        for k in range(1, n + 1):
            v, u = step_sampler(m, sub)
            vx = v * x
            x = vx + u
            if mode == "telescoped":
                zp = (np.maximum(x, 0.0) ** alpha
                      - np.maximum(vx, 0.0) ** alpha)
                zm = (np.maximum(-x, 0.0) ** alpha
                      - np.maximum(-vx, 0.0) ** alpha)
                s_acc = s_acc + (zp + zm)
                d_acc = gamma * d_acc + (zp - zm)
            if k in snap_set:
                scale = step_moment ** k
                if mode == "telescoped":
                    up = 0.5 * (s_acc + d_acc) * scale
                    um = 0.5 * (s_acc - d_acc) * scale
                else:
                    up = np.maximum(x, 0.0) ** alpha * scale
                    um = np.maximum(-x, 0.0) ** alpha * scale
                vals = (up + um, up, um)
                snaps += [RunningMoments(val) for val in vals]
                if prev is not None:
                    wins += [RunningMoments(b - a) for a, b in zip(prev, vals)]
                prev = vals
        return snaps + wins

    accs = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    seed = rng.describe()
    split = 3 * len(snapshots)
    return PartialSumStudy(
        snapshots=_snapshot_list(snapshots, accs[:split], seed),
        windows=_snapshot_list(snapshots[1:], accs[split:], seed), mode=mode)


def _vu_sampler(tc: TiltedCoupling):
    """Per-step sampler of the reweighted ratio pair (V, U).

    Only the matrix entries are drawn; under the proportional equal-
    diagonal coupling the tilted diagonal cancels from both ratios, so a
    single factor draw per step suffices."""
    if tc.mode != "exact_tilt":
        raise RequiresExactTilt(
            "partial-sum moment studies sample the reweighted path "
            "exactly; raw product weights degenerate beyond short horizons")
    model = tc.model
    if isinstance(model, EqualDiagonal):
        if isinstance(model.a12_mode, ProportionalToDiagonal):
            factor = model.a12_mode.factor_law

            def sampler(m: int, rng: RngStream):
                u = dist.sample(factor, rng, m)
                return np.ones(m), u

            return sampler
        a12_law = model.a12_mode.a12
        d_tilted = tc.tilted_diag

        def sampler(m: int, rng: RngStream):
            d = dist.sample(d_tilted, rng, m)
            a12 = dist.sample(a12_law, rng, m)
            return np.ones(m), a12 / d

        return sampler
    a11_law, a22_law = model.a11, model.a22
    if tc.diag == "first":
        a11_law = tc.tilted_diag
    else:
        a22_law = tc.tilted_diag
    a12_law = model.a12

    def sampler(m: int, rng: RngStream):
        a11 = dist.sample(a11_law, rng, m)
        a12 = dist.sample(a12_law, rng, m)
        a22 = dist.sample(a22_law, rng, m)
        return a11 / a22, a12 / a22

    return sampler


def _ratio_moment(model: TriangularSRE, alpha: float) -> float:
    """Reweighted E|V|^alpha = E|a11|^alpha / E|a22|^alpha (the weight
    cancels the denominator's magnitude)."""
    d1, d2 = mod.diag_laws(model)
    if isinstance(model, EqualDiagonal):
        return 1.0
    return dist.abs_moment(d1, alpha) / dist.abs_moment(d2, alpha)


def _ratio_sign_moment(model: TriangularSRE, alpha: float) -> float:
    """Reweighted E[sgn(V)|V|^alpha]; closed form from the menu."""
    if isinstance(model, EqualDiagonal):
        return 1.0
    d1, d2 = mod.diag_laws(model)
    s11 = (dist.signed_moment(d1, alpha, "plus")
           - dist.signed_moment(d1, alpha, "minus"))
    sgn22 = dist.prob_positive(d2) - dist.prob_negative(d2)
    return s11 * sgn22 / dist.abs_moment(d2, alpha)


def coupling_sum_moments(model: TriangularSRE, alpha: float,
                         horizons: list[int], N: int,
                         rng: RngStream) -> PartialSumStudy:
    """E|M_k|^alpha and E[(M_k^+-)^alpha] at the given horizons, where M_k
    is the cross sum, via the reweighted ratio representation.

    Chooses the plain estimator when the ratio contraction is strict and
    the telescoped one at the critical index; refuses exponent ranges
    where the moment grows exponentially (no estimator concentrates).
    A non-tiltable diagonal falls back to raw product weights in the
    contractive case (short horizons only; WeightDegenerate guards)."""
    horizons = sorted(set(int(h) for h in horizons))
    if horizons[0] < 1:
        raise ValueError("horizons must be >= 1")
    if dist.has_atom_at_zero(mod.diag_laws(model)[1]):
        raise RegimeMismatch("ratio representation needs a second diagonal "
                             "with no atom at zero")
    tc = tilted_coupling(model, "second", alpha)
    lam = tc.step_moment
    m_ratio = _ratio_moment(model, alpha)
    if m_ratio > 1.0 + _CRITICAL_BAND:
        raise RegimeMismatch(
            f"reweighted ratio moment {m_ratio:.6g} exceeds 1: the cross-sum "
            "moment grows exponentially and has no Monte Carlo estimator here")
    mode = "telescoped" if m_ratio > 1.0 - _CRITICAL_BAND else "plain"
    if tc.mode != "exact_tilt":
        if mode == "telescoped":
            raise RequiresExactTilt(
                "critical-index moment studies need an exactly tiltable "
                "diagonal law")
        return _weighted_cross_moments(model, alpha, horizons, N, rng)
    gamma = _ratio_sign_moment(model, alpha) if mode == "telescoped" else 0.0
    sampler = _vu_sampler(tc)
    return _study_from_pairs(sampler, alpha, horizons, N, rng, mode, lam, gamma)


def _weighted_cross_moments(model: TriangularSRE, alpha: float,
                            horizons: list[int], N: int,
                            rng: RngStream) -> PartialSumStudy:
    """Raw-weight route: base innovations, per-path weight prod|a22|^alpha
    applied to functionals of the ratio partial sum (whose sign, not the
    cross sum's, defines the signed parts)."""
    n = horizons[-1]
    snap_set = set(horizons)

    def chunk(m, sub):
        x = np.zeros(m)
        pv = np.ones(m)
        logw = np.zeros(m)
        moments, weights = [], []
        for k in range(1, n + 1):
            batch = mod.draw_innovations(model, m, sub)
            x = x + pv * (batch.a12 / batch.a22)
            pv = pv * (batch.a11 / batch.a22)
            logw += alpha * np.log(np.abs(batch.a22))
            if k in snap_set:
                w = np.exp(logw)
                weights.append(RunningMoments(w))
                moments += [RunningMoments(w * np.abs(x) ** alpha),
                            RunningMoments(w * np.maximum(x, 0.0) ** alpha),
                            RunningMoments(w * np.maximum(-x, 0.0) ** alpha)]
        return moments + weights

    accs = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    split = 3 * len(horizons)
    for weights in accs[split:]:
        _check_ess(weights)
    return PartialSumStudy(
        snapshots=_snapshot_list(horizons, accs[:split], rng.describe()),
        windows=[], mode="weighted_mc")


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


@dataclass(frozen=True)
class CouplingRate:
    """Per-step growth rate of the critical cross-sum moment: the raw
    moments divided by alpha*k, plus a late-window rate that sheds the
    early transient."""

    at_n: SnapshotMoments
    at_half: SnapshotMoments
    rate_at_n: SnapshotMoments
    rate_at_half: SnapshotMoments
    rate_windowed: SnapshotMoments

    def to_dict(self) -> dict:
        return {"rate_at_n": self.rate_at_n.to_dict(),
                "rate_at_half": self.rate_at_half.to_dict(),
                "rate_windowed": self.rate_windowed.to_dict()}


def _scaled_snapshot(s: SnapshotMoments, factor: float) -> SnapshotMoments:
    def sc(e: EstimateWithError) -> EstimateWithError:
        return EstimateWithError(e.value * factor, e.se * factor,
                                 e.n_samples, e.seed)

    return SnapshotMoments(s.k, sc(s.absolute), sc(s.plus), sc(s.minus))


def estimate_coupling_rate(model: TriangularSRE, alpha: float, n: int, N: int,
                           rng: RngStream) -> CouplingRate:
    """(alpha k)^{-1} E|M_k|^alpha  (and signed versions) at k = n, n/2,
    plus the rate over the window (n/2, n].

    Valid when the diagonals share the critical index but differ as
    random variables; the telescoped estimator keeps the estimate unbiased
    where the naive mean collapses."""
    if n < 2:
        raise ValueError("n must be >= 2")
    m_ratio = _ratio_moment(model, alpha)
    if abs(m_ratio - 1.0) > _CRITICAL_BAND:
        raise RegimeMismatch(
            "per-step rate is defined at the critical index "
            f"(reweighted ratio moment {m_ratio:.6g} != 1)")
    if isinstance(model, EqualDiagonal):
        raise RegimeMismatch("distinct diagonals required; the equal-diagonal "
                             "case has its own limit laws")
    half = n // 2
    study = coupling_sum_moments(model, alpha, [half, n], N, rng)
    at_half, at_n = study.snapshots
    window = study.windows[0]
    return CouplingRate(
        at_n=at_n, at_half=at_half,
        rate_at_n=_scaled_snapshot(at_n, 1.0 / (alpha * n)),
        rate_at_half=_scaled_snapshot(at_half, 1.0 / (alpha * half)),
        rate_windowed=_scaled_snapshot(window, 1.0 / (alpha * (n - half))),
    )


def tilted_offdiag_moments(model: TriangularSRE, alpha: float,
                           N: int = 1_000_000, rng: RngStream | None = None):
    """Reweighted mean and second moment of a12/a11 for equal diagonals.

    Closed form when a12 is proportional to the diagonal with an
    independent factor; weighted Monte Carlo otherwise. These are the
    drift and dispersion of the random walk behind the equal-diagonal
    limit laws."""
    if not isinstance(model, EqualDiagonal):
        raise RequiresEqualDiagonal(
            "off-diagonal ratio moments need a11 = a22 almost surely")
    lam = dist.abs_moment(model.d, alpha)
    if isinstance(model.a12_mode, ProportionalToDiagonal):
        xi = model.a12_mode.factor_law
        return dist.mean(xi) * lam, dist.abs_moment(xi, 2.0) * lam
    if rng is None:
        rng = RngStream(0x0FFD1A6)

    def chunk(m, sub):
        d = dist.sample(model.d, sub, m)
        r = dist.sample(model.a12_mode.a12, sub, m) / d
        w = np.abs(d) ** alpha
        return RunningMoments(w * r), RunningMoments(w * r * r)

    m1, m2 = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    return m1.estimate(rng.describe()), m2.estimate(rng.describe())


def clt_constant(model: TriangularSRE, alpha: float,
                 rng: RngStream | None = None) -> float:
    """Gaussian-limit constant sigma^alpha rho1^{-alpha/2} E|N|^alpha for
    the zero-drift equal-diagonal case."""
    drift, second = tilted_offdiag_moments(model, alpha, rng=rng)
    if isinstance(drift, EstimateWithError):
        if abs(drift.value) > 3.0 * drift.se:
            raise RequiresMuZero(
                f"off-diagonal drift {drift.value:.4g} +- {drift.se:.2g} "
                "is not consistent with zero")
        sigma2 = second.value
    else:
        if drift != 0.0:
            raise RequiresMuZero(f"off-diagonal drift {drift:.4g} != 0")
        sigma2 = second
    d1, _ = mod.diag_laws(model)
    rho1 = dist.abs_moment_derivative(d1, alpha)
    return sigma2 ** (alpha / 2.0) * rho1 ** (-alpha / 2.0) \
        * dist.abs_normal_moment(alpha)


def perpetuity_sample_batch(tc: TiltedCoupling, n: int, m: int,
                            rng: RngStream) -> np.ndarray:
    """m draws of the literal forward partial sum of the reweighted ratio
    perpetuity (term i carries the first i-1 ratio factors)."""
    sampler = _vu_sampler(tc)

    def chunk(sz, sub):
        x = np.zeros(sz)
        pv = np.ones(sz)
        for _ in range(n):
            v, u = sampler(sz, sub)
            x = x + pv * u
            pv = pv * v
        return x

    parts = map_chunks(m, CHUNK, chunk, rng)
    return np.concatenate(parts) if parts else np.zeros(0)


def tilted_ratio_log_drift(model: TriangularSRE, alpha: float, N: int,
                           rng: RngStream) -> EstimateWithError:
    """Reweighted E|V|^alpha log|V|: the drift normalising the tail of
    the ratio perpetuity's stationary law."""
    def f(path: TiltedPath):
        v = path.v[0]
        av = np.abs(v)
        return av ** alpha * np.log(np.where(av > 0, av, 1.0))

    return expect_tilted(model, "second", alpha, f, 1, N, rng)
