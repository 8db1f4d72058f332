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
behind a degeneracy guard. With all three entries lognormal the ratio
source draws antithetic pairs of paths from one normal per path-step,
and the scan takes its SEs from the pair means. An unsigned exact-tilt
ratio source whose a11 and a12 have quadrature rules also carries an
IncrementTable, the mean of each step's increment given the path; the
scan then adds that mean in place of the increment (conditional Monte
Carlo), in two stages: a pilot that measures the variance it saves, and
a main run of only the paths that keep the plain scan's precision.

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
from .estimates import EstimateWithError, RunningMoments, merge_chunks
from .model import EqualDiagonal, ProportionalToDiagonal, TriangularSRE
from .rng import CHUNK, RngStream, map_chunks

_MIN_ESS = 100.0
_CRITICAL_BAND = 1e-6


def _check_ess(weights: RunningMoments) -> None:
    ess = weights.ess()
    if not ess >= _MIN_ESS:
        raise WeightDegenerate(
            f"effective sample size {ess:.1f} < {_MIN_ESS:.0f}: too few draws "
            "carry the weighted measure")


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
    when there is one horizon. total is the sum of every snapshot, taken
    path by path, so its SE counts the paths the snapshots share; its k
    is the last horizon. conditioned says whether the scan added each
    step's conditional mean increment (IncrementTable)."""

    snapshots: list[SnapshotMoments]
    window: SnapshotMoments | None
    mode: str
    total: SnapshotMoments
    conditioned: bool = False

    def final(self) -> SnapshotMoments:
        return self.snapshots[-1]

    def rate(self, scale: float) -> SnapshotMoments:
        """Per-step growth over the window between the last two horizons,
        divided by scale: the window rate, which sheds the early
        transient of the full average. Its k is the last horizon. The
        Kesten-Goldie scan's window is (n/2, n]; the coupling rate's is
        (b, b + n // 2], after a burn-in b sized by its bias bound."""
        if self.window is None:
            raise ValueError("a rate needs a study at two horizons or more")
        prev, last = self.snapshots[-2:]
        return self.window.scaled(1.0 / (scale * (last.k - prev.k)))


def _snapshot_list(ks: list[int], accs: list[RunningMoments],
                   seed: str) -> list[SnapshotMoments]:
    """SnapshotMoments from consecutive (absolute, plus, minus) triples."""
    return [SnapshotMoments(k, *(a.estimate(seed) for a in accs[3 * j:3 * j + 3]))
            for j, k in enumerate(ks)]


@dataclass(frozen=True, eq=False)
class IncrementTable:
    """g(x) = E[z_k | X_{k-1} = x], the mean of an unsigned ratio scan's
    increment z_k = (V_k x + U_k)^alpha - (V_k x)^alpha given the path,
    for (V, U) = (a11/a22, a12/a22) under the alpha-tilt of a22, with
    a22 independent of (a11, a12). The tilt's weight cancels a22, so

        g(x) = (E(a11 x + a12)^alpha - E a11^alpha x^alpha) / E|a22|^alpha,

    one function of x over the two laws: E(a11 x + a12)^alpha / E|a22|^alpha
    - m x^alpha, with m = E_t V^alpha the step moment. Where the scan's
    contraction c differs from m (only in the critical band, where c = 1
    and |m - 1| <= _CRITICAL_BAND), g is still the mean of the increment
    the plain scan adds, so a path may take either.

    log g is tabulated at t = log x on the nodes start + (j - 1) step,
    j = 0..rows + 2, and read on [start, start + rows step) by the cubic
    through the four nodes around t: column r of coef holds its
    coefficients of 1, s, s^2 and s^3, with s = (t - start) / step - r.
    The error of that cubic in log g, a relative error in g, is at most
    (3/128) step^4 max|d^4 log g / dt^4| over the four nodes. At
    alpha = 2, g(x) = (2 E a11 E a12 x + E a12^2) / E|a22|^2 and log g is
    a shifted softplus in t, whose fourth derivative is at most 1/8, so
    the bound is 3/1024 step^4: 7.2e-7 at step 1/8.
    at_zero is g(0) = E a12^alpha / E|a22|^alpha, the first step's mean
    from X_0 = 0."""

    alpha: float
    at_zero: float
    start: float
    step: float
    coef: np.ndarray

    def fill(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = g(x) for the paths whose x > 0 lies on the grid. Returns
        the indices of the others, whose out is not g and must be
        overwritten."""
        rows = self.coef.shape[1]
        with np.errstate(divide="ignore"):
            pos = np.log(x)
        pos -= self.start
        pos *= 1.0 / self.step
        off = np.empty(0, dtype=np.intp)
        if not (pos.min() >= 0.0 and pos.max() < rows):
            grid = np.clip(pos, 0.0, np.nextafter(rows, 0.0))
            off = np.flatnonzero(grid != pos)
            pos = grid
        row = pos.astype(np.intp)
        pos -= row
        # Horner's rule, one coefficient gathered at a time; row is in
        # range, and a take into out is buffered unless it may clip
        c0, c1, c2, c3 = self.coef
        np.take(c3, row, out=out, mode="clip")
        term = np.take(c2, row, mode="clip")
        for c in (c1, c0):
            out *= pos
            out += term
            np.take(c, row, out=term, mode="clip")
        out *= pos
        out += term
        np.exp(out, out=out)
        return off


@dataclass(frozen=True)
class StepSource:
    """A step source and its declared properties. source(m, rng) calls
    draw, a fresh generator of each step's arrays (v, u), or (v, u, w),
    for a chunk of m paths, each of shape (m,). Every source draws its
    random laws in blocks of distributions.step_block(m) steps, one
    generator call per law and block, so a caller that reads n steps has
    consumed the draws of at most one block past its last step. signed is
    False only when no v or u it yields can be negative, which its
    factory decides from the laws with distributions.prob_negative.
    paired is True when m must be even and path i + m/2 is the antithetic
    partner of path i at every step, so the two halves of a chunk are
    dependent and only their pair means are independent; only
    _lognormal_vu_steps declares it. table, the mean increment of an
    unsigned ratio source at its alpha, is set only by _vu_steps, when
    a22 has an exact tilt and a11 and a12 have quadrature rules
    (_increment_table); a scan of such a source is conditioned."""

    draw: Callable[[int, RngStream], Iterator[tuple[np.ndarray, ...]]]
    signed: bool
    paired: bool = False
    table: IncrementTable | None = None

    def __call__(self, m: int, rng: RngStream):
        return self.draw(m, rng)


def law_steps(a_law: Dist, b_law: Dist) -> StepSource:
    """Step source of x = a x + b with independent (A, B): steps(m, rng)
    yields one step's arrays (a, b) of shape (m,) at a time. Each block
    of distributions.step_block(m) steps draws A for the block, then B; a
    Constant law draws nothing and its value is broadcast. So with a
    Constant b, and an A of one draw per value, the source consumes rng
    as one call of distributions.sample per step would. The source is
    signed when A or B can be negative."""
    def steps(m: int, rng: RngStream):
        rows = dist.step_block(m)
        while True:
            a = dist.sample_steps(a_law, rng, rows, m)
            b = dist.sample_steps(b_law, rng, rows, m)
            yield from zip(np.broadcast_to(a, (rows, m)),
                           np.broadcast_to(b, (rows, m)))

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
    snapshot k by step_moment^k. Besides the snapshots and the window
    the scan returns their per-path total (PartialSumStudy.total).

    A StepSource that is not signed keeps X_k >= 0, so z_k^- = 0 and,
    with gamma = c, d_k = s_k: the scan then keeps s_k alone, and the
    positive part is s_k and the negative part exactly 0, the same bits
    the split gives.

    Such a source may carry an IncrementTable of g(x) = E[z_k | X_{k-1} =
    x] (the scan is then conditioned). Adding g(X_{k-1}) in place of z_k
    keeps every snapshot's mean, by the tower property, and drops the
    fresh step's noise; the first step adds g(0), a constant, and a path
    whose X_{k-1} lies off the table's grid adds its plain z_k. The scan
    then runs in two stages, each chunked through map_chunks, so that N
    keeps meaning the precision of N plain paths:
    - the pilot runs ceil(N / _PILOT_SHARE) paths on rng's substream
      _PILOT_TAG, adding both z_k and g(X_{k-1}) on the same paths;
    - the main run, on rng itself, takes clip(ceil(N r), ceil(N /
      _PILOT_SHARE), N) paths, where r is the largest ratio of the
      conditioned to the plain per-path variance over the snapshots, the
      window and the total of the pilot.
    Only the main run enters the estimates, so the choice of its size
    adds no bias; it depends on no worker count, as every result does not.

    A source may yield a third array, the step's raw weight w (mode
    "weighted_mc"). Each increment is then scaled by the running product
    W_k = w_1 ... w_k, and c and gamma are the weighted step moments
    E[w |V|^alpha] and E[w sgn(V)|V|^alpha]: since
    E[W_k |V_k X_{k-1}|^alpha] = E[w |V|^alpha] E[W_{k-1}|X_{k-1}|^alpha],
    s_k is unbiased for E[W_k |X_k|^alpha]. The effective sample size of
    W_k is checked at every snapshot.

    A paired source (antithetic partners in the two halves of a chunk)
    runs ceil(N / 2) pairs, so an odd N rounds up to N + 1 paths, in
    chunks of at most CHUNK paths. Every snapshot, the window and the
    total are folded into the pair means 0.5 (val[:h] + val[h:]) before
    they are accumulated, since partners are dependent and pairs are not:
    se and n_samples then refer to pairs. The weights' effective sample
    size still counts paths.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = snapshots[-1]
    snap_set = {int(s) for s in snapshots}
    by_sign = steps.signed or gamma != contraction
    paired = steps.paired
    table = None if by_sign else steps.table
    if table is not None and table.alpha != alpha:
        raise ValueError(f"the source's table is for alpha = {table.alpha}, "
                         f"not {alpha}")

    def chunk(units, sub, forms):
        """The accumulators of each form on one chunk's paths: the plain
        scan for form False, the conditioned one for True."""
        h = units.stop - units.start
        m = 2 * h if paired else h

        def moments(vals):
            accs = [RunningMoments(0.5 * (val[:h] + val[h:]) if paired
                                   else val) for val in vals]
            if by_sign:
                return accs
            # the positive part is the whole and the negative part is 0
            return [accs[0], accs[0], RunningMoments.zeros(h)]

        # the chunk's own buffers, written in place at every step; weight
        # only for a source that yields weights
        x = np.zeros(m)
        vx = np.empty(m)
        z = np.empty(m)
        plain, cond = False in forms, True in forms
        if cond:
            gz = np.empty(m)
        incs = [gz if form else z for form in forms]
        sums = [np.zeros(m) for _ in forms]
        weight = None
        if by_sign:
            d_acc = np.zeros(m)
            dz = np.empty(m)
            t = np.empty(m)
        snaps = [[] for _ in forms]
        prev, vals, totals = ([None] * len(forms) for _ in range(3))
        weights = []
        for k, (v, u, *w) in enumerate(islice(steps(m, sub), n), 1):
            if cond:
                # g(X_{k-1}), from X_0 = 0 at the first step
                if k == 1:
                    gz.fill(table.at_zero)
                    off = ()
                else:
                    off = table.fill(x, gz)
            np.multiply(v, x, out=vx)
            np.add(vx, u, out=x)
            if plain:
                if by_sign:
                    # z = z^+ + z^- and dz = z^+ - z^- for the increment
                    # split by sign, z^+ = (x^+)^a - (vx^+)^a and
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
                    if weight is None:
                        weight = np.ones(m)
                    weight *= w[0]
                    z *= weight
                    if by_sign:
                        dz *= weight
            if cond and len(off):
                # the paths off the table's grid take the plain increment
                gz[off] = (z[off] if plain
                           else x[off] ** alpha - vx[off] ** alpha)
            for s_acc, inc in zip(sums, incs):
                if contraction != 1.0:
                    s_acc *= contraction
                s_acc += inc
            if by_sign:
                if gamma != 1.0:
                    d_acc *= gamma
                d_acc += dz
            if k in snap_set:
                scale = step_moment ** k
                for j, s_acc in enumerate(sums):
                    if by_sign:
                        up = 0.5 * (s_acc + d_acc) * scale
                        um = 0.5 * (s_acc - d_acc) * scale
                        prev[j], vals[j] = vals[j], (up + um, up, um)
                    else:
                        prev[j], vals[j] = vals[j], (s_acc * scale,)
                    totals[j] = (vals[j] if totals[j] is None else
                                 [a + b for a, b in zip(totals[j], vals[j])])
                    snaps[j] += moments(vals[j])
                if w:
                    weights.append(RunningMoments(weight))
        for j in range(len(forms)):
            if prev[j] is not None:
                snaps[j] += moments([b - a for a, b in zip(prev[j], vals[j])])
            snaps[j] += moments(totals[j])
        return snaps, weights

    def run(count, stream, forms):
        """The merged accumulators of each form over count paths, and
        whether the source yielded weights."""
        def fn(units, sub):
            return chunk(units, sub, forms)

        parts = (map_chunks((count + 1) // 2, CHUNK // 2, fn, stream)
                 if paired else map_chunks(count, CHUNK, fn, stream))
        weights = merge_chunks([w for _, w in parts])
        for acc in weights:
            _check_ess(acc)
        return ([merge_chunks([s[j] for s, _ in parts])
                 for j in range(len(forms))], bool(weights))

    if table is None:
        (accs,), weighted = run(N, rng, (False,))
    else:
        pilot = -(-N // _PILOT_SHARE)
        (plain_accs, cond_accs), _ = run(pilot, rng.substream(_PILOT_TAG),
                                         (False, True))
        ratio = max(_variance_ratio(p, c)
                    for p, c in zip(plain_accs, cond_accs))
        (accs,), weighted = run(min(max(math.ceil(N * ratio), pilot), N),
                                rng, (True,))
    seed = rng.describe()
    split = 3 * len(snapshots)
    window = (_snapshot_list([n], accs[split:split + 3], seed)[0]
              if len(snapshots) > 1 else None)
    mode = ("weighted_mc" if weighted
            else "telescoped" if contraction == 1.0 else "plain")
    return PartialSumStudy(
        snapshots=_snapshot_list(snapshots, accs[:split], seed),
        window=window, mode=mode,
        total=_snapshot_list([n], accs[-3:], seed)[0],
        conditioned=table is not None)


# A conditioned scan's pilot runs ceil(N / _PILOT_SHARE) of the N paths a
# plain scan would, on the substream _PILOT_TAG of the scan's stream; its
# main run takes at least as many
_PILOT_SHARE = 16
_PILOT_TAG = 0x50494C54


def _variance_ratio(plain: RunningMoments, cond: RunningMoments) -> float:
    """The conditioned over the plain per-path variance of one estimate on
    the same paths; 0 when both vanish, 1 when only the plain one does."""
    if plain.m2 > 0.0:
        return cond.m2 / plain.m2
    return float(cond.m2 > 0.0)


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
    equal diagonals, whose ratio V = 1 sits at the critical index.

    An unsigned source with an exact tilt carries the IncrementTable of
    its a11 and a12 (_increment_table), unless a law lacks a quadrature
    rule or the source draws nothing; the equal-diagonal, signed and
    raw-weight sources carry none, and their scans stay plain."""
    a22_tilted = _tilted_a22(model, alpha)
    if isinstance(model, EqualDiagonal):
        mode = model.a12_mode
        signed = (dist.any_negative(mode.factor_law)
                  if isinstance(mode, ProportionalToDiagonal)
                  else dist.any_negative(mode.a12, model.d))

        def steps(m: int, rng: RngStream):
            rows = dist.step_block(m)
            ones = np.ones(m)
            while True:
                if isinstance(mode, ProportionalToDiagonal):
                    u = dist.sample_steps(mode.factor_law, rng, rows, m)
                else:
                    d = dist.sample_steps(a22_tilted, rng, rows, m)
                    u = dist.sample_steps(mode.a12, rng, rows, m) / d
                for row in np.broadcast_to(u, (rows, m)):
                    yield ones, row

        return StepSource(steps, signed)
    a11_law, a12_law = model.a11, model.a12
    a22_law = model.a22 if a22_tilted is None else a22_tilted
    signed = dist.any_negative(a11_law, a12_law, model.a22)
    # a source that draws nothing has no noise to integrate out
    table = (None if a22_tilted is None or signed or all(
        isinstance(d, dist.Constant) for d in (a11_law, a12_law, a22_law))
        else _increment_table(a11_law, a12_law,
                              dist.abs_moment(model.a22, alpha), alpha))
    if all(isinstance(d, dist.Lognormal) for d in (a11_law, a12_law, a22_tilted)):
        return _lognormal_vu_steps(a11_law, a12_law, a22_tilted, table)

    def steps(m: int, rng: RngStream):
        rows = dist.step_block(m)
        while True:
            a11 = dist.sample_steps(a11_law, rng, rows, m)
            a12 = dist.sample_steps(a12_law, rng, rows, m)
            a22 = dist.sample_steps(a22_law, rng, rows, m)
            pair = [a11 / a22, a12 / a22]
            if a22_tilted is None:
                pair.append(np.abs(a22) ** alpha)
            yield from zip(*(np.broadcast_to(e, (rows, m)) for e in pair))

    return StepSource(steps, signed, table=table)


# The grid of an IncrementTable (_increment_table): log x in steps of
# _TABLE_STEP, _TABLE_HALF_WIDTH to either side of the point where a11 x
# and a12 are alike in size
_TABLE_STEP = 0.125
_TABLE_HALF_WIDTH = 24.0


def _increment_table(a11: Dist, a12: Dist, lam22: float,
                     alpha: float) -> IncrementTable | None:
    """The IncrementTable of the unsigned ratio pair (a11/a22, a12/a22)
    under the alpha-tilt of an independent a22 with lam22 = E|a22|^alpha;
    None when a11 or a12 has no quadrature rule (distributions.log_rule)
    or g leaves float range on the grid.

    In g(x) lam22 = E[(a11 x + a12)^alpha - (a11 x)^alpha], a11 enters
    like a11^p with p from 0 (small x) to alpha - 1 (large x), and a12
    like a12^p with p from alpha down to 1; each law's rule is centred
    for its range. The product rule sums the integrand over every pair of
    nodes, each row of the grid scaled by its largest (a x + b)^alpha, so
    no term cancels or overflows. The grid is centred at E log a12 -
    E log a11 and spans _TABLE_HALF_WIDTH either side. One table of two
    lognormal laws (387 grid nodes times 16 x 16 rule nodes) costs about
    3 ms."""
    rule_a = dist.log_rule(a11, min(0.0, alpha - 1.0), max(0.0, alpha - 1.0))
    rule_b = dist.log_rule(a12, min(1.0, alpha), max(1.0, alpha))
    if rule_a is None or rule_b is None:
        return None
    (ya, wa), (yb, wb) = rule_a, rule_b
    half = round(_TABLE_HALF_WIDTH / _TABLE_STEP)
    t = float(wb @ yb - wa @ ya) + _TABLE_STEP * np.arange(-half - 1, half + 2)
    # sum (a x + b)^alpha (1 - (a x / (a x + b))^alpha) over the pairs of
    # nodes, one node of a12 at a time, from sp = log(1 + b / (a x)); each
    # row is scaled by its largest (a x + b)^alpha, at the largest nodes,
    # and a pair whose b / (a x) underflows adds 0
    la = t[:, None] + ya
    top = alpha * np.logaddexp(t + ya.max(), yb.max())
    total = np.zeros(t.size)
    for lb, w in zip(yb, wb):
        sp = np.logaddexp(0.0, lb - la)
        term = alpha * (la + sp)
        term -= top[:, None]
        np.exp(term, out=term)
        sp *= -alpha
        term *= np.expm1(sp, out=sp)
        total -= term @ (w * wa)
    with np.errstate(divide="ignore"):
        log_g = top + np.log(total) - math.log(lam22)
    if not np.isfinite(log_g).all():
        return None
    # column r: the cubic through nodes r..r + 3, in s = (t - t[r + 1]) / step
    f0, f1, f2, f3 = log_g[:-3], log_g[1:-2], log_g[2:-1], log_g[3:]
    coef = np.stack([f1, f2 - f0 / 3.0 - f1 / 2.0 - f3 / 6.0,
                     (f0 + f2) / 2.0 - f1,
                     (f3 - f0) / 6.0 + (f1 - f2) / 2.0])
    return IncrementTable(alpha, dist.abs_moment(a12, alpha) / lam22,
                          float(t[1]), _TABLE_STEP, coef)


def _lognormal_vu_steps(a11: dist.Lognormal, a12: dist.Lognormal,
                        a22: dist.Lognormal,
                        table: IncrementTable | None = None) -> StepSource:
    """(V, U) = (a11/a22, a12/a22) for lognormal entries, in antithetic
    pairs of paths, from one normal per path-step.

    With a_ij = exp(mu_ij + s_ij N_ij) for independent standard normals
    N_ij, log V = mu11 - mu22 + s11 N11 - s22 N22 and log U = mu12 - mu22
    + s12 N12 - s22 N22 are jointly normal: variances s11^2 + s22^2 and
    s12^2 + s22^2, covariance s22^2. For a chunk of m = 2h paths, each
    block of B = distributions.step_block(m) steps fills one (B, 2, h)
    buffer of standard normals, the stream order of B (2, h) fills, and
    mixes it through the Cholesky factor L of that covariance, taken in
    the order (log U, log V): at each step, path i < h takes shift + L g
    and path i + h the mirrored shift - L g, the same law as the
    three-draw ratio, then one exp runs over the (B, 2, m) block.
    Partners mirror each other at every step, so whole paths are partners
    and the source is paired; the h paths of either half are independent
    of each other. The pair is positive; table, when given, is the
    pair's IncrementTable (_vu_steps builds it)."""
    shift = np.array([[a12.mu - a22.mu], [a11.mu - a22.mu]])
    c22 = a22.sigma ** 2
    l11 = math.sqrt(a12.sigma ** 2 + c22)
    l21 = c22 / l11
    l22 = math.sqrt(a11.sigma ** 2 + c22 - l21 ** 2)

    def steps(m: int, rng: RngStream):
        if m % 2:
            raise ValueError("a paired source needs an even number of paths")
        h = m // 2
        rows = dist.step_block(m)
        g = np.empty((rows, 2, h))
        mix = np.empty((rows, h))
        z = np.empty((rows, 2, m))
        while True:
            rng.gen.standard_normal(out=g)
            g[:, 1] *= l22
            np.multiply(g[:, 0], l21, out=mix)
            g[:, 1] += mix
            g[:, 0] *= l11
            np.add(shift, g, out=z[:, :, :h])
            np.subtract(shift, g, out=z[:, :, h:])
            np.exp(z, out=z)
            for u, v in z:
                yield v, u

    return StepSource(steps, False, paired=True, table=table)


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
    horizons only, WeightDegenerate guards).

    With an exact tilt, positive entries, and quadrature rules for a11
    and a12 (lognormal or constant laws), the study is conditioned
    (_vu_steps, _study_from_pairs): each step adds its mean increment
    given the path, and a pilot sizes the main run to the precision of N
    plain paths, so the estimates' n_samples is the main run's, from
    ceil(N / _PILOT_SHARE) up to N paths (pairs for the lognormal
    source). Other studies run N plain paths."""
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
    takes the half-horizon snapshot, as a convergence gauge. N is the
    precision of N plain paths: a conditioned study (coupling_sum_moments)
    runs fewer, as its pilot finds them enough.

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
    per-step growth over the window (b, b + n // 2], divided by alpha.
    The burn-in b, from _rate_burn_in, sheds the start-up transient; k is
    the scan's horizon b + n // 2.

    Valid when the diagonals share the critical index but differ as
    random variables; the telescoped estimator keeps the estimate unbiased
    where the naive mean collapses. N is the precision of N plain paths:
    a conditioned study (coupling_sum_moments) runs fewer, as its pilot
    finds them enough; the pilot sizes the run by the window's variance
    as well as each snapshot's."""
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
    width = n // 2
    b = _rate_burn_in(model, alpha, width)
    return coupling_sum_moments(model, alpha, [b, b + width], N,
                                rng).rate(alpha)


# Most terms of the weight series; estimate_weight_series raises when the
# geometric term bound has not yet fallen below _WEIGHT_SERIES_TOL there.
_WEIGHT_SERIES_MAX_TERMS = 200
_WEIGHT_SERIES_TOL = 1e-4


def estimate_weight_series(model: TriangularSRE, alpha2: float, N: int,
                           rng: RngStream) -> SnapshotMoments:
    """The weight series sum_{k=1..K} E|(A_1...A_k)_12|^alpha2 and its
    signed parts: the total of one coupling_sum_moments study at horizons
    1..K; k is K.

    Term k is at most C k q^{k-1}, with C = E|a12|^alpha2 the first term
    and q = max(E|a11|^alpha2, E|a22|^alpha2), so the horizon K, the first
    k with k q^{k-1} < _WEIGHT_SERIES_TOL, cuts the series where a term
    is below that share of the first. The snapshots share their paths, so
    the SE is that of the per-path sum of the K snapshots (the study's
    total), conditioned or plain as the study runs. N is the precision of
    N plain paths: a conditioned study (coupling_sum_moments) runs fewer,
    as its pilot finds them enough."""
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
    return coupling_sum_moments(model, alpha2, list(range(1, K + 1)), N,
                                rng).total


# Relative bias bound of the window growth of a critical-index scan: the
# Kesten-Goldie horizon (_goldie_horizon) and the coupling rate's burn-in
# (_rate_burn_in) are the shortest whose _window_bias is below it.
_WINDOW_BIAS = 1e-3
# Horizon n of the perpetuity scan behind every Kesten-Goldie constant:
# the smallest even n >= _GOLDIE_HORIZON whose late-window bias bound is
# below _WINDOW_BIAS, at most _GOLDIE_MAX_HORIZON; the scan's cost grows
# linearly in n. The floor is the horizon of every built-in scenario: for
# A = LN(-1, 1), B = 1 the bias is -0.13% at n = 20, -0.04% at n = 24 and
# -0.007% at n = 30, against a Monte Carlo SE of about 0.3% at 200k
# samples.
_GOLDIE_HORIZON = 24
_GOLDIE_MAX_HORIZON = 1000
# Most burn-in steps of the coupling-rate scan (_rate_burn_in).
_RATE_MAX_BURN_IN = 1000


def _window_bias(r: float, start: int, width: int,
                 r_feed: float = 0.0) -> float:
    """Relative bias bound of the growth averaged over the window
    (start, start + width] when the per-step growth d_k approaches its
    limit like the gap e_k = r e_{k-1} + r_feed^k, e_0 = 1: the window
    mean of 2 e_k / (1 + r). At alpha = 2 the exact moment recursion of
    the perpetuity X = A X' + B gives d_k - d = -2 E[B]^2 E[A]^k /
    (1 - E[A]), so with r = E[A] and no feed (e_k = r^k) this is the bias
    for constant B and a bound for any other B independent of the path."""
    gap, total = 1.0, 0.0
    for k in range(1, start + width + 1):
        gap = r * gap + r_feed ** k
        if k > start:
            total += gap
    return 2.0 * total / ((1.0 + r) * width)


def _tail_exponents(alpha: float) -> tuple[float, ...]:
    """Exponents s whose moments E|A|^s bound the coupling rate of a scan
    at the critical index alpha (see _goldie_horizon)."""
    return (alpha / 2.0,) if alpha <= 2.0 else (1.0, alpha - 1.0)


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
    exps = _tail_exponents(alpha)
    r = max(dist.abs_moment(a_law, s) for s in exps)
    r_feed = (0.0 if feed_law is None else
              max(dist.abs_moment(feed_law, s) for s in exps + (alpha,)))
    rate, n = max(r, r_feed), _GOLDIE_HORIZON
    # n is even: the window is (n/2, n]
    while (rate >= 1.0
           or _window_bias(r, n // 2, n // 2, r_feed) > _WINDOW_BIAS):
        if rate >= 1.0 or n >= _GOLDIE_MAX_HORIZON:
            raise RegimeMismatch(
                f"the perpetuity scan contracts at {rate:.6g} per step: a "
                f"late-window bias below {_WINDOW_BIAS:g} needs a horizon "
                f"beyond {_GOLDIE_MAX_HORIZON}")
        n += 2
    return n


def _rate_burn_in(model: TriangularSRE, alpha: float, width: int) -> int:
    """Burn-in b of the coupling-rate scan: the smallest b >= 1 whose
    window (b, b + width] has a bias bound _window_bias(r, b - 1, width)
    of at most _WINDOW_BIAS, where r is the largest E_t|V|^s =
    E|a11|^s E|a22|^(alpha - s) / E|a22|^alpha over _goldie_horizon's
    exponents s (E_t, the alpha-tilt of a22).

    The scan runs the ratio recursion X_k = V_k X_{k-1} + U_k from zero
    under the tilt, and its per-step growth d_k = E_t|X_k|^alpha -
    E_t|X_{k-1}|^alpha reaches its limit d as fast as X_{k-1} couples
    with the stationary X, at the rate r (the argument of
    _goldie_horizon). At alpha = 2 this is exact: with E_t V^2 = 1,
    E_t X_k = r E_t X_{k-1} + E_t U, r = E_t V, and
    E_t X_k^2 = E_t X_{k-1}^2 + 2 E_t[VU] E_t X_{k-1} + E_t U^2, so
    E_t X_{k-1} = E_t X (1 - r^(k-1)) and
    d_k - d = -2 E_t[VU] E_t[X] r^(k-1), where d = E_t U^2 +
    2 E_t[VU] E_t[X]. For positive entries 0 <= 2 E_t[VU] E_t[X] <= d,
    so the relative gap is at most r^(k-1) = e_(k-1), and its mean over
    (b, b + width] is at most _window_bias(r, b - 1, width), whose
    factor 2 / (1 + r) is at least 1. That is where the bound is proven;
    at other alpha, or with signed entries, it is the envelope
    _goldie_horizon also relies on. For distinct_diag_equal_index
    (r = E_t V = e^-1.5 = 0.223) b is 2 at n // 2 = 200 and 3 at 100."""
    d1, d2 = mod.diag_laws(model)
    lam22 = dist.abs_moment(d2, alpha)
    r = max(dist.abs_moment(d1, s) * dist.abs_moment(d2, alpha - s) / lam22
            for s in _tail_exponents(alpha))
    b = 1
    while r >= 1.0 or _window_bias(r, b - 1, width) > _WINDOW_BIAS:
        if r >= 1.0 or b >= _RATE_MAX_BURN_IN:
            raise RegimeMismatch(
                f"the ratio recursion couples at {r:.6g} per step: a "
                f"window bias below {_WINDOW_BIAS:g} needs a burn-in "
                f"beyond {_RATE_MAX_BURN_IN}")
        b += 1
    return b


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
    which drops the O(1/n) transient of the full average; the horizon n
    keeps the window's bias bound below _WINDOW_BIAS."""
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
    factor. Otherwise Monte Carlo: when the diagonal's law is closed
    under the alpha-tilt, d is drawn from the tilted law and every draw
    carries the constant weight E|d|^alpha; else d is drawn untilted with
    the weight |d|^alpha. WeightDegenerate is raised when the weights
    have an effective sample size below _MIN_ESS. These are the
    drift and dispersion of the random walk behind the equal-diagonal
    limit laws."""
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
    d_tilted = _tilted_a22(model, alpha)

    def chunk(paths, sub):
        m = paths.stop - paths.start
        d = dist.sample(model.d if d_tilted is None else d_tilted, sub, m)
        r = dist.sample(model.a12_mode.a12, sub, m) / d
        w = np.abs(d) ** alpha if d_tilted is None else np.full(m, lam)
        return (RunningMoments(w * r), RunningMoments(w * r * r),
                RunningMoments(w))

    m1, m2, weights = merge_chunks(map_chunks(N, CHUNK, chunk, rng))
    _check_ess(weights)
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
    return second.power(alpha / 2.0).scaled(scale).scaled(enorm)
