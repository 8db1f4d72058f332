"""Hypothesis checking and regime classification for a triangular SRE.

Per coordinate the tail is driven either by the multiplier (its index
solves E|A|^alpha = 1) or by a regularly varying additive term with a
smaller index. The classifier verifies the structural assumptions each
result needs and names the applicable asymptotic case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from . import distributions as dist
from . import model as mod
from .distributions import Dist
from .errors import NoRoot, NotContractive
from .estimates import EstimateWithError, RunningMoments, merge_chunks
from .model import EqualDiagonal, IndependentEntries, ProportionalToDiagonal, TriangularSRE
from .rng import CHUNK, RngStream, map_chunks

_INDEX_TOL = 1e-10
_ALPHA_MATCH = 1e-7


def solve_tail_index(spec: Dist) -> float:
    """The unique alpha > 0 with E|A|^alpha = 1.

    beta -> log E|A|^beta is convex, vanishes at 0 and has negative slope
    there whenever E log|A| < 0, so a root exists iff the moment function
    climbs back above 1 before diverging.
    """
    try:
        drift = dist.log_abs_moment(spec)
    except Exception as exc:
        raise NotContractive(f"E log|A| unavailable: {exc}") from exc
    if drift >= 0:
        raise NotContractive("E log|A| >= 0: no stationary regime")

    sup = dist.moment_sup(spec)

    def g(beta: float) -> float:
        try:
            return math.log(dist.abs_moment(spec, beta))
        except OverflowError:
            return math.inf

    # expanding scan for a sign change of the convex log-moment function;
    # for a finite moment range, approach the divergence point from below
    if math.isinf(sup):
        grid = [2.0 ** k for k in range(-2, 10)]
    else:
        grid = [sup * (1.0 - 2.0 ** (-k)) for k in range(1, 55)]
    lo = 1e-6
    hi = None
    for beta in grid:
        if beta <= lo:
            continue
        if g(beta) > 0.0:
            hi = beta
            break
        lo = beta
    if hi is None:
        raise NoRoot("E|A|^beta stays below 1 on the searchable range")
    root = optimize.brentq(g, lo, hi, xtol=_INDEX_TOL, rtol=8.9e-16)
    return float(root)


def lyapunov_estimate(model: TriangularSRE, n: int, reps: int,
                      rng: RngStream) -> EstimateWithError:
    """Mean and SE of n^{-1} log ||A_n ... A_1|| over independent paths.

    The running 2x2 product is renormalised by its max-abs entry every
    step; the factored-out logs accumulate separately so no overflow can
    occur whatever the horizon."""
    if n < 1 or reps < 2:
        raise ValueError("need n >= 1 and reps >= 2")
    p11 = np.ones(reps)
    p12 = np.zeros(reps)
    p22 = np.ones(reps)
    logacc = np.zeros(reps)
    for _ in range(n):
        batch = mod.draw_innovations(model, reps, rng)
        # left-multiply the running product by the new triangular matrix
        p11_new = batch.a11 * p11
        p12_new = batch.a11 * p12 + batch.a12 * p22
        p22_new = batch.a22 * p22
        scale = np.maximum(np.maximum(np.abs(p11_new), np.abs(p12_new)),
                           np.abs(p22_new))
        scale = np.where(scale == 0.0, 1.0, scale)
        p11, p12, p22 = p11_new / scale, p12_new / scale, p22_new / scale
        logacc += np.log(scale)
    # spectral norm of [[p11, p12], [0, p22]] via the 2x2 Gram matrix
    g11 = p11 * p11
    g12 = p11 * p12
    g22 = p12 * p12 + p22 * p22
    tr = g11 + g22
    det = g11 * g22 - g12 * g12
    lam = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    vals = (logacc + 0.5 * np.log(np.maximum(lam, 1e-300))) / n
    return EstimateWithError(float(np.mean(vals)),
                             float(np.std(vals) / math.sqrt(reps)),
                             reps, rng.describe())


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "unverifiable"
    detail: str

    def to_dict(self) -> dict:
        return {"check_id": self.check_id, "status": self.status,
                "detail": self.detail}


@dataclass(frozen=True)
class SignSummary:
    a11_negative_possible: bool
    a22_negative_possible: bool
    a22_no_zero_atom: bool

    def to_dict(self) -> dict:
        return {"a11_negative_possible": self.a11_negative_possible,
                "a22_negative_possible": self.a22_negative_possible,
                "a22_no_zero_atom": self.a22_no_zero_atom}


CASE_COORD1_KG = "coord1_dominant_kg"
CASE_COORD1_GREY = "coord1_dominant_grey"
CASE_COORD2_KG = "coord2_dominant_kg"
CASE_COORD2_GREY = "coord2_dominant_grey"
CASE_EQUAL_DIAG_ZERO_DRIFT = "equal_diag_zero_drift"
CASE_EQUAL_DIAG_NONZERO_DRIFT = "equal_diag_nonzero_drift"
CASE_DISTINCT_DIAG_EQUAL_INDEX = "distinct_diag_equal_index"
CASE_UNSUPPORTED = "unsupported"


@dataclass
class RegimeReport:
    alpha1: float | None
    alpha2: float | None
    rho1: float | None
    rho2: float | None
    regime1: str | None          # "kesten_goldie" | "grey"
    regime2: str | None
    diagonal_relation: str       # "equal_as" | "distinct"
    sign_case: SignSummary
    checks: list[CheckResult] = field(default_factory=list)
    theorem_case: str = CASE_UNSUPPORTED
    offdiag_drift: float | EstimateWithError | None = None

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        drift = self.offdiag_drift
        if isinstance(drift, EstimateWithError):
            drift_d = drift.to_dict()
        else:
            drift_d = drift
        return {"alpha1": self.alpha1, "alpha2": self.alpha2,
                "rho1": self.rho1, "rho2": self.rho2,
                "regime1": self.regime1, "regime2": self.regime2,
                "diagonal_relation": self.diagonal_relation,
                "sign_case": self.sign_case.to_dict(),
                "checks": [c.to_dict() for c in self.checks],
                "theorem_case": self.theorem_case,
                "offdiag_drift": drift_d}


def _coordinate_regime(a_law: Dist, b_law: Dist) -> tuple[str | None, float | None, str]:
    """Decide per-coordinate regime and index; returns (regime, alpha, why)."""
    kg_alpha = None
    kg_err = ""
    try:
        kg_alpha = solve_tail_index(a_law)
    except (NoRoot, NotContractive) as exc:
        kg_err = str(exc)
    rv_alpha = b_law.alpha if isinstance(b_law, dist.TwoSidedPareto) else None

    if kg_alpha is not None and dist.moment_sup(b_law) <= kg_alpha:
        # additive tail is at least as heavy as the multiplicative one
        kg_alpha = None
        kg_err = "E|B|^alpha infinite at the multiplicative index"
    if kg_alpha is not None and rv_alpha is not None and rv_alpha < kg_alpha:
        kg_alpha = None
        kg_err = "regularly varying B dominates the multiplicative index"

    if kg_alpha is not None:
        return "kesten_goldie", kg_alpha, "E|A|^alpha = 1 solvable"
    if rv_alpha is not None:
        if dist.abs_moment(a_law, rv_alpha) < 1.0:
            return "grey", rv_alpha, "B regularly varying, E|A|^alpha < 1"
        return None, None, "B regularly varying but E|A|^alpha >= 1"
    return None, None, kg_err or "no tail index available"


def _nonlattice(a_law: Dist) -> bool:
    return dist.is_continuous(a_law)


def _eta_margin(model: TriangularSRE, alpha: float) -> float:
    """Largest eta <= 0.1 keeping all alpha+eta entry moments finite."""
    d1, d2 = mod.diag_laws(model)
    sup = min(dist.moment_sup(d1), dist.moment_sup(d2),
              mod.offdiag_moment_sup(model),
              dist.moment_sup(model.b1), dist.moment_sup(model.b2))
    if math.isinf(sup):
        return 0.1
    return min(0.1, max(0.0, (sup - alpha) / 2.0))


def _mixed_moment_mc(model: TriangularSRE, alpha: float, eta: float,
                     rng: RngStream, n: int = 1_000_000) -> tuple[CheckResult, bool]:
    """[mixed negative-moment condition] E|A11|^{a+eta}|A22|^{-eta} and the
    a12 analogue, by Monte Carlo; flagged unverifiable when unstable."""
    def chunk(m, sub):
        batch = mod.draw_innovations(model, m, sub)
        with np.errstate(divide="ignore", over="ignore"):
            w1 = np.abs(batch.a11) ** (alpha + eta) * np.abs(batch.a22) ** (-eta)
            w2 = np.abs(batch.a12) ** (alpha + eta) * np.abs(batch.a22) ** (-eta)
        return tuple(RunningMoments(w[np.isfinite(w)]) for w in (w1, w2))

    ok = True
    details = []
    accs = merge_chunks(map_chunks(n, CHUNK, chunk, rng))
    for name, acc in zip(("diag", "offdiag"), accs):
        # population std / sqrt(n) / mean, over the finite weights
        rel_se = acc.estimate().se / acc.mean if acc.mean > 0 else 0.0
        details.append(f"{name}: mean {acc.mean:.4g}, rel SE {rel_se:.2%}")
        if rel_se > 0.10:
            ok = False
    status = "pass" if ok else "unverifiable"
    return CheckResult("negative_moment_mix", status,
                       f"eta={eta:.3g}; " + "; ".join(details)), ok


def classify(model: TriangularSRE, rng: RngStream | None = None) -> RegimeReport:
    """Fill the full regime report for a model.

    Analytic checks come from distribution metadata; the non-lattice
    conditions are structural (continuous law => pass, point mass =>
    fail); the only Monte Carlo ingredients are the mixed negative-moment
    check and, when no closed form exists, the off-diagonal drift used to
    split the equal-diagonal case.
    """
    if rng is None:
        rng = RngStream(0x7C1A55EED)
    checks: list[CheckResult] = []
    d1, d2 = mod.diag_laws(model)

    sign = SignSummary(
        a11_negative_possible=dist.prob_negative(d1) > 0.0,
        a22_negative_possible=dist.prob_negative(d2) > 0.0,
        a22_no_zero_atom=not dist.has_atom_at_zero(d2),
    )

    # stationarity preconditions (negative log-drifts, log+ noise moment)
    try:
        ld1, ld2 = dist.log_abs_moment(d1), dist.log_abs_moment(d2)
        stat_ok = ld1 < 0 and ld2 < 0
        checks.append(CheckResult(
            "lyapunov_negative", "pass" if stat_ok else "fail",
            f"E log|A11| = {ld1:.4g}, E log|A22| = {ld2:.4g}"))
    except Exception as exc:
        stat_ok = False
        checks.append(CheckResult("lyapunov_negative", "fail", str(exc)))

    regime1, alpha1, why1 = _coordinate_regime(d1, model.b1)
    regime2, alpha2, why2 = _coordinate_regime(d2, model.b2)
    checks.append(CheckResult(
        "kesten_goldie_coord1" if regime1 == "kesten_goldie" else "grey_coord1",
        "pass" if regime1 else "fail", why1))
    checks.append(CheckResult(
        "kesten_goldie_coord2" if regime2 == "kesten_goldie" else "grey_coord2",
        "pass" if regime2 else "fail", why2))

    rho1 = dist.abs_moment_derivative(d1, alpha1) if alpha1 is not None else None
    rho2 = dist.abs_moment_derivative(d2, alpha2) if alpha2 is not None else None

    # off-diagonal non-degeneracy with enough moments
    c2_ok = not mod.offdiag_is_zero(model)
    amin = min(a for a in (alpha1, alpha2) if a is not None) \
        if (alpha1 is not None or alpha2 is not None) else None
    if c2_ok and amin is not None and mod.offdiag_moment_sup(model) <= amin:
        c2_ok = False
        detail = "E|A12|^{min index} infinite"
    else:
        detail = ("P(A12 = 0) < 1 and moment finite" if c2_ok
                  else "off-diagonal vanishes almost surely")
    checks.append(CheckResult("offdiag_nondegenerate",
                              "pass" if c2_ok else "fail", detail))

    if isinstance(model, EqualDiagonal):
        relation = "equal_as"
    elif isinstance(d1, dist.Constant) and isinstance(d2, dist.Constant) \
            and d1.c == d2.c:
        relation = "equal_as"
    else:
        relation = "distinct"

    same_alpha = (alpha1 is not None and alpha2 is not None
                  and abs(alpha1 - alpha2) <= _ALPHA_MATCH * max(1.0, alpha1))

    # shared assumptions of the equal-index results
    both_kg = regime1 == "kesten_goldie" and regime2 == "kesten_goldie"
    a1_ok = stat_ok and both_kg and same_alpha
    checks.append(CheckResult(
        "diag_critical_moments", "pass" if a1_ok else "fail",
        f"alpha1={alpha1}, alpha2={alpha2}, both Kesten-Goldie: {both_kg}"))
    alpha_common = alpha1 if same_alpha else None
    eta = _eta_margin(model, alpha_common) if alpha_common is not None else 0.0
    a2_ok = alpha_common is not None and eta > 0.0
    checks.append(CheckResult(
        "joint_moment_margin", "pass" if a2_ok else "fail",
        f"eta = {eta:.3g}"))
    checks.append(CheckResult(
        "a22_no_zero_atom", "pass" if sign.a22_no_zero_atom else "fail",
        "second diagonal has no atom at zero" if sign.a22_no_zero_atom
        else "second diagonal can vanish"))
    a4_ok = _nonlattice(d1)
    checks.append(CheckResult(
        "log_a11_nonlattice", "pass" if a4_ok else "fail",
        "continuous first diagonal" if a4_ok else "discrete first diagonal"))
    if relation == "distinct":
        a5_ok = dist.is_continuous(d2)
        a5_detail = ("continuous second diagonal makes both log laws "
                     "non-arithmetic" if a5_ok else
                     "discrete second diagonal")
    else:
        a5_ok = False
        a5_detail = "diagonals equal a.s.: the log-ratio is degenerate"
    checks.append(CheckResult("ratio_nonlattice",
                              "pass" if a5_ok else "fail", a5_detail))

    mixed_ok = False
    if relation == "distinct" and a1_ok and a2_ok and sign.a22_no_zero_atom:
        mixed_check, mixed_ok = _mixed_moment_mc(model, alpha_common, eta,
                                                 rng.substream(0xA6))
        checks.append(mixed_check)
    else:
        checks.append(CheckResult("negative_moment_mix", "unverifiable",
                                  "not needed outside the distinct-diagonal "
                                  "equal-index case"))

    # equal-diagonal case split: drift of the tilted off-diagonal ratio
    drift: float | EstimateWithError | None = None
    if relation == "equal_as" and a1_ok and sign.a22_no_zero_atom:
        from .tilting import tilted_offdiag_moments
        drift, _ = tilted_offdiag_moments(model, alpha_common,
                                          rng=rng.substream(0xD61F7))

    theorem_case = CASE_UNSUPPORTED
    if stat_ok and c2_ok and regime1 and regime2:
        if alpha1 is not None and alpha2 is not None and not same_alpha:
            if alpha1 < alpha2:
                theorem_case = (CASE_COORD1_KG if regime1 == "kesten_goldie"
                                else CASE_COORD1_GREY)
            else:
                if regime2 == "kesten_goldie" and not sign.a22_no_zero_atom:
                    theorem_case = CASE_UNSUPPORTED
                else:
                    theorem_case = (CASE_COORD2_KG if regime2 == "kesten_goldie"
                                    else CASE_COORD2_GREY)
        elif same_alpha and relation == "equal_as":
            if a1_ok and a2_ok and sign.a22_no_zero_atom and a4_ok:
                if isinstance(drift, EstimateWithError):
                    zero_drift = abs(drift.value) <= 3.0 * drift.se
                else:
                    zero_drift = drift is not None and drift == 0.0
                theorem_case = (CASE_EQUAL_DIAG_ZERO_DRIFT if zero_drift
                                else CASE_EQUAL_DIAG_NONZERO_DRIFT)
        elif same_alpha and relation == "distinct":
            if a1_ok and a2_ok and sign.a22_no_zero_atom and a4_ok \
                    and a5_ok and mixed_ok:
                theorem_case = CASE_DISTINCT_DIAG_EQUAL_INDEX

    report = RegimeReport(alpha1=alpha1, alpha2=alpha2, rho1=rho1, rho2=rho2,
                          regime1=regime1, regime2=regime2,
                          diagonal_relation=relation, sign_case=sign,
                          checks=checks, theorem_case=theorem_case,
                          offdiag_drift=drift)

    # The positivity of the summed tail constants in the signed
    # first-coordinate dominant case hinges on the two decomposition parts
    # having distinct tail constants; that condition has no computable
    # criterion, so it is reported informationally, never pass/fail.
    signed_entries = (sign.a11_negative_possible
                      or dist.prob_negative(model.b1) > 0.0
                      or dist.prob_negative(model.b2) > 0.0
                      or mod.offdiag_negative_possible(model))
    if theorem_case == CASE_COORD1_KG and signed_entries:
        detail = _component_distinctness_probe(model, alpha1,
                                               rng.substream(0x38))
        report.checks.append(CheckResult("component_tail_distinctness",
                                         "unverifiable", detail))
    return report


def _component_distinctness_probe(model: TriangularSRE, alpha: float,
                                  rng: RngStream, m: int = 100_000) -> str:
    """MC estimate of the two sides of the distinctness condition
    E[|U|^a - |A11 U|^a] for U each decomposition part; informational."""
    from .stationary import sample_stationary_batch
    try:
        batch = sample_stationary_batch(model, 1e-6, m, rng.substream(1))
    except NotContractive as exc:
        return f"probe skipped: {exc}"
    innov = mod.draw_innovations(model, m, rng.substream(2))
    lhs = np.mean(np.abs(batch.w1_own) ** alpha
                  - np.abs(innov.a11 * batch.w1_own) ** alpha)
    rhs = np.mean(np.abs(batch.w1_cross) ** alpha
                  - np.abs(innov.a11 * batch.w1_cross) ** alpha)
    return (f"own-part side {lhs:.4g} vs cross-part side {rhs:.4g} "
            f"(m={m}); equality cannot be certified either way")
