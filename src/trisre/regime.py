"""Hypothesis checking and regime classification for a triangular SRE.

Per coordinate the tail is driven either by the multiplier (its index
solves E|A|^alpha = 1) or by a regularly varying additive term with a
smaller index. The classifier verifies the structural assumptions each
result needs and names the applicable asymptotic case.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from . import distributions as dist
from . import model as mod
from .distributions import Dist
from .errors import (LogMomentUndefined, MomentDiverges, NoRoot,
                     NotContractive, WeightDegenerate)
from .estimates import EstimateWithError
from .model import EqualDiagonal, TriangularSRE
from .rng import RngStream
from .tilting import drift_is_zero, tilted_offdiag_moments

_INDEX_TOL = 1e-10
_INDEX_RTOL = 8.9e-16  # 4 machine epsilons: a step this small is rounding
_NEWTON_MAXITER = 100  # steps; at most 9 on the 500-law test sweep
_ALPHA_MATCH = 1e-7
# solve_tail_index's grid for a law with every moment finite ends at
# 2^_INDEX_GRID_LOG2 = 8192, inside beta <= 1e4, where log_moment's
# Normal rule is checked against the closed form; a larger index reads as
# no root.
_INDEX_GRID_LOG2 = 13


def solve_tail_index(spec: Dist) -> float:
    """The unique alpha > 0 with E|A|^alpha = 1: the root of g(beta) =
    log E|A|^beta, from distributions.log_moment, finite wherever the
    moment is, in float range or not.

    g is convex, vanishes at 0 and has negative slope there whenever
    E log|A| < 0, so a root exists iff g climbs back above 0 before the
    moment diverges. A root below the search's start 1e-6, or above the
    grid's end 2^_INDEX_GRID_LOG2, reads as none.

    An expanding grid scan finds the first point hi with g(hi) > 0; a grid
    point where g is exactly 0 is the root. From hi, right of the root,
    Newton steps on the convex g fall monotonically onto it and converge
    quadratically. The iterate is returned, the step not taken, once the
    step is within (_INDEX_TOL + _INDEX_RTOL x) / 2, Brent's stopping
    tolerance.
    """
    try:
        drift = dist.log_abs_moment(spec)
    except LogMomentUndefined as exc:
        raise NotContractive(f"E log|A| unavailable: {exc}") from exc
    if drift >= 0:
        raise NotContractive("E log|A| >= 0: no stationary regime")

    sup = dist.moment_sup(spec)
    # for a finite moment range, approach the divergence point from below
    if math.isinf(sup):
        grid = [2.0 ** k for k in range(-2, _INDEX_GRID_LOG2 + 1)]
    else:  # the last points can round up to sup, where the moment diverges
        grid = [b for k in range(1, 55) if (b := sup * (1.0 - 2.0 ** (-k))) < sup]
    start = 1e-6
    if dist.log_moment(spec, start)[0] > 0.0:
        raise NoRoot(f"E|A|^beta exceeds 1 already at beta = {start}")
    for x in grid:
        if x <= start:
            continue
        g, slope = dist.log_moment(spec, x)
        if g == 0.0:
            return x
        if g > 0.0:
            break
    else:
        raise NoRoot("E|A|^beta stays below 1 on the searchable range")
    for _ in range(_NEWTON_MAXITER):
        if not slope > 0.0:
            raise NoRoot(f"log E|A|^beta has slope {slope} at beta = {x}")
        step = g / slope
        if abs(step) <= (_INDEX_TOL + _INDEX_RTOL * x) / 2.0:
            return float(x)  # a law with numpy parameters gives numpy floats
        x -= step
        g, slope = dist.log_moment(spec, x)
    raise NoRoot(f"Newton's method did not converge in {_NEWTON_MAXITER} steps")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "unverifiable"
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SignSummary:
    a11_negative_possible: bool
    a22_negative_possible: bool
    a22_no_zero_atom: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
    offdiag_drift: EstimateWithError | None = None

    def check(self, check_id: str) -> CheckResult:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)

    def to_dict(self) -> dict:
        drift = self.offdiag_drift
        return {**asdict(self),
                "offdiag_drift": None if drift is None else drift.to_json()}


def _coordinate_regime(a_law: Dist, b_law: Dist
                       ) -> tuple[str | None, float | None, float | None, str]:
    """Decide per-coordinate regime, index and rho = E|A|^alpha log|A|;
    returns (regime, alpha, rho, why)."""
    try:
        kg_alpha = solve_tail_index(a_law)
    except (NoRoot, NotContractive) as exc:
        why = str(exc)
    else:
        if dist.moment_sup(b_law) > kg_alpha:
            # E|A|^beta crosses 1 upwards at the index, so 0 < rho < inf
            return ("kesten_goldie", kg_alpha,
                    dist.abs_moment_derivative(a_law, kg_alpha),
                    "E|A|^alpha = 1 solvable")
        # additive tail is at least as heavy as the multiplicative one
        # (a Pareto B's moments end at its index)
        why = "E|B|^alpha infinite at the multiplicative index"
    if isinstance(b_law, dist.TwoSidedPareto):
        # an infinite E|A|^alpha is not below 1
        if (b_law.alpha < dist.moment_sup(a_law)
                and dist.log_moment(a_law, b_law.alpha)[0] < 0.0):
            # rho is None at a zero diagonal, where log|A| is undefined
            rho = (None if dist.is_zero_pointmass(a_law)
                   else dist.abs_moment_derivative(a_law, b_law.alpha))
            return ("grey", b_law.alpha, rho,
                    "B regularly varying, E|A|^alpha < 1")
        return None, None, None, "B regularly varying but E|A|^alpha >= 1"
    return None, None, None, why


def _eta_margin(model: TriangularSRE, alpha: float) -> float:
    """Largest eta <= 0.1 keeping all alpha+eta entry moments finite.

    eta < 1 also keeps E|A22|^{-eta} finite whenever a22 has no atom at
    zero (see _mixed_moment_check)."""
    sup = mod.entry_moment_sup(model)
    if math.isinf(sup):
        return 0.1
    return min(0.1, max(0.0, (sup - alpha) / 2.0))


def _mixed_moment_check(model: TriangularSRE, alpha: float,
                        eta: float) -> CheckResult:
    """[mixed negative-moment condition] E|A1j|^{a+eta}|A22|^{-eta} < inf
    for j = 1, 2, decided from the laws.

    Only independent entries reach the distinct-diagonal case, so each
    moment factors as E|A1j|^{a+eta} E|A22|^{-eta}. The first factor is
    finite by the choice of eta. Every menu law with no atom at zero is
    either bounded away from zero or has a density bounded near it, so
    the second factor is finite for eta < 1, and _eta_margin keeps
    eta <= 0.1."""
    d1, _ = mod.diag_laws(model)
    beta = alpha + eta
    return CheckResult(
        "negative_moment_mix", "pass",
        f"eta={eta:.3g}; E|A11|^(a+eta) = {dist.abs_moment(d1, beta):.4g}, "
        f"E|A12|^(a+eta) = {mod.offdiag_abs_moment(model, beta):.4g}; "
        "E|A22|^(-eta) finite: no atom at zero and eta < 1")


def classify(model: TriangularSRE, rng: RngStream | None = None) -> RegimeReport:
    """Fill the full regime report for a model.

    Analytic checks come from distribution metadata, the mixed
    negative-moment condition included; the non-lattice conditions are
    structural (continuous law => pass, point mass => fail). Random draws
    enter only where no closed form exists: the off-diagonal drift that
    splits the equal-diagonal case. The component-distinctness condition
    of the signed coord1 Kesten-Goldie case has no computable criterion
    and is stated as unverifiable.
    """
    if rng is None:
        rng = RngStream(0x7C1A55EED)
    checks: list[CheckResult] = []
    d1, d2 = mod.diag_laws(model)

    # plain bools: a law with numpy parameters gives numpy probabilities
    sign = SignSummary(
        a11_negative_possible=bool(dist.prob_negative(d1) > 0.0),
        a22_negative_possible=bool(dist.prob_negative(d2) > 0.0),
        a22_no_zero_atom=not dist.is_zero_pointmass(d2),
    )

    # stationarity preconditions (negative log-drifts, log+ noise moment)
    try:
        ld1, ld2 = dist.log_abs_moment(d1), dist.log_abs_moment(d2)
        stat_ok = ld1 < 0 and ld2 < 0
        checks.append(CheckResult(
            "lyapunov_negative", "pass" if stat_ok else "fail",
            f"E log|A11| = {ld1:.4g}, E log|A22| = {ld2:.4g}"))
    except LogMomentUndefined as exc:
        stat_ok = False
        checks.append(CheckResult("lyapunov_negative", "fail", str(exc)))

    regime1, alpha1, rho1, why1 = _coordinate_regime(d1, model.b1)
    regime2, alpha2, rho2, why2 = _coordinate_regime(d2, model.b2)
    checks.append(CheckResult(
        "kesten_goldie_coord1" if regime1 == "kesten_goldie" else "grey_coord1",
        "pass" if regime1 else "fail", why1))
    checks.append(CheckResult(
        "kesten_goldie_coord2" if regime2 == "kesten_goldie" else "grey_coord2",
        "pass" if regime2 else "fail", why2))

    # off-diagonal non-degeneracy with enough moments
    c2_ok = not mod.offdiag_is_zero(model)
    amin = min((a for a in (alpha1, alpha2) if a is not None), default=None)
    if c2_ok and amin is not None and mod.offdiag_moment_sup(model) <= amin:
        c2_ok = False
        detail = "E|A12|^{min index} infinite"
    else:
        detail = ("P(A12 = 0) < 1 and moment finite" if c2_ok
                  else "off-diagonal vanishes almost surely")
    checks.append(CheckResult("offdiag_nondegenerate",
                              "pass" if c2_ok else "fail", detail))

    relation = ("equal_as" if isinstance(model, EqualDiagonal)
                or isinstance(d1, dist.Constant) and d1 == d2 else "distinct")

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
    a4_ok = dist.is_continuous(d1)
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

    if relation == "distinct" and a1_ok and a2_ok:
        checks.append(_mixed_moment_check(model, alpha_common, eta))
    else:
        checks.append(CheckResult("negative_moment_mix", "unverifiable",
                                  "not needed outside the distinct-diagonal "
                                  "equal-index case"))

    # equal-diagonal case split: drift of the tilted off-diagonal ratio,
    # which needs the ratio's mean and second moment
    drift: EstimateWithError | None = None
    if relation == "equal_as" and a1_ok:
        try:
            drift, _ = tilted_offdiag_moments(model, alpha_common,
                                              rng=rng.substream(0xD61F7))
        except (MomentDiverges, WeightDegenerate) as exc:
            checks.append(CheckResult("offdiag_drift", "fail", str(exc)))

    # Only conditions that can fail: past stationarity no diagonal has a
    # zero atom, and a Kesten-Goldie one is no point mass (|c|^alpha = 1
    # needs |c| = 1, where E log|c| = 0), so it is continuous.
    theorem_case = CASE_UNSUPPORTED
    if stat_ok and c2_ok and regime1 and regime2:
        if not same_alpha and alpha1 < alpha2:
            theorem_case = (CASE_COORD1_KG if regime1 == "kesten_goldie"
                            else CASE_COORD1_GREY)
        elif not same_alpha:
            theorem_case = (CASE_COORD2_KG if regime2 == "kesten_goldie"
                            else CASE_COORD2_GREY)
        elif a2_ok and drift is not None:  # drawn only when equal_as and a1_ok
            theorem_case = (CASE_EQUAL_DIAG_ZERO_DRIFT if drift_is_zero(drift)
                            else CASE_EQUAL_DIAG_NONZERO_DRIFT)
        elif a2_ok and both_kg and relation == "distinct":
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
    if theorem_case == CASE_COORD1_KG and mod.chain_signed(model):
        report.checks.append(CheckResult(
            "component_tail_distinctness", "unverifiable",
            "c_plus + c_minus > 0 needs E[|U|^a - |A11 U|^a] to differ "
            "between the own part of W1 (driven by b1) and its cross part "
            "(fed via a12); no criterion computable from the laws decides it"))
    return report
