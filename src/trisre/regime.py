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
from .errors import NoRoot, NotContractive
from .estimates import EstimateWithError
from .model import EqualDiagonal, TriangularSRE
from .rng import RngStream
from .tilting import drift_is_zero, tilted_offdiag_moments

_INDEX_TOL = 1e-10
_INDEX_RTOL = 8.9e-16  # 4 machine epsilons, the smallest relative tolerance
_BRENT_MAXITER = 100
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
    return _brentq(g, lo, hi, _INDEX_TOL, _INDEX_RTOL)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method (Brent 1973,
    ch. 4): inverse quadratic or secant steps, with bisection whenever a
    step would not shrink the bracket fast enough.

    A step-for-step port of the classic C routine `brentq.c`, so the
    roots agree bit for bit, with its stopping rule: stop once half the
    bracket is below (xtol + rtol |x|) / 2, and return an endpoint at
    which f is exactly 0.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        stry = math.nan  # no trial step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass  # IEEE division gives +-inf or nan, and C bisects
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoRoot(f"Brent's method did not converge in {_BRENT_MAXITER} steps")


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

    sign = SignSummary(
        a11_negative_possible=dist.prob_negative(d1) > 0.0,
        a22_negative_possible=dist.prob_negative(d2) > 0.0,
        a22_no_zero_atom=not dist.is_zero_pointmass(d2),
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

    if relation == "distinct" and a1_ok and a2_ok and sign.a22_no_zero_atom:
        checks.append(_mixed_moment_check(model, alpha_common, eta))
    else:
        checks.append(CheckResult("negative_moment_mix", "unverifiable",
                                  "not needed outside the distinct-diagonal "
                                  "equal-index case"))

    # equal-diagonal case split: drift of the tilted off-diagonal ratio
    drift: EstimateWithError | None = None
    if relation == "equal_as" and a1_ok and sign.a22_no_zero_atom:
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
                theorem_case = (CASE_EQUAL_DIAG_ZERO_DRIFT
                                if drift_is_zero(drift)
                                else CASE_EQUAL_DIAG_NONZERO_DRIFT)
        elif same_alpha and relation == "distinct":
            if a1_ok and a2_ok and sign.a22_no_zero_atom and a4_ok and a5_ok:
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
