"""Scenario runner: map a classified model to its predicted tail
asymptote, simulate, estimate, and emit machine-readable reports.

The predicted first-coordinate tail has the shape
    P(+-W1 > x) ~ c_pm * x^{-tail_index} * (log x)^{log_beta} * ell
with ell a constant slowly varying factor (the scale of a regularly
varying noise term, 1 otherwise).
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import model as mod
from .errors import InsufficientSupport, TrisreError, UnsupportedRegime
from .estimates import EstimateWithError, sum_of_products
from .model import (EqualDiagonal, IndependentEntries, ProportionalToDiagonal,
                    TriangularSRE, model_from_dict, model_to_dict)
from .regime import (CASE_COORD1_GREY, CASE_COORD1_KG, CASE_COORD2_GREY,
                     CASE_COORD2_KG, CASE_DISTINCT_DIAG_EQUAL_INDEX,
                     CASE_EQUAL_DIAG_NONZERO_DRIFT, CASE_EQUAL_DIAG_ZERO_DRIFT,
                     CASE_UNSUPPORTED, RegimeReport, classify)
from .rng import RngStream
from .stationary import sample_stationary_batch
# goldie_constant_direct is unused here, but the traced benchmark patches
# it by name, as it does EmpiricalTail
from .tails import (CONVENTIONS, EmpiricalTail, TailSelection, ccdf,
                    default_log_grid, goldie_constant_direct,  # noqa: F401
                    grid_point_usable, hill, hill_depth, log_factor_regression,
                    log_grid_depth)
from .tilting import (SnapshotMoments, clt_constant, coord1_steps,
                      estimate_coupling_rate, estimate_coupling_weight,
                      estimate_weight_series, goldie_constant_perpetuity,
                      law_steps)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Config and prediction types
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """A model and the sizes of its run: n_samples stationary values, and
    constant_samples paths for each constant estimator. A conditioned
    ratio scan (the coupling rate, the coupling weight and the grey
    weight series, with lognormal or constant a11 and a12) reads
    constant_samples as the precision of that many plain paths: its
    pilot of constant_samples / 16 paths sizes a main run of as few as
    that precision needs, between the pilot's size and constant_samples
    (tilting._study_from_pairs). mn_horizon is
    twice the length of the coupling rate's window
    (distinct_diag_equal_index): its scan runs a burn-in sized by the
    window's bias bound, then mn_horizon // 2 steps. weight_horizon is
    the coupling weight's horizon (coord2_dominant_kg)."""

    name: str
    model: TriangularSRE
    n_samples: int = 100_000
    tol: float = 1e-8
    seed: int = 20_240_601
    mn_horizon: int = 400
    weight_horizon: int = 50
    constant_samples: int = 200_000
    out_dir: str | None = None

    def __post_init__(self):
        # the report files are named after the scenario
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c in self.name for c in "/\\\0")):
            raise ValueError(f"name must be a non-empty string without a "
                             f"path separator, not . or ..: {self.name!r}")
        # numbers follow the wire format: an integer field takes an
        # integral number, no field takes a bool or a string
        for f in fields(self):
            if type(f.default) in (int, float):
                setattr(self, f.name, dist._json_number(
                    f.name, getattr(self, f.name), type(f.default)))
        if self.n_samples < 3 or self.constant_samples <= 0:
            raise ValueError("sample counts must be positive, with n_samples "
                             ">= 3 for the Hill fit (k = 2 < n)")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.mn_horizon < 2 or self.weight_horizon <= 0:
            raise ValueError("horizons must be positive, with mn_horizon "
                             ">= 2 for a rate window of one step or more")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, not "
                             f"{type(self.out_dir).__name__}")

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"schema": SCHEMA_VERSION, **values,
                "model": model_to_dict(self.model)}

    @staticmethod
    def from_dict(d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, not "
                             f"{type(d).__name__}")
        schema = d.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {schema!r}")
        dist._check_keys(d, ["schema", *(f.name for f in fields(ScenarioConfig))])
        return ScenarioConfig(
            name=d["name"], model=model_from_dict(d["model"]),
            out_dir=d.get("out_dir"),
            **{f.name: d[f.name] for f in fields(ScenarioConfig)
               if f.name in d and type(f.default) in (int, float)})


def load_config(path: str | Path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return ScenarioConfig.from_dict(json.load(fh))


@dataclass
class AsymptoticPrediction:
    tail_index: float
    log_beta: float
    c_plus: EstimateWithError
    c_minus: EstimateWithError
    source: str
    constant_formula: str
    ell_scale: float = 1.0

    def to_dict(self) -> dict:
        return {**asdict(self), "c_plus": self.c_plus.to_json(),
                "c_minus": self.c_minus.to_json()}


# ---------------------------------------------------------------------------
# Prediction dispatch
# ---------------------------------------------------------------------------

def _carried(c: SnapshotMoments, w: SnapshotMoments, negative: bool,
             factor: float) -> tuple[EstimateWithError, EstimateWithError]:
    """(c+, c-) of W1, carried from the driving constants c through the
    weights w: factor (c+ w+- + c- w-+) when no sign can flip, else
    factor c_abs w_abs / 2 on each side.

    The signed branch treats c+ and c-, and w+ and w-, as independent,
    though each pair comes from one scan: it is exact when one part of
    each pair is exactly 0, as on every built-in model, and first-order
    otherwise. The halved branch reads each scan's own per-path sum."""
    if negative:
        half = sum_of_products([(c.absolute, w.absolute)]).scaled(0.5 * factor)
        return half, half
    cp = sum_of_products([(c.plus, w.plus), (c.minus, w.minus)])
    cm = sum_of_products([(c.plus, w.minus), (c.minus, w.plus)])
    return cp.scaled(factor), cm.scaled(factor)


def _exact(absolute: float, plus: float, minus: float) -> SnapshotMoments:
    return SnapshotMoments(0, *map(EstimateWithError, (absolute, plus, minus)))


def _tail_weights(b: dist.Dist) -> SnapshotMoments:
    """(1, p, 1 - p): the tail weights of a regularly varying noise."""
    assert isinstance(b, dist.TwoSidedPareto)
    return _exact(1.0, b.p_pos, 1.0 - b.p_pos)


def predict(model: TriangularSRE, *, report: RegimeReport | None = None,
            constant_samples: int = 200_000, mn_horizon: int = 400,
            weight_horizon: int = 50,
            rng: RngStream | None = None) -> AsymptoticPrediction:
    """Predicted tail asymptote of the first coordinate for a supported
    model; raises UnsupportedRegime otherwise. Each case names driving
    constants c (Kesten-Goldie constants, or a regularly varying noise's
    tail weights) and the weights w that carry them to W1."""
    if rng is None:
        rng = RngStream(0x9D1C7)
    if report is None:
        report = classify(model, rng.substream(0))
    case = report.theorem_case
    if case == CASE_UNSUPPORTED:
        raise UnsupportedRegime("no implemented asymptotic case applies; "
                                "see the regime report checks")
    d1, d2 = mod.diag_laws(model)

    def w2_goldie(substream: int) -> SnapshotMoments:
        """Kesten-Goldie constants of W2 = a22 W2' + b2."""
        return goldie_constant_perpetuity(
            d2, law_steps(d2, model.b2), report.alpha2, report.rho2,
            constant_samples, rng.substream(substream))

    signs = report.sign_case
    negative, factor, ell_scale = False, 1.0, 1.0
    if case == CASE_COORD1_KG:
        alpha, log_beta = report.alpha1, 0.0
        # W1 = a11 W1' + B with B = b1 + a12 W2': the scan runs the
        # bivariate chain, whose x2 feeds B and sets part of the horizon
        c = goldie_constant_perpetuity(d1, coord1_steps(model), alpha,
                                       report.rho1, constant_samples,
                                       rng.substream(1), feed_law=d2)
        w = _exact(1.0, 1.0, 0.0)  # W1's own constants
        negative = signs.a11_negative_possible
        formula = ("perpetuity_scan_absolute_halved" if negative
                   else "perpetuity_scan_signed_parts")
    elif case == CASE_COORD1_GREY:
        alpha, log_beta = report.alpha1, 0.0
        c = _tail_weights(model.b1)
        # sum_k E[((a11_1 ... a11_k)^+-)^alpha] from m = E|a11|^alpha < 1
        # and s = E[sgn(a11) |a11|^alpha]
        base = 1.0 / (1.0 - dist.abs_moment(d1, alpha))
        tilt = 1.0 / (1.0 - dist.sign_moment(d1, alpha))
        w = _exact(base, (base + tilt) / 2.0, (base - tilt) / 2.0)
        formula, ell_scale = "rv_noise_closed_form", model.b1.scale ** alpha
    elif case == CASE_COORD2_KG:
        alpha, log_beta = report.alpha2, 0.0
        c = w2_goldie(2)
        w = estimate_coupling_weight(model, alpha, weight_horizon,
                                     constant_samples, rng.substream(3))
        negative = signs.a22_negative_possible
        formula = ("inherited_absolute_weight_halved" if negative
                   else "inherited_signed_weights")
    elif case == CASE_COORD2_GREY:
        alpha, log_beta = report.alpha2, 0.0
        c = _tail_weights(model.b2)
        w = estimate_weight_series(model, alpha, constant_samples,
                                   rng.substream(4))
        formula, ell_scale = "rv_noise_weight_series", model.b2.scale ** alpha
    elif case == CASE_EQUAL_DIAG_ZERO_DRIFT:
        alpha = report.alpha1
        log_beta = alpha / 2.0
        c = w2_goldie(5)
        # the report's drift test decided the case; this draw gives only
        # the dispersion, and the Gaussian limit is symmetric
        clt = clt_constant(model, alpha, rng.substream(6))
        half = clt.scaled(0.5)
        w = SnapshotMoments(0, clt, half, half)
        negative, formula = True, "gaussian_limit_constant"
    elif case == CASE_EQUAL_DIAG_NONZERO_DRIFT:
        alpha = report.alpha1
        log_beta = alpha
        c = w2_goldie(5)
        # the drift carries W2's constants to the side of its sign
        mu = report.offdiag_drift
        drift, zero = mu.power(alpha), EstimateWithError(0.0)
        w = SnapshotMoments(0, drift, *((drift, zero) if mu.value > 0
                                        else (zero, drift)))
        factor, formula = report.rho1 ** (-alpha), "drift_limit_constant"
    elif case == CASE_DISTINCT_DIAG_EQUAL_INDEX:
        alpha, log_beta = report.alpha1, 1.0
        c = w2_goldie(7)
        w = estimate_coupling_rate(model, alpha, mn_horizon,
                                   constant_samples, rng.substream(8))
        negative = signs.a22_negative_possible or signs.a11_negative_possible
        factor = alpha / report.rho1
        formula = ("coupling_rate_absolute_halved" if negative
                   else "coupling_rate_signed")
    else:  # pragma: no cover
        raise UnsupportedRegime(f"unhandled case {case}")
    cp, cm = _carried(c, w, negative, factor)
    return AsymptoticPrediction(alpha, log_beta, cp, cm, case, formula,
                                ell_scale=ell_scale)


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    check_id: str
    predicted: float
    estimated: float
    se: float
    band: str
    passed: bool

    def to_dict(self) -> dict:
        return {"check_id": self.check_id, "predicted": self.predicted,
                "estimated": self.estimated, "se": self.se,
                "band": self.band, "pass": self.passed}


@dataclass
class ScenarioReport:
    name: str
    config: dict
    regime: dict
    prediction: dict | None
    prediction_error: str | None
    empirical: dict
    verdicts: list[Verdict]
    runtime_seconds: float
    seed_provenance: str
    notes: list[str] = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {**asdict(self),
                "verdicts": [v.to_dict() for v in self.verdicts]}


def _hill_block(tails: dict, k: int) -> dict:
    """Hill fits at k of the absolute, positive and negative tails of one
    coordinate, each from the top k + 1 order statistics it keeps."""
    out = {}
    for conv, tail in tails.items():
        try:
            est = hill(tail, k)
            out[conv] = {"alpha_hat": est.value, "se": est.se, "k": k}
        except TrisreError as exc:
            out[conv] = {"error": str(exc), "k": k}
    out["n"] = tails["absolute"].count
    return out


def _log_factor_fit(tail: EmpiricalTail, alpha: float) -> dict:
    try:
        grid = default_log_grid(tail)
        beta_hat, intercept, r2 = log_factor_regression(tail, alpha, grid)
    except InsufficientSupport as exc:
        return {"error": str(exc)}
    return {"beta_hat": beta_hat, "intercept": intercept, "r2": r2,
            "grid_lo": float(grid[0]), "grid_hi": float(grid[-1])}


def _tail_constant_fit(tail: EmpiricalTail,
                       prediction: AsymptoticPrediction) -> dict:
    """Mean over the log grid of x^a P(W1 > x) / ((log x)^beta ell): the
    positive tail constant that the predicted tail form implies."""
    try:
        grid = default_log_grid(tail)
    except InsufficientSupport as exc:
        return {"error": str(exc)}
    vals = []
    for x in grid:
        if not grid_point_usable(tail, x):
            continue
        c = ccdf(tail, x)
        denom = (math.log(x)) ** prediction.log_beta
        vals.append(x ** prediction.tail_index * c / denom
                    / prediction.ell_scale)
    if len(vals) < 5:
        return {"error": "insufficient grid support"}
    return {"empirical": float(np.mean(vals)),
            "predicted": prediction.c_plus.value,
            "predicted_se": prediction.c_plus.se,
            "grid_points": len(vals)}


def scenario_regime(config: ScenarioConfig) -> RegimeReport:
    """The regime report of run_scenario(config): substream 1 of the
    config's seed."""
    return classify(config.model, RngStream(config.seed).substream(1))


def scenario_prediction(config: ScenarioConfig,
                        regime: RegimeReport | None = None) -> AsymptoticPrediction:
    """The prediction of run_scenario(config): substream 2 of the config's
    seed, at the config's estimator sizes."""
    if regime is None:
        regime = scenario_regime(config)
    return predict(config.model, report=regime,
                   constant_samples=config.constant_samples,
                   mn_horizon=config.mn_horizon,
                   weight_horizon=config.weight_horizon,
                   rng=RngStream(config.seed).substream(2))


def run_scenario(config: ScenarioConfig, workers: int | None = None) -> ScenarioReport:
    t0 = time.time()
    rng = RngStream(config.seed)
    notes: list[str] = []
    regime = scenario_regime(config)

    prediction = None
    prediction_error = None
    try:
        prediction = scenario_prediction(config, regime)
    except TrisreError as exc:
        prediction_error = f"{type(exc).__name__}: {exc}"

    # every read takes top order statistics: the Hill fits the top k + 1
    # of each tail, the log grid (and its ccdf) of w1's absolute tail, for
    # the log-factor regression, and of its positive tail, for the
    # tail-constant fit, the top log_grid_depth(n)
    n = config.n_samples
    k = hill_depth(n)
    grid_reads = set()
    if prediction is not None:
        grid_reads.add("absolute")
        if prediction.c_plus.value > 0:
            grid_reads.add("positive")

    def selections(deep: set) -> list[TailSelection]:
        return [TailSelection(conv, max(k + 1, log_grid_depth(n))
                              if conv in deep else k + 1)
                for conv in CONVENTIONS]

    batch = sample_stationary_batch(
        config.model, config.tol, n, rng.substream(3), workers=workers,
        tails={"w1": selections(grid_reads), "w2": selections(set())})
    w1 = batch.tails["w1"]
    empirical: dict = {
        "truncation_depth": batch.truncation_depth,
        "truncation_bound": batch.truncation_bound,
        "w2": _hill_block(batch.tails["w2"], k),
        "w1": _hill_block(w1, k),
    }
    if "absolute" in grid_reads:
        empirical["log_factor_regression"] = _log_factor_fit(
            w1["absolute"], prediction.tail_index)
    if "positive" in grid_reads:
        empirical["tail_constant_plus"] = _tail_constant_fit(
            w1["positive"], prediction)

    verdicts: list[Verdict] = []

    def add_stat_verdict(check_id, predicted, estimated, se, extra_band=0.0):
        band = max(4.0 * se, extra_band)
        verdicts.append(Verdict(check_id, predicted, estimated, se,
                                f"|diff| <= max(4se, {extra_band:.3g}) = {band:.4g}",
                                abs(estimated - predicted) <= band))

    alpha2 = regime.alpha2
    if alpha2 is not None and "alpha_hat" in empirical["w2"]["absolute"]:
        est = empirical["w2"]["absolute"]
        add_stat_verdict("hill_w2_abs", alpha2, est["alpha_hat"], est["se"],
                         extra_band=0.10 * alpha2)

    if prediction is not None:
        a = prediction.tail_index
        if "alpha_hat" in empirical["w1"]["absolute"]:
            est = empirical["w1"]["absolute"]
            add_stat_verdict("hill_w1_abs", a, est["alpha_hat"], est["se"],
                             extra_band=0.10 * a)

        fit = empirical["log_factor_regression"]
        if "beta_hat" in fit:
            verdicts.append(Verdict(
                "log_factor_beta", prediction.log_beta, fit["beta_hat"], 0.0,
                "|diff| <= 0.25 (absolute band; regression bias dominates)",
                abs(fit["beta_hat"] - prediction.log_beta) <= 0.25))

        # tail-constant comparison on the positive side, over the grid
        fit = empirical.get("tail_constant_plus", {})
        if "empirical" in fit:
            ratio = fit["empirical"] / fit["predicted"]
            verdicts.append(Verdict(
                "tail_constant_plus_factor", fit["predicted"],
                fit["empirical"], fit["predicted_se"],
                "ratio in [0.5, 2.0] (pre-asymptotic factor band)",
                0.5 <= ratio <= 2.0))

        csum = prediction.c_plus.value + prediction.c_minus.value
        # c+ and c- can come from one estimate: the sum of their SEs is
        # exact when they are perfectly correlated, a bound otherwise
        csum_se = prediction.c_plus.se + prediction.c_minus.se
        verdicts.append(Verdict(
            "constants_sum_positive", 0.0, csum, csum_se,
            "c_plus + c_minus - 4se > 0", csum - 4.0 * csum_se > 0.0))

    for chk in regime.checks:
        if chk.status == "unverifiable":
            notes.append(f"{chk.check_id}: {chk.detail}")

    report = ScenarioReport(
        name=config.name, config=config.to_dict(), regime=regime.to_dict(),
        prediction=prediction.to_dict() if prediction else None,
        prediction_error=prediction_error, empirical=empirical,
        verdicts=verdicts, runtime_seconds=time.time() - t0,
        seed_provenance=f"seed={config.seed}", notes=notes)
    return report


def emit_report(report: ScenarioReport, out_dir: str | Path,
                formats: tuple[str, ...] = ("json", "csv")) -> list[Path]:
    """Write report files; JSON nested with sorted keys, CSV one row per
    verdict. The JSON text is built before any file is opened, so a value
    it cannot encode raises and leaves no file behind."""
    text = (json.dumps(report.to_dict(), sort_keys=True, indent=2)
            if "json" in formats else None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if text is not None:
        p = out / f"{report.name}.json"
        p.write_text(text, encoding="utf-8")
        written.append(p)
    if "csv" in formats:
        p = out / f"{report.name}.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_id", "predicted", "estimated", "se",
                             "band", "pass"])
            for v in report.verdicts:
                writer.writerow([v.check_id, repr(v.predicted),
                                 repr(v.estimated), repr(v.se), v.band,
                                 v.passed])
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# Built-in scenario suite: one configuration per supported asymptotic case
# ---------------------------------------------------------------------------

def builtin_scenarios(quick: bool = False) -> list[ScenarioConfig]:
    n = 10_000 if quick else 1_000_000
    cn = 20_000 if quick else 200_000
    mn = 200 if quick else 400
    LN = dist.Lognormal
    C = dist.Constant

    configs = [
        ScenarioConfig(
            name="coord1_dominant_kg",
            model=IndependentEntries(a11=LN(-1.0, 1.0), a12=LN(-1.0, 0.5),
                                     a22=LN(-2.0, 1.0), b1=C(1.0), b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
        ScenarioConfig(
            name="coord1_dominant_grey",
            model=IndependentEntries(
                a11=LN(-1.0, 0.7),
                a12=LN(-1.5, 0.5),
                a22=LN(-2.0, 1.0),
                b1=dist.TwoSidedPareto(2.0, 2.0, 0.7),
                b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
        ScenarioConfig(
            name="coord2_dominant_kg",
            model=IndependentEntries(a11=LN(-2.0, 1.0), a12=LN(0.0, 0.5),
                                     a22=LN(-1.0, 1.0), b1=C(0.1), b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn, weight_horizon=60),
        ScenarioConfig(
            name="coord2_dominant_grey",
            model=IndependentEntries(
                a11=LN(-2.0, 1.0),
                a12=LN(0.0, 0.5),
                a22=LN(-1.0, 0.7),
                b1=C(0.1),
                b2=dist.TwoSidedPareto(2.0, 2.0, 0.7)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
        ScenarioConfig(
            name="equal_diag_zero_drift",
            model=EqualDiagonal(d=LN(-1.0, 1.0),
                                a12_mode=ProportionalToDiagonal(
                                    dist.Normal(0.0, 1.0)),
                                b1=C(1.0), b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
        ScenarioConfig(
            name="equal_diag_nonzero_drift",
            model=EqualDiagonal(d=LN(-1.0, 1.0),
                                a12_mode=ProportionalToDiagonal(C(0.5)),
                                b1=C(1.0), b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
        ScenarioConfig(
            name="distinct_diag_equal_index",
            model=IndependentEntries(a11=LN(-1.0, 1.0), a12=LN(-1.0, 0.5),
                                     a22=LN(-2.0, math.sqrt(2.0)),
                                     b1=C(1.0), b2=C(1.0)),
            n_samples=n, constant_samples=cn, mn_horizon=mn),
    ]
    return configs


def run_suite(quick: bool = False, out_dir: str | Path = "trisre_out",
              workers: int | None = None) -> list[ScenarioReport]:
    reports = []
    out = Path(out_dir)
    for config in builtin_scenarios(quick):
        report = run_scenario(config, workers=workers)
        emit_report(report, out)
        reports.append(report)
    summary = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "scenarios": [{"name": r.name, "all_pass": r.all_pass(),
                       "runtime_seconds": r.runtime_seconds,
                       "n_verdicts": len(r.verdicts)} for r in reports],
    }
    text = json.dumps(summary, sort_keys=True, indent=2)
    (out / "suite_summary.json").write_text(text, encoding="utf-8")
    return reports
