"""Workload definitions and the output check shared by the benchmark's
processes.

Importing this module imports trisre from the checkout's own `src/`
directory; a checkout without it cannot be benchmarked.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = ROOT / ".bench_out"  # scratch space for emitted reports and spans


def require_sources() -> None:
    """Exit with status 2 unless the checkout holds trisre's sources."""
    if not (SRC / "trisre" / "__init__.py").is_file():
        sys.stderr.write("bench: no trisre sources under src/ in this "
                         "checkout; nothing to benchmark\n")
        sys.exit(2)


require_sources()
sys.path.insert(0, str(SRC))

import trisre  # noqa: E402
from trisre import model as _model  # noqa: E402
from trisre.regime import solve_tail_index  # noqa: E402
from trisre.scenarios import builtin_scenarios  # noqa: E402

if Path(trisre.__file__).resolve().parent != SRC / "trisre":
    sys.stderr.write("bench: imported trisre is not the checkout's copy\n")
    sys.exit(2)

# name -> (built-in size, overrides, estimator settings the reference
# constants were calibrated for). quick_suite and simulate_full share the
# quick estimator settings, so they share one reference.
WORKLOADS = {
    "quick_suite": (True, {}, "quick"),
    "estimate_full": (False, {"n_samples": 10_000}, "full"),
    "simulate_full": (True, {"n_samples": 1_000_000}, "quick"),
    # a few-second run for the benchmark's own tests
    "tiny": (True, {"n_samples": 2_000, "constant_samples": 2_000,
                    "mn_horizon": 20}, "tiny"),
}

REPORT_SECTIONS = ("name", "config", "regime", "prediction",
                   "prediction_error", "empirical", "verdicts",
                   "runtime_seconds", "seed_provenance", "notes")

# theorem case -> the coordinate (0 or 1) whose index the first coordinate
# inherits. In the grey cases that index is the regularly varying noise's;
# otherwise it solves E|A_ii|^alpha = 1 for that coordinate's diagonal.
GOVERNING_COORDINATE = {
    "coord1_dominant_kg": 0, "coord1_dominant_grey": 0,
    "coord2_dominant_kg": 1, "coord2_dominant_grey": 1,
    "equal_diag_zero_drift": 0, "equal_diag_nonzero_drift": 0,
    "distinct_diag_equal_index": 0,
}

CONSTANTS = ("c_plus", "c_minus")


def workers() -> int:
    """One worker per CPU this process may run on (nproc)."""
    return len(os.sched_getaffinity(0))


def workload_configs(name: str, seed: int) -> list:
    """The built-in scenarios of a workload; the seed reaches the program
    only through ScenarioConfig.seed."""
    quick, overrides, _ = WORKLOADS[name]
    return [dataclasses.replace(c, seed=seed, **overrides)
            for c in builtin_scenarios(quick=quick)]


def load_reference(name: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["estimators"][WORKLOADS[name][2]]


def constant_value(c) -> float:
    return c["value"] if isinstance(c, dict) else float(c)


def check_report(doc: dict, config, reference: dict) -> list[str]:
    """Problems with one emitted scenario report; empty when correct.

    A failing verdict is not a problem here: verdicts are the science
    result (several fail at this size by known pre-asymptotic bias) and
    are counted separately.
    """
    missing = [s for s in REPORT_SECTIONS if s not in doc]
    if missing:
        return [f"missing report sections {missing}"]
    problems = []
    case = doc["regime"].get("theorem_case")
    if case != config.name:
        problems.append(f"theorem_case {case!r} != {config.name!r}")
    pred = doc["prediction"]
    if pred is None:
        return problems + [f"no prediction: {doc['prediction_error']}"]
    i = GOVERNING_COORDINATE[config.name]
    if config.name.endswith("_grey"):
        alpha = _model.b_laws(config.model)[i].alpha
    else:
        alpha = solve_tail_index(_model.diag_laws(config.model)[i])
    if not math.isclose(pred["tail_index"], alpha, rel_tol=1e-9):
        problems.append(f"tail_index {pred['tail_index']!r} != expected "
                        f"{alpha!r}")
    for key in CONSTANTS:
        value = constant_value(pred[key])
        lo, hi = reference[config.name][key]["band"]
        if not lo <= value <= hi:
            problems.append(f"{key} {value:.6g} outside reference band "
                            f"[{lo:.6g}, {hi:.6g}]")
    return problems
