"""Record the reference constants that the output check compares against.

For each estimator setting, runs every built-in scenario through
`run_scenario` at many seeds (with a small stationary sample, which the
predicted constants do not depend on) and stores the predicted constants
per seed in `reference.json`, with the acceptance band derived from their
spread across seeds.

    python3 bench/calibrate.py --estimator quick --first 1000 --count 40

Seeds are merged into the existing file, so runs can be split up. The
band is not sized from the reported standard errors: at a fixed setting
the reported relative SE of one constant moves about 20x across seeds
(see README.md), so only the observed spread is trusted.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics

from common import (CONSTANTS, REFERENCE, WORKLOADS, constant_value,
                    workload_configs)
from trisre.scenarios import run_scenario

# Band: the constants are positive with a right-skewed, heavy-tailed
# spread across seeds (a rare seed draws a large-W path), so the band is
# symmetric in log(value). Its half-width is BAND_FACTOR times the largest
# |log(value / median)| seen, and never less than log(MIN_FACTOR): even
# 60 seeds miss the rare paths (the full-size equal_diag_nonzero_drift
# constant spans +-1.2% over 60 seeds but reads +9.6% at the built-in
# seed). A closed-form constant repeats exactly and must keep doing so.
# A constant that is zero by the model's signs (its median is below
# ZERO_SHARE of the scenario's other constant) must stay near zero.
BAND_FACTOR = 3.0
MIN_FACTOR = 2.0
ZERO_SHARE = 1e-9


def band(values: list[float], scale: float) -> tuple[float, float]:
    """Acceptance band from one constant's values across seeds; scale is
    the largest median among the scenario's constants."""
    med = statistics.median(values)
    if abs(med) <= ZERO_SHARE * scale:
        return -ZERO_SHARE * scale, ZERO_SHARE * scale
    if min(values) <= 0:
        raise ValueError("a nonzero tail constant must be positive")
    dev = max(abs(math.log(v / med)) for v in values)
    w = max(BAND_FACTOR * dev, math.log(MIN_FACTOR)) if dev > 0 else ZERO_SHARE
    return med * math.exp(-w), med * math.exp(w)


def workload_for(estimator: str) -> str:
    return next(w for w, spec in WORKLOADS.items() if spec[2] == estimator)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--estimator", required=True,
                    choices=sorted({s[2] for s in WORKLOADS.values()}))
    ap.add_argument("--first", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    args = ap.parse_args()

    doc = {"estimators": {}}
    if REFERENCE.exists():
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref = doc["estimators"].setdefault(args.estimator, {})
    for seed in range(args.first, args.first + args.count):
        for config in workload_configs(workload_for(args.estimator), seed):
            report = run_scenario(dataclasses.replace(config, n_samples=1000),
                                  workers=1)
            entry = ref.setdefault(config.name, {})
            for key in CONSTANTS:
                per_seed = entry.setdefault(key, {"values": {}})["values"]
                per_seed[str(seed)] = constant_value(report.prediction[key])
        print(f"seed {seed} done", flush=True)
    for entry in ref.values():
        values = {k: list(entry[k]["values"].values()) for k in CONSTANTS}
        scale = max(abs(statistics.median(v)) for v in values.values())
        for key in CONSTANTS:
            entry[key]["median"] = statistics.median(values[key])
            entry[key]["band"] = list(band(values[key], scale))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    main()
