"""One pass of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T [--setup-only] [--trace]

T is the parent's `time.monotonic()` just before it started this process
(one system-wide clock on Linux), so `setup_s` covers interpreter start,
`import trisre` and building the configs. A pass then runs each scenario
of the workload through `run_scenario` and `emit_report`, checks the
emitted report, and prints one JSON object as its last line of output.
With --trace, spans are recorded around the calls into each module and
the pass also times one stationary sampling call at 1 and at nproc
workers.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext


def run_pass(common, configs, workload: str, tracer) -> dict:
    from trisre.scenarios import emit_report, run_scenario

    nproc = common.workers()
    reference = common.load_reference(workload)
    common.OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=common.OUT)
    span = tracer.span if tracer else (lambda *a, **k: nullcontext())
    rows = []
    try:
        for config in configs:
            row = {"name": config.name, "problems": [], "verdicts_passed": 0,
                   "verdicts_total": 0}
            rows.append(row)
            t0 = time.perf_counter()
            try:
                with span("scenario", scenario=config.name):
                    report = run_scenario(config, workers=nproc)
                    with span("scenarios.emit_report"):
                        emit_report(report, out_dir)
            except Exception:  # a failed scenario run is counted, not fatal
                row["problems"].append(traceback.format_exc())
                continue
            finally:
                row["wall_s"] = time.perf_counter() - t0
            with open(f"{out_dir}/{config.name}.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            row["problems"] = common.check_report(doc, config, reference)
            row["verdicts_passed"] = sum(v["pass"] for v in doc["verdicts"])
            row["verdicts_total"] = len(doc["verdicts"])
            row["inputs"] = {
                "n_samples": config.n_samples,
                "constant_samples": config.constant_samples,
                "mn_horizon": config.mn_horizon,
                "weight_horizon": config.weight_horizon,
                "tol": config.tol,
                "truncation_depth": doc["empirical"]["truncation_depth"]}
            c = (doc["prediction"] or {}).get("c_plus")
            if isinstance(c, dict):  # an estimated, not a closed-form, constant
                row["relse"] = c["se"] / abs(c["value"]) if c["value"] else 0.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"scenarios": rows, "wall_s": sum(r["wall_s"] for r in rows),
            "workers": nproc}


def speedup(config, nproc: int) -> dict:
    """One scenario's top-level stationary call, timed at one worker and
    at nproc workers."""
    from trisre.rng import RngStream
    from trisre.stationary import sample_stationary_batch

    times = {}
    for w in (1, nproc):
        t0 = time.perf_counter()
        sample_stationary_batch(config.model, config.tol, config.n_samples,
                                RngStream(config.seed), workers=w)
        times[w] = time.perf_counter() - t0
    return {"t1_s": times[1], "tn_s": times[nproc],
            "speedup_nw": times[1] / times[nproc]}


def traced_pass(common, configs, workload: str, seed: int) -> dict:
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_pass(common, configs, workload, tracer)
    finally:
        tracer.uninstall()
    tracer.write(common.OUT / f"spans-{workload}-{seed}.json")
    result["layers"] = spans.layer_metrics(tracer)
    result["scenario_spans"] = spans.scenario_spans(tracer)
    result["stages"] = spans.stage_table(tracer)
    result["chunks"] = spans.top_chunks(tracer)
    result["speedup"] = speedup(configs[0], result["workers"])
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import common  # imports trisre
    configs = common.workload_configs(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned_at}

    if args.trace:
        result.update(traced_pass(common, configs, args.workload, args.seed))
    elif not args.setup_only:
        result.update(run_pass(common, configs, args.workload, None))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
