"""trisre benchmark: the built-in scenarios in three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every scenario run happens in a fresh
worker interpreter (bench/worker.py), one at a time, with
`workers = nproc` and BLAS held to one thread, so the load is one
process and the program's own pool. The seed reaches the program only
through `ScenarioConfig.seed`.

--trace 0: whole passes over the workload's scenarios run until the next
pass would end after S seconds (at least one). An interpreter start that
only times set-up precedes each pass and follows the last. Prints the
end-to-end metrics: medians over the passes and set-ups, and the share
of scenario runs that passed the output check.

--trace 1: one untraced pass, then one traced pass whose spans give the
per-layer metrics; their wall-time difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See bench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the keys of common.WORKLOADS, listed here so that this process never
# imports trisre
WORKLOADS = ("quick_suite", "estimate_full", "simulate_full", "tiny")
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def machine_block(nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({f: (index / f).read_text().strip()
                           for f in ("level", "type", "size", "shared_cpu_list")})
        except OSError:
            continue
    return {"nproc": os.cpu_count(), "workers": nproc, "cpu_model": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.update({"TRISRE_WORKERS": str(nproc), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    return env


def spawn(workload: str, seed: int, env: dict, *flags: str) -> dict:
    """Run one worker interpreter to completion; returns its result."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--spawned-at", repr(t0), *flags],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(passes: list[dict]) -> tuple[int, int]:
    rows = [r for p in passes for r in p["scenarios"]]
    for r in rows:
        for problem in r["problems"]:
            print(f"output check FAILED {r['name']}: {problem}")
    return len(rows), sum(1 for r in rows if r["problems"])


def describe_pass(i: int, p: dict) -> str:
    rows = p["scenarios"]
    ok = sum(1 for r in rows if not r["problems"])
    vp = sum(r["verdicts_passed"] for r in rows)
    vt = sum(r["verdicts_total"] for r in rows)
    return (f"pass {i}: wall_s {p['wall_s']:.3f}  setup_s {p['setup_s']:.3f}  "
            f"peak_rss_mb {p['peak_rss_mb']:.1f}  output check {ok}/{len(rows)}"
            f"  verdicts passed {vp}/{vt}")


def end_to_end(workload: str, seed: int, seconds: float, env: dict) -> dict:
    spawn(workload, seed, env, "--setup-only")  # untimed: bytecode, file cache
    # Set-up probes are spread over the run, one before each pass and one
    # after the last: the host's speed drifts within seconds, so probes
    # taken back to back share one draw of it.
    setups, passes = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        setups.append(spawn(workload, seed, env, "--setup-only")["setup_s"])
        passes.append(spawn(workload, seed, env))
        passes[-1]["step_s"] = time.monotonic() - t0
        print(describe_pass(len(passes), passes[-1]), flush=True)
        typical = statistics.median(p["step_s"] for p in passes)
        if time.monotonic() - start + typical > seconds:
            break
    setups.append(spawn(workload, seed, env, "--setup-only")["setup_s"])
    setups += [p["setup_s"] for p in passes]
    print("inputs:", json.dumps({r["name"]: r.get("inputs")
                                 for r in passes[0]["scenarios"]}))
    attempted, failed = tally(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} interpreter starts"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                   f"median of {len(passes)} passes"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB", f"median of {len(passes)} passes"),
        "ok_share": ((attempted - failed) / attempted, "share",
                     f"{attempted - failed} of {attempted} scenario runs "
                     "passed the output check"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} {value:12.4f} {unit:<6} {note}")
    print(f"{'failed_share':<12} {failed / attempted:12.4f} {'share':<6} "
          "(= 1 - ok_share; also the result's failed/attempted)")
    return {"attempted": attempted, "failed": failed,
            "metrics": as_metrics({k: v[0] for k, v in metrics.items()},
                                  "end_to_end")}


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def as_metrics(values: dict[str, float], section: str) -> dict:
    units = declared(section)
    if set(values) != set(units):
        raise BenchError(f"{section} metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(values))}, "
                         f"extra {sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def per_layer(workload: str, seed: int, env: dict) -> dict:
    spawn(workload, seed, env, "--setup-only")  # untimed: bytecode, file cache
    plain = spawn(workload, seed, env)
    print(describe_pass(1, plain) + "  (untraced)")
    traced = spawn(workload, seed, env, "--trace")
    print(describe_pass(2, traced) + "  (traced)")
    attempted, failed = tally([plain, traced])
    values = dict(traced["layers"])
    values["stationary.speedup_nw"] = traced["speedup"]["speedup_nw"]
    rows = traced["scenarios"]
    spans = traced["scenario_spans"]
    for r in rows:
        values[f"scenarios.run_scenario_s.{r['name']}"] = spans[r["name"]]["wall_s"]
    for r in rows:
        if "relse" in r:
            values[f"scenarios.relse.{r['name']}"] = r["relse"]
            values[f"scenarios.relvar_s.{r['name']}"] = (
                r["relse"] ** 2 * spans[r["name"]]["predict_s"])
    values["scenarios.verdicts_passed"] = sum(r["verdicts_passed"] for r in rows)
    values["scenarios.verdicts_total"] = sum(r["verdicts_total"] for r in rows)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]

    inputs = {}
    for r in rows:
        info = dict(r.get("inputs") or {})
        chunk = traced["chunks"].get(r["name"])
        if chunk and "truncation_depth" in info:
            info["stationary_chunk"] = chunk
            # _stationary_chunk holds four depth x chunk float64 arrays
            info["chunk_array_bytes_computed"] = 4 * 8 * chunk * info["truncation_depth"]
        inputs[r["name"]] = info
    print("inputs:", json.dumps(inputs))
    print("stages (s):", json.dumps(traced["stages"]))
    print("speedup:", json.dumps(traced["speedup"]))
    metrics = as_metrics(values, "per_layer")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:14.6g} {m['unit']}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "trisre" / "__init__.py").is_file():
        print("bench: no trisre sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    print("machine:", json.dumps(machine_block(nproc)))
    env = child_env(nproc)
    try:
        if args.trace:
            out = per_layer(args.workload, args.seed, env)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": out["failed"] == 0, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
