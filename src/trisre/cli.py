"""Command-line entry point.

    trisre classify <config>
    trisre predict <config>
    trisre run <config> [--samples N] [--seed S] [--workers W]
                        [--out DIR] [--format json|csv] [--no-verdict-exit]
    trisre suite [--quick] [--out DIR] [--workers W] [--no-verdict-exit]

<config> is a JSON file matching the ScenarioConfig schema, or the name
of a built-in scenario. TRISRE_WORKERS is the fallback for --workers.
classify and predict print the regime and prediction blocks that run
reports for the same config: they draw from the config's seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import TrisreError
from .rng import default_workers, worker_count
from .scenarios import (ScenarioConfig, builtin_scenarios, emit_report,
                        load_config, run_scenario, run_suite,
                        scenario_prediction, scenario_regime)


def _resolve_config(name_or_path: str,
                    parser: argparse.ArgumentParser) -> ScenarioConfig:
    """The config at the path, else the built-in scenario of that name; a
    missing, unreadable or invalid config is a usage error (exit 2)."""
    path = Path(name_or_path)
    if path.exists():
        try:
            return load_config(path)
        except (OSError, ValueError, KeyError, TypeError,
                OverflowError) as exc:
            parser.error(f"invalid config {name_or_path}: "
                         f"{type(exc).__name__}: {exc}")
    for config in builtin_scenarios(quick=True):
        if config.name == name_or_path:
            return config
    parser.error(f"config file not found and no built-in scenario is "
                 f"named {name_or_path!r}")


def _dump(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="trisre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="regime report for a model")
    p_classify.add_argument("config")

    p_predict = sub.add_parser("predict", help="predicted tail asymptote")
    p_predict.add_argument("config")

    p_run = sub.add_parser("run", help="full scenario: classify, predict, "
                                       "simulate, verdicts")
    p_run.add_argument("config")
    p_run.add_argument("--samples", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=worker_count, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=["json", "csv"], action="append",
                       default=None)
    p_run.add_argument("--no-verdict-exit", action="store_true")

    p_suite = sub.add_parser("suite", help="run every built-in scenario")
    p_suite.add_argument("--quick", action="store_true")
    p_suite.add_argument("--out", default="trisre_out")
    p_suite.add_argument("--workers", type=worker_count, default=None)
    p_suite.add_argument("--no-verdict-exit", action="store_true")

    args = parser.parse_args(argv)
    try:  # every chunked estimator falls back to TRISRE_WORKERS
        env_workers = default_workers()
    except ValueError as exc:
        parser.error(str(exc))

    if args.command == "classify":
        config = _resolve_config(args.config, p_classify)
        _dump(scenario_regime(config).to_dict())
        return 0

    if args.command == "predict":
        config = _resolve_config(args.config, p_predict)
        try:
            pred = scenario_prediction(config)
        except TrisreError as exc:
            print(f"prediction unavailable: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 2
        _dump(pred.to_dict())
        return 0

    workers = args.workers or env_workers

    if args.command == "run":
        config = _resolve_config(args.config, p_run)
        overrides = {"n_samples": args.samples, "seed": args.seed}
        try:
            # replace re-runs ScenarioConfig's validation
            config = dataclasses.replace(config, **{
                k: v for k, v in overrides.items() if v is not None})
        except ValueError as exc:
            p_run.error(str(exc))
        report = run_scenario(config, workers=workers)
        out_dir = args.out or config.out_dir or "trisre_out"
        formats = tuple(args.format) if args.format else ("json", "csv")
        paths = emit_report(report, out_dir, formats)
        for p in paths:
            print(p)
        if args.no_verdict_exit:
            return 0
        return 0 if report.all_pass() else 1

    if args.command == "suite":
        reports = run_suite(quick=args.quick, out_dir=args.out,
                            workers=workers)
        for r in reports:
            status = "pass" if r.all_pass() else "FAIL"
            print(f"{r.name}: {status} ({len(r.verdicts)} verdicts, "
                  f"{r.runtime_seconds:.1f}s)")
        if args.no_verdict_exit:
            return 0
        return 0 if all(r.all_pass() for r in reports) else 1

    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
