"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
from trisre.scenarios import run_scenario

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_tiny_run_emits_every_declared_metric(trace, section):
    proc = run_bench("--workload", "tiny", "--seed", "5", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 7
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "quick_suite", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def tiny_reports():
    """Emitted-report documents of the tiny workload at one seed."""
    reference = common.load_reference("tiny")
    out = []
    for config in common.workload_configs("tiny", 11):
        doc = json.loads(json.dumps(run_scenario(config, workers=1).to_dict()))
        out.append((doc, config, reference))
    return out


def test_output_check_accepts_real_reports(tiny_reports):
    for doc, config, reference in tiny_reports:
        assert common.check_report(doc, config, reference) == []


def test_output_check_rejects_wrong_theorem_case(tiny_reports):
    doc, config, reference = tiny_reports[0]
    bad = copy.deepcopy(doc)
    bad["regime"]["theorem_case"] = "equal_diag_zero_drift"
    assert any("theorem_case" in p
               for p in common.check_report(bad, config, reference))


def test_output_check_rejects_constant_outside_band(tiny_reports):
    for doc, config, reference in tiny_reports:
        if not isinstance(doc["prediction"]["c_plus"], dict):
            continue  # closed-form constant
        hi = reference[config.name]["c_plus"]["band"][1]
        bad = copy.deepcopy(doc)
        bad["prediction"]["c_plus"]["value"] = hi * 1.01 + 1e-12
        problems = common.check_report(bad, config, reference)
        assert any("c_plus" in p for p in problems), config.name


def test_output_check_rejects_wrong_index_and_missing_section(tiny_reports):
    doc, config, reference = tiny_reports[0]
    bad = copy.deepcopy(doc)
    bad["prediction"]["tail_index"] *= 1.001
    assert any("tail_index" in p
               for p in common.check_report(bad, config, reference))
    del bad["empirical"]
    assert common.check_report(bad, config, reference)


def test_workload_seed_reaches_only_the_config_seed():
    a = common.workload_configs("estimate_full", 1)
    b = common.workload_configs("estimate_full", 2)
    assert [dataclasses.replace(c, seed=0) for c in a] == \
        [dataclasses.replace(c, seed=0) for c in b]
    assert {c.seed for c in a} == {1}
