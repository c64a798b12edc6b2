"""Smoke test of the benchmark harness at tiny sizes.

Runs every workload of ``BENCHMARK.json`` through ``perfbench/run.py
--tiny``, untraced and traced, and checks that the output checks pass and
that exactly the named metrics are printed, each with its unit.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, *extra):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_checks_pass_and_every_metric_is_printed(workload, trace):
    done = _run(ROOT, workload, trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
