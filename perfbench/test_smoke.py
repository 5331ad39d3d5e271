"""Smoke test of the benchmark itself, at tiny cohort sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced; every metric named in
BENCHMARK.json must be emitted with its unit, and every operation must
pass its output check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# runnable by name, but not one of the benchmark's listed workloads
EXTRA_WORKLOADS = ["aggregate_dense"]


def _run(cwd, workload, trace, seed=5):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS + EXTRA_WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_outputs_check(workload, trace):
    detail, res = _result(_run(ROOT, workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert detail["ops_failed_frac"] == 0 and not detail["failures"]
    assert detail["digests"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert abs(detail["trace"]["sum_check_s"]) < 1e-6
        assert detail["trace"]["traced_ops"] >= 2
    else:
        for m in wanted:
            assert res["metrics"][m["name"]]["value"] > 0


def test_traced_counts_and_digests_repeat_between_runs():
    d1, r1 = _result(_run(ROOT, "aggregate_dense", 1))
    d2, r2 = _result(_run(ROOT, "aggregate_dense", 1))
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] != "s" and not m["name"].startswith("trace.")]
    assert {k: r1["metrics"][k] for k in counts} == {k: r2["metrics"][k] for k in counts}
    assert d1["digests"] == d2["digests"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
