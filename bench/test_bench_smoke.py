"""Smoke test: every workload once at tiny size, plain and traced.

Checks that the benchmark prints every metric BENCHMARK.json names, that
no op fails, that spans are written per op, and that engine spans account
for most of an op's traced wall time.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--size", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines


@pytest.mark.parametrize("workload", NAMES)
def test_plain_run_reports_end_to_end_metrics(workload):
    result, lines = bench("--workload", workload, "--seconds", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]] == {
            "value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        assert result["metrics"][m["name"]]["value"] > 0
    assert "error_rate 0 ratio" in lines
    meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
    for key in ("python", "cpu_count", "git_sha", "seed", "size", "ops", "samples"):
        assert key in meta


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_per_layer_metrics(workload, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result, _ = bench("--workload", workload, "--trace", "1", "--spans", str(spans_path))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    spans = [json.loads(line) for line in spans_path.read_text(encoding="utf-8").splitlines()]
    assert any(isinstance(op, int) and parent < 0 for op, _name, _s, _e, parent in spans)
    # Engine spans must cover most of each op's traced time; the rest is the
    # benchmark's own code between engine calls (about 14 % on store-lazy at
    # this size, where an op sorts property names and reads the script text).
    assert result["metrics"]["trace.attributed_ratio"]["value"] > 0.8
