"""Smoke test of the benchmark itself, on a few graphs per workload.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = run.load_spec()
# Graphs per workload: a pass of a second or two.
LIMIT = {"corpus": 20, "dense": 2, "oracle": 8}


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, run.__file__, "--seconds", "0", *args],
        capture_output=True, text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["corpus", "dense", "oracle"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace),
                 "--limit", str(LIMIT[workload]))
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    group = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[group]
    }
    assert result["correct"] and result["failed"] == 0  # failed_frac is 0
    assert result["attempted"] >= LIMIT[workload]
    detail = json.loads(next(
        line for line in proc.stdout.splitlines() if line.startswith("detail ")
    )[len("detail "):])
    assert detail["pinned_checked"]
    assert detail["metrics"]["failed_frac"] == 0
    assert {"nproc", "python", "numpy", "loadavg_start", "loadavg_end"} <= set(
        detail["context"]
    )


def test_count_metrics_repeat_exactly_between_runs():
    counts = []
    for _ in range(2):
        metrics = result_line(
            bench("--workload", "corpus", "--trace", "1", "--limit", "20")
        )["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["robustness.robustness_verdict.calls"] == 2 * 20


def test_altered_pinned_digest_is_reported_as_a_failure():
    args = run.parse_args(
        ["--workload", "corpus", "--seed", "424242", "--seconds", "0", "--limit", "5"]
    )
    pinned = run.load_pinned("corpus", 424242)
    altered = pinned[:2] + ["0" * 64] + pinned[3:]
    result = run.run(args, pinned=altered)
    assert result["failures"] == [
        "graph 2: output differs from the pinned digest"
    ] * result["untraced_passes"]
    assert result["metrics"]["failed_frac"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT + "/BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
