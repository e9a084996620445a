"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

Each test runs ``perfbench/run.py`` the way the benchmark is driven, at
smoke size, and checks the JSON it prints.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import bench_common as bc

SPEC = json.loads((bc.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, *extra, seconds=1.5, trace=0):
    proc = subprocess.run(
        [
            sys.executable, str(bc.BENCH_DIR / "run.py"),
            "--workload", workload, "--seed", "3",
            "--seconds", str(seconds), "--trace", str(trace), *extra,
        ],
        cwd=bc.ROOT, capture_output=True, text=True, timeout=170,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, _ = run(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_corrupted_reference_digest_counts_as_failure():
    result, stderr = run("alexnet64-w1a2-b4", "--inject", "corrupt-digest")
    assert result["correct"] is False
    # variant 0 is every other forward
    assert result["failed"] == (result["attempted"] + 1) // 2
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "mismatch at layer(s) 1.conv2" in stderr


def test_corrupted_digest_shows_in_traced_error_rate():
    result, _ = run("resnet18-32-w1a2-b8", "--inject", "corrupt-digest",
                    trace=1)
    assert result["metrics"]["error_rate"]["value"] > 0


def test_dropped_ws_result_counts_as_failure():
    result, stderr = run("gateway-mix-open", "--inject", "drop-result")
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "no result received" in stderr


def test_consumer_stall_shows_in_latency_from_scheduled_send():
    result, _ = run("gateway-mix-open", "--inject", "stall-consumer",
                    seconds=5, trace=1)
    assert result["correct"] is True
    m = {name: v["value"] for name, v in result["metrics"].items()}
    # The 0.5 s blocking stall delays every request due while it lasts --
    # far more than 1% of the nominal step -- so the step's p99, timed
    # from the scheduled send, shows most of it, and so does the lag of
    # the generator behind its schedule.
    assert m["loadgen.step.1.p99_ms"] > 250.0
    assert m["loadgen.lag_ms_p99"] > 100.0
    # The light step ran before the stall and stays fast.
    assert m["loadgen.step.0.p99_ms"] < 250.0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in bc.BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(
            path.read_text(encoding="utf-8"), encoding="utf-8"
        )
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps(SPEC), encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_and_spearman():
    assert bc.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert bc.percentile([1.0, 2.0, float("inf")], 99) == float("inf")
    assert bc.spearman([1, 2, 3], [3, 2, 1]) == -1.0
    assert bc.spearman([1, 2, 2, 3], [1, 2, 2, 3]) == pytest.approx(1.0)
