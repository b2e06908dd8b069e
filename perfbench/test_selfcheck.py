"""Self-check of the benchmark at minimal size.

Run from the repository root:

    python3 -m pytest perfbench/test_selfcheck.py -q

Every workload runs untraced and traced with ``--size tiny``; each run must
pass its correctness gates and print every metric BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMED = {
    "large-acl": ("tx_per_s", "decisions_per_s", "decide_p50_us", "decide_p99_us", "batch_decisions_per_s"),
    "small-mixed": ("tx_per_s", "decisions_per_s", "propose_p50_us", "decide_p50_us", "decide_p99_us"),
    "replay": ("replay_events_per_s", "export_events_per_s", "audit_pass_p50_us", "audit_pass_us"),
}
COMMON = ("setup_s", "ops_failed_ratio", "peak_rss_mb")
# the only outcome mismatch the workloads may show: a batch holding one
# wrong-length signature aborts whole instead of skipping that entry, a
# known engine defect the small-mixed generator keeps visible
KNOWN_DEFECT_LINE = "mismatch decide_batch expected=ok observed=verification-error"


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result, lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = result_of(bench(workload, 0))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert set(NAMED[workload] + COMMON) <= printed
    assert any(line.startswith("record scenario") and "replay_exit=0" in line for line in lines)
    assert any(line.startswith("record sweep points=36") for line in lines)
    assert any(line.startswith("calibration after=") for line in lines)
    if workload == "replay":
        assert result["failed"] == 0
    else:
        assert "replay_identical=True digests_repeat=True" in "\n".join(lines)
        known = [line for line in lines if line.startswith("record mismatch")]
        assert all(KNOWN_DEFECT_LINE in line for line in known)
        assert (result["failed"] > 0) == bool(known)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    first, _ = result_of(bench(workload, 1, seed=7))
    second, _ = result_of(bench(workload, 1, seed=8))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
    # counts fixed by the workload's shape repeat exactly across seeds
    for name, entry in first["metrics"].items():
        if name.startswith("metering.units.") or name.endswith(".calls") or name.startswith("registry.rejected."):
            assert entry["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_without_the_engine_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("small-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
