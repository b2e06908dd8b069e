"""Untimed records that let a reader tell a code change from machine drift
or from a behaviour change: machine info, a fixed calibration loop, and
digests of the golden scenarios and of a full-kind cost sweep.

Digests are printed, never gated, so a fix that changes behaviour on
purpose has no benchmark file to edit.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path

import cryptography
from click.testing import CliRunner

from didgov import bench, cli
from didgov.model import AuthzKind, CoordKind, ExecutionMode
from didgov.scenario import ScenarioAssertionError, ScenarioEngineError, ScenarioParseError, run_scenario


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def machine_info() -> str:
    return (
        f"python={platform.python_version()} cryptography={cryptography.__version__} "
        f"nproc={len(os.sched_getaffinity(0))} machine={platform.machine()}"
    )


def calibrate(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop. Reported beside
    the metrics to show machine drift; metrics are never divided by it."""
    clock = time.perf_counter
    loops = 0
    end = clock() + seconds
    start = clock()
    while clock() < end:
        total = 0
        for i in range(1000):
            total += i
        loops += 1
    return loops * 1000 / (clock() - start)


def scenario_records(root: Path, out: Path) -> list[str]:
    """Run every golden scenario, replay its log through the CLI, and
    return one line per scenario with the digests of its artifacts."""
    lines = []
    runner = CliRunner()
    for path in sorted((root / "scenarios").glob("*.json")):
        target = out / "scenarios" / path.stem
        try:
            run_scenario(path, target, echo_warnings=False)
        except (ScenarioParseError, ScenarioAssertionError, ScenarioEngineError) as exc:
            lines.append(f"scenario {path.stem} error={type(exc).__name__} {exc}")
            continue
        events = target / "events.jsonl"
        final = target / "final_state.json"
        replay = runner.invoke(cli.main, ["replay", str(events), "--expect", str(final)])
        lines.append(
            f"scenario {path.stem} events={sha256(events.read_text('utf-8'))} "
            f"costs={sha256((target / 'costs.csv').read_text('utf-8'))} "
            f"snapshot={sha256(final.read_text('utf-8'))} replay_exit={replay.exit_code}"
        )
    return lines


def sweep_record() -> str:
    """Digest of the cost rows of one grid point per authz x coord x
    execution x deadline combination."""
    grid = bench.SweepGrid(
        groups=(1,),
        members=(3,),
        authz=tuple(AuthzKind),
        coord=tuple(CoordKind),
        execution=tuple(ExecutionMode),
        time_limits=(None, 5),
    )
    reports = bench.sweep(grid)
    return f"sweep points={len(reports) // len(bench.PHASES)} costs={sha256(bench.reports_to_csv(reports))}"
