"""Golden artifacts: every scenario and the default bench sweep must
reproduce the committed files under ``tests/golden/`` byte for byte.

The committed files are the reference output of the engine. A change that
moves one metered unit, one event byte or one tick shows up here even when
two runs of the changed engine still agree with each other. To regenerate
them after a deliberate cost-model change:

    didgov run scenarios/<name>.json --out tests/golden/<name>
    didgov bench --out tests/golden/bench.csv
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from didgov.cli import main

ROOT = Path(__file__).parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"
ARTIFACTS = ("events.jsonl", "costs.csv", "final_state.json")


def test_every_scenario_has_golden_artifacts():
    assert len(SCENARIOS) == 6
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(p.stem for p in SCENARIOS)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_artifacts_match_golden(scenario, tmp_path):
    result = CliRunner().invoke(main, ["run", str(scenario), "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / scenario.stem / name).read_bytes(), name


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_golden_log_replays_to_golden_snapshot(scenario):
    golden = GOLDEN / scenario.stem
    result = CliRunner().invoke(
        main, ["replay", str(golden / "events.jsonl"), "--expect", str(golden / "final_state.json")]
    )
    assert result.exit_code == 0, result.output


def test_default_bench_matches_golden(tmp_path):
    out = tmp_path / "costs.csv"
    result = CliRunner().invoke(main, ["bench", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / "bench.csv").read_bytes()
