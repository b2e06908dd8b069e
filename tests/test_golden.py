"""Golden artifacts: every scenario and the default bench sweep must
reproduce the committed files under ``tests/golden/`` byte for byte.

The committed files are the reference output of the engine. A change that
moves one metered unit, one event byte or one tick shows up here even when
two runs of the changed engine still agree with each other. To regenerate
them after a deliberate cost-model change:

    didgov run scenarios/<name>.json --out tests/golden/<name>
    didgov bench --out tests/golden/bench.csv
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from didgov import crypto
from didgov.cli import main
from didgov.metering import CostMeter
from didgov.scenario import run_scenario

ROOT = Path(__file__).parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"
ARTIFACTS = ("events.jsonl", "costs.csv", "final_state.json")


def test_every_scenario_has_golden_artifacts():
    assert len(SCENARIOS) == 7
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


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_an_indented_snapshot_does_not_match(scenario, tmp_path):
    """A snapshot is compared byte for byte: the same value indented, as
    earlier versions wrote it (``indent=2, sort_keys=True``), is a
    mismatch, exit 1."""
    golden = GOLDEN / scenario.stem
    value = json.loads((golden / "final_state.json").read_text())
    indented = tmp_path / "final_state.json"
    indented.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
    assert json.loads(indented.read_text()) == value
    result = CliRunner().invoke(main, ["replay", str(golden / "events.jsonl"), "--expect", str(indented)])
    assert result.exit_code == 1, result.output
    assert f"does not match {indented}" in result.output


def test_default_bench_matches_golden(tmp_path):
    out = tmp_path / "costs.csv"
    result = CliRunner().invoke(main, ["bench", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / "bench.csv").read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_each_signature_triple_runs_ed25519_once(scenario, tmp_path, monkeypatch, ed25519_calls):
    """A registry runs Ed25519 once for each distinct valid (key, message,
    signature) triple and once for each invalid check, never more often
    than it charges ``sig_verify``: a scenario that shows a credential or a
    decision twice checks it once."""
    valid, invalid, charged = set(), [], []
    verify, charge = crypto.verify, CostMeter.charge

    def recording_verify(public_key, message, signature, verified=None):
        result = verify(public_key, message, signature, verified)
        (valid.add if result else invalid.append)((public_key, message, signature))
        return result

    def counting_charge(meter, category, count=1):
        if category == "sig_verify":
            charged.append(count)
        charge(meter, category, count)

    monkeypatch.setattr(crypto, "verify", recording_verify)
    monkeypatch.setattr(CostMeter, "charge", counting_charge)
    run_scenario(scenario, tmp_path, echo_warnings=False)
    assert len(ed25519_calls) == len(valid) + len(invalid)
    assert len(ed25519_calls) <= sum(charged)
    if scenario.stem in ("credential_access", "refusals"):  # each shows a signature twice
        assert len(ed25519_calls) < sum(charged)
