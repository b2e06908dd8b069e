import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from didgov.cli import main
from didgov.registry import event_log_from_jsonl, replay_events, snapshot_json
from didgov.scenario import (
    ScenarioAssertionError,
    ScenarioEngineError,
    ScenarioParseError,
    load_scenario,
    run_scenario,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"

SEED_A = "11" * 32
SEED_B = "22" * 32


def _minimal(actions, seed_keys=None, credentials=None):
    return {
        "name": "t",
        "seed_keys": seed_keys or {"a": SEED_A, "b": SEED_B},
        "credentials": credentials or [],
        "actions": actions,
    }


def _anchor(did="aa", members=("a",), **extra):
    group = {
        "group_id": 0,
        "edit_right": "document",
        "authz_kind": "acl",
        "authz_config": {"members": list(members)},
        "coord_kind": "nofm",
        "coord_config": {"n": 1, "m": len(members)},
    }
    group.update(extra)
    return {"action": "anchor", "did": did, "public_keys": ["a"], "groups": [group]}


def _write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestLoading:
    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": oops\n}')
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(path)
        assert err.value.line == 2

    def test_bad_seed_rejected(self, tmp_path):
        path = _write(tmp_path, _minimal([], seed_keys={"a": "zz"}))
        with pytest.raises(ScenarioParseError, match="not hex"):
            load_scenario(path)
        path = _write(tmp_path, _minimal([], seed_keys={"a": "ab"}))
        with pytest.raises(ScenarioParseError, match="32 bytes"):
            load_scenario(path)

    def test_undeclared_issuer_rejected(self, tmp_path):
        credentials = [{"name": "t", "kind": "token", "issuer": "ghost", "nonce": "00" * 16}]
        path = _write(tmp_path, _minimal([], credentials=credentials))
        with pytest.raises(ScenarioParseError, match="undeclared issuer"):
            load_scenario(path)

    def test_unknown_credential_kind_rejected(self, tmp_path):
        credentials = [{"name": "t", "kind": "badge", "issuer": "a"}]
        path = _write(tmp_path, _minimal([], credentials=credentials))
        with pytest.raises(ScenarioParseError, match="unknown kind"):
            load_scenario(path)

    def test_credentials_issued_at_load(self, tmp_path):
        credentials = [
            {"name": "t", "kind": "token", "issuer": "a", "nonce": "00" * 16},
            {"name": "v", "kind": "vc", "issuer": "a", "holder": "b", "claims": {"role": "x"}},
        ]
        scenario = load_scenario(_write(tmp_path, _minimal([], credentials=credentials)))
        assert scenario.tokens["t"].verify_issuer()
        vc, holder = scenario.vcs["v"]
        assert vc.verify_issuer()
        assert vc.holder_key == holder.public_key


class TestExecution:
    def test_unknown_action_is_parse_error(self, tmp_path):
        path = _write(tmp_path, _minimal([{"action": "fly"}]))
        with pytest.raises(ScenarioParseError, match="unknown action"):
            run_scenario(path, tmp_path / "out")

    def test_undeclared_key_name_rejected(self, tmp_path):
        path = _write(tmp_path, _minimal([_anchor(members=("ghost",))]))
        with pytest.raises(ScenarioParseError, match="ghost"):
            run_scenario(path, tmp_path / "out")

    def test_raw_hex_member_accepted(self, tmp_path):
        raw = "ab" * 32
        path = _write(tmp_path, _minimal([_anchor(members=("a", raw))]))
        run_scenario(path, tmp_path / "out", echo_warnings=False)

    def test_assertion_mismatch_carries_context(self, tmp_path):
        actions = [_anchor(), {"action": "assert_state", "did": "aa", "version": 9}]
        path = _write(tmp_path, _minimal(actions))
        with pytest.raises(ScenarioAssertionError) as err:
            run_scenario(path, tmp_path / "out")
        assert err.value.action_index == 1
        assert err.value.check == "version"
        assert (err.value.expected, err.value.actual) == (9, 1)

    def test_engine_error_carries_index_and_code(self, tmp_path):
        actions = [_anchor(), {"action": "resolve_manual", "proposal_id": 4}]
        path = _write(tmp_path, _minimal(actions))
        with pytest.raises(ScenarioEngineError) as err:
            run_scenario(path, tmp_path / "out")
        assert err.value.action_index == 1
        assert err.value.code == "unknown-proposal"

    def test_decider_must_be_declared(self, tmp_path):
        actions = [
            _anchor(),
            {"action": "decide", "proposal_id": 1, "controller": "cc" * 32, "verdict": "approve"},
        ]
        path = _write(tmp_path, _minimal(actions))
        with pytest.raises(ScenarioParseError, match="must be a declared key"):
            run_scenario(path, tmp_path / "out")

    def test_document_only_governance_warns(self, tmp_path):
        path = _write(tmp_path, _minimal([_anchor()]))
        result = run_scenario(path, tmp_path / "out", echo_warnings=False)
        assert any("Document-level" in warning for warning in result.warnings)

    def test_higher_levels_do_not_warn(self, tmp_path):
        path = _write(tmp_path, _minimal([_anchor(edit_right="self_governance")]))
        result = run_scenario(path, tmp_path / "out", echo_warnings=False)
        assert result.warnings == []

    def test_artifacts_written_and_replayable(self, tmp_path):
        actions = [
            _anchor(members=("a", "b")),
            {
                "action": "propose",
                "did": "aa",
                "group_id": 0,
                "proposer": "a",
                "change_set": {"new_attributes": {"x": "1"}},
            },
            {"action": "decide", "proposal_id": 1, "controller": "b", "verdict": "approve"},
        ]
        out = tmp_path / "out"
        run_scenario(_write(tmp_path, _minimal(actions)), out, echo_warnings=False)
        events = event_log_from_jsonl((out / "events.jsonl").read_text())
        assert snapshot_json(replay_events(events)) == (out / "final_state.json").read_text()
        header = (out / "costs.csv").read_text().splitlines()[0]
        assert header.startswith("phase,groups,members,")

    def test_rerun_is_byte_identical(self, tmp_path):
        actions = [_anchor(members=("a", "b"))]
        path = _write(tmp_path, _minimal(actions))
        first, second = tmp_path / "one", tmp_path / "two"
        run_scenario(path, first, echo_warnings=False)
        run_scenario(path, second, echo_warnings=False)
        for name in ("events.jsonl", "costs.csv", "final_state.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_golden_scenarios_run_clean(path, tmp_path):
    result = run_scenario(path, tmp_path / "out", echo_warnings=False)
    assert result.out_dir.joinpath("final_state.json").is_file()


def test_key_rotation_golden_reaches_version_two(tmp_path):
    result = run_scenario(SCENARIOS / "key_rotation_2of3.json", tmp_path / "out", echo_warnings=False)
    from didgov.model import Did

    assert result.registry.state.documents[Did("c0ffee01")].version == 2


def _event_line(kind, payload, sequence=1):
    return json.dumps({"sequence": sequence, "tick": 0, "kind": kind, "payload": payload}) + "\n"


# logs that decode or fold badly, each for a different reason, with the
# place the error message must name
MALFORMED_LOGS = {
    "unknown-proposal": (
        _event_line(
            "resolved", {"proposal_id": "9", "verdict": "approve", "reason": "manual", "status": "approved"}
        ),
        "event 1",
    ),
    "document-not-json": (_event_line("anchored", {"did": "aa", "document": "{not json"}), "event 1"),
    "non-integer-field": (_event_line("clock_advanced", {"to": "x"}), "event 1"),
    "payload-not-object": ('{"sequence":1,"tick":0,"kind":"clock_advanced","payload":"xy"}\n', "line 1"),
    "document-missing-version": (
        _event_line("anchored", {"did": "aa", "document": json.dumps({"did": "aa", "public_keys": []})}),
        "event 1",
    ),
    "not-utf8": ("\xff\xfe\n", "byte 0"),
}


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_run_success_exit_zero(self, tmp_path):
        path = _write(tmp_path, _minimal([_anchor()]))
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "events.jsonl").is_file()

    def test_run_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        result = self.runner.invoke(main, ["run", str(bad)])
        assert result.exit_code == 2

    def test_run_assertion_failure_exit_one(self, tmp_path):
        actions = [_anchor(), {"action": "assert_state", "did": "aa", "version": 5}]
        path = _write(tmp_path, _minimal(actions))
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "version" in result.output

    def test_run_engine_error_exit_three(self, tmp_path):
        actions = [_anchor(), _anchor()]  # second anchor: already anchored
        path = _write(tmp_path, _minimal(actions))
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "already-anchored" in result.output
        assert "action 1" in result.output

    def test_bench_row_cardinality(self, tmp_path):
        out = tmp_path / "c.csv"
        result = self.runner.invoke(
            main,
            ["bench", "--groups", "1..2", "--members", "2,4", "--authz", "acl,token", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2 * 4  # header + points x phases

    def test_bench_rerun_byte_identical(self, tmp_path):
        args = ["bench", "--groups", "1..2", "--members", "3"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert self.runner.invoke(main, args + ["--out", str(one)]).exit_code == 0
        assert self.runner.invoke(main, args + ["--out", str(two)]).exit_code == 0
        assert one.read_bytes() == two.read_bytes()

    def test_bench_invalid_grid_exit_two(self):
        result = self.runner.invoke(main, ["bench", "--groups", "3..1"])
        assert result.exit_code == 2
        result = self.runner.invoke(main, ["bench", "--authz", "sms"])
        assert result.exit_code == 2
        result = self.runner.invoke(main, ["bench", "--time", "-4"])
        assert result.exit_code == 2

    def test_bench_schedule_override(self, tmp_path):
        schedule = tmp_path / "schedule.json"
        schedule.write_text('{"base_tx": 1}')
        out = tmp_path / "c.csv"
        result = self.runner.invoke(
            main,
            ["bench", "--groups", "1", "--members", "1", "--schedule", str(schedule), "--out", str(out)],
        )
        assert result.exit_code == 0
        vote_row = out.read_text().splitlines()[3].split(",")
        assert vote_row[0] == "vote"
        assert vote_row[8] == "1"  # base_tx column at the override rate

    def test_bench_bad_schedule_exit_two(self, tmp_path):
        schedule = tmp_path / "schedule.json"
        schedule.write_text('{"quantum_flux": 7}')
        result = self.runner.invoke(main, ["bench", "--schedule", str(schedule)])
        assert result.exit_code == 2

    def test_bench_offchain_rows_present(self, tmp_path):
        out = tmp_path / "c.csv"
        result = self.runner.invoke(
            main,
            [
                "bench", "--groups", "1", "--members", "3",
                "--authz", "token,vc", "--coord", "weighted",
                "--execution", "offchain", "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert ",offchain," in out.read_text()

    def _run_golden(self, tmp_path):
        out = tmp_path / "golden"
        invoked = self.runner.invoke(
            main, ["run", str(SCENARIOS / "key_rotation_2of3.json"), "--out", str(out)]
        )
        assert invoked.exit_code == 0, invoked.output
        return out

    def test_replay_with_expectation(self, tmp_path):
        out = self._run_golden(tmp_path)
        result = self.runner.invoke(
            main,
            ["replay", str(out / "events.jsonl"), "--expect", str(out / "final_state.json")],
        )
        assert result.exit_code == 0, result.output
        assert "matches" in result.output

    def test_replay_autodetects_sibling_snapshot(self, tmp_path):
        out = self._run_golden(tmp_path)
        result = self.runner.invoke(main, ["replay", str(out / "events.jsonl")])
        assert result.exit_code == 0
        assert "matches" in result.output

    def test_replay_mismatch_exit_one(self, tmp_path):
        out = self._run_golden(tmp_path)
        snapshot = out / "final_state.json"
        snapshot.write_text(snapshot.read_text().replace('"version": 2', '"version": 3'))
        result = self.runner.invoke(main, ["replay", str(out / "events.jsonl")])
        assert result.exit_code == 1

    def test_replay_corrupt_log_exit_two(self, tmp_path):
        events = tmp_path / "events.jsonl"
        events.write_text("not json\n")
        result = self.runner.invoke(main, ["replay", str(events)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
    def test_replay_malformed_log_exit_two_without_traceback(self, tmp_path, case):
        text, place = MALFORMED_LOGS[case]
        events = tmp_path / "events.jsonl"
        events.write_bytes(text.encode("latin-1"))
        result = self.runner.invoke(main, ["replay", str(events)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "encoding-error" in result.output
        assert place in result.output

    def test_replay_without_expectation_prints_snapshot(self, tmp_path):
        out = self._run_golden(tmp_path)
        moved = tmp_path / "moved.jsonl"
        moved.write_text((out / "events.jsonl").read_text())
        result = self.runner.invoke(main, ["replay", str(moved)])
        assert result.exit_code == 0
        assert json.loads(result.output)["clock"] == 0
