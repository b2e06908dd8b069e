import functools
import json
import operator
from pathlib import Path

import pytest
from click.testing import CliRunner

from didgov import cli, registry as registry_mod
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
GOLDEN = Path(__file__).parent / "golden"
CHANGE = {"new_attributes": {"k": "v"}}

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

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(ScenarioParseError, match="not UTF-8 text"):
            load_scenario(path)

    def test_malformed_section_named(self, tmp_path):
        path = _write(tmp_path, dict(_minimal([]), seed_keys=None))
        with pytest.raises(ScenarioParseError, match="^seed_keys: AttributeError"):
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

    @pytest.mark.parametrize(
        "action, cause",
        [
            (dict(_anchor(did="bb"), attributes="zz"), "encoding-error: attributes must be an object, not str"),
            (dict(_anchor(did="bb"), groups=[{"edit_right": "document"}]), "KeyError"),
            (dict(_anchor(did="bb"), public_keys=[7]), "TypeError"),
            (_anchor(did="bb", edit_right="zz"), "encoding-error"),
            (_anchor(did="bb", coord_config={"n": 0, "m": 1}), "invalid-group-config"),
            ({"action": "propose", "did": "aa", "group_id": 0, "proposer": "a", "change_set": {}},
             "invalid-change-set"),
            ({"action": "decide", "proposal_id": -1, "controller": "a", "verdict": "approve"},
             "encoding-error: cannot encode negative integer"),
            ({"action": "decide", "proposal_id": 2**64, "controller": "a", "verdict": "approve"},
             "encoding-error: cannot encode integer 18446744073709551616 in 64 bits"),
        ],
        ids=["attributes-not-a-map", "group-without-id", "key-not-text", "unknown-edit-right",
             "zero-threshold", "empty-change-set", "negative-proposal-id", "huge-proposal-id"],
    )
    def test_malformed_action_field_names_the_action(self, tmp_path, action, cause):
        """A field the model's decoders refuse is a parse error (exit 2),
        not an engine refusal (exit 3)."""
        path = _write(tmp_path, _minimal([_anchor(), action]))
        with pytest.raises(ScenarioParseError, match=rf"^action 1 \({action['action']}\): {cause}"):
            run_scenario(path, tmp_path / "out")

    def test_engine_fault_is_not_reported_as_a_parse_error(self, tmp_path, monkeypatch):
        def broken_anchor(*args):
            raise TypeError("engine fault")

        monkeypatch.setattr(registry_mod.Registry, "anchor", broken_anchor)
        with pytest.raises(TypeError, match="engine fault"):
            run_scenario(_write(tmp_path, _minimal([_anchor()])), tmp_path / "out")

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


def _forged_golden(scenario, edit):
    """The golden log of ``scenario`` after ``edit`` changes its decoded
    events in place; ``edit`` returns the event the replay error must name.
    Returns the log text and that place."""
    lines = (GOLDEN / scenario / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    named = edit(events)
    text = "".join(json.dumps(event, separators=(",", ":")) + "\n" for event in events)
    return text, f"event {named['sequence']} "


def _nth(events, kind, nth=1):
    return [event for event in events if event["kind"] == kind][nth - 1]


def _forged_payload(scenario, kind, nth=1, **changes):
    """``scenario``'s golden log with the payload of its ``nth`` ``kind`` event changed."""

    def edit(events):
        event = _nth(events, kind, nth)
        event["payload"].update(changes)
        return event

    return _forged_golden(scenario, edit)


def _forged_proposal(**changes):
    """The key_rotation_2of3 golden log with fields of its logged proposal
    changed; a new proposal id is carried into later events, so the log
    still folds where the id is not derived."""

    def edit(events):
        event = _nth(events, "proposal_submitted")
        proposal = json.loads(event["payload"]["proposal"])
        logged_id = str(proposal["proposal_id"])
        proposal.update(changes)
        for later in events:
            if later["payload"].get("proposal_id") == logged_id:
                later["payload"]["proposal_id"] = str(proposal["proposal_id"])
        event["payload"]["proposal"] = json.dumps(proposal, separators=(",", ":"))
        return event

    return _forged_golden("key_rotation_2of3", edit)


def _clock_moved_back(events):
    event = _nth(events, "clock_advanced", 2)
    event["tick"], event["payload"]["to"] = 5, "5"
    return event


def _dropped_expiry(events):
    """Drop the resolved event that expires a due proposal; the log then
    ends right after the clock advance that made it due."""
    events.remove(_nth(events, "resolved"))
    return events[-1]


def _added_group(events):
    """Make the first proposal, from a document-level group, add a group."""
    document = json.loads(_nth(events, "anchored")["payload"]["document"])
    event = _nth(events, "proposal_submitted")
    proposal = json.loads(event["payload"]["proposal"])
    proposal["change_set"]["group_ops"] = [{"op": "add", "group": dict(document["groups"][0], group_id=7)}]
    event["payload"]["proposal"] = json.dumps(proposal, separators=(",", ":"))
    return event


def _equal_privilege_override(events):
    """Move the overridden proposal into the overriding group itself."""
    event = _nth(events, "proposal_submitted")
    proposal = json.loads(event["payload"]["proposal"])
    proposal["originating_group"] = 1
    event["payload"]["proposal"] = json.dumps(proposal, separators=(",", ":"))
    return _nth(events, "proposal_overridden")


def _truncated_after_override(events):
    override = _nth(events, "proposal_overridden")
    del events[events.index(override) + 1:]
    return override


def _renumber(events):
    for sequence, event in enumerate(events, start=1):
        event["sequence"] = sequence


def _unscheduled_proposal(events):
    """Drop the scheduled event of a timed proposal and cut the log after
    the first clock advance, before the deadline the event would set."""
    events.remove(_nth(events, "scheduled"))
    del events[events.index(_nth(events, "clock_advanced")) + 1:]
    _renumber(events)
    return _nth(events, "decision_accepted")


def _unresolved_settled_tally(events):
    """Drop the resolved event that the decisive on-chain decision owes."""
    events.remove(_nth(events, "resolved"))
    return events[-1]


def _unappliable_change_set(events):
    """Make the All-level group's proposal remove a group the document lacks
    and resolve it, with an empty tally, as rejected. Admission refuses it
    before the override that begins its transaction."""
    event = _nth(events, "proposal_submitted", 2)
    del events[events.index(event) + 1:]
    proposal = json.loads(event["payload"]["proposal"])
    proposal["change_set"] = {"new_public_keys": None, "new_attributes": None,
                              "group_ops": [{"op": "remove", "group_id": 99}]}
    event["payload"]["proposal"] = json.dumps(proposal, separators=(",", ":"))
    payload = {"proposal_id": str(proposal["proposal_id"]), "verdict": "reject",
               "reason": "manual", "status": "rejected"}
    events.append({"sequence": len(events) + 1, "tick": 0, "kind": "resolved", "payload": payload})
    return _nth(events, "proposal_overridden")


def _submission_while_active(events):
    """Drop the override, so a second proposal arrives while the first is active."""
    events.remove(_nth(events, "proposal_overridden"))
    _renumber(events)
    return _nth(events, "proposal_submitted", 2)


def _stray_scheduled(events):
    """Log the scheduled event of a timed proposal twice."""
    event = _nth(events, "scheduled")
    stray = dict(event, payload=dict(event["payload"]))
    events.insert(events.index(event) + 1, stray)
    _renumber(events)
    return stray


def _split_aggregate(events):
    """Log a clock advance to tick 5 inside an off-chain aggregate, after its
    third decision, so its decisions look like two aggregates on one
    proposal; the events after it move to tick 5."""
    fourth = _nth(events, "decision_accepted", 4)
    at = events.index(fourth)
    for event in events[at:]:
        event["tick"] = max(event["tick"], 5)
    events.insert(at, {"sequence": 0, "tick": 5, "kind": "clock_advanced", "payload": {"to": "5"}})
    _renumber(events)
    return fourth


def _edited_document(edit):
    """An edit of a log that changes its first anchored document's JSON in
    place by ``edit``."""

    def edit_events(events):
        event = _nth(events, "anchored")
        document = json.loads(event["payload"]["document"])
        edit(document)
        event["payload"]["document"] = json.dumps(document, separators=(",", ":"))
        return event

    return edit_events


def _keys_as_object(keys):
    return {key: 0 for key in keys}


def _members_as_object(document):
    config = document["groups"][0]["authz_config"]
    config["members"] = _keys_as_object(config["members"])


def _edited_line(scenario, line_number, edit):
    """``scenario``'s golden log with the object on line ``line_number``
    changed in place by ``edit``; the decoder must name that line."""
    lines = (GOLDEN / scenario / "events.jsonl").read_text().splitlines(keepends=True)
    event = json.loads(lines[line_number - 1])
    edit(event)
    lines[line_number - 1] = json.dumps(event, separators=(",", ":")) + "\n"
    return "".join(lines), f"line {line_number}:"


def _payload_as_pairs(event):
    event["payload"] = [[key, value] for key, value in event["payload"].items()]


# JSON text nesting arrays deeper than any decoder recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000

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
    # a transaction that logs nothing: replay would begin it again forever
    "clock-advanced-to-now": (_event_line("clock_advanced", {"to": "0"}), "event 1"),
    "payload-not-object": ('{"sequence":1,"tick":0,"kind":"clock_advanced","payload":"xy"}\n', "line 1"),
    "document-missing-version": (
        _event_line("anchored", {"did": "aa", "document": json.dumps({"did": "aa", "public_keys": []})}),
        "event 1",
    ),
    "not-utf8": ("\xff\xfe\n", "byte 0"),
    "forged-controller": _forged_payload("key_rotation_2of3", "decision_accepted", controller="ab" * 32),
    "forged-weight": _forged_payload("key_rotation_2of3", "decision_accepted", weight="7"),
    "non-canonical-weight": _forged_payload("key_rotation_2of3", "decision_accepted", weight="01"),
    # fields a transition derives, each edited in a log that folds unchecked
    "forged-new-version": _forged_payload("key_rotation_2of3", "resolved", new_version="99"),
    "forged-reason-decisive": _forged_payload("key_rotation_2of3", "resolved", reason="manual"),
    "forged-proposal-id": _forged_proposal(proposal_id=7),
    "forged-base-version": _forged_proposal(base_version=5),
    "forged-created-at": _forged_proposal(created_at=3),
    "forged-proposal-status": _forged_proposal(status="rejected"),
    "forged-proposal-deadline": _forged_proposal(deadline=50),
    "forged-anchored-did": _forged_payload("key_rotation_2of3", "anchored", did="c0ffee99"),
    # a field the document codec does not read: the anchor derives the text it logs
    "non-canonical-document": _forged_golden(
        "key_rotation_2of3", _edited_document(lambda document: document.update(bogus=1))
    ),
    "forged-reason-expired": _forged_payload("offchain_batch", "resolved", reason="expired"),
    "forged-deadline": _forged_payload("offchain_batch", "scheduled", deadline="30"),
    "clock-moved-back": _forged_golden("expiry_timeout", _clock_moved_back),
    "untrusted-proposal-issuer": _forged_payload(
        "credential_access", "proposal_submitted", nonce_issuer="ab" * 32
    ),
    # what live propose and advance_clock refuse or always do, each left out of a log
    "dropped-expiry": _forged_golden("expiry_timeout", _dropped_expiry),
    "forged-edit-right": _forged_golden("key_rotation_2of3", _added_group),
    "forged-override-privilege": _forged_golden("privilege_override", _equal_privilege_override),
    "override-without-submission": _forged_golden("privilege_override", _truncated_after_override),
    "unscheduled-proposal": _forged_golden("expiry_timeout", _unscheduled_proposal),
    "unresolved-settled-tally": _forged_golden("key_rotation_2of3", _unresolved_settled_tally),
    "unappliable-change-set": _forged_golden("privilege_override", _unappliable_change_set),
    "submission-while-active": _forged_golden("privilege_override", _submission_while_active),
    "anchored-at-version-two": _forged_golden(
        "key_rotation_2of3", _edited_document(lambda document: document.update(version=2))
    ),
    "stray-scheduled": _forged_golden("expiry_timeout", _stray_scheduled),
    "split-aggregate": _forged_golden("offchain_batch", _split_aggregate),
    # an aggregate authorizes and decodes all its decisions before it logs
    # any; the error names the decision at fault, not the aggregate's first
    "forged-aggregate-weight": _forged_payload("offchain_batch", "decision_accepted", nth=3, weight="7"),
    "non-integer-aggregate-weight": _forged_payload("offchain_batch", "decision_accepted", nth=3, weight="x"),
    # the submission after an override is the override's transaction too
    "non-hex-nonce-after-override": _forged_payload(
        "privilege_override", "proposal_submitted", nth=2, nonce_issuer="zz", nonce="zz"
    ),
    "non-text-attribute": _forged_golden(
        "key_rotation_2of3", _edited_document(lambda document: document.update(attributes={"service": 1.5}))
    ),
    # a JSON container of the wrong kind that iterating or dict() would take
    "public-keys-as-object": _forged_golden(
        "key_rotation_2of3",
        _edited_document(lambda document: document.update(public_keys=_keys_as_object(document["public_keys"]))),
    ),
    "acl-members-as-object": _forged_golden("key_rotation_2of3", _edited_document(_members_as_object)),
    "attributes-as-pairs": _forged_golden(
        "key_rotation_2of3",
        _edited_document(lambda document: document.update(attributes=[list(a) for a in document["attributes"].items()])),
    ),
    # unhashable values where an enum member's value belongs
    "unhashable-verdict": _forged_payload("key_rotation_2of3", "decision_accepted", verdict=[]),
    "unhashable-authz-kind": _forged_golden(
        "key_rotation_2of3", _edited_document(lambda document: document["groups"][0].update(authz_kind={}))
    ),
    # an event line of the wrong shape, or with fields of the wrong JSON type
    "float-sequence": _edited_line("key_rotation_2of3", 1, lambda event: event.update(sequence=1.0)),
    "boolean-sequence": _edited_line("key_rotation_2of3", 1, lambda event: event.update(sequence=True)),
    "boolean-tick": _edited_line("key_rotation_2of3", 1, lambda event: event.update(tick=False)),
    "extra-event-field": _edited_line("key_rotation_2of3", 1, lambda event: event.update(extra=7)),
    "payload-as-pairs": _edited_line("key_rotation_2of3", 2, _payload_as_pairs),
    # nesting deeper than the decoder's recursion limit
    "deeply-nested-line": (DEEP_JSON + "\n", "line 1"),
    "deeply-nested-document": (_event_line("anchored", {"did": "aa", "document": DEEP_JSON}), "event 1"),
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

    @pytest.mark.parametrize(
        "action",
        [
            {"action": "advance_time", "to": "x"},
            {"action": "decide", "proposal_id": "1", "controller": "a", "verdict": "approve"},
            {"action": "propose", "did": "aa", "group_id": "0", "proposer": "a", "change_set": CHANGE},
            {"action": "decide", "proposal_id": True, "controller": "a", "verdict": "approve"},
        ],
        ids=["string-to", "string-proposal-id", "string-group-id", "bool-proposal-id"],
    )
    def test_run_non_integer_field_exit_two(self, tmp_path, action):
        propose = {"action": "propose", "did": "aa", "group_id": 0, "proposer": "a", "change_set": CHANGE}
        path = _write(tmp_path, _minimal([_anchor(), propose, action]))
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "action 2" in result.output and "must be an integer" in result.output

    @pytest.mark.parametrize(
        "field, edited, cause",
        [
            ('"service": "messaging"', '"service": 1e400', "encoding-error: attributes must map text to text"),
            ('"n": 2', '"n": 2.0', "invalid-group-config: n must be an integer"),
        ],
        ids=["infinite-attribute", "float-threshold"],
    )
    def test_run_field_of_the_wrong_json_type_exit_two(self, tmp_path, field, edited, cause):
        """A value of the wrong JSON type is refused before anything is
        written, never carried into the artifacts."""
        text = (SCENARIOS / "key_rotation_2of3.json").read_text()
        assert text.count(field) == 1
        path, out = tmp_path / "scenario.json", tmp_path / "out"
        path.write_text(text.replace(field, edited))
        result = self.runner.invoke(main, ["run", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"action 0 (anchor): {cause}" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("default_out", [False, True], ids=["out-under-a-file", "default-out-is-a-file"])
    def test_run_unwritable_output_exit_two(self, tmp_path, default_out):
        path = _write(tmp_path, _minimal([_anchor()]))
        blocked = tmp_path / f"{path.stem}-out" if default_out else tmp_path / "blocked"
        blocked.write_text("")
        args = ["run", str(path)] + ([] if default_out else ["--out", str(blocked / "out")])
        result = self.runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        target = blocked if default_out else blocked / "out"
        assert result.output.splitlines() == [f"error: cannot write {target}: " + (
            "File exists" if default_out else "Not a directory")]

    def test_run_unreadable_scenario_exit_two(self, tmp_path, monkeypatch):
        path = _write(tmp_path, _minimal([_anchor()]))

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert f"{path.name}: cannot read: Permission denied" in result.output

    def test_bench_unwritable_output_exit_two(self, tmp_path):
        (tmp_path / "blocked").write_text("")
        out = tmp_path / "blocked" / "costs.csv"
        result = self.runner.invoke(main, ["bench", "--groups", "1", "--members", "1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: cannot write {out}: Not a directory"]

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
        result = self.runner.invoke(main, ["bench", "--members", "0"])
        assert result.exit_code == 2
        result = self.runner.invoke(main, ["bench", "--groups", "0"])
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

    @pytest.mark.parametrize("command", ["run", "bench --schedule"])
    def test_deeply_nested_input_file_exit_two(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        args = command.split() + [str(path), "--out", str(tmp_path / "out")]
        result = self.runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "recursion" in result.output and len(result.output.splitlines()) == 1
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("sibling", [False, True], ids=["expect", "sibling"])
    def test_replay_non_utf8_snapshot_is_a_mismatch(self, tmp_path, sibling):
        out = self._run_golden(tmp_path)
        snapshot = out / "final_state.json"
        if not sibling:
            snapshot = tmp_path / "expected.json"
        snapshot.write_bytes((out / "final_state.json").read_bytes() + b"\xff")
        args = ["replay", str(out / "events.jsonl")] + ([] if sibling else ["--expect", str(snapshot)])
        result = self.runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"does not match {snapshot}" in result.output

    @pytest.mark.parametrize("target", ["events", "expect", "sibling"])
    def test_replay_unreadable_input_exit_two(self, tmp_path, monkeypatch, target):
        out = self._run_golden(tmp_path)
        events, snapshot = out / "events.jsonl", out / "final_state.json"
        blocked = events if target == "events" else snapshot
        for name in ("read_text", "read_bytes"):

            def denied(self, *args, _read=getattr(Path, name), **kwargs):
                if self == blocked:
                    raise PermissionError(13, "Permission denied", str(self))
                return _read(self, *args, **kwargs)

            monkeypatch.setattr(Path, name, denied)
        args = ["replay", str(events)] + (["--expect", str(snapshot)] if target == "expect" else [])
        result = self.runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: cannot read {blocked}: Permission denied"]

    def test_run_non_utf8_scenario_exit_two(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        result = self.runner.invoke(main, ["run", str(path), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "not UTF-8 text (byte 13)" in result.output

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


# --- CLI fuzz: every field of every golden input deleted or replaced ---------

_DELETE = object()


def _json_paths(value, path=()):
    """The path of every field below ``value``, parents first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _mutants(text, replacements):
    """The JSON value of ``text`` with one field deleted (``_DELETE``) or
    replaced, for every field and every replacement."""
    for path in list(_json_paths(json.loads(text))):
        for replacement in replacements:
            mutant = json.loads(text)
            parent = functools.reduce(operator.getitem, path[:-1], mutant)
            if replacement is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
            yield path, replacement, mutant


def _exit_code(command, *args) -> int:
    """Run a CLI command's body without click's argument parsing; return
    its exit code. Any exception but ``SystemExit`` fails the test."""
    try:
        command.callback(*args)
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_run_exits_with_a_documented_code_on_every_field_mutation(path, tmp_path):
    """``didgov run`` exits 0, 1 (an assertion), 2 (a parse error) or 3 (an
    engine refusal), never with a traceback."""
    scenario, out = tmp_path / "scenario.json", tmp_path / "out"
    for field, replacement, mutant in _mutants(path.read_text(), (_DELETE, None, "zz", 7, -1, 2**64, [])):
        scenario.write_text(json.dumps(mutant))
        assert _exit_code(cli.run, str(scenario), str(out)) in (0, 1, 2, 3), (field, replacement)


@pytest.mark.parametrize("scenario", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
def test_replay_exits_with_a_documented_code_on_every_field_mutation(scenario, tmp_path):
    """``didgov replay`` exits 0, 1 (a snapshot mismatch) or 2 (a malformed
    log), never with a traceback, and never 0 on a line whose decoded value
    the mutation changed."""
    log = tmp_path / "events.jsonl"
    (tmp_path / "final_state.json").write_bytes((GOLDEN / scenario / "final_state.json").read_bytes())
    lines = (GOLDEN / scenario / "events.jsonl").read_text().splitlines(keepends=True)
    for index, line in enumerate(lines):
        for field, replacement, mutant in _mutants(line, (_DELETE, None, "zz", 7, -1, 2**64, [], {})):
            log.write_text("".join(lines[:index]) + json.dumps(mutant) + "\n" + "".join(lines[index + 1:]))
            allowed = (0, 1, 2) if mutant == json.loads(line) else (1, 2)
            assert _exit_code(cli.replay, str(log), None) in allowed, (index, field, replacement)
