"""The auditor's JSON in :mod:`didgov.registry` against the ``json`` module.

``snapshot_json`` writes each record of the state through a compact
template of its own (``document_to_compact``, ``proposal_to_compact``, a
config's ``to_compact``, the registry's tally template), the templates an
event's text comes from. The whole must write ``json.dumps(value,
separators=(",", ":"))`` for the projection ``state_snapshot`` builds,
without building it, and must not hold much more memory than the text it
writes. ``event_log_from_jsonl`` reads each line with CPython's C scanner,
and must give what decoding each line with ``json.loads`` gives: the same
events, or the same error naming the same line.
"""

import json
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from didgov import coord, model, registry as registry_mod
from didgov.errors import EncodingError
from didgov.model import (
    AclConfig,
    AddGroup,
    ChangeSet,
    DidDocument,
    EditRightLevel,
    EventKind,
    ExecutionMode,
    GovernanceEvent,
    GovernanceGroup,
    NOfMConfig,
    ProposalStatus,
    RemoveGroup,
    ReplaceGroup,
    TokenConfig,
    TurnoutConfig,
    UpdateProposal,
    VcConfig,
    Verdict,
    WeightedConfig,
)

from .test_scenario_cli import MALFORMED_LOGS

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())


# --- JSON values to fuzz with ----------------------------------------------------

class Text(str):
    pass


class Count(int):
    """An int subclass with its own repr, as an ``IntEnum`` member has."""

    def __repr__(self) -> str:
        return f"Count({int(self)})"


# characters JSON escapes, or escapes specially, next to non-ASCII text
_AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "€", "\U0001f600"])
TEXT = st.text() | st.text(_AWKWARD) | st.text(st.characters(categories=["Cs"]))
KEYS = TEXT | TEXT.map(Text)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.integers().map(Count)
    | TEXT
    | TEXT.map(Text)
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=40,
)


# --- the snapshot writer ---------------------------------------------------------

def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _golden_log(scenario: str) -> list[GovernanceEvent]:
    return registry_mod.event_log_from_jsonl((GOLDEN / scenario / "events.jsonl").read_text())


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_snapshots_equal_json_dumps(scenario):
    state = registry_mod.replay_events(_golden_log(scenario))
    text = registry_mod.snapshot_json(state)
    assert text == _dumps(registry_mod.state_snapshot(state)) + "\n"
    assert text == (GOLDEN / scenario / "final_state.json").read_text()


def _tallied_state(tallies: int, entries: int) -> registry_mod.RegistryState:
    """A registry state of ``tallies`` closed tallies of ``entries`` distinct
    controllers each, and nothing else: snapshot-shaped, without signing."""
    state, config = registry_mod.RegistryState(), model.WeightedConfig(threshold=1)
    for pid in range(1, tallies + 1):
        tally = state.tallies[pid] = coord.Tally(pid)
        for n in range(entries):
            coord.append_entry(config, tally, ((pid * entries + n).to_bytes(32, "big"), model.Verdict.APPROVE, 1))
        tally.finalized = True
    return state


def test_snapshot_writer_holds_at_most_three_times_its_text():
    """The whole ``snapshot_json`` call, templates included, holds at most
    3x its text (about 2.9 MB here): each record's text and the joined
    text. Building the snapshot's dicts first would hold far more."""
    state = _tallied_state(6_500, 5)
    tracemalloc.start()
    try:
        text = registry_mod.snapshot_json(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == _dumps(registry_mod.state_snapshot(state)) + "\n"
    assert len(text) > 2_500_000
    assert peak <= 3 * len(text), f"peak {peak} B for {len(text)} B of text"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_snapshot_records_are_their_compact_texts(scenario):
    """One text form per record: the golden snapshot is the compact text of
    its own value, keys in the order it holds them, so the text of each of
    its documents and proposals is the compact dump of that value, and it
    equals what the record's compact template writes for the replayed
    record."""
    state = registry_mod.replay_events(_golden_log(scenario))
    text = (GOLDEN / scenario / "final_state.json").read_text()
    snapshot = json.loads(text)
    assert _dumps(snapshot) + "\n" == text
    assert snapshot["documents"].keys() == state.documents.keys() and state.documents
    assert snapshot["proposals"].keys() == {str(pid) for pid in state.proposals} and state.proposals
    for did, doc in state.documents.items():
        assert _dumps(snapshot["documents"][did]) == model.document_to_compact(doc)
    for pid, proposal in state.proposals.items():
        assert _dumps(snapshot["proposals"][str(pid)]) == model.proposal_to_compact(proposal)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_a_document_at_version_one_carries_its_anchored_text(scenario):
    """A document still at version 1 appears in the snapshot as the exact
    string its ``anchored`` event logged: checked on the whole log and on
    the log cut right after each anchoring, where the new document is at
    version 1 in every scenario."""
    events = _golden_log(scenario)
    logged = {event.payload["did"]: event.payload["document"] for event in events if event.kind is EventKind.ANCHORED}
    cuts = [at + 1 for at, event in enumerate(events) if event.kind is EventKind.ANCHORED] + [len(events)]
    checked = 0
    for cut in cuts:
        text = registry_mod.snapshot_json(registry_mod.replay_events(events[:cut]))
        for did, doc in json.loads(text)["documents"].items():
            if doc["version"] == 1:
                assert f"{json.dumps(did)}:{logged[did]}" in text
                checked += 1
    assert checked >= len(logged)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_snapshots_build_no_projection(scenario, monkeypatch):
    """The snapshot writes each record from its template: it builds no
    document, proposal or snapshot dict on the way."""
    state = registry_mod.replay_events(_golden_log(scenario))

    def refuse(*args):
        raise AssertionError("snapshot_json built a JSON projection")

    for owner, name in ((model, "document_to_json"), (model, "proposal_to_json"), (registry_mod, "state_snapshot")):
        monkeypatch.setattr(owner, name, refuse)
    assert registry_mod.snapshot_json(state) == (GOLDEN / scenario / "final_state.json").read_text()


# --- the snapshot's templates, against the projection ---------------------------

BYTES = st.binary(min_size=1, max_size=3)
KEY_LISTS = st.lists(BYTES, max_size=3, unique=True).map(tuple)
ISSUERS = st.lists(BYTES, min_size=1, max_size=3).map(tuple)
BIG = st.integers(min_value=1, max_value=2**70)
AUTHZ = st.one_of(
    st.lists(BYTES, min_size=1, max_size=3, unique=True).flatmap(
        lambda members: st.builds(
            AclConfig,
            st.just(tuple(members)),
            st.none() | st.lists(BIG, min_size=len(members), max_size=len(members)).map(tuple),
        )
    ),
    st.builds(TokenConfig, ISSUERS),
    st.builds(VcConfig, ISSUERS, st.dictionaries(TEXT, TEXT, max_size=3)),
)
COORD = st.one_of(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.builds(NOfMConfig, st.just(n), st.integers(min_value=n, max_value=9))
    ),
    st.builds(TurnoutConfig, BIG, st.fractions(min_value=Fraction(1, 10**6), max_value=1)),
    st.builds(WeightedConfig, BIG),
)
BELOW_ALL = st.sampled_from([level for level in EditRightLevel if level is not EditRightLevel.ALL])


def _groups(group_id, edit_right=BELOW_ALL):
    return st.builds(
        GovernanceGroup,
        group_id,
        edit_right,
        AUTHZ,
        COORD,
        st.sampled_from(ExecutionMode),
        st.none() | BIG,
    )


GROUP_IDS = st.integers(min_value=0, max_value=2**70)
DIDS = st.text("0123456789abcdef", min_size=1, max_size=6)
TEXT_MAPS = st.dictionaries(TEXT, TEXT, max_size=3)
DOCUMENTS = st.builds(
    lambda did, version, keys, attributes, first, rest: DidDocument(
        did, version, keys, attributes, (first, *(group for group in rest if group.group_id != first.group_id))
    ),
    DIDS,
    BIG,
    KEY_LISTS,
    TEXT_MAPS,
    _groups(GROUP_IDS, st.sampled_from(EditRightLevel)),
    st.lists(_groups(GROUP_IDS), max_size=2, unique_by=lambda group: group.group_id),
)
GROUP_OPS = st.one_of(
    st.builds(AddGroup, _groups(GROUP_IDS)),
    GROUP_IDS.flatmap(lambda group_id: st.builds(ReplaceGroup, st.just(group_id), _groups(st.just(group_id)))),
    st.builds(RemoveGroup, GROUP_IDS),
)
@st.composite
def _change_sets(draw):
    keys, attributes = draw(st.none() | KEY_LISTS), draw(st.none() | TEXT_MAPS)
    ops = tuple(draw(st.lists(GROUP_OPS, max_size=2)))
    if keys is None and attributes is None and not ops:
        attributes = {}
    return ChangeSet(keys, attributes, ops)


@st.composite
def _states(draw):
    state = registry_mod.RegistryState()
    for doc in draw(st.lists(DOCUMENTS, max_size=3, unique_by=lambda doc: doc.did)):
        state.documents[doc.did] = doc
    for pid in range(1, draw(st.integers(min_value=0, max_value=12)) + 1):
        proposal = state.proposals[pid] = UpdateProposal(
            pid, model.Did(draw(DIDS)), draw(BIG), draw(GROUP_IDS), draw(_change_sets()), draw(BIG),
            draw(st.none() | BIG), draw(st.sampled_from(ProposalStatus)),
        )
        if draw(st.booleans()):
            state.active_proposals[proposal.did] = proposal
        tally = state.tallies[pid] = coord.Tally(pid)
        tally.accepted += draw(st.lists(st.tuples(BYTES, st.sampled_from(Verdict), BIG), max_size=3))
        tally.finalized = draw(st.booleans())
        if proposal.deadline is not None:
            state.queue.push(proposal.deadline, pid)
    state.nonce_ledger.update(draw(st.sets(st.tuples(BYTES, BYTES), max_size=3)))
    state.clock.advance(draw(st.integers(min_value=0, max_value=2**70)))
    if draw(st.booleans()):
        state.event_log.append(GovernanceEvent(draw(BIG), 0, model.EventKind.CLOCK_ADVANCED, {}))
    return state


@given(_states())
@example(registry_mod.RegistryState())
def test_snapshot_templates_equal_json_dumps(state):
    """Every kind, ACL weights or none, time limits and deadlines, each
    group operation, keys none, empty or set, empty sections, and awkward
    text in attributes and required claims."""
    assert registry_mod.snapshot_json(state) == _dumps(registry_mod.state_snapshot(state)) + "\n"


# --- the JSONL event decoder ---------------------------------------------------

def _reference_decode(text: str) -> list:
    """The decoder as it was: ``json.loads`` on each non-blank line."""
    events = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(model.event_from_json(json.loads(line)))
        except registry_mod._MALFORMED as exc:
            raise EncodingError(f"bad event on line {line_number}: {type(exc).__name__}: {exc}") from exc
    return events


def _outcome(decode, text: str):
    """The events ``decode`` gives for ``text``, or its error message."""
    try:
        return decode(text)
    except EncodingError as exc:
        return str(exc)


def _same_outcome(text: str):
    outcome = _outcome(registry_mod.event_log_from_jsonl, text)
    assert outcome == _outcome(_reference_decode, text)
    return outcome


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("size", [None, 1, 64])
def test_golden_logs_decode_to_equal_events(scenario, size):
    """Whole, and in slices of ``size`` lines as the benchmark decodes."""
    lines = (GOLDEN / scenario / "events.jsonl").read_text().splitlines(keepends=True)
    size = size or len(lines)
    for start in range(0, len(lines), size):
        events = _same_outcome("".join(lines[start:start + size]))
        assert isinstance(events, list) and len(events) == len(lines[start:start + size])


@pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
def test_malformed_logs_decode_alike(case):
    text, place = MALFORMED_LOGS[case]
    outcome = _same_outcome(text)
    if place.startswith("line "):
        assert place in outcome


EVENT = '{"sequence":1,"tick":0,"kind":"clock_advanced","payload":{"to":"0"}}'

# one-shot hazards a JSONL decoder can get wrong, each with the line named
HAZARDS = {
    "two-objects-on-a-line": (EVENT + EVENT + "\n", "line 1:"),
    "two-values-on-a-line": (EVENT + "," + EVENT + "\n", "line 1:"),
    "array-of-events": ("[" + EVENT + "," + EVENT + "]\n", "line 1:"),
    "string-split-over-two-lines": (EVENT.replace('"0"', '"0\n0"') + "\n", "line 1:"),
    "line-separator-inside-a-string": (EVENT + "\n" + EVENT.replace('"0"', '"0\u20280"') + "\n", "line 2:"),
    "blank-lines": ("\n\n" + EVENT + "\n\n", None),
    "whitespace-only-lines": (" \t\n\xa0\n\x1f\n" + EVENT + "\n \n", None),
    "crlf-endings": (EVENT + "\r\n" + EVENT + "\r\n", None),
    "cr-endings": (EVENT + "\r" + EVENT, None),
    "json-whitespace-around-a-line": (" \t" + EVENT + "\t \n", None),
    "other-whitespace-after-a-line": (EVENT + "\xa0\n", "line 1:"),
    "other-whitespace-before-a-line": ("\n\xa0" + EVENT + "\n", "line 2:"),
    "byte-order-mark": ("\ufeff" + EVENT + "\n", "line 1:"),
    "truncated-last-line": (EVENT + "\n" + EVENT[:20], "line 2:"),
    "bare-scalar": (EVENT + "\n7\n", "line 2:"),
    "nan-sequence": (EVENT.replace('"sequence":1', '"sequence":NaN') + "\n", "line 1:"),
    "control-character-in-a-string": (EVENT.replace('"0"', '"\x01"') + "\n", "line 1:"),
}


@pytest.mark.parametrize("case", sorted(HAZARDS))
def test_hazards_decode_alike(case):
    text, place = HAZARDS[case]
    outcome = _same_outcome(text)
    if place is None:
        assert isinstance(outcome, list) and outcome
    else:
        assert isinstance(outcome, str) and place in outcome


def _event_json(sequence, tick, kind, payload) -> str:
    return json.dumps({"sequence": sequence, "tick": tick, "kind": kind, "payload": payload})


EVENT_LINES = st.builds(
    _event_json,
    st.integers() | st.floats(allow_nan=False) | st.booleans(),
    st.integers(min_value=0),
    st.sampled_from([kind.value for kind in model.EventKind] + ["bogus"]),
    st.dictionaries(TEXT, TEXT, max_size=3),
)
SPACE = st.text(st.sampled_from(" \t\xa0\x1f\ufeff"), max_size=2)
LINES = st.tuples(SPACE, EVENT_LINES | TREES.map(json.dumps) | st.text(max_size=10), SPACE).map("".join)
BREAKS = st.sampled_from(["\n", "\r\n", "\r", " ", "\x0c"])


@given(st.lists(st.tuples(LINES, BREAKS), max_size=6))
def test_any_text_decodes_alike(lines):
    _same_outcome("".join(line + end for line, end in lines))
