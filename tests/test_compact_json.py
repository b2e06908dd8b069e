"""Compact JSON text against ``json.dumps(value, separators=(",", ":"))``.

``event_log_to_jsonl`` writes each event line from a per-kind template and
its payload's text members; each line must equal the compact ``json.dumps``
of :func:`didgov.model.event_to_json` for its event, and a payload that is
not text to text must be refused. The ``document`` and ``proposal`` texts
that events record come from the compact templates in :mod:`didgov.model`;
each must equal the compact ``json.dumps`` of its record's JSON projection.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from didgov import model
from didgov import registry as registry_mod
from didgov.errors import EncodingError
from didgov.model import (
    AclConfig,
    AddGroup,
    ChangeSet,
    Did,
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
    WeightedConfig,
)

from .test_audit_json import AUTHZ, BIG, COORD, DIDS, DOCUMENTS, GROUP_IDS, _change_sets, _groups

GOLDEN = Path(__file__).parent / "golden"

# characters JSON escapes, or escapes specially, next to non-ASCII text
_AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "€", "\U0001f600"])
TEXT = st.text() | st.text(_AWKWARD) | st.text(st.characters(categories=["Cs"]))


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


# sequence and tick past 2**64, every kind, payload text that JSON escapes
EVENTS = st.builds(
    GovernanceEvent,
    st.integers(min_value=0, max_value=2**70),
    st.integers(min_value=0, max_value=2**70),
    st.sampled_from(EventKind),
    st.dictionaries(TEXT, TEXT, max_size=5),
)


@given(st.lists(EVENTS, max_size=4))
def test_event_lines_equal_json_dumps_of_event_to_json(events):
    assert registry_mod.event_log_to_jsonl(events) == "".join(
        _dumps(model.event_to_json(event)) + "\n" for event in events
    )


# payloads at the edges of the template: empty, empty text, every escape
EDGE_PAYLOADS = {
    "empty": {},
    "empty-text": {"": ""},
    "quote-backslash-slash": {'"\\/': '"\\/'},
    "control": {"k": "\x00\x1f\x7f\n\t\r\b\f"},
    "non-ascii": {"r\u00f4le": "\u20ac\U0001f600"},
    "lone-surrogates": {"\ud800": "\udfff\udc00"},
    "many-members": {f"k{i}": f"v{i}" for i in range(40)},
}


@pytest.mark.parametrize("payload", EDGE_PAYLOADS.values(), ids=list(EDGE_PAYLOADS))
def test_edge_payloads_equal_json_dumps_of_event_to_json(payload):
    event = GovernanceEvent(2**64, 0, EventKind.ANCHORED, payload)
    assert registry_mod.event_log_to_jsonl([event]) == _dumps(model.event_to_json(event)) + "\n"


def _decoded(payload_text):
    line = '{"sequence":1,"tick":0,"kind":"anchored","payload":{"to":%s}}' % payload_text
    return registry_mod.event_log_from_jsonl(line)[0]


@pytest.mark.parametrize(
    "event",
    [
        _decoded("5"),
        _decoded("null"),
        _decoded("1.5"),
        _decoded("true"),
        _decoded("[]"),
        _decoded("{}"),
        GovernanceEvent(1, 0, EventKind.ANCHORED, {"to": b"bytes"}),
        GovernanceEvent(1, 0, EventKind.ANCHORED, {5: "five"}),
        GovernanceEvent("1", 0, EventKind.ANCHORED, {"to": "ab"}),
    ],
    ids=["int-value", "null-value", "float-value", "bool-value", "array-value", "object-value", "bytes-value",
         "int-key", "text-sequence"],
)
def test_payload_that_is_not_text_to_text_is_refused(event):
    good = GovernanceEvent(0, 0, EventKind.ANCHORED, {"did": "ab"})
    with pytest.raises(EncodingError, match="text-to-text payload"):
        registry_mod.event_log_to_jsonl([good, event])


@pytest.mark.parametrize("scenario", sorted(path.name for path in GOLDEN.iterdir() if path.is_dir()))
@pytest.mark.parametrize("size", [1, 3, 64])
def test_sliced_export_equals_whole_export(scenario, size):
    """The benchmark exports a log in 64-event calls and joins the texts."""
    text = (GOLDEN / scenario / "events.jsonl").read_text()
    events = registry_mod.event_log_from_jsonl(text)
    sliced = "".join(registry_mod.event_log_to_jsonl(events[i:i + size]) for i in range(0, len(events), size))
    assert sliced == registry_mod.event_log_to_jsonl(events) == text


# --- the compact record templates, against the projections ---------------------

KEY = b"\x01\xab"
CONFIGS = [
    AclConfig(members=(KEY, b"\xff")),
    AclConfig(members=(KEY, b"\xff"), weights=(3, 2**70)),
    TokenConfig(trusted_issuers=(KEY,)),
    VcConfig(trusted_issuers=(KEY, b"\x00"), required_claims={}),
    VcConfig(trusted_issuers=(KEY,), required_claims={"r\u00f4le": "\u20ac\"\\\n", "weight": "\U0001f600"}),
    NOfMConfig(n=2, m=3),
    TurnoutConfig(quorum=2, ratio=Fraction(2, 3)),
    WeightedConfig(threshold=2**70),
]


def _group(group_id, authz=CONFIGS[0], coord=CONFIGS[5], edit_right=EditRightLevel.DOCUMENT, time_limit=None):
    return GovernanceGroup(group_id, edit_right, authz, coord, ExecutionMode.OFF_CHAIN, time_limit)


# every group operation, keys and attributes none, empty or set
CHANGE_SETS = [
    ChangeSet(new_public_keys=()),
    ChangeSet(new_public_keys=(KEY,), new_attributes={}),
    ChangeSet(new_attributes={"s\u00e9rvice": "https://example.org/\u20ac"}),
    ChangeSet(group_ops=(AddGroup(_group(7, CONFIGS[4], CONFIGS[6], time_limit=5)), ReplaceGroup(0, _group(0)))),
    ChangeSet(new_attributes={"k": "v"}, group_ops=(RemoveGroup(3),)),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda config: type(config).__name__)
def test_each_config_kind_writes_its_compact_text(config):
    assert config.to_compact() == _dumps(config.to_json())


@given(AUTHZ | COORD)
def test_config_compact_text_equals_json_dumps(config):
    assert config.to_compact() == _dumps(config.to_json())


@given(_groups(GROUP_IDS, st.sampled_from(EditRightLevel)))
@example(_group(0, CONFIGS[1], CONFIGS[7], EditRightLevel.ALL, time_limit=9))
def test_group_compact_text_equals_json_dumps(group):
    assert model.group_to_compact(group) == _dumps(model.group_to_json(group))


@given(DOCUMENTS)
@example(DidDocument(Did("ab"), 1, (), {}, (_group(0),)))
@example(DidDocument(Did("ab"), 2, (KEY, KEY), {"\u00e9": "\U0001f600", "a": ""}, (_group(1), _group(0, CONFIGS[3]))))
def test_document_compact_text_equals_json_dumps(doc):
    assert model.document_to_compact(doc) == _dumps(model.document_to_json(doc))


@given(_change_sets())
def test_change_set_compact_text_equals_json_dumps(change_set):
    assert model.change_set_to_compact(change_set) == _dumps(model.change_set_to_json(change_set))


PROPOSALS = st.builds(
    UpdateProposal,
    BIG,
    DIDS.map(Did),
    BIG,
    GROUP_IDS,
    _change_sets(),
    BIG,
    st.none() | BIG,
    st.sampled_from(ProposalStatus),
)


@given(PROPOSALS)
def test_proposal_compact_text_equals_json_dumps(proposal):
    assert model.proposal_to_compact(proposal) == _dumps(model.proposal_to_json(proposal))


@pytest.mark.parametrize("status", list(ProposalStatus), ids=lambda status: status.value)
@pytest.mark.parametrize("deadline", [None, 12])
@pytest.mark.parametrize("change_set", CHANGE_SETS)
def test_every_status_deadline_and_change_set_writes_its_compact_text(status, deadline, change_set):
    proposal = UpdateProposal(10, Did("c0ffee"), 2, 0, change_set, 3, deadline, status)
    assert model.proposal_to_compact(proposal) == _dumps(model.proposal_to_json(proposal))
