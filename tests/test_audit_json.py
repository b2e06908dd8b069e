"""The auditor's JSON in :mod:`didgov.registry` against the ``json`` module.

``snapshot_json`` writes its indented text with ``_indented``, which must
equal ``json.dumps(value, indent=2, sort_keys=True)`` over the values
``state_snapshot`` builds. ``event_log_from_jsonl`` reads each line with
CPython's C scanner, and must give what decoding each line with
``json.loads`` gives: the same events, or the same error naming the same
line.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from didgov import model, registry as registry_mod
from didgov.errors import EncodingError

from .test_scenario_cli import MALFORMED_LOGS

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(path.name for path in GOLDEN.iterdir() if path.is_dir())


# --- the indented snapshot writer ----------------------------------------------

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


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@given(TREES)
def test_writer_equals_json_dumps(value):
    assert registry_mod._indented(value) == _dumps(value)


@given(st.integers(min_value=0, max_value=300), LEAVES, st.booleans())
def test_deep_nesting_equals_json_dumps(depth, leaf, as_dict):
    value = leaf
    for _ in range(depth):
        value = {"k": value, "": []} if as_dict else [value, {}]
    assert registry_mod._indented(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    [{}, [], [{}], {"": []}, "", 0, -1, True, False, None, 2**100, Count(3), Text("é"), {"b": 1, "a": {}}],
)
def test_edge_values_equal_json_dumps(value):
    assert registry_mod._indented(value) == _dumps(value)


@given(TREES, st.floats())
def test_float_leaf_raises_type_error(tree, leaf):
    with pytest.raises(TypeError):
        registry_mod._indented([tree, {"leaf": leaf}])


@pytest.mark.parametrize("value", [0.5, (1, 2), b"bytes", {1, 2}, {1: "a"}, {None: "a"}, [object()]])
def test_value_outside_the_domain_raises_type_error(value):
    with pytest.raises(TypeError):
        registry_mod._indented(value)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_snapshots_equal_json_dumps(scenario):
    state = registry_mod.replay_events(
        registry_mod.event_log_from_jsonl((GOLDEN / scenario / "events.jsonl").read_text())
    )
    text = registry_mod.snapshot_json(state)
    assert text == _dumps(registry_mod.state_snapshot(state)) + "\n"
    assert text == (GOLDEN / scenario / "final_state.json").read_text()


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
