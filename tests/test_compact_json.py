"""The compact JSON writer in :mod:`didgov.registry` against ``json.dumps``.

Every event log line and every ``document``/``proposal`` payload is written
through it, so its text must equal ``json.dumps(value, separators=(",",
":"))`` byte for byte.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from didgov import registry as registry_mod

GOLDEN = Path(__file__).parent / "golden"

# characters JSON escapes, or escapes specially, next to non-ASCII text
_AWKWARD = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é", "€", "\U0001f600"])
TEXT = st.text() | st.text(_AWKWARD) | st.text(st.characters(categories=["Cs"]))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()  # nan and infinities included
    | TEXT
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


@given(st.lists(TREES, max_size=4))
def test_writer_equals_json_dumps(values):
    write = registry_mod._compact_writer()  # one writer for many values, as an export uses it
    assert [write(value) for value in values] == [_dumps(value) for value in values]


@given(st.integers(min_value=0, max_value=300), SCALARS, st.booleans())
def test_deep_nesting_equals_json_dumps(depth, leaf, as_dict):
    value = leaf
    for _ in range(depth):
        value = {"k": value} if as_dict else [value, []]
    assert registry_mod._compact_writer()(value) == _dumps(value)


@pytest.mark.parametrize("value", [{}, [], [{}], {"": []}, "", 0, -0.0, float("nan"), float("-inf")])
def test_edge_values_equal_json_dumps(value):
    assert registry_mod._compact_writer()(value) == _dumps(value)


def test_self_containing_value_raises_value_error():
    looped = {"a": []}
    looped["a"].append(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        _dumps(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        registry_mod._compact_writer()(looped)


@pytest.mark.parametrize("value", [{"k": b"bytes"}, [object()], {"k": {1, 2}}])
def test_non_serializable_value_raises_type_error(value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _dumps(value)
    with pytest.raises(TypeError, match="not JSON serializable"):
        registry_mod._compact_writer()(value)


@pytest.mark.parametrize("scenario", sorted(path.name for path in GOLDEN.iterdir() if path.is_dir()))
@pytest.mark.parametrize("size", [1, 3, 64])
def test_sliced_export_equals_whole_export(scenario, size):
    """The benchmark exports a log in 64-event calls and joins the texts."""
    text = (GOLDEN / scenario / "events.jsonl").read_text()
    events = registry_mod.event_log_from_jsonl(text)
    sliced = "".join(registry_mod.event_log_to_jsonl(events[i:i + size]) for i in range(0, len(events), size))
    assert sliced == registry_mod.event_log_to_jsonl(events) == text
