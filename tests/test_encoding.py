import pytest
from hypothesis import given
from hypothesis import strategies as st

from didgov import encoding
from didgov.encoding import ByteWriter
from didgov.errors import EncodingError

@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_round_trip(value):
    data = ByteWriter().u64(value).getvalue()
    assert data == value.to_bytes(8, "big")
    assert int.from_bytes(data, "big") == value


def test_u64_rejects_negative():
    with pytest.raises(EncodingError):
        ByteWriter().u64(-1)


@given(st.binary(max_size=64))
def test_blob_round_trip(data):
    encoded = ByteWriter().blob(data).getvalue()
    assert encoded == len(data).to_bytes(4, "big") + data
    assert encoded[4:] == data


@given(st.text(max_size=64))
def test_text_round_trip(value):
    raw = value.encode("utf-8")
    encoded = ByteWriter().text(value).getvalue()
    assert encoded == len(raw).to_bytes(4, "big") + raw
    assert encoded[4:].decode("utf-8") == value


def test_text_map_round_trip():
    # count, then key/value pairs in stored order (not sorted)
    assert ByteWriter().text_map({"b": "2", "a": ""}).getvalue() == (
        b"\x00" * 7 + b"\x02"
        + b"\x00\x00\x00\x01b" + b"\x00\x00\x00\x012"
        + b"\x00\x00\x00\x01a" + b"\x00\x00\x00\x00"
    )
    assert ByteWriter().text_map({}).getvalue() == b"\x00" * 8


def test_boolean_round_trip():
    assert ByteWriter().boolean(True).boolean(False).getvalue() == b"\x01\x00"


def test_decision_payload_exact_bytes():
    assert encoding.decision_payload("ab", 3, 2, "approve") == (
        b"\xd1"
        + b"\x00\x00\x00\x02ab"
        + (3).to_bytes(8, "big")
        + (2).to_bytes(8, "big")
        + b"\x00\x00\x00\x07approve"
    )


@given(st.binary(max_size=16), st.binary(max_size=16))
def test_blob_encoding_injective(a, b):
    # the length prefix prevents boundary ambiguity between adjacent fields
    if a != b:
        assert ByteWriter().blob(a).getvalue() != ByteWriter().blob(b).getvalue()


def test_adjacent_blobs_unambiguous():
    one = ByteWriter().blob(b"ab").blob(b"c").getvalue()
    other = ByteWriter().blob(b"a").blob(b"bc").getvalue()
    assert one != other


def test_sorted_claims_insertion_order_independent():
    assert encoding.sorted_claims({"b": "2", "a": "1"}) == encoding.sorted_claims(
        {"a": "1", "b": "2"}
    )
    assert encoding.sorted_claims({"b": "2", "a": "1"}) == [("a", "1"), ("b", "2")]


def test_signing_payloads_domain_separated():
    # equal field bytes under different payload kinds must never collide
    payloads = [
        encoding.decision_payload("ab", 1, 1, "x"),
        encoding.token_payload(b"ab"),
        encoding.vc_payload(b"ab", {}),
        encoding.presentation_payload("ab", 1, b"x"),
    ]
    tags = [p[0] for p in payloads]
    assert len(set(tags)) == len(tags)


def test_decision_payload_binds_every_field():
    base = encoding.decision_payload("aa", 1, 1, "approve")
    assert encoding.decision_payload("ab", 1, 1, "approve") != base
    assert encoding.decision_payload("aa", 2, 1, "approve") != base
    assert encoding.decision_payload("aa", 1, 2, "approve") != base
    assert encoding.decision_payload("aa", 1, 1, "reject") != base


def test_vc_payload_claim_order_independent():
    assert encoding.vc_payload(b"k", {"a": "1", "b": "2"}) == encoding.vc_payload(
        b"k", {"b": "2", "a": "1"}
    )


def test_presentation_payload_binds_proposal_id():
    # id 0 is the propose-time context; a decide-time presentation differs
    assert encoding.presentation_payload("aa", 0, b"c") != encoding.presentation_payload(
        "aa", 3, b"c"
    )
