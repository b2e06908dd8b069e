import pytest
from hypothesis import given
from hypothesis import strategies as st

from didgov import crypto, encoding
from didgov.errors import EncodingError

@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_u64_round_trip(value):
    data = encoding.u64(value)
    assert data == value.to_bytes(8, "big")
    assert int.from_bytes(data, "big") == value


def test_u64_rejects_negative():
    with pytest.raises(EncodingError, match="cannot encode negative integer -1"):
        encoding.u64(-1)


@pytest.mark.parametrize("value", [2**64, 2**64 + 1, 2**200])
def test_u64_rejects_integers_of_more_than_64_bits(value):
    with pytest.raises(EncodingError, match="in 64 bits"):
        encoding.u64(value)


@given(st.binary(max_size=64))
def test_blob_round_trip(data):
    encoded = encoding.blob(data)
    assert encoded == len(data).to_bytes(4, "big") + data
    assert encoded[4:] == data


@given(st.text(max_size=64))
def test_text_round_trip(value):
    raw = value.encode("utf-8")
    encoded = encoding.text(value)
    assert encoded == len(raw).to_bytes(4, "big") + raw
    assert encoded[4:].decode("utf-8") == value


def test_claim_list_round_trip():
    # count, then key/value pairs in the order given (not sorted)
    assert encoding.claim_list({"b": "2", "a": ""}.items()) == (
        b"\x00" * 7 + b"\x02"
        + b"\x00\x00\x00\x01b" + b"\x00\x00\x00\x012"
        + b"\x00\x00\x00\x01a" + b"\x00\x00\x00\x00"
    )
    assert encoding.claim_list([]) == b"\x00" * 8


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
        assert encoding.blob(a) != encoding.blob(b)


def test_adjacent_blobs_unambiguous():
    one = encoding.blob(b"ab") + encoding.blob(b"c")
    other = encoding.blob(b"a") + encoding.blob(b"bc")
    assert one != other


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


# --- exact bytes of every signed payload ---------------------------------------
# Each vector pins the wire format: a change to any of these bytes invalidates
# every signature already in a log.

def test_token_payload_exact_bytes():
    assert encoding.token_payload(bytes(range(16))) == bytes.fromhex(
        "d2"
        "00000010" "000102030405060708090a0b0c0d0e0f"
    )


def test_vc_payload_exact_bytes():
    # claims inserted unsorted are signed key-sorted
    payload = encoding.vc_payload(b"hk", {"role": "admin", "b": "", "weight": "3"})
    assert payload == bytes.fromhex(
        "d3"
        "00000002" "686b"  # holder key
        "0000000000000003"  # claim count
        "00000001" "62" "00000000"  # b -> ""
        "00000004" "726f6c65" "00000005" "61646d696e"  # role -> admin
        "00000006" "776569676874" "00000001" "33"  # weight -> 3
    )


def test_presentation_payload_exact_bytes():
    assert encoding.presentation_payload("did:ex:1", 4, b"cred") == bytes.fromhex(
        "d4"
        "00000008" "6469643a65783a31"
        "0000000000000004"
        "00000004" "63726564"
    )


def test_presented_credential_exact_bytes():
    # the holder signs the credential as: tag 0x11, issuer key, holder key,
    # claims in stored order (not sorted), issuer signature
    issuer = crypto.generate_keypair(b"\x01" * 32)
    holder = crypto.generate_keypair(b"\x02" * 32)
    vc = crypto.issue_vc(issuer, holder.public_key, {"role": "admin", "b": ""})
    credential = (
        b"\x11"
        + b"\x00\x00\x00\x20" + vc.issuer_key
        + b"\x00\x00\x00\x20" + vc.holder_key
        + bytes.fromhex(
            "0000000000000002"
            "00000004" "726f6c65" "00000005" "61646d696e"  # role -> admin
            "00000001" "62" "00000000"  # b -> ""
        )
        + b"\x00\x00\x00\x40" + vc.issuer_signature
    )
    presentation = crypto.present_vc(vc, holder, "did:ex:1", 4)
    payload = encoding.presentation_payload("did:ex:1", 4, credential)
    assert crypto.verify(holder.public_key, payload, presentation.holder_signature)


def test_credential_bytes_exact_bytes():
    credential = encoding.credential_bytes(b"II", b"HHH", {"role": "admin", "b": ""}, b"SSSS")
    assert credential == bytes.fromhex(
        "11"
        "00000002" "4949"  # issuer key
        "00000003" "484848"  # holder key
        "0000000000000002"  # claim count, then claims in stored order
        "00000004" "726f6c65" "00000005" "61646d696e"  # role -> admin
        "00000001" "62" "00000000"  # b -> ""
        "00000004" "53535353"  # issuer signature
    )
