"""Canonical signed bytes: type-tagged, length-prefixed, field-ordered.

These bytes are what Ed25519 signs; they are never persisted (the event
log and snapshots are JSON). Encoding is deterministic, and injective per
payload kind. Integers are 8-byte big-endian, variable-length data carries
a 4-byte big-endian length prefix, and every signing payload starts with a
domain-separation tag so payloads of different kinds can never collide.
This module defines every signed byte, the credential bytes under a
holder's presentation included.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping

from .errors import EncodingError, MalformedCredential

# Domain-separation tags for signing payloads.
PAYLOAD_DECISION = b"\xd1"
PAYLOAD_TOKEN = b"\xd2"
PAYLOAD_VC = b"\xd3"
PAYLOAD_PRESENTATION = b"\xd4"
CREDENTIAL = b"\x11"  # leading byte of the credential bytes a presentation signs


def u64(value: int) -> bytes:
    if value < 0:
        raise EncodingError(f"cannot encode negative integer {value}")
    if value >> 64:
        raise EncodingError(f"cannot encode integer {value} in 64 bits")
    return value.to_bytes(8, "big")


def blob(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def text(value: str) -> bytes:
    return blob(value.encode("utf-8"))


def claim_pairs(claims: Mapping[str, str]) -> list[tuple[str, str]]:
    """A credential's claims as (key, value) pairs, in stored order. Claims
    are a mapping of text to text; anything else raises
    ``MalformedCredential``, both when a credential is made and wherever its
    claims are encoded (the claims are a dict, which a holder can still
    change)."""
    if type(claims) is not dict and not isinstance(claims, Mapping):
        raise MalformedCredential(f"a credential's claims must be a mapping, not {type(claims).__name__}")
    pairs = list(claims.items())
    for key, value in pairs:
        if not isinstance(key, str) or not isinstance(value, str):
            raise MalformedCredential(f"a credential's claims map text to text, not {key!r}: {value!r}")
    return pairs


def claim_list(claims: Collection[tuple[str, str]]) -> bytes:
    """A claim count, then each key and value in the order given."""
    return u64(len(claims)) + b"".join(text(key) + text(value) for key, value in claims)


def decision_payload(did: str, proposal_id: int, base_version: int, verdict: str) -> bytes:
    """Signing payload for a controller decision.

    Binding the DID, proposal id, and base version prevents replaying the
    signature against any other proposal or a later document state.
    """
    return PAYLOAD_DECISION + text(did) + u64(proposal_id) + u64(base_version) + text(verdict)


def token_payload(nonce: bytes) -> bytes:
    """Signing payload for a bearer token: the nonce alone."""
    return PAYLOAD_TOKEN + blob(nonce)


def vc_payload(holder_key: bytes, claims: Mapping[str, str]) -> bytes:
    """Issuer signing payload for a verifiable credential.

    Claims are signed key-sorted, so logically equal claim sets sign
    identically regardless of insertion order.
    """
    return PAYLOAD_VC + blob(holder_key) + claim_list(sorted(claim_pairs(claims)))


def presentation_payload(did: str, proposal_id: int, credential: bytes) -> bytes:
    """Holder signing payload proving possession of a credential.

    Binds (did, proposal_id, credential). Proposal ids start at 1, so
    presentations made at proposal time (no id allocated yet) use 0; a
    captured propose-presentation can therefore never be replayed as a
    decision on a real proposal.
    """
    return PAYLOAD_PRESENTATION + text(did) + u64(proposal_id) + blob(credential)


def credential_bytes(
    issuer_key: bytes, holder_key: bytes, claims: Mapping[str, str], issuer_signature: bytes
) -> bytes:
    """A verifiable credential as its holder's presentation signs it.

    Claims keep their stored order: an ordered mapping is part of the record.
    """
    return (
        CREDENTIAL + blob(issuer_key) + blob(holder_key)
        + claim_list(claim_pairs(claims)) + blob(issuer_signature)
    )
