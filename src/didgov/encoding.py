"""Canonical signing payloads: type-tagged, length-prefixed, field-ordered.

These bytes are what Ed25519 signs; they are never persisted (the event
log and snapshots are JSON). Encoding is deterministic, and injective per
payload kind. Integers are 8-byte big-endian, variable-length data carries
a 4-byte big-endian length prefix, and every signing payload starts with a
domain-separation tag so payloads of different kinds can never collide.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping

from .errors import EncodingError

# Domain-separation tags for signing payloads.
PAYLOAD_DECISION = 0xD1
PAYLOAD_TOKEN = 0xD2
PAYLOAD_VC = 0xD3
PAYLOAD_PRESENTATION = 0xD4


class ByteWriter:
    """Accumulates the canonical bytes of one signing payload."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> "ByteWriter":
        self._buf.append(value & 0xFF)
        return self

    def u64(self, value: int) -> "ByteWriter":
        if value < 0:
            raise EncodingError(f"cannot encode negative integer {value}")
        self._buf += struct.pack(">Q", value)
        return self

    def blob(self, data: bytes) -> "ByteWriter":
        self._buf += struct.pack(">I", len(data))
        self._buf += data
        return self

    def text(self, value: str) -> "ByteWriter":
        return self.blob(value.encode("utf-8"))

    def text_map(self, mapping: Mapping[str, str]) -> "ByteWriter":
        # Stored order is preserved: an ordered mapping is part of the record.
        self.u64(len(mapping))
        for key, value in mapping.items():
            self.text(key)
            self.text(value)
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


def sorted_claims(claims: Mapping[str, str]) -> list[tuple[str, str]]:
    """Claims in signing order: key-sorted, so logically equal claim sets sign
    identically regardless of insertion order."""
    return sorted(claims.items())


def decision_payload(did: str, proposal_id: int, base_version: int, verdict: str) -> bytes:
    """Signing payload for a controller decision.

    Binding the DID, proposal id, and base version prevents replaying the
    signature against any other proposal or a later document state.
    """
    w = ByteWriter().u8(PAYLOAD_DECISION)
    w.text(did).u64(proposal_id).u64(base_version).text(verdict)
    return w.getvalue()


def token_payload(nonce: bytes) -> bytes:
    """Signing payload for a bearer token: the nonce alone."""
    return ByteWriter().u8(PAYLOAD_TOKEN).blob(nonce).getvalue()


def vc_payload(holder_key: bytes, claims: Mapping[str, str]) -> bytes:
    """Issuer signing payload for a verifiable credential."""
    w = ByteWriter().u8(PAYLOAD_VC).blob(holder_key)
    ordered = sorted_claims(claims)
    w.u64(len(ordered))
    for key, value in ordered:
        w.text(key)
        w.text(value)
    return w.getvalue()


def presentation_payload(did: str, proposal_id: int, credential: bytes) -> bytes:
    """Holder signing payload proving possession of a credential.

    Binds (did, proposal_id, credential). Proposal ids start at 1, so
    presentations made at proposal time (no id allocated yet) use 0; a
    captured propose-presentation can therefore never be replayed as a
    decision on a real proposal.
    """
    w = ByteWriter().u8(PAYLOAD_PRESENTATION)
    w.text(did).u64(proposal_id).blob(credential)
    return w.getvalue()
