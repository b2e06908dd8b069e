"""Ed25519 signing plus the two credential flavors: bearer tokens and VCs.

Everything here is a pure function over byte strings. Signing is
deterministic (RFC 8032), which keeps scenario logs byte-exact across runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from . import encoding
from .encoding import ByteWriter
from .errors import VerificationError

PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 32
SIGNATURE_LEN = 64
NONCE_LEN = 16

_TAG_VC = 0x11  # leading byte of the credential bytes a presentation signs


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair; the secret key is the 32-byte seed."""

    public_key: bytes
    secret_key: bytes = field(repr=False)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a key pair deterministically from a 32-byte seed."""
    if len(seed) != SECRET_KEY_LEN:
        raise VerificationError(f"seed must be {SECRET_KEY_LEN} bytes, got {len(seed)}")
    private = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(public_key=private.public_key().public_bytes_raw(), secret_key=seed)


def sign(secret_key: bytes, message: bytes) -> bytes:
    if len(secret_key) != SECRET_KEY_LEN:
        raise VerificationError(f"secret key must be {SECRET_KEY_LEN} bytes")
    return ed25519.Ed25519PrivateKey.from_private_bytes(secret_key).sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public_key``.

    Malformed key or signature lengths raise instead of returning False:
    they indicate a caller bug, not a failed check.
    """
    if len(public_key) != PUBLIC_KEY_LEN:
        raise VerificationError(f"public key must be {PUBLIC_KEY_LEN} bytes")
    if len(signature) != SIGNATURE_LEN:
        raise VerificationError(f"signature must be {SIGNATURE_LEN} bytes")
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


@dataclass(frozen=True)
class BearerToken:
    """Opaque bearer credential: a nonce plus an issuer signature over it."""

    nonce: bytes
    issuer_key: bytes
    signature: bytes

    def verify_issuer(self) -> bool:
        return verify(self.issuer_key, encoding.token_payload(self.nonce), self.signature)


@dataclass(frozen=True)
class VerifiableCredential:
    """Issuer-signed claims bound to a holder's public key."""

    issuer_key: bytes
    holder_key: bytes
    claims: Mapping[str, str]
    issuer_signature: bytes

    def verify_issuer(self) -> bool:
        payload = encoding.vc_payload(self.holder_key, self.claims)
        return verify(self.issuer_key, payload, self.issuer_signature)


@dataclass(frozen=True)
class TokenPresentation:
    token: BearerToken


@dataclass(frozen=True)
class VcPresentation:
    """A VC plus the holder's proof-of-possession signature."""

    credential: VerifiableCredential
    holder_signature: bytes

    def verify_holder(self, did: str, proposal_id: int) -> bool:
        payload = encoding.presentation_payload(
            did, proposal_id, encode_credential(self.credential)
        )
        return verify(self.credential.holder_key, payload, self.holder_signature)


CredentialPresentation = TokenPresentation | VcPresentation


def issue_token(issuer: KeyPair, nonce: bytes) -> BearerToken:
    if len(nonce) != NONCE_LEN:
        raise VerificationError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    signature = sign(issuer.secret_key, encoding.token_payload(nonce))
    return BearerToken(nonce=nonce, issuer_key=issuer.public_key, signature=signature)


def issue_vc(issuer: KeyPair, holder_key: bytes, claims: Mapping[str, str]) -> VerifiableCredential:
    payload = encoding.vc_payload(holder_key, claims)
    return VerifiableCredential(
        issuer_key=issuer.public_key,
        holder_key=holder_key,
        claims=dict(claims),
        issuer_signature=sign(issuer.secret_key, payload),
    )


def present_vc(credential: VerifiableCredential, holder: KeyPair, did: str, proposal_id: int) -> VcPresentation:
    """Wrap a VC in a presentation signed by its holder.

    ``proposal_id`` is 0 when presenting to submit a proposal (no id has
    been allocated yet) and the actual id when presenting to decide.
    """
    payload = encoding.presentation_payload(did, proposal_id, encode_credential(credential))
    return VcPresentation(
        credential=credential,
        holder_signature=sign(holder.secret_key, payload),
    )


# --- credential bytes under the holder's presentation signature --------------

def encode_credential(vc: VerifiableCredential) -> bytes:
    w = ByteWriter().u8(_TAG_VC)
    w.blob(vc.issuer_key).blob(vc.holder_key).text_map(vc.claims).blob(vc.issuer_signature)
    return w.getvalue()
