"""Ed25519 signing plus the two credential flavors: bearer tokens and VCs.

Everything here is a pure function over byte strings and key pairs. Signing is
deterministic (RFC 8032), which keeps scenario logs byte-exact across runs.
Verification is a pure function of (key, message, signature) too, so a
caller may pass :func:`verify` a set of the triples it already found valid
(a :data:`Verified`); the registry keeps one for its lifetime.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric import ed25519

from . import encoding
from .errors import EncodingError, MalformedCredential, VerificationError

PUBLIC_KEY_LEN = 32
SECRET_KEY_LEN = 32
SIGNATURE_LEN = 64
NONCE_LEN = 16

# SHA-256 digests of ``public_key + signature + message``, one per triple
# found valid: the key and signature have fixed lengths, checked before a
# digest is taken, so the concatenation spells each triple one way only.
Verified = set[bytes]


@dataclass(frozen=True)
class KeyPair:
    """An Ed25519 key pair. ``private`` is the signing key derived from the
    32-byte seed once, when the pair is made, and the pair's only secret;
    equality, hashing and repr rest on ``public_key`` alone."""

    public_key: bytes
    private: ed25519.Ed25519PrivateKey = field(repr=False, compare=False)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a key pair deterministically from a 32-byte seed."""
    _require_bytes("key pair", seed=seed)
    if len(seed) != SECRET_KEY_LEN:
        raise VerificationError(f"seed must be {SECRET_KEY_LEN} bytes, got {len(seed)}")
    private = ed25519.Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(public_key=private.public_key().public_bytes_raw(), private=private)


def sign(signer: KeyPair, message: bytes) -> bytes:
    if not isinstance(signer, KeyPair):
        raise VerificationError(f"a signer is a key pair, not {type(signer).__name__}")
    _require_bytes("signature", message=message)
    return signer.private.sign(message)


def verify(
    public_key: bytes, message: bytes, signature: bytes, verified: Optional[Verified] = None
) -> bool:
    """True iff ``signature`` is valid for ``message`` under ``public_key``.

    An argument that is not a byte string, or a malformed key or signature
    length, raises instead of returning False: it indicates a caller bug,
    not a failed check. With ``verified``, a
    triple found valid before is valid without running Ed25519 again, and a
    triple found valid now is added; an invalid one is never recorded.
    """
    _require_bytes("signature check", public_key=public_key, message=message, signature=signature)
    if len(public_key) != PUBLIC_KEY_LEN:
        raise VerificationError(f"public key must be {PUBLIC_KEY_LEN} bytes")
    if len(signature) != SIGNATURE_LEN:
        raise VerificationError(f"signature must be {SIGNATURE_LEN} bytes")
    if verified is not None:
        digest = sha256(public_key + signature + message).digest()
        if digest in verified:
            return True
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    if verified is not None:
        verified.add(digest)
    return True


def _require_bytes(owner: str, **fields) -> None:
    for name, value in fields.items():
        if not isinstance(value, bytes):
            raise VerificationError(f"a {owner}'s {name} must be a byte string, not {type(value).__name__}")


@dataclass(frozen=True)
class BearerToken:
    """Opaque bearer credential: a nonce plus an issuer signature over it."""

    nonce: bytes
    issuer_key: bytes
    signature: bytes

    def __post_init__(self) -> None:
        _require_bytes("token", nonce=self.nonce, issuer_key=self.issuer_key, signature=self.signature)

    def verify_issuer(self, verified: Optional[Verified] = None) -> bool:
        return verify(self.issuer_key, encoding.token_payload(self.nonce), self.signature, verified)


@dataclass(frozen=True)
class VerifiableCredential:
    """Issuer-signed claims bound to a holder's public key."""

    issuer_key: bytes
    holder_key: bytes
    claims: Mapping[str, str]
    issuer_signature: bytes

    def __post_init__(self) -> None:
        _require_bytes(
            "credential",
            issuer_key=self.issuer_key,
            holder_key=self.holder_key,
            issuer_signature=self.issuer_signature,
        )
        encoding.claim_pairs(self.claims)

    def verify_issuer(self, verified: Optional[Verified] = None) -> bool:
        payload = encoding.vc_payload(self.holder_key, self.claims)
        return verify(self.issuer_key, payload, self.issuer_signature, verified)


@dataclass(frozen=True)
class TokenPresentation:
    token: BearerToken

    def __post_init__(self) -> None:
        if not isinstance(self.token, BearerToken):
            kind = type(self.token).__name__
            raise MalformedCredential(f"a token presentation holds a bearer token, not {kind}")


@dataclass(frozen=True)
class VcPresentation:
    """A VC plus the holder's proof-of-possession signature."""

    credential: VerifiableCredential
    holder_signature: bytes

    def __post_init__(self) -> None:
        _require_credential(self.credential)
        _require_bytes("presentation", holder_signature=self.holder_signature)

    def verify_holder(self, did: str, proposal_id: int, verified: Optional[Verified] = None) -> bool:
        payload = _presentation_payload(self.credential, did, proposal_id)
        return verify(self.credential.holder_key, payload, self.holder_signature, verified)


CredentialPresentation = TokenPresentation | VcPresentation


def _require_credential(credential) -> None:
    if not isinstance(credential, VerifiableCredential):
        raise MalformedCredential(f"a vc presentation holds a verifiable credential, not {type(credential).__name__}")


def issue_token(issuer: KeyPair, nonce: bytes) -> BearerToken:
    _require_bytes("token", nonce=nonce)
    if len(nonce) != NONCE_LEN:
        raise VerificationError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    signature = sign(issuer, encoding.token_payload(nonce))
    return BearerToken(nonce=nonce, issuer_key=issuer.public_key, signature=signature)


def issue_vc(issuer: KeyPair, holder_key: bytes, claims: Mapping[str, str]) -> VerifiableCredential:
    _require_bytes("credential", holder_key=holder_key)
    signature = sign(issuer, encoding.vc_payload(holder_key, claims))
    return VerifiableCredential(
        issuer_key=issuer.public_key,
        holder_key=holder_key,
        claims=dict(claims),
        issuer_signature=signature,
    )


def present_vc(credential: VerifiableCredential, holder: KeyPair, did: str, proposal_id: int) -> VcPresentation:
    """Wrap a VC in a presentation signed by its holder.

    ``proposal_id`` is 0 when presenting to submit a proposal (no id has
    been allocated yet) and the actual id when presenting to decide.
    """
    _require_credential(credential)
    if not isinstance(did, str) or not isinstance(proposal_id, int):
        raise EncodingError(f"a presentation names a text did and an integer id, not {did!r}, {proposal_id!r}")
    payload = _presentation_payload(credential, did, proposal_id)
    return VcPresentation(
        credential=credential,
        holder_signature=sign(holder, payload),
    )


def _presentation_payload(vc: VerifiableCredential, did: str, proposal_id: int) -> bytes:
    """What the holder of ``vc`` signs to present it on (did, proposal_id)."""
    credential = encoding.credential_bytes(vc.issuer_key, vc.holder_key, vc.claims, vc.issuer_signature)
    return encoding.presentation_payload(did, proposal_id, credential)
