import dataclasses
import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519

from didgov import crypto
from didgov.errors import EncodingError, MalformedCredential, VerificationError
from didgov.model import Did, Verdict
from didgov.registry import build_decision

from .util import pair


def test_keypair_is_deterministic():
    seed = b"\x07" * 32
    assert crypto.generate_keypair(seed) == crypto.generate_keypair(seed)
    assert len(crypto.generate_keypair(seed).public_key) == 32


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(VerificationError):
        crypto.generate_keypair(b"short")


def test_sign_verify_round_trip():
    signer = pair("signer")
    message = b"the message"
    signature = crypto.sign(signer, message)
    assert len(signature) == 64
    assert crypto.verify(signer.public_key, message, signature)
    assert not crypto.verify(signer.public_key, b"another message", signature)
    assert not crypto.verify(pair("other").public_key, message, signature)


def test_signing_is_deterministic():
    signer = pair("signer")
    assert crypto.sign(signer, b"m") == crypto.sign(signer, b"m")


# RFC 8032 section 7.1, TEST 1 and TEST 2: (seed, public key, message, signature).
RFC8032_VECTORS = {
    "test-1": (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    "test-2": (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
}


@pytest.mark.parametrize("name", sorted(RFC8032_VECTORS))
def test_rfc8032_vector(name):
    seed, public_key, message, signature = (bytes.fromhex(h) for h in RFC8032_VECTORS[name])
    signer = crypto.generate_keypair(seed)
    assert signer.public_key == public_key
    assert crypto.sign(signer, message) == signature
    assert crypto.verify(public_key, message, signature)


def test_verify_rejects_malformed_lengths():
    signer = pair("signer")
    signature = crypto.sign(signer, b"m")
    with pytest.raises(VerificationError):
        crypto.verify(signer.public_key[:-1], b"m", signature)
    with pytest.raises(VerificationError):
        crypto.verify(signer.public_key, b"m", signature[:-1])


def test_a_memo_records_each_valid_triple_once_and_no_invalid_one():
    signer = pair("signer")
    signature = crypto.sign(signer, b"m")
    verified: crypto.Verified = set()
    assert not crypto.verify(signer.public_key, b"n", signature, verified)
    assert not crypto.verify(pair("other").public_key, b"m", signature, verified)
    assert verified == set()
    assert crypto.verify(signer.public_key, b"m", signature, verified)
    assert crypto.verify(signer.public_key, b"m", signature, verified)
    assert verified == {hashlib.sha256(signer.public_key + signature + b"m").digest()}
    assert not crypto.verify(signer.public_key, b"n", signature, verified)


def test_a_memo_is_not_read_before_the_lengths_are_checked():
    """Moving a byte between the key, the signature and the message keeps
    their concatenation, so only the length checks tell such a triple from
    one the memo holds."""
    signer = pair("signer")
    key, signature = signer.public_key, crypto.sign(signer, b"m")
    verified: crypto.Verified = set()
    assert crypto.verify(key, b"m", signature, verified)
    with pytest.raises(VerificationError):
        crypto.verify(key[:-1], b"m", key[-1:] + signature, verified)
    with pytest.raises(VerificationError):
        crypto.verify(key, signature[-1:] + b"m", signature[:-1], verified)
    assert len(verified) == 1


def test_secret_key_not_in_repr():
    seed = b"hidden".ljust(32, b"\x00")
    assert seed.hex() not in repr(crypto.generate_keypair(seed))


def test_the_signing_key_is_the_only_secret_held():
    assert [f.name for f in dataclasses.fields(crypto.KeyPair)] == ["public_key", "private"]


def test_each_signing_key_is_derived_once(monkeypatch):
    derive = ed25519.Ed25519PrivateKey.from_private_bytes
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return derive(seed)

    monkeypatch.setattr(ed25519.Ed25519PrivateKey, "from_private_bytes", counting)
    signer = crypto.generate_keypair(b"\x09" * 32)
    assert seeds == [b"\x09" * 32]
    holder = crypto.generate_keypair(b"\x0a" * 32)
    seeds.clear()

    decision = build_decision(signer, Did("abc1"), 1, 1, Verdict.APPROVE)
    token = crypto.issue_token(signer, b"n" * 16)
    vc = crypto.issue_vc(signer, holder.public_key, {"role": "voter"})
    presentation = crypto.present_vc(vc, holder, "abc1", 1)
    assert seeds == []
    assert token.verify_issuer() and vc.verify_issuer() and presentation.verify_holder("abc1", 1)
    assert len(decision.signature) == crypto.SIGNATURE_LEN

    twin = crypto.generate_keypair(b"\x09" * 32)
    assert twin == signer and hash(twin) == hash(signer)
    assert twin.private is not signer.private
    assert repr(signer) == f"KeyPair(public_key={signer.public_key!r})"
    for seed in (b"\x09" * 31, b"\x09" * 33):
        with pytest.raises(VerificationError):
            crypto.generate_keypair(seed)
    assert seeds == [b"\x09" * 32]


class TestBearerToken:
    def test_issue_and_verify(self):
        token = crypto.issue_token(pair("issuer"), b"n" * 16)
        assert token.verify_issuer()

    def test_nonce_length_enforced(self):
        with pytest.raises(VerificationError):
            crypto.issue_token(pair("issuer"), b"too-short")

    def test_tampered_nonce_fails(self):
        token = crypto.issue_token(pair("issuer"), b"n" * 16)
        forged = crypto.BearerToken(
            nonce=b"m" * 16, issuer_key=token.issuer_key, signature=token.signature
        )
        assert not forged.verify_issuer()


class TestVerifiableCredential:
    def test_issue_and_verify(self):
        vc = crypto.issue_vc(pair("issuer"), pair("holder").public_key, {"role": "voter"})
        assert vc.verify_issuer()

    def test_tampered_claim_fails(self):
        vc = crypto.issue_vc(pair("issuer"), pair("holder").public_key, {"role": "voter"})
        forged = crypto.VerifiableCredential(
            issuer_key=vc.issuer_key,
            holder_key=vc.holder_key,
            claims={"role": "admin"},
            issuer_signature=vc.issuer_signature,
        )
        assert not forged.verify_issuer()

    @pytest.mark.parametrize("claims", [[("role", "voter")], None, {"role": 7}, {7: "voter"}])
    def test_claims_that_are_not_a_mapping_of_text_are_malformed(self, claims):
        """One rule, where a credential is made and where it is issued."""
        with pytest.raises(MalformedCredential):
            crypto.issue_vc(pair("issuer"), pair("holder").public_key, claims)
        with pytest.raises(MalformedCredential):
            crypto.VerifiableCredential(pair("issuer").public_key, pair("holder").public_key, claims, b"s" * 64)

    def test_claim_insertion_order_does_not_matter(self):
        issuer, holder = pair("issuer"), pair("holder")
        one = crypto.issue_vc(issuer, holder.public_key, {"a": "1", "b": "2"})
        other = crypto.issue_vc(issuer, holder.public_key, {"b": "2", "a": "1"})
        assert one.issuer_signature == other.issuer_signature


class TestPresentation:
    def test_holder_proof_binds_did_and_proposal(self):
        holder = pair("holder")
        vc = crypto.issue_vc(pair("issuer"), holder.public_key, {})
        presentation = crypto.present_vc(vc, holder, "abc1", 4)
        assert presentation.verify_holder("abc1", 4)
        assert not presentation.verify_holder("abc2", 4)
        assert not presentation.verify_holder("abc1", 5)
        assert not presentation.verify_holder("abc1", 0)

    def test_non_holder_cannot_present(self):
        vc = crypto.issue_vc(pair("issuer"), pair("holder").public_key, {})
        stolen = crypto.present_vc(vc, pair("thief"), "abc1", 4)
        assert not stolen.verify_holder("abc1", 4)


_ISSUER = pair("issuer")
_SIGNATURE = crypto.sign(_ISSUER, b"msg")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: crypto.issue_vc(_ISSUER, "notbytes", {"role": "voter"}), VerificationError),
        (lambda: crypto.present_vc(crypto.issue_vc(_ISSUER, _ISSUER.public_key, {}), _ISSUER, 7, 0), EncodingError),
        (lambda: crypto.issue_token(_ISSUER, "x" * 16), VerificationError),
        (lambda: crypto.generate_keypair("x" * 32), VerificationError),
        (lambda: crypto.sign(_ISSUER, "msg"), VerificationError),
        (lambda: crypto.verify(_ISSUER.public_key, "msg", _SIGNATURE), VerificationError),
    ],
    ids=["issue_vc-holder", "present_vc-did", "issue_token-nonce", "generate_keypair-seed", "sign-message",
         "verify-message"],
)
def test_client_helpers_refuse_arguments_of_the_wrong_type(call, error):
    """Text where bytes are needed is a VerificationError, an int where text
    is needed an EncodingError, never a bare TypeError or AttributeError."""
    with pytest.raises(error):
        call()
