import pytest

from didgov import crypto
from didgov.errors import VerificationError

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
    signature = crypto.sign(signer.secret_key, message)
    assert len(signature) == 64
    assert crypto.verify(signer.public_key, message, signature)
    assert not crypto.verify(signer.public_key, b"another message", signature)
    assert not crypto.verify(pair("other").public_key, message, signature)


def test_signing_is_deterministic():
    signer = pair("signer")
    assert crypto.sign(signer.secret_key, b"m") == crypto.sign(signer.secret_key, b"m")


def test_verify_rejects_malformed_lengths():
    signer = pair("signer")
    signature = crypto.sign(signer.secret_key, b"m")
    with pytest.raises(VerificationError):
        crypto.verify(signer.public_key[:-1], b"m", signature)
    with pytest.raises(VerificationError):
        crypto.verify(signer.public_key, b"m", signature[:-1])


def test_secret_key_not_in_repr():
    keypair = pair("hidden")
    assert keypair.secret_key.hex() not in repr(keypair)


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


def test_json_round_trips():
    issuer, holder = pair("issuer"), pair("holder")
    token = crypto.issue_token(issuer, b"n" * 16)
    assert crypto.token_from_json(crypto.token_to_json(token)) == token
    vc = crypto.issue_vc(issuer, holder.public_key, {"role": "voter"})
    assert crypto.vc_from_json(crypto.vc_to_json(vc)) == vc
    for presentation in (
        crypto.TokenPresentation(token=token),
        crypto.present_vc(vc, holder, "ab", 2),
    ):
        round_tripped = crypto.presentation_from_json(crypto.presentation_to_json(presentation))
        assert round_tripped == presentation
