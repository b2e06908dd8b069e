import pytest

from didgov import crypto
from didgov.authz import (
    AuthzAction,
    AuthzRequest,
    NonceLedger,
    authorize,
)
from didgov.errors import (
    MalformedCredential,
    ReplayedNonce,
    Unauthorized,
    UntrustedIssuer,
)
from didgov.metering import CostMeter
from didgov.model import AclConfig, Did, TokenConfig, VcConfig

from .util import pair

DID = Did("abc123")


def _request(controller, credential=None, proposal_id=None):
    return AuthzRequest(
        did=DID,
        controller_key=controller.public_key,
        action=AuthzAction.DECIDE if proposal_id is not None else AuthzAction.PROPOSE,
        proposal_id=proposal_id,
        credential=credential,
    )


class TestAcl:
    config = AclConfig(members=(pair("a").public_key, pair("b").public_key, pair("c").public_key))

    def test_member_granted(self):
        outcome = authorize(self.config, _request(pair("b")), NonceLedger())
        assert outcome.granted and outcome.effective_weight == 1

    def test_non_member_denied(self):
        outcome = authorize(self.config, _request(pair("z")), NonceLedger())
        assert not outcome.granted
        assert isinstance(outcome.denial, Unauthorized)

    def test_credential_on_acl_group_is_malformed(self):
        token = crypto.issue_token(pair("issuer"), b"n" * 16)
        outcome = authorize(
            self.config, _request(pair("a"), crypto.TokenPresentation(token=token)), NonceLedger()
        )
        assert isinstance(outcome.denial, MalformedCredential)

    def test_weighted_member_weight(self):
        config = AclConfig(members=self.config.members, weights=(5, 2, 1))
        outcome = authorize(config, _request(pair("b")), NonceLedger())
        assert outcome.effective_weight == 2

    def test_scan_cost_grows_with_position(self):
        # membership check is a linear scan: later members cost more
        costs = []
        for member in (pair("a"), pair("b"), pair("c")):
            meter = CostMeter()
            authorize(self.config, _request(member), NonceLedger(), meter)
            costs.append(meter.total)
        assert costs[0] < costs[1] < costs[2]
        miss = CostMeter()
        authorize(self.config, _request(pair("z")), NonceLedger(), miss)
        assert miss.total == costs[2]  # a miss scans the full list


class TestToken:
    issuer = pair("issuer")
    config = TokenConfig(trusted_issuers=(pair("issuer").public_key,))

    def _presentation(self, nonce=b"n" * 16, issuer=None):
        return crypto.TokenPresentation(token=crypto.issue_token(issuer or self.issuer, nonce))

    def test_valid_token_granted_and_nonce_deferred(self):
        ledger = NonceLedger()
        outcome = authorize(self.config, _request(pair("x"), self._presentation()), ledger)
        assert outcome.granted
        assert outcome.consume_nonce == (self.issuer.public_key, b"n" * 16)
        # authorize must not burn the nonce itself
        assert len(ledger) == 0
        ledger.consume(*outcome.consume_nonce)  # what the registry does on commit
        assert ledger.is_consumed(self.issuer.public_key, b"n" * 16)

    def test_missing_credential_malformed(self):
        outcome = authorize(self.config, _request(pair("x")), NonceLedger())
        assert isinstance(outcome.denial, MalformedCredential)

    def test_untrusted_issuer(self):
        outcome = authorize(
            self.config, _request(pair("x"), self._presentation(issuer=pair("rogue"))), NonceLedger()
        )
        assert isinstance(outcome.denial, UntrustedIssuer)

    def test_forged_signature(self):
        token = crypto.issue_token(self.issuer, b"n" * 16)
        forged = crypto.BearerToken(
            nonce=b"m" * 16, issuer_key=token.issuer_key, signature=token.signature
        )
        outcome = authorize(
            self.config, _request(pair("x"), crypto.TokenPresentation(token=forged)), NonceLedger()
        )
        assert isinstance(outcome.denial, Unauthorized)

    def test_consumed_nonce_rejected(self):
        ledger = NonceLedger()
        ledger.consume(self.issuer.public_key, b"n" * 16)
        outcome = authorize(self.config, _request(pair("x"), self._presentation()), ledger)
        assert isinstance(outcome.denial, ReplayedNonce)

    def test_denied_authorize_is_idempotent(self):
        # a denial changes nothing, so retrying gives the same answer
        ledger = NonceLedger()
        for _ in range(2):
            outcome = authorize(
                self.config, _request(pair("x"), self._presentation(issuer=pair("rogue"))), ledger
            )
            assert isinstance(outcome.denial, UntrustedIssuer)
        assert len(ledger) == 0


class TestVc:
    issuer = pair("issuer")
    holder = pair("holder")
    config = VcConfig(
        trusted_issuers=(pair("issuer").public_key,), required_claims={"role": "voter"}
    )

    def _presentation(self, claims=None, holder=None, proposal_id=3, did=DID):
        claims = claims if claims is not None else {"role": "voter"}
        vc = crypto.issue_vc(self.issuer, self.holder.public_key, claims)
        return crypto.present_vc(vc, holder or self.holder, str(did), proposal_id)

    def test_valid_presentation_granted(self):
        outcome = authorize(
            self.config, _request(self.holder, self._presentation(), proposal_id=3), NonceLedger()
        )
        assert outcome.granted
        assert outcome.consume_nonce is None  # re-presentable, nothing to burn

    def test_weight_claim_sets_effective_weight(self):
        presentation = self._presentation(claims={"role": "voter", "weight": "4"})
        outcome = authorize(
            self.config, _request(self.holder, presentation, proposal_id=3), NonceLedger()
        )
        assert outcome.effective_weight == 4

    def test_malformed_weight_claim_defaults_to_one(self):
        for raw in ("zero", "-2", "0"):
            presentation = self._presentation(claims={"role": "voter", "weight": raw})
            outcome = authorize(
                self.config, _request(self.holder, presentation, proposal_id=3), NonceLedger()
            )
            assert outcome.effective_weight == 1

    def test_wrong_context_denied(self):
        # presentation bound to proposal 3 cannot authorize a decision on 4
        outcome = authorize(
            self.config,
            _request(self.holder, self._presentation(proposal_id=3), proposal_id=4),
            NonceLedger(),
        )
        assert isinstance(outcome.denial, Unauthorized)

    def test_propose_context_is_id_zero(self):
        outcome = authorize(
            self.config, _request(self.holder, self._presentation(proposal_id=0)), NonceLedger()
        )
        assert outcome.granted

    def test_missing_required_claim_denied(self):
        outcome = authorize(
            self.config, _request(self.holder, self._presentation(claims={}), proposal_id=3), NonceLedger()
        )
        assert isinstance(outcome.denial, Unauthorized)

    def test_claim_value_must_match_exactly(self):
        presentation = self._presentation(claims={"role": "Voter"})
        outcome = authorize(
            self.config, _request(self.holder, presentation, proposal_id=3), NonceLedger()
        )
        assert isinstance(outcome.denial, Unauthorized)

    def test_extra_claims_allowed(self):
        presentation = self._presentation(claims={"role": "voter", "dept": "eng"})
        outcome = authorize(
            self.config, _request(self.holder, presentation, proposal_id=3), NonceLedger()
        )
        assert outcome.granted

    def test_holder_must_match_controller(self):
        outcome = authorize(
            self.config, _request(pair("other"), self._presentation(), proposal_id=3), NonceLedger()
        )
        assert isinstance(outcome.denial, Unauthorized)

    def test_untrusted_issuer_denied(self):
        vc = crypto.issue_vc(pair("rogue"), self.holder.public_key, {"role": "voter"})
        presentation = crypto.present_vc(vc, self.holder, str(DID), 3)
        outcome = authorize(
            self.config, _request(self.holder, presentation, proposal_id=3), NonceLedger()
        )
        assert isinstance(outcome.denial, UntrustedIssuer)

    def test_token_on_vc_group_malformed(self):
        token = crypto.issue_token(self.issuer, b"n" * 16)
        outcome = authorize(
            self.config,
            _request(self.holder, crypto.TokenPresentation(token=token), proposal_id=3),
            NonceLedger(),
        )
        assert isinstance(outcome.denial, MalformedCredential)

    def test_vc_costs_one_more_signature_check_than_token(self):
        vc_meter = CostMeter()
        authorize(
            self.config, _request(self.holder, self._presentation(), proposal_id=3), NonceLedger(), vc_meter
        )
        token_meter = CostMeter()
        token_config = TokenConfig(trusted_issuers=(self.issuer.public_key,))
        presentation = crypto.TokenPresentation(token=crypto.issue_token(self.issuer, b"n" * 16))
        authorize(token_config, _request(pair("x"), presentation, proposal_id=3), NonceLedger(), token_meter)
        assert vc_meter.report("vc").count("sig_verify") == 2
        assert token_meter.report("token").count("sig_verify") == 1


def test_authorize_never_mutates_ledger():
    issuer = pair("issuer")
    config = TokenConfig(trusted_issuers=(issuer.public_key,))
    ledger = NonceLedger()
    presentation = crypto.TokenPresentation(token=crypto.issue_token(issuer, b"n" * 16))
    for _ in range(3):
        outcome = authorize(config, _request(pair("x"), presentation), ledger)
        assert outcome.granted  # grant repeats until someone commits it
    assert len(ledger) == 0
