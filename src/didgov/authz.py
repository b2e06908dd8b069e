"""Authorization strategies: static member lists, bearer tokens, and VCs.

``authorize`` never mutates anything. A granted outcome for a bearer token
carries the (issuer, nonce) pair to consume; the registry consumes it only
when the surrounding transaction commits, so a transaction that fails
after authorization cannot burn the token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import crypto
from .crypto import CredentialPresentation, TokenPresentation, VcPresentation
from .errors import (
    GovernanceError,
    MalformedCredential,
    ReplayedNonce,
    Unauthorized,
    UntrustedIssuer,
)
from .metering import CostMeter, charge
from .model import AclConfig, AuthzConfig, Did, TokenConfig, VcConfig

# Reserved claim key carrying the vote weight for VC-authorized groups.
WEIGHT_CLAIM = "weight"


@dataclass(frozen=True)
class AuthzRequest:
    did: Did
    controller_key: bytes
    proposal_id: Optional[int] = None
    credential: Optional[CredentialPresentation] = None

    def presentation_context(self) -> int:
        # Propose-time presentations bind id 0: no proposal exists yet and
        # real ids start at 1, so the two contexts can never collide.
        return self.proposal_id if self.proposal_id is not None else 0


@dataclass(frozen=True)
class AuthzOutcome:
    """Result of one authorization check.

    A refused outcome records what to raise, ``refusal``: the error class
    and its message. ``denial`` builds a new, un-raised error from it on
    each read; callers that need to fail ``raise outcome.denial``, callers
    that skip and report (batch submission) read its ``code``. The outcome
    never holds the exception a caller raises, so a frame that keeps the
    outcome forms no cycle with that exception's traceback.
    """

    granted: bool
    effective_weight: int = 1
    refusal: Optional[tuple[type[GovernanceError], str]] = None
    consume_nonce: Optional[tuple[bytes, bytes]] = None

    @property
    def denial(self) -> Optional[GovernanceError]:
        if self.refusal is None:
            return None
        error, message = self.refusal
        return error(message)


class NonceLedger:
    """Consumed (issuer, nonce) pairs; a consumed pair is dead forever."""

    def __init__(self) -> None:
        self._consumed: set[tuple[bytes, bytes]] = set()

    def is_consumed(self, issuer_key: bytes, nonce: bytes) -> bool:
        return (issuer_key, nonce) in self._consumed

    def consume(self, issuer_key: bytes, nonce: bytes) -> None:
        self._consumed.add((issuer_key, nonce))

    def pairs(self) -> frozenset[tuple[bytes, bytes]]:
        return frozenset(self._consumed)

    def __len__(self) -> int:
        return len(self._consumed)


def _deny(error: type[GovernanceError], message: str) -> AuthzOutcome:
    return AuthzOutcome(granted=False, refusal=(error, message))


def _issuer_trusted(issuers: tuple[bytes, ...], issuer_key: bytes, meter: Optional[CostMeter]) -> bool:
    # Metered linear scan, same as the ACL path; with the usual handful of
    # issuers this stays flat while ACL membership grows with the group.
    for examined, trusted in enumerate(issuers, start=1):
        if trusted == issuer_key:
            charge(meter, "iteration_step", examined)
            return True
    charge(meter, "iteration_step", len(issuers))
    return False


def _authorize_acl(config: AclConfig, request: AuthzRequest, meter: Optional[CostMeter]) -> AuthzOutcome:
    if request.credential is not None:
        return _deny(MalformedCredential, "acl group takes no credential")
    # Charged as the on-chain linear scan it models; computed by lookup.
    index = config.index.get(request.controller_key)
    if index is None:
        charge(meter, "iteration_step", len(config.members))
        return _deny(Unauthorized, "controller is not an acl member")
    charge(meter, "iteration_step", index + 1)
    weight = config.weights[index] if config.weights is not None else 1
    return AuthzOutcome(granted=True, effective_weight=weight)


def _authorize_token(
    config: TokenConfig,
    request: AuthzRequest,
    nonce_ledger: NonceLedger,
    meter: Optional[CostMeter],
) -> AuthzOutcome:
    if not isinstance(request.credential, TokenPresentation):
        return _deny(MalformedCredential, "token group requires a bearer token")
    token = request.credential.token
    if not _issuer_trusted(config.trusted_issuers, token.issuer_key, meter):
        return _deny(UntrustedIssuer, "token issuer is not trusted")
    charge(meter, "sig_verify", 1)
    if not token.verify_issuer():
        return _deny(Unauthorized, "token issuer signature invalid")
    if nonce_ledger.is_consumed(token.issuer_key, token.nonce):
        return _deny(ReplayedNonce, "token nonce already consumed")
    return AuthzOutcome(granted=True, consume_nonce=(token.issuer_key, token.nonce))


def _authorize_vc(
    config: VcConfig,
    request: AuthzRequest,
    meter: Optional[CostMeter],
) -> AuthzOutcome:
    if not isinstance(request.credential, VcPresentation):
        return _deny(MalformedCredential, "vc group requires a credential presentation")
    vc = request.credential.credential
    if not _issuer_trusted(config.trusted_issuers, vc.issuer_key, meter):
        return _deny(UntrustedIssuer, "credential issuer is not trusted")
    charge(meter, "sig_verify", 1)
    if not vc.verify_issuer():
        return _deny(Unauthorized, "credential issuer signature invalid")
    # The holder proof is the extra signature check credential flows pay
    # over bearer tokens.
    charge(meter, "sig_verify", 1)
    if not request.credential.verify_holder(request.did, request.presentation_context()):
        return _deny(Unauthorized, "holder proof-of-possession invalid")
    if vc.holder_key != request.controller_key:
        return _deny(Unauthorized, "credential bound to a different holder")
    for key, value in config.required_claims.items():
        charge(meter, "iteration_step", 1)
        if vc.claims.get(key) != value:
            return _deny(Unauthorized, f"claim {key!r} missing or not an exact match")
    return AuthzOutcome(granted=True, effective_weight=_weight_from_claims(vc.claims))


def _weight_from_claims(claims) -> int:
    raw = claims.get(WEIGHT_CLAIM)
    if raw is None:
        return 1
    try:
        weight = int(raw)
    except ValueError:
        return 1
    return weight if weight >= 1 else 1


def authorize(
    config: AuthzConfig,
    request: AuthzRequest,
    nonce_ledger: NonceLedger,
    meter: Optional[CostMeter] = None,
) -> AuthzOutcome:
    """Evaluate one request against one group's authorization config."""
    if isinstance(config, AclConfig):
        return _authorize_acl(config, request, meter)
    if isinstance(config, TokenConfig):
        return _authorize_token(config, request, nonce_ledger, meter)
    return _authorize_vc(config, request, meter)
