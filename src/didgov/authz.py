"""Authorization requests and outcomes.

Each authorization kind (ACL, token, VC) is a config class in
:mod:`didgov.model` that authorizes a request itself, without mutating
anything; :func:`authorize` hands a request to the group's config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

from .crypto import CredentialPresentation, Verified
from .errors import GovernanceError
from .metering import CostMeter

if TYPE_CHECKING:
    from .model import AuthzConfig, Did


Nonce = Optional[tuple[bytes, bytes]]  # (issuer key, nonce) a token burns
NonceLedger = set[tuple[bytes, bytes]]  # the burned pairs; a burned pair is dead forever


@dataclass(frozen=True, slots=True)
class AuthzRequest:
    did: Did
    controller_key: bytes
    proposal_id: Optional[int] = None
    credential: Optional[CredentialPresentation] = None


class AuthzOutcome(NamedTuple):
    """Result of one authorization check: an immutable record, a named
    tuple because every vote and proposal builds one.

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
    consume_nonce: Nonce = None

    @property
    def denial(self) -> Optional[GovernanceError]:
        if self.refusal is None:
            return None
        error, message = self.refusal
        return error(message)


def deny(error: type[GovernanceError], message: str) -> AuthzOutcome:
    return AuthzOutcome(granted=False, refusal=(error, message))


def authorize(
    config: AuthzConfig,
    request: AuthzRequest,
    nonce_ledger: NonceLedger,
    meter: Optional[CostMeter] = None,
    verified: Optional[Verified] = None,
) -> AuthzOutcome:
    """Evaluate one request against one group's authorization config;
    ``verified``, if given, is the registry's set of signature triples
    found valid (see :func:`didgov.crypto.verify`)."""
    return config.authorize(request, nonce_ledger, meter, verified)
