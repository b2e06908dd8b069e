"""Authorization requests and outcomes, and the ledger of burned nonces.

Each authorization kind (ACL, token, VC) is a config class in
:mod:`didgov.model` that authorizes a request itself, without mutating
anything; :func:`authorize` hands a request to the group's config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .crypto import CredentialPresentation
from .errors import GovernanceError
from .metering import CostMeter

if TYPE_CHECKING:
    from .model import AuthzConfig, Did


Nonce = Optional[tuple[bytes, bytes]]  # (issuer key, nonce) a token burns


@dataclass(frozen=True, slots=True)
class AuthzRequest:
    did: Did
    controller_key: bytes
    proposal_id: Optional[int] = None
    credential: Optional[CredentialPresentation] = None


@dataclass(frozen=True, slots=True)
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
    consume_nonce: Nonce = None

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


def deny(error: type[GovernanceError], message: str) -> AuthzOutcome:
    return AuthzOutcome(granted=False, refusal=(error, message))


def authorize(
    config: AuthzConfig, request: AuthzRequest, nonce_ledger: NonceLedger, meter: Optional[CostMeter] = None
) -> AuthzOutcome:
    """Evaluate one request against one group's authorization config."""
    return config.authorize(request, nonce_ledger, meter)
