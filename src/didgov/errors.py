"""Exception hierarchy for the governance engine.

Every error carries a stable machine-readable ``code`` so callers (and the
CLI in particular) can classify failures without matching message strings.
"""

from __future__ import annotations


class GovernanceError(Exception):
    """Base class for all engine errors."""

    code = "governance-error"


# --- encoding / crypto -------------------------------------------------------

class EncodingError(GovernanceError):
    """Input does not encode or decode: an event log, event payload or
    nested document that is malformed or does not fold, or a negative
    integer in a signing payload."""

    code = "encoding-error"


class VerificationError(GovernanceError):
    """Key or signature material has the wrong shape."""

    code = "verification-error"


# --- authorization -----------------------------------------------------------

class MalformedCredential(GovernanceError):
    """Credential missing or of the wrong kind for the group's config."""

    code = "malformed-credential"


class ReplayedNonce(GovernanceError):
    """Bearer token nonce was already consumed."""

    code = "replayed-nonce"


class UntrustedIssuer(GovernanceError):
    """Credential issuer is not in the group's trusted set."""

    code = "untrusted-issuer"


class Unauthorized(GovernanceError):
    """Controller is not authorized for the attempted action."""

    code = "unauthorized"


# --- model validation --------------------------------------------------------

class InvalidGroupConfig(GovernanceError):
    """Governance group violates its structural invariants."""

    code = "invalid-group-config"


class InvalidChangeSet(GovernanceError):
    """Change set is empty or cannot be applied to the document."""

    code = "invalid-change-set"


class UnknownGroup(GovernanceError):
    """Referenced group_id does not exist on the document."""

    code = "unknown-group"


# --- registry ----------------------------------------------------------------

class AlreadyAnchored(GovernanceError):
    """DID is already present in the registry."""

    code = "already-anchored"


class NotAnchored(GovernanceError):
    """DID has not been anchored."""

    code = "not-anchored"


class EditRightViolation(GovernanceError):
    """Change set exceeds the originating group's edit right level."""

    code = "edit-right-violation"


class ActiveProposalPrecedence(GovernanceError):
    """An equal- or higher-privilege proposal is already active."""

    code = "active-proposal-precedence"


class NoActiveProposal(GovernanceError):
    """Decision references a proposal that is not active."""

    code = "no-active-proposal"


class UnknownProposal(GovernanceError):
    """Referenced proposal does not exist or is not active."""

    code = "unknown-proposal"


# --- coordination ------------------------------------------------------------

class DuplicateDecision(GovernanceError):
    """Controller already has a counted decision on this proposal."""

    code = "duplicate-decision"


class TallyFinalized(GovernanceError):
    """Tally is finalized and rejects further decisions."""

    code = "tally-finalized"


class TallyFull(GovernanceError):
    """n-of-m turnout cap reached; no further decisions counted."""

    code = "tally-full"


class AlreadyFinalized(GovernanceError):
    """Resolution was already performed for this tally."""

    code = "already-finalized"


class WrongExecutionMode(GovernanceError):
    """Submission path does not match the group's execution mode."""

    code = "wrong-execution-mode"


class EmptyBatch(GovernanceError):
    """Decision batch contains no decisions."""

    code = "empty-batch"


class DuplicateBatch(GovernanceError):
    """An aggregate batch was already submitted for this proposal."""

    code = "duplicate-batch"


# --- scheduler / metering ----------------------------------------------------

class ClockRegression(GovernanceError):
    """Attempt to move the simulated clock backwards."""

    code = "clock-regression"


class UnknownCategory(GovernanceError):
    """Cost category is not part of the schedule."""

    code = "unknown-category"
