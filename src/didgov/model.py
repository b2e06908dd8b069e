"""Domain types shared by every module: identifiers, documents, governance
groups and their kinds, change sets, proposals, decisions, and audit events.

All types are value records. The registry owns the only mutable state
(proposal status/deadline are set as the lifecycle advances); everything
else is frozen. Every persisted type has a JSON projection (byte strings
as lowercase hex, ratios as "n/d"), the one persistence format; decisions
are never persisted. The only byte-level encoding is the signing payloads
in :mod:`didgov.encoding`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .authz import AuthzOutcome, AuthzRequest, Nonce, NonceLedger, deny
from .crypto import CredentialPresentation, TokenPresentation, VcPresentation
from .errors import (
    EncodingError, GovernanceError, InvalidChangeSet, InvalidGroupConfig, MalformedCredential,
    ReplayedNonce, Unauthorized, UnknownGroup, UntrustedIssuer,
)
from .metering import CostMeter, charge

if TYPE_CHECKING:
    from .coord import Tally

_HEX_DIGITS = frozenset("0123456789abcdef")


class Did(str):
    """Registry identifier: non-empty lowercase hex (a controller key, by
    convention, though any hex string is accepted)."""

    def __new__(cls, value: str) -> "Did":
        if type(value) is Did:
            return value  # checked when it was made
        if not value or not set(value) <= _HEX_DIGITS:
            raise EncodingError(f"did must be non-empty lowercase hex, got {value!r}")
        return super().__new__(cls, value)


class EditRightLevel(IntEnum):
    """Privilege tiers; comparison follows the integer order."""

    DOCUMENT = 1
    SELF_GOVERNANCE = 2
    DELEGATES_CREATION = 3
    ALL = 4

    def json_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_json_name(cls, name: str) -> "EditRightLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise EncodingError(f"unknown edit right level {name!r}") from None


class AuthzKind(str, Enum):
    ACL = "acl"
    TOKEN = "token"
    VC = "vc"


class CoordKind(str, Enum):
    NOFM = "nofm"
    TURNOUT_SENSITIVE = "turnout_sensitive"
    WEIGHTED = "weighted"


class ExecutionMode(str, Enum):
    ON_CHAIN = "onchain"
    OFF_CHAIN = "offchain"


class Verdict(str, Enum):
    APPROVE = "approve"
    REJECT = "reject"


class ProposalStatus(str, Enum):
    ACTIVE = "active"
    APPROVED = "approved"
    REJECTED = "rejected"
    OVERRIDDEN = "overridden"
    EXPIRED = "expired"


class EventKind(str, Enum):
    ANCHORED = "anchored"
    PROPOSAL_SUBMITTED = "proposal_submitted"
    PROPOSAL_OVERRIDDEN = "proposal_overridden"
    DECISION_ACCEPTED = "decision_accepted"
    SCHEDULED = "scheduled"
    RESOLVED = "resolved"
    CLOCK_ADVANCED = "clock_advanced"


_BY_VALUE = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (AuthzKind, CoordKind, ExecutionMode, Verdict, ProposalStatus, EventKind)
}


def enum_from_value(enum_cls, value):
    """The member of ``enum_cls`` whose value is ``value``, found by value
    (a dict lookup, not ``EnumMeta.__call__``); any other value, unhashable
    ones included, raises ``EncodingError``."""
    try:
        return _BY_VALUE[enum_cls][value]
    except (KeyError, TypeError):
        raise EncodingError(f"unknown {enum_cls.__name__} value {value!r}") from None


def _require_int(value, what: str, error: type[GovernanceError]) -> None:
    """Refuse ``value`` unless it is an integer, as JSON writes one: an
    ``int`` that is not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, not {value!r}")


def text_map(value, what: str) -> dict[str, str]:
    """``value`` as a new dict that must map str to str, as document
    attributes, change-set attributes and VC claims do. ``value`` must be a
    mapping (a JSON object), not pairs that ``dict`` would also take."""
    if not isinstance(value, Mapping):
        raise EncodingError(f"{what} must be an object, not {type(value).__name__}")
    mapping = dict(value)
    for key, item in mapping.items():
        if not isinstance(key, str) or not isinstance(item, str):
            raise EncodingError(f"{what} must map text to text, not {key!r}: {item!r}")
    return mapping


# --- governance kinds --------------------------------------------------------
# Each config class is the one definition of its kind: ``kind``, the JSON
# codec and the behaviour the engine calls instead of branching on a kind.

# Reserved claim key carrying the vote weight for VC-authorized groups.
WEIGHT_CLAIM = "weight"


def _keys_from_hex(data, what: str) -> tuple[bytes, ...]:
    """The keys of a JSON array of hex strings."""
    if type(data) is not list:
        raise EncodingError(f"{what} must be an array, not {type(data).__name__}")
    return tuple(bytes.fromhex(key) for key in data)


def _issuer_trusted(issuers: tuple[bytes, ...], issuer_key: bytes, meter: Optional[CostMeter]) -> bool:
    # Metered linear scan, same as the ACL path; with the usual handful of
    # issuers this stays flat while ACL membership grows with the group.
    for examined, trusted in enumerate(issuers, start=1):
        if trusted == issuer_key:
            charge(meter, "iteration_step", examined)
            return True
    charge(meter, "iteration_step", len(issuers))
    return False


class _Authorization:
    """Shared by the authorization kinds, each of which has ``storage_slots``
    (written on anchoring) and ``authorize``. Replay checks what a log shows
    of an authorization; by default it carries no nonce and weight 1."""

    def check_logged_nonce(self, nonce: Nonce, ledger: NonceLedger, what: str) -> None:
        """A logged ``what`` (decision or proposal) carries the nonce this kind burns."""
        if nonce is not None:
            raise Unauthorized(f"only token {what}s carry a nonce")

    def check_logged_weight(self, controller: bytes, weight: int) -> None:
        """A logged decision by ``controller`` has the weight this kind gives it."""
        if weight != 1:
            raise Unauthorized(f"logged weight {weight}, authorization gives 1")


@dataclass(frozen=True)
class AclConfig(_Authorization):
    """A static member list with optional parallel per-member weights: a
    member is authorized at its weight (1 when unweighted), charged as the
    on-chain linear scan that finds it."""

    kind = AuthzKind.ACL
    members: tuple[bytes, ...]
    weights: Optional[tuple[int, ...]] = None
    # member -> position in ``members``, built once so a lookup does not scan
    index: Mapping[bytes, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise InvalidGroupConfig("acl members must be non-empty")
        index = {member: position for position, member in enumerate(self.members)}
        if len(index) != len(self.members):
            raise InvalidGroupConfig("acl members must be unique")
        object.__setattr__(self, "index", index)
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            for weight in self.weights:
                _require_int(weight, "an acl weight", InvalidGroupConfig)
            if len(self.weights) != len(self.members):
                raise InvalidGroupConfig("acl weights must parallel members")
            if any(w < 1 for w in self.weights):
                raise InvalidGroupConfig("acl weights must be positive")

    def to_json(self) -> dict:
        weights = list(self.weights) if self.weights is not None else None
        return {"members": [m.hex() for m in self.members], "weights": weights}

    @classmethod
    def from_json(cls, data: Mapping) -> "AclConfig":
        weights = data.get("weights")
        members = _keys_from_hex(data["members"], "acl members")
        return cls(members=members, weights=None if weights is None else tuple(weights))

    @property
    def storage_slots(self) -> int:
        return len(self.members) + (len(self.weights) if self.weights is not None else 0)

    def _weight_at(self, index: int) -> int:
        return self.weights[index] if self.weights is not None else 1

    def authorize(self, request: AuthzRequest, ledger: NonceLedger, meter: Optional[CostMeter]) -> AuthzOutcome:
        if request.credential is not None:
            return deny(MalformedCredential, "acl group takes no credential")
        # Charged as the on-chain linear scan it models; computed by lookup.
        index = self.index.get(request.controller_key)
        if index is None:
            charge(meter, "iteration_step", len(self.members))
            return deny(Unauthorized, "controller is not an acl member")
        charge(meter, "iteration_step", index + 1)
        return AuthzOutcome(granted=True, effective_weight=self._weight_at(index))

    def check_logged_weight(self, controller: bytes, weight: int) -> None:
        index = self.index.get(controller)
        if index is None:
            raise Unauthorized("controller is not an acl member")
        if weight != self._weight_at(index):
            raise Unauthorized(f"logged weight {weight}, authorization gives {self._weight_at(index)}")


@dataclass(frozen=True)
class TokenConfig(_Authorization):
    """Bearer tokens from trusted issuers, each authorizing at weight 1. A
    granted token's (issuer, nonce) pair is burned when its transaction
    commits, so a transaction that fails after authorization cannot burn it."""

    kind = AuthzKind.TOKEN
    trusted_issuers: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_issuers", tuple(self.trusted_issuers))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("token trusted_issuers must be non-empty")

    def to_json(self) -> dict:
        return {"trusted_issuers": [k.hex() for k in self.trusted_issuers]}

    @classmethod
    def from_json(cls, data: Mapping) -> "TokenConfig":
        return cls(trusted_issuers=_keys_from_hex(data["trusted_issuers"], "token trusted_issuers"))

    @property
    def storage_slots(self) -> int:
        return len(self.trusted_issuers)

    def authorize(self, request: AuthzRequest, ledger: NonceLedger, meter: Optional[CostMeter]) -> AuthzOutcome:
        if not isinstance(request.credential, TokenPresentation):
            return deny(MalformedCredential, "token group requires a bearer token")
        token = request.credential.token
        if not _issuer_trusted(self.trusted_issuers, token.issuer_key, meter):
            return deny(UntrustedIssuer, "token issuer is not trusted")
        charge(meter, "sig_verify", 1)
        if not token.verify_issuer():
            return deny(Unauthorized, "token issuer signature invalid")
        if ledger.is_consumed(token.issuer_key, token.nonce):
            return deny(ReplayedNonce, "token nonce already consumed")
        return AuthzOutcome(granted=True, consume_nonce=(token.issuer_key, token.nonce))

    def check_logged_nonce(self, nonce: Nonce, ledger: NonceLedger, what: str) -> None:
        if nonce is None:
            raise Unauthorized(f"token {what} carries no nonce")
        if nonce[0] not in self.trusted_issuers:
            raise UntrustedIssuer("nonce issuer is not trusted")
        if ledger.is_consumed(*nonce):
            raise ReplayedNonce("nonce already consumed")


@dataclass(frozen=True)
class VcConfig(_Authorization):
    """Verifiable credentials from trusted issuers, presented by their
    holder, carrying every required claim exactly. A credential authorizes
    at the weight its ``weight`` claim gives (1 when absent or not a
    positive integer in ASCII decimal digits). The credential is not
    logged, so replay can check only that a logged weight is at least 1."""

    kind = AuthzKind.VC
    trusted_issuers: tuple[bytes, ...]
    required_claims: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_issuers", tuple(self.trusted_issuers))
        object.__setattr__(self, "required_claims", text_map(self.required_claims, "required_claims"))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("vc trusted_issuers must be non-empty")

    def to_json(self) -> dict:
        return {
            "trusted_issuers": [k.hex() for k in self.trusted_issuers],
            "required_claims": dict(self.required_claims),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "VcConfig":
        issuers = _keys_from_hex(data["trusted_issuers"], "vc trusted_issuers")
        return cls(trusted_issuers=issuers, required_claims=data.get("required_claims", {}))

    @property
    def storage_slots(self) -> int:
        return len(self.trusted_issuers) + 1  # the issuers and the required-claims table

    def authorize(self, request: AuthzRequest, ledger: NonceLedger, meter: Optional[CostMeter]) -> AuthzOutcome:
        if not isinstance(request.credential, VcPresentation):
            return deny(MalformedCredential, "vc group requires a credential presentation")
        vc = request.credential.credential
        if not _issuer_trusted(self.trusted_issuers, vc.issuer_key, meter):
            return deny(UntrustedIssuer, "credential issuer is not trusted")
        charge(meter, "sig_verify", 1)
        if not vc.verify_issuer():
            return deny(Unauthorized, "credential issuer signature invalid")
        # The holder proof is the extra signature check credential flows pay
        # over bearer tokens.
        charge(meter, "sig_verify", 1)
        # Propose-time presentations bind id 0: no proposal exists yet and
        # real ids start at 1, so the two contexts can never collide.
        context = request.proposal_id if request.proposal_id is not None else 0
        if not request.credential.verify_holder(request.did, context):
            return deny(Unauthorized, "holder proof-of-possession invalid")
        if vc.holder_key != request.controller_key:
            return deny(Unauthorized, "credential bound to a different holder")
        for key, value in self.required_claims.items():
            charge(meter, "iteration_step", 1)
            if vc.claims.get(key) != value:
                return deny(Unauthorized, f"claim {key!r} missing or not an exact match")
        claim = vc.claims.get(WEIGHT_CLAIM, "1")
        try:
            weight = int(claim) if claim.isascii() and claim.isdigit() else 1
        except ValueError:  # more digits than int() converts
            weight = 1
        return AuthzOutcome(granted=True, effective_weight=max(weight, 1))

    def check_logged_weight(self, controller: bytes, weight: int) -> None:
        if weight < 1:
            raise Unauthorized(f"logged weight {weight} is below 1")


AuthzConfig = Union[AclConfig, TokenConfig, VcConfig]
_AUTHZ_CONFIGS = {config.kind: config for config in (AclConfig, TokenConfig, VcConfig)}


class _Coordination:
    """Shared by the coordination kinds, each of which has ``verdict``, its
    resolution formula over the tally's running counts. By default a kind
    counts every decision (no ``cap``), never settles early and resolves in
    one scan of the tally."""

    cap: Optional[int] = None

    def early_outcome(self, tally: Tally, meter: Optional[CostMeter] = None) -> Optional[Verdict]:
        """The verdict a tally has settled on after an on-chain vote, or
        None while it is open; charges the pass that decides it."""
        return None

    def resolution_steps(self, submitted: int) -> int:
        """Iteration steps charged to resolve a tally of ``submitted`` decisions."""
        return submitted


@dataclass(frozen=True)
class NOfMConfig(_Coordination):
    """Approval needs n approvals; m caps how many decisions are counted.
    Settles at n approvals, or once approval is impossible (more than
    m - n rejections)."""

    kind = CoordKind.NOFM
    n: int
    m: int

    def __post_init__(self) -> None:
        _require_int(self.n, "n", InvalidGroupConfig)
        _require_int(self.m, "m", InvalidGroupConfig)
        if self.n < 1 or self.m < self.n:
            raise InvalidGroupConfig(f"need 1 <= n <= m, got n={self.n} m={self.m}")

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m}

    @classmethod
    def from_json(cls, data: Mapping) -> "NOfMConfig":
        return cls(n=data["n"], m=data["m"])

    @property
    def cap(self) -> int:
        return self.m

    def verdict(self, tally: Tally) -> Verdict:
        return Verdict.APPROVE if tally.approvals >= self.n else Verdict.REJECT

    def early_outcome(self, tally: Tally, meter: Optional[CostMeter] = None) -> Optional[Verdict]:
        charge(meter, "iteration_step", len(tally.accepted))  # early-termination pass over the tally
        if tally.approvals >= self.n:
            return Verdict.APPROVE
        if tally.rejections > self.m - self.n:
            return Verdict.REJECT
        return None


@dataclass(frozen=True)
class TurnoutConfig(_Coordination):
    """Approval threshold scales with turnout: ceil(ratio * submitted)
    approvals, once ``quorum`` decisions are in. It depends on the final
    turnout, so it never settles early."""

    kind = CoordKind.TURNOUT_SENSITIVE
    quorum: int
    ratio: Fraction

    def __post_init__(self) -> None:
        if type(self.ratio) is not Fraction:
            object.__setattr__(self, "ratio", Fraction(self.ratio))
        _require_int(self.quorum, "quorum", InvalidGroupConfig)
        if self.quorum < 1:
            raise InvalidGroupConfig("quorum must be >= 1")
        if not (0 < self.ratio <= 1):
            raise InvalidGroupConfig(f"ratio must be in (0, 1], got {self.ratio}")

    def to_json(self) -> dict:
        return {"quorum": self.quorum, "ratio": ratio_to_text(self.ratio)}

    @classmethod
    def from_json(cls, data: Mapping) -> "TurnoutConfig":
        return cls(quorum=data["quorum"], ratio=ratio_from_text(data["ratio"]))

    def verdict(self, tally: Tally) -> Verdict:
        submitted = len(tally.accepted)
        if submitted < self.quorum:
            return Verdict.REJECT
        needed = math.ceil(self.ratio * submitted)  # exact: ratio is a Fraction
        return Verdict.APPROVE if tally.approvals >= needed else Verdict.REJECT

    def resolution_steps(self, submitted: int) -> int:
        return 2 * submitted + 2  # turnout recount plus threshold scaling: the costliest resolution


@dataclass(frozen=True)
class WeightedConfig(_Coordination):
    """Approval needs the approve weights to sum to ``threshold``. Settles
    once they do; rejection is never early because the electorate is
    unknown."""

    kind = CoordKind.WEIGHTED
    threshold: int

    def __post_init__(self) -> None:
        _require_int(self.threshold, "threshold", InvalidGroupConfig)
        if self.threshold < 1:
            raise InvalidGroupConfig("threshold must be >= 1")

    def to_json(self) -> dict:
        return {"threshold": self.threshold}

    @classmethod
    def from_json(cls, data: Mapping) -> "WeightedConfig":
        return cls(threshold=data["threshold"])

    def verdict(self, tally: Tally) -> Verdict:
        return Verdict.APPROVE if tally.approve_weight >= self.threshold else Verdict.REJECT

    def early_outcome(self, tally: Tally, meter: Optional[CostMeter] = None) -> Optional[Verdict]:
        charge(meter, "iteration_step", len(tally.accepted))  # early-termination pass over the tally
        return Verdict.APPROVE if tally.approve_weight >= self.threshold else None


CoordConfig = Union[NOfMConfig, TurnoutConfig, WeightedConfig]
_COORD_CONFIGS = {config.kind: config for config in (NOfMConfig, TurnoutConfig, WeightedConfig)}


# --- governance group --------------------------------------------------------

@dataclass(frozen=True)
class GovernanceGroup:
    """One governance rule bundle embedded in a document. Its kinds are its
    configs' classes, so it cannot declare a kind its configs disagree with."""

    group_id: int
    edit_right: EditRightLevel
    authz_config: AuthzConfig
    coord_config: CoordConfig
    execution: ExecutionMode = ExecutionMode.ON_CHAIN
    time_limit: Optional[int] = None

    def __post_init__(self) -> None:
        _require_int(self.group_id, "group_id", InvalidGroupConfig)
        if self.group_id < 0:
            raise InvalidGroupConfig("group_id must be unsigned")
        if type(self.authz_config) not in _AUTHZ_CONFIGS.values():
            raise InvalidGroupConfig(f"unknown authz config {type(self.authz_config).__name__}")
        if type(self.coord_config) not in _COORD_CONFIGS.values():
            raise InvalidGroupConfig(f"unknown coord config {type(self.coord_config).__name__}")
        if self.time_limit is not None:
            _require_int(self.time_limit, "time_limit", InvalidGroupConfig)
            if self.time_limit <= 0:
                raise InvalidGroupConfig("time_limit must be > 0 when present")


# --- document ----------------------------------------------------------------

@dataclass(frozen=True)
class DidDocument:
    did: Did
    version: int
    public_keys: tuple[bytes, ...]
    attributes: Mapping[str, str]
    groups: tuple[GovernanceGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "did", Did(self.did))
        object.__setattr__(self, "public_keys", tuple(self.public_keys))
        object.__setattr__(self, "attributes", text_map(self.attributes, "attributes"))
        object.__setattr__(self, "groups", tuple(self.groups))
        _require_int(self.version, "version", EncodingError)
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        if not self.groups:
            raise InvalidGroupConfig("document must have at least one governance group")
        ids = [g.group_id for g in self.groups]
        if len(set(ids)) != len(ids):
            raise InvalidGroupConfig(f"duplicate group ids {ids}")
        if sum(1 for g in self.groups if g.edit_right is EditRightLevel.ALL) > 1:
            raise InvalidGroupConfig("at most one group may hold the All edit right")

    def group(self, group_id: int) -> GovernanceGroup:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise UnknownGroup(f"group {group_id} not on document {self.did}")


# --- change sets -------------------------------------------------------------

@dataclass(frozen=True)
class AddGroup:
    group: GovernanceGroup


@dataclass(frozen=True)
class ReplaceGroup:
    group_id: int
    group: GovernanceGroup

    def __post_init__(self) -> None:
        _require_int(self.group_id, "group_id", InvalidChangeSet)
        if self.group.group_id != self.group_id:
            raise InvalidChangeSet(
                f"replacement group keeps its id: {self.group.group_id} != {self.group_id}"
            )


@dataclass(frozen=True)
class RemoveGroup:
    group_id: int

    def __post_init__(self) -> None:
        _require_int(self.group_id, "group_id", InvalidChangeSet)


GroupOp = Union[AddGroup, ReplaceGroup, RemoveGroup]


@dataclass(frozen=True)
class ChangeSet:
    """A proposed document delta. ``None`` means "leave unchanged"; an empty
    replacement collection is a real change (clear the field)."""

    new_public_keys: Optional[tuple[bytes, ...]] = None
    new_attributes: Optional[Mapping[str, str]] = None
    group_ops: tuple[GroupOp, ...] = ()

    def __post_init__(self) -> None:
        if self.new_public_keys is not None:
            object.__setattr__(self, "new_public_keys", tuple(self.new_public_keys))
        if self.new_attributes is not None:
            object.__setattr__(self, "new_attributes", text_map(self.new_attributes, "new_attributes"))
        object.__setattr__(self, "group_ops", tuple(self.group_ops))
        if self.new_public_keys is None and self.new_attributes is None and not self.group_ops:
            raise InvalidChangeSet("change set must change something")


def apply_change_set(doc: DidDocument, change_set: ChangeSet) -> DidDocument:
    """Apply a change set: content replacement first, then group ops in
    listed order. Returns the successor document at version + 1."""
    public_keys = change_set.new_public_keys if change_set.new_public_keys is not None else doc.public_keys
    attributes = change_set.new_attributes if change_set.new_attributes is not None else doc.attributes
    # by id, in document order: replacing a group keeps its position
    groups = {g.group_id: g for g in doc.groups}
    for op in change_set.group_ops:
        if isinstance(op, AddGroup):
            if op.group.group_id in groups:
                raise InvalidChangeSet(f"group {op.group.group_id} already exists")
            groups[op.group.group_id] = op.group
        elif isinstance(op, ReplaceGroup):
            if op.group_id not in groups:
                raise UnknownGroup(f"cannot replace missing group {op.group_id}")
            groups[op.group_id] = op.group
        elif isinstance(op, RemoveGroup):
            if groups.pop(op.group_id, None) is None:
                raise UnknownGroup(f"cannot remove missing group {op.group_id}")
        else:  # pragma: no cover - GroupOp union is closed
            raise InvalidChangeSet(f"unknown group op {op!r}")
    if not groups:
        raise InvalidChangeSet("change set would leave the document ungovernable")
    return DidDocument(
        did=doc.did,
        version=doc.version + 1,
        public_keys=public_keys,
        attributes=attributes,
        groups=tuple(groups.values()),
    )


# --- proposals, decisions, events -------------------------------------------

@dataclass
class UpdateProposal:
    """Mutable lifecycle record; only status and deadline change after
    creation (the registry writes the deadline once, when it schedules it)."""

    proposal_id: int
    did: Did
    base_version: int
    originating_group: int
    change_set: ChangeSet
    created_at: int
    deadline: Optional[int] = None
    status: ProposalStatus = ProposalStatus.ACTIVE


@dataclass(frozen=True)
class Decision:
    """A controller's signed verdict. The signature covers
    (did, proposal_id, base_version, verdict), so it cannot be replayed
    against another proposal or document state."""

    proposal_id: int
    controller_key: bytes
    verdict: Verdict
    signature: bytes
    credential: Optional[CredentialPresentation] = None


@dataclass(frozen=True, slots=True)
class GovernanceEvent:
    sequence: int
    tick: int
    kind: EventKind
    payload: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", dict(self.payload))

    def payload_bytes(self) -> int:
        """Byte size charged for emitting this event (utf-8 payload text)."""
        return sum(len(k.encode()) + len(v.encode()) for k, v in self.payload.items())


# --- ratio serialization -----------------------------------------------------

def ratio_to_text(ratio: Fraction) -> str:
    return f"{ratio.numerator}/{ratio.denominator}"


def ratio_from_text(text: str) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise EncodingError(f"ratio must be 'numerator/denominator', got {text!r}")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise EncodingError(f"bad ratio {text!r}") from exc


# --- JSON projection ---------------------------------------------------------

def group_to_json(group: GovernanceGroup) -> dict:
    return {
        "group_id": group.group_id,
        "edit_right": group.edit_right.json_name(),
        "authz_kind": group.authz_config.kind.value,
        "authz_config": group.authz_config.to_json(),
        "coord_kind": group.coord_config.kind.value,
        "coord_config": group.coord_config.to_json(),
        "execution": group.execution.value,
        "time_limit": group.time_limit,
    }


def group_from_json(data: Mapping) -> GovernanceGroup:
    authz = _AUTHZ_CONFIGS[enum_from_value(AuthzKind, data["authz_kind"])]
    coord = _COORD_CONFIGS[enum_from_value(CoordKind, data["coord_kind"])]
    return GovernanceGroup(
        group_id=data["group_id"],
        edit_right=EditRightLevel.from_json_name(data["edit_right"]),
        authz_config=authz.from_json(data["authz_config"]),
        coord_config=coord.from_json(data["coord_config"]),
        execution=enum_from_value(ExecutionMode, data.get("execution", "onchain")),
        time_limit=data.get("time_limit"),
    )


def document_to_json(doc: DidDocument) -> dict:
    return {
        "did": str(doc.did),
        "version": doc.version,
        "public_keys": [k.hex() for k in doc.public_keys],
        "attributes": dict(doc.attributes),
        "groups": [group_to_json(g) for g in doc.groups],
    }


def document_from_json(data: Mapping) -> DidDocument:
    return DidDocument(
        did=Did(data["did"]),
        version=data["version"],
        public_keys=_keys_from_hex(data["public_keys"], "public_keys"),
        attributes=data["attributes"],
        groups=tuple(group_from_json(g) for g in data["groups"]),
    )


def group_op_to_json(op: GroupOp) -> dict:
    if isinstance(op, AddGroup):
        return {"op": "add", "group": group_to_json(op.group)}
    if isinstance(op, ReplaceGroup):
        return {"op": "replace", "group_id": op.group_id, "group": group_to_json(op.group)}
    return {"op": "remove", "group_id": op.group_id}


def group_op_from_json(data: Mapping) -> GroupOp:
    op = data.get("op")
    if op == "add":
        return AddGroup(group=group_from_json(data["group"]))
    if op == "replace":
        return ReplaceGroup(group_id=data["group_id"], group=group_from_json(data["group"]))
    if op == "remove":
        return RemoveGroup(group_id=data["group_id"])
    raise EncodingError(f"unknown group op {op!r}")


def change_set_to_json(change_set: ChangeSet) -> dict:
    return {
        "new_public_keys": (
            [k.hex() for k in change_set.new_public_keys]
            if change_set.new_public_keys is not None
            else None
        ),
        "new_attributes": (
            dict(change_set.new_attributes) if change_set.new_attributes is not None else None
        ),
        "group_ops": [group_op_to_json(op) for op in change_set.group_ops],
    }


def change_set_from_json(data: Mapping) -> ChangeSet:
    new_public_keys = data.get("new_public_keys")
    new_attributes = data.get("new_attributes")
    return ChangeSet(
        new_public_keys=(
            _keys_from_hex(new_public_keys, "new_public_keys") if new_public_keys is not None else None
        ),
        new_attributes=new_attributes,
        group_ops=tuple(group_op_from_json(op) for op in data.get("group_ops", ())),
    )


def proposal_to_json(proposal: UpdateProposal) -> dict:
    return {
        "proposal_id": proposal.proposal_id,
        "did": str(proposal.did),
        "base_version": proposal.base_version,
        "originating_group": proposal.originating_group,
        "change_set": change_set_to_json(proposal.change_set),
        "created_at": proposal.created_at,
        "deadline": proposal.deadline,
        "status": proposal.status.value,
    }


def proposal_from_json(data: Mapping) -> UpdateProposal:
    for name in ("proposal_id", "base_version", "originating_group", "created_at"):
        _require_int(data[name], name, EncodingError)
    if data.get("deadline") is not None:
        _require_int(data["deadline"], "deadline", EncodingError)
    return UpdateProposal(
        proposal_id=data["proposal_id"],
        did=Did(data["did"]),
        base_version=data["base_version"],
        originating_group=data["originating_group"],
        change_set=change_set_from_json(data["change_set"]),
        created_at=data["created_at"],
        deadline=data.get("deadline"),
        status=enum_from_value(ProposalStatus, data.get("status", "active")),
    )


def event_to_json(event: GovernanceEvent) -> dict:
    return {
        "sequence": event.sequence,
        "tick": event.tick,
        "kind": event.kind.value,
        "payload": dict(event.payload),
    }


_EVENT_FIELDS = frozenset(("sequence", "tick", "kind", "payload"))


def event_from_json(data) -> GovernanceEvent:
    """An event from its decoded JSON: an object with exactly the fields
    ``sequence`` and ``tick`` (integers), ``kind`` and ``payload`` (an
    object). The value comes from a JSON decoder, so an integer is exactly
    an ``int`` and an object exactly a ``dict``."""
    if type(data) is not dict or data.keys() != _EVENT_FIELDS:
        fields = sorted(data) if type(data) is dict else type(data).__name__
        raise EncodingError(f"an event is an object with exactly the fields {sorted(_EVENT_FIELDS)}, not {fields}")
    sequence, tick, payload = data["sequence"], data["tick"], data["payload"]
    if type(sequence) is not int or type(tick) is not int:
        raise EncodingError(f"event sequence and tick must be integers, not {sequence!r} and {tick!r}")
    if type(payload) is not dict:
        raise EncodingError(f"event payload must be an object, not {type(payload).__name__}")
    return GovernanceEvent(sequence, tick, enum_from_value(EventKind, data["kind"]), payload)
