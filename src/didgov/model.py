"""Domain types shared by every module: identifiers, documents, governance
groups, change sets, proposals, decisions, and audit events.

All types are value records. The registry owns the only mutable state
(proposal status/deadline are set as the lifecycle advances); everything
else is frozen. Each type has a JSON projection (byte strings as
lowercase hex, ratios as "n/d"), the one persistence format; the only
byte-level encoding is the signing payloads in :mod:`didgov.encoding`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Optional, Union

from . import crypto
from .crypto import CredentialPresentation
from .errors import EncodingError, InvalidChangeSet, InvalidGroupConfig, UnknownGroup

_HEX_DIGITS = frozenset("0123456789abcdef")


class Did(str):
    """Registry identifier: non-empty lowercase hex (a controller key, by
    convention, though any hex string is accepted)."""

    def __new__(cls, value: str) -> "Did":
        if not value or not set(value) <= _HEX_DIGITS:
            raise ValueError(f"did must be non-empty lowercase hex, got {value!r}")
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


def _enum_from_value(enum_cls, value):
    try:
        return enum_cls(value)
    except ValueError:
        raise EncodingError(f"unknown {enum_cls.__name__} value {value!r}") from None


# --- authorization configs ---------------------------------------------------

@dataclass(frozen=True)
class AclConfig:
    """Static member list; optional parallel per-member weights."""

    members: tuple[bytes, ...]
    weights: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise InvalidGroupConfig("acl members must be non-empty")
        if len(set(self.members)) != len(self.members):
            raise InvalidGroupConfig("acl members must be unique")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != len(self.members):
                raise InvalidGroupConfig("acl weights must parallel members")
            if any(w < 1 for w in self.weights):
                raise InvalidGroupConfig("acl weights must be positive")


@dataclass(frozen=True)
class TokenConfig:
    trusted_issuers: tuple[bytes, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_issuers", tuple(self.trusted_issuers))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("token trusted_issuers must be non-empty")


@dataclass(frozen=True)
class VcConfig:
    trusted_issuers: tuple[bytes, ...]
    required_claims: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "trusted_issuers", tuple(self.trusted_issuers))
        object.__setattr__(self, "required_claims", dict(self.required_claims))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("vc trusted_issuers must be non-empty")


AuthzConfig = Union[AclConfig, TokenConfig, VcConfig]


# --- coordination configs ----------------------------------------------------

@dataclass(frozen=True)
class NOfMConfig:
    """Approval needs n approvals; m caps how many decisions are counted."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < self.n:
            raise InvalidGroupConfig(f"need 1 <= n <= m, got n={self.n} m={self.m}")


@dataclass(frozen=True)
class TurnoutConfig:
    """Approval threshold scales with turnout: ceil(ratio * submitted)."""

    quorum: int
    ratio: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        if self.quorum < 1:
            raise InvalidGroupConfig("quorum must be >= 1")
        if not (0 < self.ratio <= 1):
            raise InvalidGroupConfig(f"ratio must be in (0, 1], got {self.ratio}")


@dataclass(frozen=True)
class WeightedConfig:
    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise InvalidGroupConfig("threshold must be >= 1")


CoordConfig = Union[NOfMConfig, TurnoutConfig, WeightedConfig]

_AUTHZ_KIND_BY_TYPE = {AclConfig: AuthzKind.ACL, TokenConfig: AuthzKind.TOKEN, VcConfig: AuthzKind.VC}
_COORD_KIND_BY_TYPE = {
    NOfMConfig: CoordKind.NOFM,
    TurnoutConfig: CoordKind.TURNOUT_SENSITIVE,
    WeightedConfig: CoordKind.WEIGHTED,
}


# --- governance group --------------------------------------------------------

@dataclass(frozen=True)
class GovernanceGroup:
    """One governance rule bundle embedded in a document.

    The kind discriminators are derived from the config types, so a group
    can never carry a config that disagrees with its declared kind.
    """

    group_id: int
    edit_right: EditRightLevel
    authz_config: AuthzConfig
    coord_config: CoordConfig
    execution: ExecutionMode = ExecutionMode.ON_CHAIN
    time_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.group_id < 0:
            raise InvalidGroupConfig("group_id must be unsigned")
        if type(self.authz_config) not in _AUTHZ_KIND_BY_TYPE:
            raise InvalidGroupConfig(f"unknown authz config {type(self.authz_config).__name__}")
        if type(self.coord_config) not in _COORD_KIND_BY_TYPE:
            raise InvalidGroupConfig(f"unknown coord config {type(self.coord_config).__name__}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise InvalidGroupConfig("time_limit must be > 0 when present")

    @property
    def authz_kind(self) -> AuthzKind:
        return _AUTHZ_KIND_BY_TYPE[type(self.authz_config)]

    @property
    def coord_kind(self) -> CoordKind:
        return _COORD_KIND_BY_TYPE[type(self.coord_config)]


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
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(self, "groups", tuple(self.groups))
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

    def has_group(self, group_id: int) -> bool:
        return any(g.group_id == group_id for g in self.groups)


# --- change sets -------------------------------------------------------------

@dataclass(frozen=True)
class AddGroup:
    group: GovernanceGroup


@dataclass(frozen=True)
class ReplaceGroup:
    group_id: int
    group: GovernanceGroup

    def __post_init__(self) -> None:
        if self.group.group_id != self.group_id:
            raise InvalidChangeSet(
                f"replacement group keeps its id: {self.group.group_id} != {self.group_id}"
            )


@dataclass(frozen=True)
class RemoveGroup:
    group_id: int


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
            object.__setattr__(self, "new_attributes", dict(self.new_attributes))
        object.__setattr__(self, "group_ops", tuple(self.group_ops))
        if self.new_public_keys is None and self.new_attributes is None and not self.group_ops:
            raise InvalidChangeSet("change set must change something")

    @property
    def touches_content(self) -> bool:
        return self.new_public_keys is not None or self.new_attributes is not None


def apply_change_set(doc: DidDocument, change_set: ChangeSet) -> DidDocument:
    """Apply a change set: content replacement first, then group ops in
    listed order. Returns the successor document at version + 1."""
    public_keys = change_set.new_public_keys if change_set.new_public_keys is not None else doc.public_keys
    attributes = change_set.new_attributes if change_set.new_attributes is not None else doc.attributes
    groups = list(doc.groups)
    for op in change_set.group_ops:
        if isinstance(op, AddGroup):
            if any(g.group_id == op.group.group_id for g in groups):
                raise InvalidChangeSet(f"group {op.group.group_id} already exists")
            groups.append(op.group)
        elif isinstance(op, ReplaceGroup):
            index = next((i for i, g in enumerate(groups) if g.group_id == op.group_id), None)
            if index is None:
                raise UnknownGroup(f"cannot replace missing group {op.group_id}")
            groups[index] = op.group
        elif isinstance(op, RemoveGroup):
            index = next((i for i, g in enumerate(groups) if g.group_id == op.group_id), None)
            if index is None:
                raise UnknownGroup(f"cannot remove missing group {op.group_id}")
            del groups[index]
        else:  # pragma: no cover - GroupOp union is closed
            raise InvalidChangeSet(f"unknown group op {op!r}")
    if not groups:
        raise InvalidChangeSet("change set would leave the document ungovernable")
    return DidDocument(
        did=doc.did,
        version=doc.version + 1,
        public_keys=public_keys,
        attributes=attributes,
        groups=tuple(groups),
    )


# --- proposals, decisions, events -------------------------------------------

@dataclass
class UpdateProposal:
    """Mutable lifecycle record; only status and deadline change after
    creation (the registry sets the deadline when scheduling fires)."""

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


@dataclass(frozen=True)
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

def authz_config_to_json(config: AuthzConfig) -> dict:
    if isinstance(config, AclConfig):
        return {
            "members": [m.hex() for m in config.members],
            "weights": list(config.weights) if config.weights is not None else None,
        }
    if isinstance(config, TokenConfig):
        return {"trusted_issuers": [k.hex() for k in config.trusted_issuers]}
    return {
        "trusted_issuers": [k.hex() for k in config.trusted_issuers],
        "required_claims": dict(config.required_claims),
    }


def authz_config_from_json(kind: AuthzKind, data: Mapping) -> AuthzConfig:
    if kind is AuthzKind.ACL:
        weights = data.get("weights")
        return AclConfig(
            members=tuple(bytes.fromhex(m) for m in data["members"]),
            weights=tuple(weights) if weights is not None else None,
        )
    issuers = tuple(bytes.fromhex(k) for k in data["trusted_issuers"])
    if kind is AuthzKind.TOKEN:
        return TokenConfig(trusted_issuers=issuers)
    return VcConfig(trusted_issuers=issuers, required_claims=dict(data.get("required_claims", {})))


def coord_config_to_json(config: CoordConfig) -> dict:
    if isinstance(config, NOfMConfig):
        return {"n": config.n, "m": config.m}
    if isinstance(config, TurnoutConfig):
        return {"quorum": config.quorum, "ratio": ratio_to_text(config.ratio)}
    return {"threshold": config.threshold}


def coord_config_from_json(kind: CoordKind, data: Mapping) -> CoordConfig:
    if kind is CoordKind.NOFM:
        return NOfMConfig(n=data["n"], m=data["m"])
    if kind is CoordKind.TURNOUT_SENSITIVE:
        return TurnoutConfig(quorum=data["quorum"], ratio=ratio_from_text(data["ratio"]))
    return WeightedConfig(threshold=data["threshold"])


def group_to_json(group: GovernanceGroup) -> dict:
    return {
        "group_id": group.group_id,
        "edit_right": group.edit_right.json_name(),
        "authz_kind": group.authz_kind.value,
        "authz_config": authz_config_to_json(group.authz_config),
        "coord_kind": group.coord_kind.value,
        "coord_config": coord_config_to_json(group.coord_config),
        "execution": group.execution.value,
        "time_limit": group.time_limit,
    }


def group_from_json(data: Mapping) -> GovernanceGroup:
    authz_kind = _enum_from_value(AuthzKind, data["authz_kind"])
    coord_kind = _enum_from_value(CoordKind, data["coord_kind"])
    return GovernanceGroup(
        group_id=data["group_id"],
        edit_right=EditRightLevel.from_json_name(data["edit_right"]),
        authz_config=authz_config_from_json(authz_kind, data["authz_config"]),
        coord_config=coord_config_from_json(coord_kind, data["coord_config"]),
        execution=_enum_from_value(ExecutionMode, data.get("execution", "onchain")),
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
        public_keys=tuple(bytes.fromhex(k) for k in data["public_keys"]),
        attributes=dict(data["attributes"]),
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
            tuple(bytes.fromhex(k) for k in new_public_keys) if new_public_keys is not None else None
        ),
        new_attributes=dict(new_attributes) if new_attributes is not None else None,
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
    return UpdateProposal(
        proposal_id=data["proposal_id"],
        did=Did(data["did"]),
        base_version=data["base_version"],
        originating_group=data["originating_group"],
        change_set=change_set_from_json(data["change_set"]),
        created_at=data["created_at"],
        deadline=data.get("deadline"),
        status=_enum_from_value(ProposalStatus, data.get("status", "active")),
    )


def decision_to_json(decision: Decision) -> dict:
    return {
        "proposal_id": decision.proposal_id,
        "controller_key": decision.controller_key.hex(),
        "verdict": decision.verdict.value,
        "credential": (
            crypto.presentation_to_json(decision.credential)
            if decision.credential is not None
            else None
        ),
        "signature": decision.signature.hex(),
    }


def decision_from_json(data: Mapping) -> Decision:
    credential = data.get("credential")
    return Decision(
        proposal_id=data["proposal_id"],
        controller_key=bytes.fromhex(data["controller_key"]),
        verdict=_enum_from_value(Verdict, data["verdict"]),
        signature=bytes.fromhex(data["signature"]),
        credential=crypto.presentation_from_json(credential) if credential is not None else None,
    )


def event_to_json(event: GovernanceEvent) -> dict:
    return {
        "sequence": event.sequence,
        "tick": event.tick,
        "kind": event.kind.value,
        "payload": dict(event.payload),
    }


def event_from_json(data: Mapping) -> GovernanceEvent:
    return GovernanceEvent(
        sequence=data["sequence"],
        tick=data["tick"],
        kind=_enum_from_value(EventKind, data["kind"]),
        payload=dict(data["payload"]),
    )
