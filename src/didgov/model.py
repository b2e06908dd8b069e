"""Domain types shared by every module: identifiers, documents, governance
groups and their kinds, change sets, proposals, decisions, and audit events.

All types are value records. The registry owns the only mutable state
(proposal status/deadline are set as the lifecycle advances); everything
else is frozen. Every persisted type has a JSON projection (byte strings
as lowercase hex, ratios as "n/d"), the one persistence format; decisions
are never persisted. The only byte-level encoding is the signing payloads
in :mod:`didgov.encoding`.

A document and a proposal, which events and the state snapshot record,
also write their projection as compact text, the text of
``json.dumps(projection, separators=(",", ":"))``, from templates of their
own (``to_compact`` on a config class and on a group operation,
``*_to_compact`` here), with no dict built and no JSON encoder: a record
has one text, and the snapshot holds the text its event logs. The
projections stay the reference the templates are tested against.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Union

from .authz import AuthzOutcome, AuthzRequest, Nonce, NonceLedger, deny
from .crypto import CredentialPresentation, TokenPresentation, VcPresentation, Verified
from .errors import (
    EncodingError, GovernanceError, InvalidChangeSet, InvalidGroupConfig, MalformedCredential,
    ReplayedNonce, Unauthorized, UnknownGroup, UntrustedIssuer, VerificationError,
)
from .metering import CostMeter, charge

if TYPE_CHECKING:
    from .coord import Tally

_LOWERCASE_HEX = re.compile("[0-9a-f]+").fullmatch


class Did(str):
    """Registry identifier: non-empty lowercase hex (a controller key, by
    convention, though any hex string is accepted). Only a ``str`` is one:
    a list of hex characters is not."""

    def __new__(cls, value: str) -> "Did":
        if type(value) is Did:
            return value  # checked when it was made
        if not isinstance(value, str) or not _LOWERCASE_HEX(value):
            raise EncodingError(f"did must be non-empty lowercase hex, got {value!r}")
        return str.__new__(cls, value)


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
            return _LEVELS_BY_NAME[name.upper()]
        except KeyError:
            raise EncodingError(f"unknown edit right level {name!r}") from None


# each level by its name, read without ``EnumType.__getitem__``
_LEVELS_BY_NAME = {level.name: level for level in EditRightLevel}
_ALL = EditRightLevel.ALL


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
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise error(f"{what} must be an integer, not {value!r}")


def text_map(value, what: str) -> dict[str, str]:
    """``value`` as a new dict that must map str to str, as document
    attributes, change-set attributes and VC claims do. ``value`` must be a
    mapping (a JSON object), not pairs that ``dict`` would also take."""
    if type(value) is not dict and not isinstance(value, Mapping):
        raise EncodingError(f"{what} must be an object, not {type(value).__name__}")
    mapping = dict(value)
    for key, item in mapping.items():
        if not isinstance(key, str) or not isinstance(item, str):
            raise EncodingError(f"{what} must map text to text, not {key!r}: {item!r}")
    return mapping


# --- compact JSON text -------------------------------------------------------
# A compact template writes its record as ``json.dumps(projection,
# separators=(",", ":"))`` does: the projection's keys in the order it
# builds them, with no space.

_quote = encode_basestring_ascii  # a str as JSON text, escaped to ASCII
_spell = int.__repr__  # an int as JSON text: json.dumps's spelling, int subclasses included


def _hex_list(keys: tuple[bytes, ...]) -> str:
    """``keys`` in hex as a compact JSON array (hex needs no escaping)."""
    return '["' + '","'.join([key.hex() for key in keys]) + '"]' if keys else "[]"


def _text_members(mapping: Mapping[str, str]) -> str:
    """A text-to-text mapping as a compact JSON object, in its own order."""
    return "{" + ",".join([f"{_quote(key)}:{_quote(value)}" for key, value in mapping.items()]) + "}"


# --- governance kinds --------------------------------------------------------
# Each config class is the one definition of its kind: ``kind``, the JSON
# codec and the behaviour the engine calls instead of branching on a kind.

# Reserved claim key carrying the vote weight for VC-authorized groups.
WEIGHT_CLAIM = "weight"


def _keys_from_hex(data, what: str) -> tuple[bytes, ...]:
    """The keys of a JSON array of hex strings."""
    if type(data) is not list:
        raise EncodingError(f"{what} must be an array, not {type(data).__name__}")
    return tuple(map(bytes.fromhex, data))


def tuple_of(value, what: str, error: type[GovernanceError]) -> tuple:
    """``value`` as a tuple; a value that is not iterable raises ``error``."""
    try:
        return tuple(value)
    except TypeError:
        raise error(f"{what} must be a collection, not {type(value).__name__}") from None


def _keys(value, what: str, error: type[GovernanceError]) -> tuple[bytes, ...]:
    """``value`` as a tuple of keys, each a byte string."""
    keys = tuple_of(value, what, error)
    for key in keys:
        if type(key) is not bytes:
            raise error(f"{what} must be byte strings, not {key!r}")
    return keys


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
        object.__setattr__(self, "members", _keys(self.members, "acl members", InvalidGroupConfig))
        if not self.members:
            raise InvalidGroupConfig("acl members must be non-empty")
        index = {member: position for position, member in enumerate(self.members)}
        if len(index) != len(self.members):
            raise InvalidGroupConfig("acl members must be unique")
        object.__setattr__(self, "index", index)
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple_of(self.weights, "acl weights", InvalidGroupConfig))
            for weight in self.weights:
                _require_int(weight, "an acl weight", InvalidGroupConfig)
            if len(self.weights) != len(self.members):
                raise InvalidGroupConfig("acl weights must parallel members")
            if any(w < 1 for w in self.weights):
                raise InvalidGroupConfig("acl weights must be positive")

    def to_json(self) -> dict:
        weights = list(self.weights) if self.weights is not None else None
        return {"members": [m.hex() for m in self.members], "weights": weights}


    def to_compact(self) -> str:
        """The compact text of :meth:`to_json`, as an event records it."""
        weights = "null" if self.weights is None else "[" + ",".join(map(_spell, self.weights)) + "]"
        return f'{{"members":{_hex_list(self.members)},"weights":{weights}}}'

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

    def authorize(
        self,
        request: AuthzRequest,
        ledger: NonceLedger,
        meter: Optional[CostMeter],
        verified: Optional[Verified],
    ) -> AuthzOutcome:
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
        object.__setattr__(self, "trusted_issuers", _keys(self.trusted_issuers, "token issuers", InvalidGroupConfig))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("token trusted_issuers must be non-empty")

    def to_json(self) -> dict:
        return {"trusted_issuers": [k.hex() for k in self.trusted_issuers]}


    def to_compact(self) -> str:
        return f'{{"trusted_issuers":{_hex_list(self.trusted_issuers)}}}'

    @classmethod
    def from_json(cls, data: Mapping) -> "TokenConfig":
        return cls(trusted_issuers=_keys_from_hex(data["trusted_issuers"], "token trusted_issuers"))

    @property
    def storage_slots(self) -> int:
        return len(self.trusted_issuers)

    def authorize(
        self,
        request: AuthzRequest,
        ledger: NonceLedger,
        meter: Optional[CostMeter],
        verified: Optional[Verified],
    ) -> AuthzOutcome:
        if not isinstance(request.credential, TokenPresentation):
            return deny(MalformedCredential, "token group requires a bearer token")
        token = request.credential.token
        if not _issuer_trusted(self.trusted_issuers, token.issuer_key, meter):
            return deny(UntrustedIssuer, "token issuer is not trusted")
        charge(meter, "sig_verify", 1)
        if not token.verify_issuer(verified):
            return deny(Unauthorized, "token issuer signature invalid")
        if (token.issuer_key, token.nonce) in ledger:
            return deny(ReplayedNonce, "token nonce already consumed")
        return AuthzOutcome(granted=True, consume_nonce=(token.issuer_key, token.nonce))

    def check_logged_nonce(self, nonce: Nonce, ledger: NonceLedger, what: str) -> None:
        if nonce is None:
            raise Unauthorized(f"token {what} carries no nonce")
        if nonce[0] not in self.trusted_issuers:
            raise UntrustedIssuer("nonce issuer is not trusted")
        if nonce in ledger:
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
        object.__setattr__(self, "trusted_issuers", _keys(self.trusted_issuers, "vc issuers", InvalidGroupConfig))
        object.__setattr__(self, "required_claims", text_map(self.required_claims, "required_claims"))
        if not self.trusted_issuers:
            raise InvalidGroupConfig("vc trusted_issuers must be non-empty")

    def to_json(self) -> dict:
        return {
            "trusted_issuers": [k.hex() for k in self.trusted_issuers],
            "required_claims": dict(self.required_claims),
        }


    def to_compact(self) -> str:
        issuers, claims = _hex_list(self.trusted_issuers), _text_members(self.required_claims)
        return f'{{"trusted_issuers":{issuers},"required_claims":{claims}}}'

    @classmethod
    def from_json(cls, data: Mapping) -> "VcConfig":
        issuers = _keys_from_hex(data["trusted_issuers"], "vc trusted_issuers")
        return cls(trusted_issuers=issuers, required_claims=data.get("required_claims", {}))

    @property
    def storage_slots(self) -> int:
        return len(self.trusted_issuers) + 1  # the issuers and the required-claims table

    def authorize(
        self,
        request: AuthzRequest,
        ledger: NonceLedger,
        meter: Optional[CostMeter],
        verified: Optional[Verified],
    ) -> AuthzOutcome:
        if not isinstance(request.credential, VcPresentation):
            return deny(MalformedCredential, "vc group requires a credential presentation")
        vc = request.credential.credential
        if not _issuer_trusted(self.trusted_issuers, vc.issuer_key, meter):
            return deny(UntrustedIssuer, "credential issuer is not trusted")
        charge(meter, "sig_verify", 1)
        if not vc.verify_issuer(verified):
            return deny(Unauthorized, "credential issuer signature invalid")
        # The holder proof is the extra signature check credential flows pay
        # over bearer tokens.
        charge(meter, "sig_verify", 1)
        # Propose-time presentations bind id 0: no proposal exists yet and
        # real ids start at 1, so the two contexts can never collide.
        context = request.proposal_id if request.proposal_id is not None else 0
        if not request.credential.verify_holder(request.did, context, verified):
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
_AUTHZ_CLASSES = frozenset(_AUTHZ_CONFIGS.values())


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


    def to_compact(self) -> str:
        return f'{{"n":{_spell(self.n)},"m":{_spell(self.m)}}}'

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


def _fraction(value) -> Fraction:
    """``value`` as a finite rational, as ``Fraction`` reads it (an int,
    float, decimal, rational or "n/d" text); anything else, a bool or a
    zero denominator included, raises ``InvalidGroupConfig``."""
    if isinstance(value, bool):
        raise InvalidGroupConfig(f"ratio must be a rational number, not {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise InvalidGroupConfig(f"ratio must be a rational number, not {value!r}") from None


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
            object.__setattr__(self, "ratio", _fraction(self.ratio))
        _require_int(self.quorum, "quorum", InvalidGroupConfig)
        if self.quorum < 1:
            raise InvalidGroupConfig("quorum must be >= 1")
        if not (0 < self.ratio <= 1):
            raise InvalidGroupConfig(f"ratio must be in (0, 1], got {self.ratio}")

    def to_json(self) -> dict:
        return {"quorum": self.quorum, "ratio": ratio_to_text(self.ratio)}


    def to_compact(self) -> str:
        return f'{{"quorum":{_spell(self.quorum)},"ratio":{_quote(ratio_to_text(self.ratio))}}}'

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


    def to_compact(self) -> str:
        return f'{{"threshold":{_spell(self.threshold)}}}'

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
_COORD_CLASSES = frozenset(_COORD_CONFIGS.values())


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
        if type(self.edit_right) is not EditRightLevel or type(self.execution) is not ExecutionMode:
            raise InvalidGroupConfig(f"bad edit right or execution mode: {self.edit_right!r}, {self.execution!r}")
        if type(self.authz_config) not in _AUTHZ_CLASSES:
            raise InvalidGroupConfig(f"unknown authz config {type(self.authz_config).__name__}")
        if type(self.coord_config) not in _COORD_CLASSES:
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
        object.__setattr__(self, "public_keys", _keys(self.public_keys, "public_keys", EncodingError))
        object.__setattr__(self, "attributes", text_map(self.attributes, "attributes"))
        object.__setattr__(self, "groups", tuple_of(self.groups, "groups", InvalidGroupConfig))
        ids, holders = set(), 0  # the group ids, and how many groups hold the All edit right
        for group in self.groups:
            if not isinstance(group, GovernanceGroup):
                raise InvalidGroupConfig(f"a document's groups must be governance groups, not {group!r}")
            ids.add(group.group_id)
            holders += group.edit_right is _ALL
        _require_int(self.version, "version", EncodingError)
        if self.version < 1:
            raise ValueError(f"version must be >= 1, got {self.version}")
        if not self.groups:
            raise InvalidGroupConfig("document must have at least one governance group")
        if len(ids) != len(self.groups):
            raise InvalidGroupConfig(f"duplicate group ids {[g.group_id for g in self.groups]}")
        if holders > 1:
            raise InvalidGroupConfig("at most one group may hold the All edit right")

    def group(self, group_id: int) -> GovernanceGroup:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise UnknownGroup(f"group {group_id} not on document {self.did}")


# --- change sets -------------------------------------------------------------

# Each group operation is the one definition of its step: ``apply`` makes
# it on a document's groups (by id, in document order), and
# ``edit_right_needed`` is the least edit right that may propose it from
# the group ``originating_group``.

def _require_group(group) -> None:
    if not isinstance(group, GovernanceGroup):
        raise InvalidChangeSet(f"a group operation's group must be a governance group, not {group!r}")


@dataclass(frozen=True)
class AddGroup:
    group: GovernanceGroup

    def __post_init__(self) -> None:
        _require_group(self.group)

    def apply(self, groups: dict[int, GovernanceGroup]) -> None:
        if self.group.group_id in groups:
            raise InvalidChangeSet(f"group {self.group.group_id} already exists")
        groups[self.group.group_id] = self.group

    def to_compact(self) -> str:
        """The compact text of :func:`group_op_to_json` for this operation."""
        return f'{{"op":"add","group":{group_to_compact(self.group)}}}'

    def edit_right_needed(self, originating_group: int) -> EditRightLevel:
        if self.group.edit_right is EditRightLevel.DOCUMENT:
            return EditRightLevel.DELEGATES_CREATION
        return EditRightLevel.ALL


@dataclass(frozen=True)
class ReplaceGroup:
    group_id: int
    group: GovernanceGroup

    def __post_init__(self) -> None:
        _require_int(self.group_id, "group_id", InvalidChangeSet)
        _require_group(self.group)
        if self.group.group_id != self.group_id:
            raise InvalidChangeSet(
                f"replacement group keeps its id: {self.group.group_id} != {self.group_id}"
            )

    def apply(self, groups: dict[int, GovernanceGroup]) -> None:
        if self.group_id not in groups:
            raise UnknownGroup(f"cannot replace missing group {self.group_id}")
        groups[self.group_id] = self.group  # keeps its position

    def to_compact(self) -> str:
        """The compact text of :func:`group_op_to_json` for this operation."""
        return f'{{"op":"replace","group_id":{_spell(self.group_id)},"group":{group_to_compact(self.group)}}}'

    def edit_right_needed(self, originating_group: int) -> EditRightLevel:
        if self.group_id == originating_group:
            return EditRightLevel.SELF_GOVERNANCE
        return EditRightLevel.ALL


@dataclass(frozen=True)
class RemoveGroup:
    group_id: int

    def __post_init__(self) -> None:
        _require_int(self.group_id, "group_id", InvalidChangeSet)

    def apply(self, groups: dict[int, GovernanceGroup]) -> None:
        if groups.pop(self.group_id, None) is None:
            raise UnknownGroup(f"cannot remove missing group {self.group_id}")

    def to_compact(self) -> str:
        """The compact text of :func:`group_op_to_json` for this operation."""
        return f'{{"op":"remove","group_id":{_spell(self.group_id)}}}'

    def edit_right_needed(self, originating_group: int) -> EditRightLevel:
        return EditRightLevel.ALL


GroupOp = AddGroup | ReplaceGroup | RemoveGroup


@dataclass(frozen=True)
class ChangeSet:
    """A proposed document delta. ``None`` means "leave unchanged"; an empty
    replacement collection is a real change (clear the field)."""

    new_public_keys: Optional[tuple[bytes, ...]] = None
    new_attributes: Optional[Mapping[str, str]] = None
    group_ops: tuple[GroupOp, ...] = ()

    def __post_init__(self) -> None:
        if self.new_public_keys is not None:
            object.__setattr__(self, "new_public_keys", _keys(self.new_public_keys, "new_public_keys", EncodingError))
        if self.new_attributes is not None:
            object.__setattr__(self, "new_attributes", text_map(self.new_attributes, "new_attributes"))
        object.__setattr__(self, "group_ops", tuple_of(self.group_ops, "group_ops", InvalidChangeSet))
        for op in self.group_ops:
            if not isinstance(op, GroupOp):
                raise InvalidChangeSet(f"unknown group op {op!r}")
        if self.new_public_keys is None and self.new_attributes is None and not self.group_ops:
            raise InvalidChangeSet("change set must change something")


def apply_change_set(doc: DidDocument, change_set: ChangeSet) -> DidDocument:
    """Apply a change set: content replacement first, then group ops in
    listed order. Returns the successor document at version + 1."""
    public_keys = change_set.new_public_keys if change_set.new_public_keys is not None else doc.public_keys
    attributes = change_set.new_attributes if change_set.new_attributes is not None else doc.attributes
    groups = {g.group_id: g for g in doc.groups}
    for op in change_set.group_ops:
        op.apply(groups)
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

    def __post_init__(self) -> None:
        if not isinstance(self.controller_key, bytes) or not isinstance(self.signature, bytes):
            raise VerificationError("a decision's controller key and signature must be byte strings")
        if type(self.verdict) is not Verdict:
            raise EncodingError(f"unknown verdict {self.verdict!r}")


@dataclass(slots=True)
class GovernanceEvent:
    """One audit log entry. The event owns ``payload``: each writer passes a
    dict of its own, which nothing changes once it is logged."""

    sequence: int
    tick: int
    kind: EventKind
    payload: dict[str, str]

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


# each edit right level as JSON text (a kind, a mode or a status needs no
# table: its member is a str equal to its value, and quotes as that value)
_EDIT_RIGHT_TEXT = {level: _quote(level.json_name()) for level in EditRightLevel}


def group_to_compact(group: GovernanceGroup) -> str:
    """The compact text of :func:`group_to_json`."""
    authz, coord = group.authz_config, group.coord_config
    time_limit = "null" if group.time_limit is None else _spell(group.time_limit)
    return (
        f'{{"group_id":{_spell(group.group_id)},"edit_right":{_EDIT_RIGHT_TEXT[group.edit_right]},'
        f'"authz_kind":{_quote(authz.kind)},"authz_config":{authz.to_compact()},'
        f'"coord_kind":{_quote(coord.kind)},"coord_config":{coord.to_compact()},'
        f'"execution":{_quote(group.execution)},"time_limit":{time_limit}}}'
    )


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


def document_to_compact(doc: DidDocument) -> str:
    """The compact text of :func:`document_to_json`: what an anchored event records."""
    groups = ",".join([group_to_compact(group) for group in doc.groups])
    return (
        f'{{"did":{_quote(doc.did)},"version":{_spell(doc.version)},"public_keys":{_hex_list(doc.public_keys)},'
        f'"attributes":{_text_members(doc.attributes)},"groups":[{groups}]}}'
    )


def document_from_json(data: Mapping) -> DidDocument:
    return DidDocument(
        did=Did(data["did"]),
        version=data["version"],
        public_keys=_keys_from_hex(data["public_keys"], "public_keys"),
        attributes=data["attributes"],
        groups=tuple([group_from_json(g) for g in data["groups"]]),
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


def change_set_to_compact(change_set: ChangeSet) -> str:
    """The compact text of :func:`change_set_to_json`, each group operation
    through its own ``to_compact``."""
    keys, attributes = change_set.new_public_keys, change_set.new_attributes
    group_ops = ",".join([op.to_compact() for op in change_set.group_ops])
    return (
        f'{{"new_public_keys":{"null" if keys is None else _hex_list(keys)},'
        f'"new_attributes":{"null" if attributes is None else _text_members(attributes)},"group_ops":[{group_ops}]}}'
    )


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


def proposal_to_compact(proposal: UpdateProposal) -> str:
    """The compact text of :func:`proposal_to_json`: what a submission records."""
    deadline = "null" if proposal.deadline is None else _spell(proposal.deadline)
    return (
        f'{{"proposal_id":{_spell(proposal.proposal_id)},"did":{_quote(proposal.did)},'
        f'"base_version":{_spell(proposal.base_version)},"originating_group":{_spell(proposal.originating_group)},'
        f'"change_set":{change_set_to_compact(proposal.change_set)},"created_at":{_spell(proposal.created_at)},'
        f'"deadline":{deadline},"status":{_quote(proposal.status)}}}'
    )


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
