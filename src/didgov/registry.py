"""The authoritative governance state machine.

Single-writer: every public method is one transaction. Each transaction
validates completely before mutating, appends at least one audit event
when it changes state, and freezes its cost meter into a report on
commit. A raised error therefore leaves state, event log, and committed
reports exactly as they were.

The event log is the source of truth. Each event kind has one transition
function, the only writer of registry state for that kind and the one
place that derives the fields its event records: a live transaction
emits what it derived, and :func:`replay_events` calls it on the inputs
a payload records and refuses any other recorded field that differs, so
a replayed log reproduces the live registry byte-for-byte (see
:func:`snapshot_json`). Tallies change only through :mod:`didgov.coord`.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Optional, Sequence

from . import authz, coord, crypto, encoding, model
from .authz import AuthzOutcome, AuthzRequest, NonceLedger
from .coord import BatchResult, DecisionBatch, ResolveReason, Tally
from .errors import (
    AlreadyAnchored,
    AlreadyFinalized,
    ClockRegression,
    EmptyBatch,
    EncodingError,
    GovernanceError,
    NoActiveProposal,
    NotAnchored,
    ReplayedNonce,
    Unauthorized,
    UnknownProposal,
    UntrustedIssuer,
    VerificationError,
    WrongExecutionMode,
    EditRightViolation,
    ActiveProposalPrecedence,
)
from .metering import CostMeter, CostReport, CostSchedule, charge
from .model import (
    AclConfig,
    AddGroup,
    ChangeSet,
    Decision,
    Did,
    DidDocument,
    EditRightLevel,
    EventKind,
    ExecutionMode,
    GovernanceEvent,
    GovernanceGroup,
    ProposalStatus,
    ReplaceGroup,
    TokenConfig,
    UpdateProposal,
    Verdict,
)
from .scheduler import DeadlineQueue, ScheduleRequest, SimClock

Nonce = Optional[tuple[bytes, bytes]]  # (issuer key, nonce) a token burns


if c_make_encoder is None:
    raise ImportError("didgov requires CPython's _json accelerator (json.encoder.c_make_encoder)")


def _compact_writer() -> Callable[[object], str]:
    """A writer of compact JSON text, equal to ``json.dumps(value,
    separators=(",", ":"))``: one C encoder built with the arguments
    ``json.dumps`` gives it (fresh circular-reference markers, the stock
    ``default``, ASCII escaping, no key sorting or skipping, NaN allowed).
    ``json.dumps`` builds that encoder for each value; build one writer
    per call and write every value of the call through it."""
    encode = c_make_encoder(
        {}, JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
    )
    return lambda value: "".join(encode(value, 0))


def _compact(value) -> str:
    """``value`` as compact JSON text, through a writer built for it."""
    return _compact_writer()(value)


@dataclass
class RegistryState:
    documents: dict[Did, DidDocument] = field(default_factory=dict)
    active_proposals: dict[Did, UpdateProposal] = field(default_factory=dict)
    proposals: dict[int, UpdateProposal] = field(default_factory=dict)
    tallies: dict[int, Tally] = field(default_factory=dict)
    nonce_ledger: NonceLedger = field(default_factory=NonceLedger)
    event_log: list[GovernanceEvent] = field(default_factory=list)
    queue: DeadlineQueue = field(default_factory=DeadlineQueue)
    clock: SimClock = field(default_factory=SimClock)
    next_proposal_id: int = 1


# --- transitions: one per event kind, the only writers of registry state ------
# Each returns the fields it derived for its event: the payload itself, or the
# proposal a payload records as JSON (replay compares the object, not its text).

def _consume(state: RegistryState, nonce: Nonce) -> None:
    if nonce is not None:
        state.nonce_ledger.consume(*nonce)


def _anchored(state: RegistryState, doc: DidDocument) -> None:
    """Install a new document; every document starts at version 1."""
    if doc.did in state.documents:
        raise AlreadyAnchored(f"did {doc.did} is already anchored")
    if doc.version != 1:
        raise ValueError(f"a new document is at version 1, not {doc.version}")
    state.documents[doc.did] = doc


def _proposal_overridden(
    state: RegistryState, did: Did, overriding_group: int, meter: Optional[CostMeter]
) -> dict[str, str]:
    """Freeze the DID's active proposal, displaced by one of ``overriding_group``."""
    proposal = state.active_proposals[did]
    coord.freeze(state.tallies[proposal.proposal_id], meter)
    proposal.status = ProposalStatus.OVERRIDDEN
    del state.active_proposals[did]
    return {
        "proposal_id": str(proposal.proposal_id),
        "did": str(did),
        "overriding_group": str(overriding_group),
    }


def _proposal_submitted(
    state: RegistryState,
    did: Did,
    originating_group: int,
    change_set: ChangeSet,
    nonce: Nonce,
    meter: Optional[CostMeter],
) -> UpdateProposal:
    """Open proposal ``next_proposal_id``: Active, against the document's
    current version, created now, with no deadline yet and a fresh tally."""
    active = state.active_proposals.get(did)
    if active is not None:  # a live propose overrides it first
        raise ActiveProposalPrecedence(f"proposal {active.proposal_id} is still active")
    doc = state.documents[did]
    proposal = UpdateProposal(
        proposal_id=state.next_proposal_id,
        did=did,
        base_version=doc.version,
        originating_group=originating_group,
        change_set=change_set,
        created_at=state.clock.now,
    )
    charge(meter, "storage_write_new", 1)  # proposal record
    state.tallies[proposal.proposal_id] = coord.init_process(doc.group(originating_group), proposal, meter)
    state.proposals[proposal.proposal_id] = proposal
    state.active_proposals[did] = proposal
    state.next_proposal_id = proposal.proposal_id + 1
    _consume(state, nonce)
    return proposal


def _decision_accepted(state: RegistryState, nonce: Nonce) -> None:
    # coord has appended the tally entry; the event records only inputs
    _consume(state, nonce)


def _scheduled(state: RegistryState, proposal: UpdateProposal) -> dict[str, str]:
    """Set the deadline: the proposal's creation tick plus its group's time limit."""
    group = state.documents[proposal.did].group(proposal.originating_group)
    request = ScheduleRequest(proposal.proposal_id, proposal.created_at + group.time_limit)
    proposal.deadline = request.deadline
    state.queue.push(request)
    return {"proposal_id": str(request.proposal_id), "deadline": str(request.deadline)}


def _resolved(state: RegistryState, proposal: UpdateProposal, meter: Optional[CostMeter]) -> dict[str, str]:
    """Finalize the tally, install the approved successor document (if
    any) and close the proposal.

    The reason is derived too: decisive when an on-chain tally has settled
    early (a live decision resolves it at once), expired once the deadline
    has come (a live clock advance expires it at once), manual otherwise.
    Applying the change set cannot fail: it was dry-run against this
    document version on admission, live and on replay, and the
    single-active rule keeps the document fixed until the proposal
    resolves.
    """
    doc = state.documents[proposal.did]
    group = doc.group(proposal.originating_group)
    tally = state.tallies[proposal.proposal_id]
    settled = coord.early_outcome(group.coord_config, tally) is not None
    if settled and group.execution is ExecutionMode.ON_CHAIN:
        reason = ResolveReason.DECISIVE
    elif proposal.deadline is not None and state.clock.now >= proposal.deadline:
        reason = ResolveReason.EXPIRED
    else:
        reason = ResolveReason.MANUAL
    verdict = coord.resolve(group.coord_config, tally, meter)
    if verdict is Verdict.APPROVE:
        state.documents[proposal.did] = model.apply_change_set(doc, proposal.change_set)
        charge(meter, "storage_write_update", 1)  # document record
        proposal.status = ProposalStatus.APPROVED
    else:
        proposal.status = ProposalStatus.EXPIRED if reason is ResolveReason.EXPIRED else ProposalStatus.REJECTED
    del state.active_proposals[proposal.did]
    payload = {
        "proposal_id": str(proposal.proposal_id),
        "verdict": verdict.value,
        "reason": reason.value,
        "status": proposal.status.value,
    }
    if verdict is Verdict.APPROVE:
        payload["new_version"] = str(state.documents[proposal.did].version)
    return payload


def _clock_advanced(state: RegistryState, to: int) -> list[UpdateProposal]:
    """Move the clock strictly forward and pop the queue entries that came
    due. Returns their proposals that are still active, in firing order:
    the caller expires each at once (replay: the log's next resolved events
    must). Entries of proposals resolved before their deadline are dropped."""
    if to <= state.clock.now:
        raise ClockRegression(f"clock must move forward from {state.clock.now}, not to {to}")
    state.clock.advance(to)
    due = [state.proposals[proposal_id] for _deadline, proposal_id in state.queue.due(to)]
    return [p for p in due if p.status is ProposalStatus.ACTIVE]


def _check_admission(doc: DidDocument, group: GovernanceGroup, change_set: ChangeSet) -> None:
    """``group`` submits only a change set its edit right permits and that
    applies to the document as it stands (a dry run), so resolving the
    proposal cannot fail."""
    if not allowed_changes(group.edit_right, group.group_id, change_set):
        raise EditRightViolation(
            f"{group.edit_right.json_name()} group {group.group_id} cannot make this change"
        )
    model.apply_change_set(doc, change_set)


def _check_precedence(state: RegistryState, did: Did, group: GovernanceGroup) -> None:
    """A proposal from ``group`` overrides the DID's active proposal only
    with strictly higher edit right than that proposal's group."""
    existing = state.active_proposals.get(did)
    if existing is None:
        return
    if group.edit_right <= state.documents[did].group(existing.originating_group).edit_right:
        raise ActiveProposalPrecedence(
            f"proposal {existing.proposal_id} is active with equal or higher privilege"
        )


def allowed_changes(edit_right: EditRightLevel, originating_group: int, change_set: ChangeSet) -> bool:
    """Does this edit right level permit this change set?

    Content changes are open to every level. Group operations narrow with
    privilege: SelfGovernance may replace its own group, DelegatesCreation
    may additionally add Document-level groups, All may do anything.
    """
    if edit_right is EditRightLevel.ALL:
        return True
    for op in change_set.group_ops:
        if isinstance(op, ReplaceGroup) and op.group_id == originating_group:
            if edit_right >= EditRightLevel.SELF_GOVERNANCE:
                continue
            return False
        if isinstance(op, AddGroup) and op.group.edit_right is EditRightLevel.DOCUMENT:
            if edit_right >= EditRightLevel.DELEGATES_CREATION:
                continue
            return False
        return False
    return True


def build_decision(
    signer: crypto.KeyPair,
    did: Did,
    proposal_id: int,
    base_version: int,
    verdict: Verdict,
    credential=None,
) -> Decision:
    """Client-side helper: sign the canonical decision payload."""
    payload = encoding.decision_payload(str(did), proposal_id, base_version, verdict.value)
    return Decision(
        proposal_id=proposal_id,
        controller_key=signer.public_key,
        verdict=verdict,
        signature=crypto.sign(signer.secret_key, payload),
        credential=credential,
    )


def _nonce_fields(nonce: Nonce) -> dict[str, str]:
    return {} if nonce is None else {"nonce_issuer": nonce[0].hex(), "nonce": nonce[1].hex()}


class Registry:
    """In-process registry; owns all mutable governance state."""

    def __init__(self, schedule: Optional[CostSchedule] = None) -> None:
        self.state = RegistryState()
        self.schedule = schedule if schedule is not None else CostSchedule()
        self.reports: list[CostReport] = []

    # -- transaction plumbing -------------------------------------------------

    def _meter(self) -> CostMeter:
        return CostMeter(self.schedule)

    def _commit(self, meter: CostMeter, label: str) -> None:
        self.reports.append(meter.report(label))

    def _emit(self, kind: EventKind, payload: dict[str, str], meter: CostMeter) -> None:
        """Log what a transition has just derived: the event's tick is the
        clock after the transition."""
        state = self.state
        event = GovernanceEvent(
            sequence=len(state.event_log) + 1,
            tick=state.clock.now,
            kind=kind,
            payload=payload,
        )
        state.event_log.append(event)
        charge(meter, "event_base", 1)
        charge(meter, "event_per_byte", event.payload_bytes())

    # -- anchoring ------------------------------------------------------------

    def anchor(
        self,
        did: str,
        public_keys: Sequence[bytes],
        attributes,
        groups: Sequence[GovernanceGroup],
    ) -> DidDocument:
        doc = DidDocument(
            did=Did(did), version=1, public_keys=tuple(public_keys), attributes=attributes, groups=tuple(groups)
        )
        meter = self._meter()
        charge(meter, "base_tx", 1)
        charge(meter, "storage_write_new", 1)  # registry mapping entry + document head
        for group in doc.groups:
            charge(meter, "iteration_step", 1)
            charge(meter, "storage_write_new", 1)  # group container
            config = group.authz_config
            if isinstance(config, AclConfig):
                charge(meter, "storage_write_new", len(config.members))
                if config.weights is not None:
                    charge(meter, "storage_write_new", len(config.weights))
            elif isinstance(config, TokenConfig):
                charge(meter, "storage_write_new", len(config.trusted_issuers))
            else:
                charge(meter, "storage_write_new", len(config.trusted_issuers))
                charge(meter, "storage_write_new", 1)  # required-claims table
            charge(meter, "storage_write_new", 1)  # coordination parameters
            if group.time_limit is not None:
                charge(meter, "storage_write_new", 1)  # time settings
        _anchored(self.state, doc)
        self._emit(
            EventKind.ANCHORED,
            {"did": str(doc.did), "document": _compact(model.document_to_json(doc))},
            meter,
        )
        self._commit(meter, "anchor")
        return doc

    # -- proposals ------------------------------------------------------------

    def propose(
        self,
        did: str,
        originating_group: int,
        change_set: ChangeSet,
        controller_key: bytes,
        credential=None,
    ) -> int:
        state = self.state
        key = Did(did)
        doc = state.documents.get(key)
        if doc is None:
            raise NotAnchored(f"did {key} is not anchored")
        group = doc.group(originating_group)
        meter = self._meter()
        charge(meter, "base_tx", 1)
        # the router fetches the governance configurations from the document
        charge(meter, "iteration_step", len(doc.groups))
        request = AuthzRequest(did=key, controller_key=controller_key, credential=credential)
        outcome = authz.authorize(group.authz_config, request, state.nonce_ledger, meter)
        if not outcome.granted:
            raise outcome.denial
        _check_admission(doc, group, change_set)
        _check_precedence(state, key, group)
        # ---- all checks passed; mutate ----
        if key in state.active_proposals:
            overridden = _proposal_overridden(state, key, originating_group, meter)
            self._emit(EventKind.PROPOSAL_OVERRIDDEN, overridden, meter)
        proposal = _proposal_submitted(state, key, originating_group, change_set, outcome.consume_nonce, meter)
        payload = {"proposal": _compact(model.proposal_to_json(proposal))}
        payload.update(_nonce_fields(outcome.consume_nonce))
        self._emit(EventKind.PROPOSAL_SUBMITTED, payload, meter)
        if group.time_limit is not None:
            self._emit(EventKind.SCHEDULED, _scheduled(state, proposal), meter)
        self._commit(meter, "propose")
        return proposal.proposal_id

    # -- decisions ------------------------------------------------------------

    def _open_decisions(
        self, proposal_id: int, mode: ExecutionMode
    ) -> tuple[UpdateProposal, GovernanceGroup, CostMeter]:
        """Checks shared by ``decide`` and ``decide_batch``: the proposal is
        active and its group uses ``mode``. An active proposal's deadline
        lies ahead: the clock advance that reaches it expires the proposal."""
        state = self.state
        proposal = state.proposals.get(proposal_id)
        if proposal is None or proposal.status is not ProposalStatus.ACTIVE:
            raise NoActiveProposal(f"proposal {proposal_id} is not active")
        group = state.documents[proposal.did].group(proposal.originating_group)
        meter = self._meter()
        charge(meter, "base_tx", 1)  # an off-chain aggregate rides one transaction too
        if group.execution is not mode:
            if mode is ExecutionMode.ON_CHAIN:
                raise WrongExecutionMode("single decisions are only possible for on-chain coordination")
            raise WrongExecutionMode("aggregates are only possible for off-chain coordination")
        return proposal, group, meter

    def _check_decision(
        self,
        proposal: UpdateProposal,
        group: GovernanceGroup,
        decision: Decision,
        meter: CostMeter,
    ) -> AuthzOutcome:
        """Signature plus authorization for one decision. Every refusal,
        including key or signature bytes of the wrong length, comes back as
        a denied outcome rather than an exception."""
        charge(meter, "sig_verify", 1)
        payload = encoding.decision_payload(
            str(proposal.did), proposal.proposal_id, proposal.base_version, decision.verdict.value
        )
        try:
            if not crypto.verify(decision.controller_key, payload, decision.signature):
                return AuthzOutcome(granted=False, refusal=(Unauthorized, "decision signature invalid"))
            request = AuthzRequest(
                did=proposal.did,
                controller_key=decision.controller_key,
                proposal_id=proposal.proposal_id,
                credential=decision.credential,
            )
            return authz.authorize(group.authz_config, request, self.state.nonce_ledger, meter)
        except VerificationError as exc:
            return AuthzOutcome(granted=False, refusal=(type(exc), str(exc)))

    def _accept(self, decision: Decision, outcome: AuthzOutcome, meter: CostMeter) -> None:
        """Transition and event for a decision coord has just tallied."""
        _decision_accepted(self.state, outcome.consume_nonce)
        payload = {
            "proposal_id": str(decision.proposal_id),
            "controller": decision.controller_key.hex(),
            "verdict": decision.verdict.value,
            "weight": str(outcome.effective_weight),
        }
        payload.update(_nonce_fields(outcome.consume_nonce))
        self._emit(EventKind.DECISION_ACCEPTED, payload, meter)

    def decide(self, decision: Decision) -> Optional[Verdict]:
        """Submit one on-chain decision; returns the verdict if it resolved
        the proposal (decisive vote), else None."""
        proposal, group, meter = self._open_decisions(decision.proposal_id, ExecutionMode.ON_CHAIN)
        outcome = self._check_decision(proposal, group, decision, meter)
        if not outcome.granted:
            raise outcome.denial
        tally = self.state.tallies[proposal.proposal_id]
        # submit_decision validates (duplicate/full/finalized) before appending
        early = coord.submit_decision(group.coord_config, tally, decision, outcome, meter)
        self._accept(decision, outcome, meter)
        result: Optional[Verdict] = None
        if early is not None:
            result = self._apply_resolution(proposal, meter)
        self._commit(meter, "decide")
        return result

    def decide_batch(self, batch: DecisionBatch) -> BatchResult:
        """Submit an off-chain aggregate as one transaction.

        Invalid entries (bad or malformed signature, denied authorization,
        a token nonce used twice in the batch, duplicate controller, turnout
        cap) are skipped and reported by :func:`coord.submit_batch`, not
        fatal.
        """
        if not batch.decisions:
            raise EmptyBatch("batch holds no decisions")
        proposal, group, meter = self._open_decisions(batch.proposal_id, ExecutionMode.OFF_CHAIN)
        outcomes = [self._check_decision(proposal, group, decision, meter) for decision in batch.decisions]
        tally = self.state.tallies[proposal.proposal_id]
        result = coord.submit_batch(group.coord_config, tally, batch, outcomes, meter)
        for index in result.tallied:
            self._accept(batch.decisions[index], outcomes[index], meter)
        self._commit(meter, "decide_batch")
        return result

    # -- resolution -----------------------------------------------------------

    def _apply_resolution(self, proposal: UpdateProposal, meter: CostMeter) -> Verdict:
        """Resolve an Active proposal (see :func:`_resolved`); returns the verdict."""
        payload = _resolved(self.state, proposal, meter)
        self._emit(EventKind.RESOLVED, payload, meter)
        return Verdict(payload["verdict"])

    def resolve_manual(self, proposal_id: int) -> Verdict:
        state = self.state
        proposal = state.proposals.get(proposal_id)
        if proposal is None:
            raise UnknownProposal(f"no proposal {proposal_id}")
        if proposal.status is not ProposalStatus.ACTIVE:
            raise AlreadyFinalized(f"proposal {proposal_id} is {proposal.status.value}")
        meter = self._meter()
        charge(meter, "base_tx", 1)
        verdict = self._apply_resolution(proposal, meter)
        self._commit(meter, "resolve")
        return verdict

    # -- time -----------------------------------------------------------------

    def advance_clock(self, to: int) -> list[int]:
        """Move the simulated clock; fire expiry resolutions that came due.

        Returns the proposal ids resolved by expiry, in firing order.
        Queue entries for proposals that resolved decisively earlier are
        discarded silently here. Advancing to the current tick is a quiet
        transaction: it is metered but changes nothing and logs no event.
        """
        state = self.state
        meter = self._meter()
        charge(meter, "base_tx", 1)
        resolved: list[int] = []
        if to != state.clock.now:
            due = _clock_advanced(state, to)  # ClockRegression if to is earlier
            self._emit(EventKind.CLOCK_ADVANCED, {"to": str(to)}, meter)
            for proposal in due:
                self._apply_resolution(proposal, meter)
                resolved.append(proposal.proposal_id)
        self._commit(meter, "advance_clock")
        return resolved

    # -- snapshots ------------------------------------------------------------

    def snapshot_json(self) -> str:
        return snapshot_json(self.state)


# --- state snapshot and event-sourcing replay --------------------------------

def state_snapshot(state: RegistryState) -> dict:
    """JSON-able projection of the full registry state, deterministically
    ordered so equal states serialize to equal bytes."""
    return {
        "clock": state.clock.now,
        "next_proposal_id": state.next_proposal_id,
        "last_sequence": state.event_log[-1].sequence if state.event_log else 0,
        "documents": {
            str(did): model.document_to_json(doc) for did, doc in sorted(state.documents.items())
        },
        "active_proposals": {
            str(did): proposal.proposal_id
            for did, proposal in sorted(state.active_proposals.items())
        },
        "proposals": {
            str(pid): model.proposal_to_json(proposal)
            for pid, proposal in sorted(state.proposals.items())
        },
        "tallies": {
            str(pid): {
                "accepted": [[key.hex(), verdict.value, weight] for key, verdict, weight in tally.accepted],
                "finalized": tally.finalized,
            }
            for pid, tally in sorted(state.tallies.items())
        },
        "nonce_ledger": [
            [issuer.hex(), nonce.hex()] for issuer, nonce in sorted(state.nonce_ledger.pairs())
        ],
        "schedule_queue": [[deadline, pid] for deadline, pid in state.queue.entries()],
    }


def snapshot_json(state: RegistryState) -> str:
    return json.dumps(state_snapshot(state), indent=2, sort_keys=True) + "\n"


def event_log_to_jsonl(events: Sequence[GovernanceEvent]) -> str:
    write = _compact_writer()
    return "".join([write(model.event_to_json(event)) + "\n" for event in events])


# What a hostile log can make decoding or folding raise; each is reported
# as an EncodingError.
_MALFORMED = (GovernanceError, LookupError, ValueError, TypeError, AttributeError)


def event_log_from_jsonl(text: str) -> list[GovernanceEvent]:
    events = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(model.event_from_json(json.loads(line)))
        except _MALFORMED as exc:
            raise EncodingError(f"bad event on line {line_number}: {type(exc).__name__}: {exc}") from exc
    return events


def _decode_nonce(payload) -> Nonce:
    if "nonce" not in payload:
        return None
    return bytes.fromhex(payload["nonce_issuer"]), bytes.fromhex(payload["nonce"])


def _check_logged_nonce(state: RegistryState, config: model.AuthzConfig, nonce: Nonce, what: str) -> None:
    """A token group's ``what`` (decision or proposal) burns a nonce, not
    yet consumed, from an issuer the group trusts; no other group's
    carries one."""
    if isinstance(config, TokenConfig):
        if nonce is None:
            raise Unauthorized(f"token {what} carries no nonce")
        if nonce[0] not in config.trusted_issuers:
            raise UntrustedIssuer("nonce issuer is not trusted")
        if state.nonce_ledger.is_consumed(*nonce):
            raise ReplayedNonce("nonce already consumed")
    elif nonce is not None:
        raise Unauthorized(f"only token {what}s carry a nonce")


def _check_logged_decision(
    state: RegistryState, config: model.AuthzConfig, controller: bytes, weight: int, nonce: Nonce
) -> None:
    """Re-check the authorization a ``decision_accepted`` event records,
    as far as the log shows it.

    Token: the nonce passes :func:`_check_logged_nonce` and the weight is
    1. ACL: the controller is a member and the weight is its configured
    one. VC: the weight is at least 1; the credential is not logged, so
    its issuer, holder and claims cannot be re-checked. No event logs a
    signature, so none is verified here.
    """
    _check_logged_nonce(state, config, nonce, "decision")
    if isinstance(config, TokenConfig):
        expected = 1
    elif isinstance(config, AclConfig):
        index = config.index.get(controller)
        if index is None:
            raise Unauthorized("controller is not an acl member")
        expected = config.weights[index] if config.weights is not None else 1
    else:  # vc: the weight came from a claim that is not logged
        if weight < 1:
            raise Unauthorized(f"logged weight {weight} is below 1")
        return
    if weight != expected:
        raise Unauthorized(f"logged weight {weight}, authorization gives {expected}")


def _expect(logged: Mapping, derived: Mapping) -> None:
    """Refuse logged fields that differ from the ones a transition derived."""
    if logged != derived:
        key = next(k for k in (*derived, *logged) if logged.get(k) != derived.get(k))
        raise EncodingError(f"logged {key} {logged.get(key)!r}, derived {derived.get(key)!r}")


# --- folds: decode a payload into its transition's inputs, run it, compare ---
# A fold may return the events its transaction owes the log next: each is
# (kind, what it must do, a test on the state after folding it).

_Owed = tuple[EventKind, str, Callable[[RegistryState], bool]]


def _fold_anchored(state: RegistryState, payload: Mapping[str, str]) -> None:
    doc = model.document_from_json(json.loads(payload["document"]))
    _anchored(state, doc)
    _expect({"did": payload["did"]}, {"did": doc.did})


def _fold_proposal_submitted(state: RegistryState, payload: Mapping[str, str]) -> list[_Owed]:
    logged = model.proposal_from_json(json.loads(payload["proposal"]))
    nonce = _decode_nonce(payload)
    doc = state.documents[logged.did]
    group = doc.group(logged.originating_group)
    _check_logged_nonce(state, group.authz_config, nonce, "proposal")  # the proposer is not logged
    _check_admission(doc, group, logged.change_set)
    proposal = _proposal_submitted(state, logged.did, logged.originating_group, logged.change_set, nonce, None)
    _expect(vars(logged), vars(proposal))
    if group.time_limit is None:
        return []

    def scheduled(_after: RegistryState) -> bool:
        return proposal.deadline is not None

    return [(EventKind.SCHEDULED, f"schedule proposal {proposal.proposal_id}", scheduled)]


def _fold_proposal_overridden(state: RegistryState, payload: Mapping[str, str]) -> list[_Owed]:
    did, group_id = Did(payload["did"]), int(payload["overriding_group"])
    _check_precedence(state, did, state.documents[did].group(group_id))
    _expect(payload, _proposal_overridden(state, did, group_id, None))

    def submitted(after: RegistryState) -> bool:
        active = after.active_proposals.get(did)
        return active is not None and active.originating_group == group_id

    return [(EventKind.PROPOSAL_SUBMITTED, f"submit group {group_id}'s proposal on did {did}", submitted)]


def _fold_decision_accepted(state: RegistryState, payload: Mapping[str, str]) -> list[_Owed]:
    proposal = state.proposals[int(payload["proposal_id"])]
    group = state.documents[proposal.did].group(proposal.originating_group)
    tally = state.tallies[proposal.proposal_id]
    entry = (bytes.fromhex(payload["controller"]), Verdict(payload["verdict"]), int(payload["weight"]))
    nonce = _decode_nonce(payload)
    _check_logged_decision(state, group.authz_config, entry[0], entry[2], nonce)
    coord.append_entry(group.coord_config, tally, entry)
    _decision_accepted(state, nonce)
    if group.execution is ExecutionMode.ON_CHAIN and coord.early_outcome(group.coord_config, tally) is not None:
        return [_resolution(proposal, "resolve")]  # a live decide resolves a settled tally at once
    return []


def _fold_scheduled(state: RegistryState, payload: Mapping[str, str]) -> None:
    _expect(payload, _scheduled(state, state.proposals[int(payload["proposal_id"])]))


def _fold_resolved(state: RegistryState, payload: Mapping[str, str]) -> None:
    _expect(payload, _resolved(state, state.proposals[int(payload["proposal_id"])], None))


def _fold_clock_advanced(state: RegistryState, payload: Mapping[str, str]) -> list[_Owed]:
    return [_resolution(proposal, "expire") for proposal in _clock_advanced(state, int(payload["to"]))]


def _resolution(proposal: UpdateProposal, what: str) -> _Owed:
    def resolved(_after: RegistryState) -> bool:
        return proposal.status is not ProposalStatus.ACTIVE

    return EventKind.RESOLVED, f"{what} proposal {proposal.proposal_id}", resolved


_FOLDS = {
    EventKind.ANCHORED: _fold_anchored,
    EventKind.PROPOSAL_SUBMITTED: _fold_proposal_submitted,
    EventKind.PROPOSAL_OVERRIDDEN: _fold_proposal_overridden,
    EventKind.DECISION_ACCEPTED: _fold_decision_accepted,
    EventKind.SCHEDULED: _fold_scheduled,
    EventKind.RESOLVED: _fold_resolved,
    EventKind.CLOCK_ADVANCED: _fold_clock_advanced,
}


def replay_events(events: Sequence[GovernanceEvent]) -> RegistryState:
    """Fold an audit log over an empty registry (event sourcing).

    Each event goes through its kind's fold: decode the transition's
    inputs, call the transition the live transaction called, and compare
    what it derived with what the log records; the event's tick must be
    the clock after the fold. A decision, and a token group's proposal,
    is first checked against its group's authorization config (see
    :func:`_check_logged_decision`); a proposal against its group's edit
    right, and an override against the overridden proposal's group, as
    the live ``propose`` checks them, and a proposal's change set is
    dry-run against the document. The events a transaction owes come
    next, before any other: the submission an override makes room for,
    the scheduling of a proposal whose group has a time limit, the
    resolution of an on-chain proposal whose tally a decision settled,
    and the expiry of each proposal a clock advance made due, in firing
    order. A log that does not decode, fold or pass these checks raises
    ``EncodingError`` naming the event's sequence number.
    """
    state = RegistryState()
    owed: deque[_Owed] = deque()
    for event in events:
        expected = len(state.event_log) + 1
        if event.sequence != expected:
            raise EncodingError(f"event sequence {event.sequence}, expected {expected}")
        state.event_log.append(event)
        try:
            requires = _FOLDS[event.kind](state, event.payload)
            if owed:
                kind, what, done = owed.popleft()
                if event.kind is not kind or not done(state):
                    raise EncodingError(f"the event must {what}")
            if requires:
                owed.extend(requires)
            if event.tick != state.clock.now:
                raise EncodingError(f"logged tick {event.tick}, derived {state.clock.now}")
        except _MALFORMED as exc:
            raise EncodingError(
                f"event {event.sequence} ({event.kind.value}) does not fold: {type(exc).__name__}: {exc}"
            ) from exc
    if owed:
        last = len(state.event_log)
        raise EncodingError(f"the log ends after event {last} before an event can {owed[0][1]}")
    return state
