"""The authoritative governance state machine.

Single-writer: every public method is one transaction. Each transaction
validates completely before mutating, appends at least one audit event
when it changes state, and freezes its cost meter into a report on
commit. A raised error therefore leaves state, event log, and committed
reports exactly as they were.

The event log is the source of truth. Each event kind has one transition
function, the only writer of registry state for that kind: a live
transaction calls it after validating and then emits the event, and
:func:`replay_events` calls it after decoding the event's payload, so a
replayed log reproduces the live registry byte-for-byte (see
:func:`snapshot_json`). Tallies change only through :mod:`didgov.coord`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import authz, coord, crypto, encoding, model
from .authz import AuthzAction, AuthzOutcome, AuthzRequest, NonceLedger
from .coord import BatchResult, DecisionBatch, ResolveReason, Tally
from .errors import (
    AlreadyAnchored,
    AlreadyFinalized,
    ClockRegression,
    DeadlinePassed,
    EmptyBatch,
    EncodingError,
    GovernanceError,
    NoActiveProposal,
    NotAnchored,
    StaleBaseVersion,
    Unauthorized,
    UnknownProposal,
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


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


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

def _consume(state: RegistryState, nonce: Nonce) -> None:
    if nonce is not None:
        state.nonce_ledger.consume(*nonce)


def _anchored(state: RegistryState, doc: DidDocument) -> None:
    state.documents[doc.did] = doc


def _proposal_overridden(state: RegistryState, proposal: UpdateProposal, meter: Optional[CostMeter]) -> None:
    coord.freeze(state.tallies[proposal.proposal_id], meter)
    proposal.status = ProposalStatus.OVERRIDDEN
    state.active_proposals.pop(proposal.did)


def _proposal_submitted(state: RegistryState, proposal: UpdateProposal, tally: Tally, nonce: Nonce) -> None:
    state.proposals[proposal.proposal_id] = proposal
    state.active_proposals[proposal.did] = proposal
    state.tallies[proposal.proposal_id] = tally
    state.next_proposal_id = proposal.proposal_id + 1
    _consume(state, nonce)


def _decision_accepted(state: RegistryState, nonce: Nonce) -> None:
    # the tally entry itself is appended by coord before this runs
    _consume(state, nonce)


def _scheduled(state: RegistryState, request: ScheduleRequest) -> None:
    state.proposals[request.proposal_id].deadline = request.deadline
    state.queue.push(request)


def _resolution_status(verdict: Verdict, reason: ResolveReason) -> ProposalStatus:
    if verdict is Verdict.APPROVE:
        return ProposalStatus.APPROVED
    return ProposalStatus.EXPIRED if reason is ResolveReason.EXPIRED else ProposalStatus.REJECTED


def _resolved(
    state: RegistryState,
    proposal: UpdateProposal,
    reason: ResolveReason,
    status: ProposalStatus,
    new_doc: Optional[DidDocument],
    meter: Optional[CostMeter],
) -> Verdict:
    """Finalize the tally, install the approved successor document (if
    any) and close the proposal; returns the tally's verdict."""
    group = state.documents[proposal.did].group(proposal.originating_group)
    verdict = coord.resolve(group.coord_config, state.tallies[proposal.proposal_id], reason, meter)
    if new_doc is not None:
        state.documents[proposal.did] = new_doc
        charge(meter, "storage_write_update", 1)  # document record
    proposal.status = status
    state.active_proposals.pop(proposal.did, None)
    return verdict


def _clock_advanced(state: RegistryState, to: int) -> list[tuple[int, int]]:
    """Move the clock and pop the queue entries that came due; the caller
    fires the ones still active (replay: the log's resolved events do)."""
    state.clock.advance(to)
    return state.queue.due(to)


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

    def __init__(self, schedule: Optional[CostSchedule] = None, metered: bool = True) -> None:
        self.state = RegistryState()
        self.schedule = schedule if schedule is not None else CostSchedule()
        self.metered = metered
        self.reports: list[CostReport] = []

    # -- transaction plumbing -------------------------------------------------

    def _meter(self) -> Optional[CostMeter]:
        return CostMeter(self.schedule) if self.metered else None

    def _commit(self, meter: Optional[CostMeter], label: str) -> None:
        if meter is not None:
            self.reports.append(meter.report(label))

    def _emit(self, kind: EventKind, payload: dict[str, str], meter: Optional[CostMeter]) -> GovernanceEvent:
        """Log an event whose transition has just run: its tick is the clock
        after the transition."""
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
        return event

    # -- anchoring ------------------------------------------------------------

    def anchor(
        self,
        did: str,
        public_keys: Sequence[bytes],
        attributes,
        groups: Sequence[GovernanceGroup],
    ) -> DidDocument:
        state = self.state
        key = Did(did)
        if key in state.documents:
            raise AlreadyAnchored(f"did {key} is already anchored")
        doc = DidDocument(
            did=key, version=1, public_keys=tuple(public_keys), attributes=attributes, groups=tuple(groups)
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
        _anchored(state, doc)
        self._emit(
            EventKind.ANCHORED,
            {"did": str(key), "document": _compact(model.document_to_json(doc))},
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
        request = AuthzRequest(
            did=key,
            controller_key=controller_key,
            action=AuthzAction.PROPOSE,
            proposal_id=None,
            credential=credential,
        )
        outcome = authz.authorize(group.authz_config, request, state.nonce_ledger, meter)
        if not outcome.granted:
            raise outcome.denial
        if not allowed_changes(group.edit_right, originating_group, change_set):
            raise EditRightViolation(
                f"{group.edit_right.json_name()} group {originating_group} cannot make this change"
            )
        model.apply_change_set(doc, change_set)  # dry run: reject unappliable proposals now
        existing = state.active_proposals.get(key)
        if existing is not None and group.edit_right <= doc.group(existing.originating_group).edit_right:
            raise ActiveProposalPrecedence(
                f"proposal {existing.proposal_id} is active with equal or higher privilege"
            )
        # ---- all checks passed; mutate ----
        if existing is not None:
            _proposal_overridden(state, existing, meter)
            self._emit(
                EventKind.PROPOSAL_OVERRIDDEN,
                {
                    "proposal_id": str(existing.proposal_id),
                    "did": str(key),
                    "overriding_group": str(originating_group),
                },
                meter,
            )
        proposal = UpdateProposal(
            proposal_id=state.next_proposal_id,
            did=key,
            base_version=doc.version,
            originating_group=originating_group,
            change_set=change_set,
            created_at=state.clock.now,
        )
        charge(meter, "storage_write_new", 1)  # proposal record
        tally, schedule_request = coord.init_process(group, proposal, state.clock.now, meter)
        _proposal_submitted(state, proposal, tally, outcome.consume_nonce)
        payload = {"proposal": _compact(model.proposal_to_json(proposal))}
        payload.update(_nonce_fields(outcome.consume_nonce))
        self._emit(EventKind.PROPOSAL_SUBMITTED, payload, meter)
        if schedule_request is not None:
            _scheduled(state, schedule_request)
            self._emit(
                EventKind.SCHEDULED,
                {"proposal_id": str(proposal.proposal_id), "deadline": str(schedule_request.deadline)},
                meter,
            )
        self._commit(meter, "propose")
        return proposal.proposal_id

    # -- decisions ------------------------------------------------------------

    def _open_decisions(
        self, proposal_id: int, mode: ExecutionMode
    ) -> tuple[UpdateProposal, GovernanceGroup, Optional[CostMeter]]:
        """Checks shared by ``decide`` and ``decide_batch``: the proposal is
        active, its deadline has not passed and its group uses ``mode``."""
        state = self.state
        proposal = state.proposals.get(proposal_id)
        if proposal is None or proposal.status is not ProposalStatus.ACTIVE:
            raise NoActiveProposal(f"proposal {proposal_id} is not active")
        group = state.documents[proposal.did].group(proposal.originating_group)
        meter = self._meter()
        charge(meter, "base_tx", 1)  # an off-chain aggregate rides one transaction too
        if proposal.deadline is not None and state.clock.now > proposal.deadline:
            raise DeadlinePassed(f"proposal {proposal.proposal_id} expired at {proposal.deadline}")
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
        meter: Optional[CostMeter],
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
                return AuthzOutcome(granted=False, denial=Unauthorized("decision signature invalid"))
            request = AuthzRequest(
                did=proposal.did,
                controller_key=decision.controller_key,
                action=AuthzAction.DECIDE,
                proposal_id=proposal.proposal_id,
                credential=decision.credential,
            )
            return authz.authorize(group.authz_config, request, self.state.nonce_ledger, meter)
        except VerificationError as exc:
            return AuthzOutcome(granted=False, denial=exc)

    def _accept(self, decision: Decision, outcome: AuthzOutcome, meter: Optional[CostMeter]) -> None:
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
            result = self._apply_resolution(proposal, ResolveReason.DECISIVE, meter)
        self._commit(meter, "decide")
        return result

    def decide_batch(self, batch: DecisionBatch) -> BatchResult:
        """Submit an off-chain aggregate as one transaction.

        Invalid entries (bad or malformed signature, denied authorization,
        duplicate controller, turnout cap) are skipped and reported, not
        fatal.
        """
        if not batch.decisions:
            raise EmptyBatch("batch holds no decisions")
        proposal, group, meter = self._open_decisions(batch.proposal_id, ExecutionMode.OFF_CHAIN)
        outcomes: list[tuple[Optional[AuthzOutcome], Optional[str]]] = []
        pending_nonces: set[tuple[bytes, bytes]] = set()
        for decision in batch.decisions:
            outcome = self._check_decision(proposal, group, decision, meter)
            if not outcome.granted:
                outcomes.append((None, outcome.denial.code))
                continue
            if outcome.consume_nonce is not None:
                if outcome.consume_nonce in pending_nonces:
                    outcomes.append((None, "replayed-nonce"))
                    continue
                pending_nonces.add(outcome.consume_nonce)
            outcomes.append((outcome, None))
        tally = self.state.tallies[proposal.proposal_id]
        result = coord.submit_batch(group.coord_config, tally, batch, outcomes, meter)
        for index in result.tallied:
            outcome = outcomes[index][0]
            assert outcome is not None
            self._accept(batch.decisions[index], outcome, meter)
        self._commit(meter, "decide_batch")
        return result

    # -- resolution -----------------------------------------------------------

    def _apply_resolution(
        self, proposal: UpdateProposal, reason: ResolveReason, meter: Optional[CostMeter]
    ) -> Verdict:
        """Finalize an Active proposal's process and apply the outcome.

        The approved successor document is computed before the transition
        runs, so the transition cannot fail halfway.
        """
        state = self.state
        doc = state.documents[proposal.did]
        group = doc.group(proposal.originating_group)
        verdict = coord.evaluate(group.coord_config, state.tallies[proposal.proposal_id].accepted)
        new_doc: Optional[DidDocument] = None
        if verdict is Verdict.APPROVE:
            if doc.version != proposal.base_version:  # unreachable under single-active rule
                raise StaleBaseVersion(
                    f"proposal {proposal.proposal_id} pinned version {proposal.base_version}, "
                    f"document is at {doc.version}"
                )
            new_doc = model.apply_change_set(doc, proposal.change_set)
        status = _resolution_status(verdict, reason)
        _resolved(state, proposal, reason, status, new_doc, meter)
        payload = {
            "proposal_id": str(proposal.proposal_id),
            "verdict": verdict.value,
            "reason": reason.value,
            "status": status.value,
        }
        if new_doc is not None:
            payload["new_version"] = str(new_doc.version)
        self._emit(EventKind.RESOLVED, payload, meter)
        return verdict

    def resolve_manual(self, proposal_id: int) -> Verdict:
        state = self.state
        proposal = state.proposals.get(proposal_id)
        if proposal is None:
            raise UnknownProposal(f"no proposal {proposal_id}")
        if proposal.status is not ProposalStatus.ACTIVE:
            raise AlreadyFinalized(f"proposal {proposal_id} is {proposal.status.value}")
        meter = self._meter()
        charge(meter, "base_tx", 1)
        verdict = self._apply_resolution(proposal, ResolveReason.MANUAL, meter)
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
        if to < state.clock.now:
            raise ClockRegression(f"cannot move clock from {state.clock.now} back to {to}")
        meter = self._meter()
        charge(meter, "base_tx", 1)
        resolved: list[int] = []
        if to > state.clock.now:
            due = _clock_advanced(state, to)
            self._emit(EventKind.CLOCK_ADVANCED, {"to": str(to)}, meter)
            for _deadline, proposal_id in due:
                proposal = state.proposals.get(proposal_id)
                if proposal is None or proposal.status is not ProposalStatus.ACTIVE:
                    continue  # stale entry: resolved before its deadline
                self._apply_resolution(proposal, ResolveReason.EXPIRED, meter)
                resolved.append(proposal_id)
        self._commit(meter, "advance_clock")
        return resolved

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> dict:
        return state_snapshot(self.state)

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
    return "".join(_compact(model.event_to_json(event)) + "\n" for event in events)


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


def replay_events(events: Sequence[GovernanceEvent]) -> RegistryState:
    """Fold an audit log over an empty registry (event sourcing).

    Each payload is decoded and handed to the transition the live
    transaction called. A log that does not decode or fold raises
    ``EncodingError`` naming the event's sequence number.
    """
    state = RegistryState()
    for event in events:
        expected = len(state.event_log) + 1
        if event.sequence != expected:
            raise EncodingError(f"event sequence {event.sequence}, expected {expected}")
        state.event_log.append(event)
        payload = event.payload
        try:
            if event.kind is EventKind.ANCHORED:
                _anchored(state, model.document_from_json(json.loads(payload["document"])))
            elif event.kind is EventKind.PROPOSAL_SUBMITTED:
                proposal = model.proposal_from_json(json.loads(payload["proposal"]))
                _proposal_submitted(state, proposal, Tally(proposal.proposal_id), _decode_nonce(payload))
            elif event.kind is EventKind.PROPOSAL_OVERRIDDEN:
                _proposal_overridden(state, state.proposals[int(payload["proposal_id"])], None)
            elif event.kind is EventKind.DECISION_ACCEPTED:
                proposal = state.proposals[int(payload["proposal_id"])]
                group = state.documents[proposal.did].group(proposal.originating_group)
                entry = (
                    bytes.fromhex(payload["controller"]),
                    Verdict(payload["verdict"]),
                    int(payload["weight"]),
                )
                coord.append_entry(group.coord_config, state.tallies[proposal.proposal_id], entry)
                _decision_accepted(state, _decode_nonce(payload))
            elif event.kind is EventKind.SCHEDULED:
                _scheduled(state, ScheduleRequest(int(payload["proposal_id"]), int(payload["deadline"])))
            elif event.kind is EventKind.RESOLVED:
                proposal = state.proposals[int(payload["proposal_id"])]
                reason = ResolveReason(payload["reason"])
                status = ProposalStatus(payload["status"])
                new_doc = None
                if status is ProposalStatus.APPROVED:
                    new_doc = model.apply_change_set(state.documents[proposal.did], proposal.change_set)
                verdict = _resolved(state, proposal, reason, status, new_doc, None)
                if verdict.value != payload["verdict"] or _resolution_status(verdict, reason) is not status:
                    raise EncodingError(
                        f"tally resolves to {verdict.value}, log says {payload['verdict']}/{status.value}"
                    )
            elif event.kind is EventKind.CLOCK_ADVANCED:
                _clock_advanced(state, int(payload["to"]))  # the log's own resolved events follow
            else:  # pragma: no cover - EventKind is closed
                raise EncodingError(f"unknown event kind {event.kind}")
        except _MALFORMED as exc:
            raise EncodingError(
                f"event {event.sequence} ({event.kind.value}) does not fold: {type(exc).__name__}: {exc}"
            ) from exc
    return state
