"""The authoritative governance state machine.

Single-writer: every public method is one transaction. Each transaction
validates completely before mutating, appends at least one audit event
when it changes state, and freezes its cost meter into a report on
commit. A raised error therefore leaves state, event log, and committed
reports exactly as they were.

The event log is the source of truth. Each transaction has one body, the
only writer of registry state and the one place that derives, in order,
the events the transaction logs. A live transaction authorizes its caller
and runs the body, which logs what it derives. :func:`replay_events`
re-checks the authorization a log records, runs the same body on the
inputs the log records and requires every event the body derives to be
the next one logged, so a replayed log reproduces the live registry
byte-for-byte (see :func:`snapshot_json`). Tallies change only through
:mod:`didgov.coord`.

An audit decodes, folds, then snapshots. :func:`event_log_from_jsonl`
reads each line with CPython's C JSON scanner and accepts only a line that
is exactly one event (:func:`didgov.model.event_from_json`).
:func:`snapshot_json` writes the text of ``json.dumps(snapshot, indent=2,
sort_keys=True)`` in one pass over the dicts and lists that
:func:`state_snapshot` builds.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from json.decoder import JSONDecodeError, JSONDecoder
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from json.scanner import c_make_scanner
from typing import Optional, Sequence

from . import authz, coord, crypto, encoding, model
from .authz import AuthzOutcome, AuthzRequest, Nonce, NonceLedger
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
    Unauthorized,
    UnknownProposal,
    VerificationError,
    WrongExecutionMode,
    EditRightViolation,
    ActiveProposalPrecedence,
)
from .metering import CostMeter, CostReport, CostSchedule, charge
from .model import (
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
    UpdateProposal,
    Verdict,
)
from .scheduler import DeadlineQueue, ScheduleRequest, SimClock

if c_make_encoder is None or c_make_scanner is None:
    raise ImportError("didgov requires CPython's _json accelerator (c_make_encoder and c_make_scanner)")


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


# --- transactions: one body each, run by the live registry and by replay ------
# A body holds all of a transaction's work after authorization: its checks,
# its state writes and, in order, each event it derives. It hands every event
# to ``emit``: live, :func:`_log_event` appends and meters it; replay requires
# the next logged event to equal it (see :func:`replay_events`).

Emit = Callable[[RegistryState, EventKind, dict[str, str], Optional[CostMeter]], None]


def _log_event(
    state: RegistryState, kind: EventKind, payload: dict[str, str], meter: Optional[CostMeter]
) -> None:
    """Live ``emit``: append the event at the clock after the transition,
    and meter it."""
    event = GovernanceEvent(
        sequence=len(state.event_log) + 1,
        tick=state.clock.now,
        kind=kind,
        payload=payload,
    )
    state.event_log.append(event)
    charge(meter, "event_base", 1)
    charge(meter, "event_per_byte", event.payload_bytes())


def _consume(state: RegistryState, nonce: Nonce) -> None:
    if nonce is not None:
        state.nonce_ledger.consume(*nonce)


def _nonce_fields(nonce: Nonce) -> dict[str, str]:
    return {} if nonce is None else {"nonce_issuer": nonce[0].hex(), "nonce": nonce[1].hex()}


def _anchor(
    state: RegistryState, doc: DidDocument, document: str, meter: Optional[CostMeter], emit: Emit
) -> None:
    """Install a new document, at version 1. ``document`` is its JSON text,
    the event's record of it."""
    if doc.did in state.documents:
        raise AlreadyAnchored(f"did {doc.did} is already anchored")
    if doc.version != 1:
        raise ValueError(f"a new document is at version 1, not {doc.version}")
    state.documents[doc.did] = doc
    emit(state, EventKind.ANCHORED, {"did": str(doc.did), "document": document}, meter)


def _propose(
    state: RegistryState,
    doc: DidDocument,
    group: GovernanceGroup,
    change_set: ChangeSet,
    nonce: Nonce,
    meter: Optional[CostMeter],
    emit: Emit,
) -> UpdateProposal:
    """Admit ``group``'s change set to ``doc``: override the DID's active
    proposal, if any, then open proposal ``next_proposal_id`` (Active,
    against the document's current version, created now, with a fresh
    tally) and schedule its deadline if the group has a time limit.

    The group submits only a change set its edit right permits and that
    applies to the document as it stands (a dry run), so resolving the
    proposal cannot fail; and it overrides an active proposal only with
    strictly higher edit right than that proposal's group.
    """
    if not allowed_changes(group.edit_right, group.group_id, change_set):
        raise EditRightViolation(
            f"{group.edit_right.json_name()} group {group.group_id} cannot make this change"
        )
    model.apply_change_set(doc, change_set)
    active = state.active_proposals.get(doc.did)
    if active is not None:
        if group.edit_right <= doc.group(active.originating_group).edit_right:
            raise ActiveProposalPrecedence(
                f"proposal {active.proposal_id} is active with equal or higher privilege"
            )
        coord.freeze(state.tallies[active.proposal_id], meter)
        active.status = ProposalStatus.OVERRIDDEN
        overridden = {
            "proposal_id": str(active.proposal_id),
            "did": str(doc.did),
            "overriding_group": str(group.group_id),
        }
        emit(state, EventKind.PROPOSAL_OVERRIDDEN, overridden, meter)
    proposal = UpdateProposal(
        proposal_id=state.next_proposal_id,
        did=doc.did,
        base_version=doc.version,
        originating_group=group.group_id,
        change_set=change_set,
        created_at=state.clock.now,
    )
    charge(meter, "storage_write_new", 1)  # proposal record
    state.tallies[proposal.proposal_id] = coord.init_process(group, proposal, meter)
    state.proposals[proposal.proposal_id] = proposal
    state.active_proposals[doc.did] = proposal
    state.next_proposal_id = proposal.proposal_id + 1
    _consume(state, nonce)
    submitted = {"proposal": _compact(model.proposal_to_json(proposal))}
    submitted.update(_nonce_fields(nonce))
    emit(state, EventKind.PROPOSAL_SUBMITTED, submitted, meter)
    if group.time_limit is not None:
        request = ScheduleRequest(proposal.proposal_id, proposal.created_at + group.time_limit)
        proposal.deadline = request.deadline
        state.queue.push(request)
        scheduled = {"proposal_id": str(request.proposal_id), "deadline": str(request.deadline)}
        emit(state, EventKind.SCHEDULED, scheduled, meter)
    return proposal


def _decision(
    state: RegistryState,
    proposal: UpdateProposal,
    group: GovernanceGroup,
    entry: coord.TallyEntry,
    nonce: Nonce,
    meter: Optional[CostMeter],
    emit: Emit,
) -> Optional[Verdict]:
    """Log a decision coord has just counted and burn its token nonce. A
    decision that settles an on-chain tally resolves the proposal at once;
    returns the verdict if it did."""
    _consume(state, nonce)
    controller, verdict, weight = entry
    accepted = {
        "proposal_id": str(proposal.proposal_id),
        "controller": controller.hex(),
        "verdict": verdict.value,
        "weight": str(weight),
    }
    accepted.update(_nonce_fields(nonce))
    emit(state, EventKind.DECISION_ACCEPTED, accepted, meter)
    tally = state.tallies[proposal.proposal_id]
    if group.execution is ExecutionMode.ON_CHAIN and group.coord_config.early_outcome(tally) is not None:
        return _resolve(state, proposal, ResolveReason.DECISIVE, meter, emit)
    return None


def _resolve(
    state: RegistryState,
    proposal: UpdateProposal,
    reason: ResolveReason,
    meter: Optional[CostMeter],
    emit: Emit,
) -> Verdict:
    """Finalize the tally of an Active proposal, install the approved
    successor document (if any) and close the proposal for ``reason``.

    Applying the change set cannot fail: it was dry-run against this
    document version on admission, and the single-active rule keeps the
    document fixed until the proposal resolves.
    """
    doc = state.documents[proposal.did]
    group = doc.group(proposal.originating_group)
    verdict = coord.resolve(group.coord_config, state.tallies[proposal.proposal_id], meter)
    if verdict is Verdict.APPROVE:
        doc = model.apply_change_set(doc, proposal.change_set)
        state.documents[proposal.did] = doc
        charge(meter, "storage_write_update", 1)  # document record
        proposal.status = ProposalStatus.APPROVED
    else:
        proposal.status = ProposalStatus.EXPIRED if reason is ResolveReason.EXPIRED else ProposalStatus.REJECTED
    del state.active_proposals[proposal.did]
    resolved = {
        "proposal_id": str(proposal.proposal_id),
        "verdict": verdict.value,
        "reason": reason.value,
        "status": proposal.status.value,
    }
    if verdict is Verdict.APPROVE:
        resolved["new_version"] = str(doc.version)
    emit(state, EventKind.RESOLVED, resolved, meter)
    return verdict


def _advance_clock(state: RegistryState, to: int, meter: Optional[CostMeter], emit: Emit) -> list[int]:
    """Move the clock strictly forward and expire each proposal whose
    deadline came due and that is still active, in firing order; returns
    their ids. Queue entries of proposals resolved earlier are dropped."""
    if to <= state.clock.now:
        raise ClockRegression(f"clock must move forward from {state.clock.now}, not to {to}")
    state.clock.advance(to)
    emit(state, EventKind.CLOCK_ADVANCED, {"to": str(to)}, meter)
    expired: list[int] = []
    for _deadline, proposal_id in state.queue.due(to):
        proposal = state.proposals[proposal_id]
        if proposal.status is ProposalStatus.ACTIVE:
            _resolve(state, proposal, ResolveReason.EXPIRED, meter, emit)
            expired.append(proposal_id)
    return expired


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
            charge(meter, "storage_write_new", group.authz_config.storage_slots)
            charge(meter, "storage_write_new", 1)  # coordination parameters
            if group.time_limit is not None:
                charge(meter, "storage_write_new", 1)  # time settings
        _anchor(self.state, doc, _compact(model.document_to_json(doc)), meter, _log_event)
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
        proposal = _propose(state, doc, group, change_set, outcome.consume_nonce, meter, _log_event)
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
                return authz.deny(Unauthorized, "decision signature invalid")
            request = AuthzRequest(
                did=proposal.did,
                controller_key=decision.controller_key,
                proposal_id=proposal.proposal_id,
                credential=decision.credential,
            )
            return authz.authorize(group.authz_config, request, self.state.nonce_ledger, meter)
        except VerificationError as exc:
            return authz.deny(type(exc), str(exc))

    def decide(self, decision: Decision) -> Optional[Verdict]:
        """Submit one on-chain decision; returns the verdict if it resolved
        the proposal (decisive vote), else None."""
        proposal, group, meter = self._open_decisions(decision.proposal_id, ExecutionMode.ON_CHAIN)
        outcome = self._check_decision(proposal, group, decision, meter)
        if not outcome.granted:
            raise outcome.denial
        tally = self.state.tallies[proposal.proposal_id]
        # submit_decision validates (duplicate/full/finalized) before appending
        coord.submit_decision(group.coord_config, tally, decision, outcome, meter)
        entry = (decision.controller_key, decision.verdict, outcome.effective_weight)
        result = _decision(self.state, proposal, group, entry, outcome.consume_nonce, meter, _log_event)
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
            decision, outcome = batch.decisions[index], outcomes[index]
            entry = (decision.controller_key, decision.verdict, outcome.effective_weight)
            _decision(self.state, proposal, group, entry, outcome.consume_nonce, meter, _log_event)
        self._commit(meter, "decide_batch")
        return result

    # -- resolution -----------------------------------------------------------

    def resolve_manual(self, proposal_id: int) -> Verdict:
        state = self.state
        proposal = state.proposals.get(proposal_id)
        if proposal is None:
            raise UnknownProposal(f"no proposal {proposal_id}")
        if proposal.status is not ProposalStatus.ACTIVE:
            raise AlreadyFinalized(f"proposal {proposal_id} is {proposal.status.value}")
        meter = self._meter()
        charge(meter, "base_tx", 1)
        verdict = _resolve(state, proposal, ResolveReason.MANUAL, meter, _log_event)
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
        resolved = [] if to == state.clock.now else _advance_clock(state, to, meter, _log_event)
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


def _indented(value) -> str:
    """``value`` as the text of ``json.dumps(value, indent=2,
    sort_keys=True)``, written in one pass. Its domain is what
    :func:`state_snapshot` builds: dicts with str keys, lists, and str, int,
    bool and ``None`` leaves (str and int subclasses included). Any other
    value raises ``TypeError``."""
    out: list[str] = []
    _write_indented(value, "\n", out.append)
    return "".join(out)


def _write_indented(value, newline: str, append: Callable[[str], None]) -> None:
    """Append the text of ``value`` to the output; ``newline`` is the line
    break and indent of the line it starts on. (A module function, not a
    closure: a closure that calls itself is a reference cycle, and it would
    keep the whole output alive until the cyclic collector runs.)"""
    kind = type(value)
    if kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator, comma = "{" + inner, "," + inner
        for key in sorted(value):
            append(separator)
            append(encode_basestring_ascii(key))  # a TypeError for a key that is not a str
            append(": ")
            _write_indented(value[key], inner, append)
            separator = comma
        append(newline)
        append("}")
    elif kind is list:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            append(separator)
            _write_indented(item, inner, append)
            separator = comma
        append(newline)
        append("]")
    elif kind is str:
        append(encode_basestring_ascii(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, str):
        append(encode_basestring_ascii(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not in the snapshot's JSON domain")


def snapshot_json(state: RegistryState) -> str:
    return _indented(state_snapshot(state)) + "\n"


def event_log_to_jsonl(events: Sequence[GovernanceEvent]) -> str:
    write = _compact_writer()
    return "".join([write(model.event_to_json(event)) + "\n" for event in events])


# What a hostile log can make decoding or folding raise; each is reported
# as an EncodingError.
_MALFORMED = (GovernanceError, LookupError, ValueError, TypeError, AttributeError, RecursionError)


_scan = c_make_scanner(JSONDecoder())
_JSON_SPACE = " \t\n\r"


def _json_line(line: str):
    """``json.loads(line)``, errors included, without its per-call Python
    layers: the C scanner reads the value after any JSON whitespace, and
    only JSON whitespace may follow it."""
    start = len(line) - len(line.lstrip(_JSON_SPACE))
    try:
        value, end = _scan(line, start)
    except StopIteration as stop:
        if line.startswith("\ufeff"):
            raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0) from None
        raise JSONDecodeError("Expecting value", line, stop.value) from None
    if end != len(line):
        extra = len(line) - len(line[end:].lstrip(_JSON_SPACE))
        if extra != len(line):
            raise JSONDecodeError("Extra data", line, extra)
    return value


def event_log_from_jsonl(text: str) -> list[GovernanceEvent]:
    """The events of a JSONL log, one per non-blank line. A line that does
    not decode to an event raises an ``EncodingError`` naming it."""
    events = []
    append = events.append
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            append(model.event_from_json(_json_line(line)))
        except _MALFORMED as exc:
            raise EncodingError(f"bad event on line {line_number}: {type(exc).__name__}: {exc}") from exc
    return events


def _decode_nonce(payload) -> Nonce:
    if "nonce" not in payload:
        return None
    return bytes.fromhex(payload["nonce_issuer"]), bytes.fromhex(payload["nonce"])


def _submission_after(events: Sequence[GovernanceEvent], at: int) -> Mapping[str, str]:
    """The payload of the submission an override at ``events[at]`` makes
    room for: the event logged next."""
    if at + 1 < len(events) and events[at + 1].kind is EventKind.PROPOSAL_SUBMITTED:
        return events[at + 1].payload
    override = events[at].payload
    what = f"submit group {override['overriding_group']}'s proposal on did {override['did']}"
    if at + 1 == len(events):
        raise EncodingError(f"the log ends before an event can {what}")
    raise EncodingError(f"event {at + 2} must {what}")


def _difference(logged: GovernanceEvent, derived: GovernanceEvent) -> str:
    """The first field, or payload field, in which two events differ."""
    for name in ("sequence", "tick", "kind"):
        if getattr(logged, name) != getattr(derived, name):
            return f"logged {name} {getattr(logged, name)!r}, derived {getattr(derived, name)!r}"
    logged_payload, derived_payload = logged.payload, derived.payload
    key = next(
        k for k in (*derived_payload, *logged_payload) if logged_payload.get(k) != derived_payload.get(k)
    )
    return f"logged {key} {logged_payload.get(key)!r}, derived {derived_payload.get(key)!r}"


def replay_events(events: Sequence[GovernanceEvent]) -> RegistryState:
    """Fold an audit log over an empty registry (event sourcing).

    Each transaction runs the body the live registry runs. Replay reads
    the body's inputs from the transaction's first event: an anchored
    document, a proposal (from the submission an override makes room
    for), a decision, a manual resolution or a clock advance; a
    ``scheduled`` event never begins a transaction. A decision's nonce and
    weight, and a proposal's nonce, are first checked against the group's
    authorization config as far as the log shows them: no event logs a
    signature, a credential or a proposer. Every event the body derives
    must be the next one logged, equal in sequence, tick, kind and payload.
    A log that does not decode, fold or pass these checks raises
    ``EncodingError`` naming the event's sequence number.
    """
    state = RegistryState()

    def emit(
        state: RegistryState, kind: EventKind, payload: dict[str, str], meter: Optional[CostMeter]
    ) -> None:
        at = len(state.event_log)
        if at == len(events):
            raise EncodingError(f"the transaction derives a {kind.value} event next")
        logged, tick = events[at], state.clock.now
        if (
            logged.sequence != at + 1
            or logged.tick != tick
            or logged.kind is not kind
            or logged.payload != payload
        ):
            raise EncodingError(_difference(logged, GovernanceEvent(at + 1, tick, kind, payload)))
        state.event_log.append(logged)

    while len(state.event_log) < len(events):
        at = len(state.event_log)
        event = events[at]
        payload = event.payload
        try:
            if event.kind is EventKind.ANCHORED:
                document = payload["document"]
                _anchor(state, model.document_from_json(json.loads(document)), document, None, emit)
            elif event.kind in (EventKind.PROPOSAL_SUBMITTED, EventKind.PROPOSAL_OVERRIDDEN):
                if event.kind is EventKind.PROPOSAL_OVERRIDDEN:
                    payload = _submission_after(events, at)
                logged = model.proposal_from_json(json.loads(payload["proposal"]))
                nonce = _decode_nonce(payload)
                doc = state.documents[logged.did]
                group = doc.group(logged.originating_group)
                group.authz_config.check_logged_nonce(nonce, state.nonce_ledger, "proposal")
                _propose(state, doc, group, logged.change_set, nonce, None, emit)
            elif event.kind is EventKind.DECISION_ACCEPTED:
                proposal = state.proposals[int(payload["proposal_id"])]
                group = state.documents[proposal.did].group(proposal.originating_group)
                entry = (
                    bytes.fromhex(payload["controller"]),
                    Verdict(payload["verdict"]),
                    int(payload["weight"]),
                )
                nonce = _decode_nonce(payload)
                group.authz_config.check_logged_nonce(nonce, state.nonce_ledger, "decision")
                group.authz_config.check_logged_weight(entry[0], entry[2])
                coord.append_entry(group.coord_config, state.tallies[proposal.proposal_id], entry)
                _decision(state, proposal, group, entry, nonce, None, emit)
            elif event.kind is EventKind.RESOLVED:
                _resolve(state, state.proposals[int(payload["proposal_id"])], ResolveReason.MANUAL, None, emit)
            elif event.kind is EventKind.CLOCK_ADVANCED:
                _advance_clock(state, int(payload["to"]), None, emit)
            else:
                raise EncodingError("a scheduled event never begins a transaction")
        except _MALFORMED as exc:
            at = len(state.event_log)
            if at == len(events):
                raise EncodingError(f"the log ends after event {at} ({exc})") from exc
            failed = events[at]
            raise EncodingError(
                f"event {failed.sequence} ({failed.kind.value}) does not fold: {type(exc).__name__}: {exc}"
            ) from exc
    return state
