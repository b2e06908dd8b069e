"""The authoritative governance state machine.

Single-writer: every public method is one transaction. Each transaction
validates completely before mutating, appends at least one audit event
when it changes state, and freezes its cost meter into a report on
commit. A raised error therefore leaves state, event log, and committed
reports exactly as they were.

The event log is the source of truth. Each transaction has one function,
the only writer of registry state: its lookups and refusals, its charges,
then its body, which derives in order the events it logs. The live
registry runs it with a fresh meter and an ``emit`` that logs each event.
:func:`replay_events` runs the same function with no meter, an
``authorize`` that re-checks what the log records of the caller, and an
``emit`` that requires each derived event to be the next one logged, so a
replayed log reproduces the live registry byte-for-byte (see
:func:`snapshot_json`). Tallies change only through :mod:`didgov.coord`.

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


# --- transactions: one function each, run by the live registry and by replay --
# A transaction function holds all of a transaction's work, in order: its
# lookups and refusals, charges, authorization, state writes and each event
# it derives. Live and replay differ in two arguments. ``emit``: live,
# :func:`_log_event` appends and meters an event; replay requires the next
# logged event to equal it. ``authorize`` (``proposal`` is None for a
# proposer): live, :func:`_granted` or :func:`_signed`; replay, :func:`_logged`.

Emit = Callable[[RegistryState, EventKind, dict[str, str], Optional[CostMeter]], None]
Authorize = Callable[[GovernanceGroup, Optional[UpdateProposal], NonceLedger, Optional[CostMeter]], AuthzOutcome]
Vote = tuple[bytes, Verdict, Authorize]  # controller key, verdict, and the check that admits it


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


def _group_of(state: RegistryState, proposal: UpdateProposal) -> GovernanceGroup:
    return state.documents[proposal.did].group(proposal.originating_group)


def _anchor(
    state: RegistryState, doc: DidDocument, document: str, meter: Optional[CostMeter], emit: Emit
) -> None:
    """Install a new document, at version 1, and charge its storage.
    ``document`` is its JSON text, the event's record of it."""
    if doc.did in state.documents:
        raise AlreadyAnchored(f"did {doc.did} is already anchored")
    if doc.version != 1:
        raise ValueError(f"a new document is at version 1, not {doc.version}")
    charge(meter, "base_tx", 1)
    charge(meter, "storage_write_new", 1)  # registry mapping entry + document head
    for group in doc.groups:
        charge(meter, "iteration_step", 1)
        charge(meter, "storage_write_new", 1)  # group container
        charge(meter, "storage_write_new", group.authz_config.storage_slots)
        charge(meter, "storage_write_new", 1)  # coordination parameters
        if group.time_limit is not None:
            charge(meter, "storage_write_new", 1)  # time settings
    state.documents[doc.did] = doc
    emit(state, EventKind.ANCHORED, {"did": str(doc.did), "document": document}, meter)


def _propose(
    state: RegistryState,
    did: Did,
    originating_group: int,
    change_set: ChangeSet,
    authorize: Authorize,
    meter: Optional[CostMeter],
    emit: Emit,
) -> UpdateProposal:
    """Admit a change set from a group of an anchored document: override the
    DID's active proposal, if any, then open proposal ``next_proposal_id``
    (Active, against the document's current version, created now, with a
    fresh tally) and schedule its deadline if the group has a time limit.

    The group submits only a change set its edit right permits and that
    applies to the document as it stands (a dry run), so resolving the
    proposal cannot fail; and it overrides an active proposal only with
    strictly higher edit right than that proposal's group.
    """
    doc = state.documents.get(did)
    if doc is None:
        raise NotAnchored(f"did {did} is not anchored")
    group = doc.group(originating_group)
    charge(meter, "base_tx", 1)
    # the router fetches the governance configurations from the document
    charge(meter, "iteration_step", len(doc.groups))
    outcome = authorize(group, None, state.nonce_ledger, meter)
    if not outcome.granted:
        raise outcome.denial
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
    _consume(state, outcome.consume_nonce)
    submitted = {"proposal": _compact(model.proposal_to_json(proposal))}
    submitted.update(_nonce_fields(outcome.consume_nonce))
    emit(state, EventKind.PROPOSAL_SUBMITTED, submitted, meter)
    if group.time_limit is not None:
        request = ScheduleRequest(proposal.proposal_id, proposal.created_at + group.time_limit)
        proposal.deadline = request.deadline
        state.queue.push(request)
        scheduled = {"proposal_id": str(request.proposal_id), "deadline": str(request.deadline)}
        emit(state, EventKind.SCHEDULED, scheduled, meter)
    return proposal


def _decide(
    state: RegistryState, proposal_id: int, vote: Vote, meter: Optional[CostMeter], emit: Emit
) -> Optional[Verdict]:
    """Count one on-chain decision on an active proposal (its deadline lies
    ahead: the clock advance that reaches it expires it). A decision that
    settles the tally resolves the proposal at once: returns the verdict if
    it did, else None."""
    proposal = state.proposals.get(proposal_id)
    if proposal is None or proposal.status is not ProposalStatus.ACTIVE:
        raise NoActiveProposal(f"proposal {proposal_id} is not active")
    group = _group_of(state, proposal)
    charge(meter, "base_tx", 1)
    if group.execution is not ExecutionMode.ON_CHAIN:
        raise WrongExecutionMode("single decisions are only possible for on-chain coordination")
    controller, verdict, authorize = vote
    outcome = authorize(group, proposal, state.nonce_ledger, meter)
    if not outcome.granted:
        raise outcome.denial
    weight, tally = outcome.effective_weight, state.tallies[proposal_id]
    # submit_decision validates (duplicate/full/finalized) before appending
    settled = coord.submit_decision(group.coord_config, tally, controller, verdict, weight, meter)
    _decision(state, proposal, controller, verdict, outcome, meter, emit)
    return None if settled is None else _resolve(state, proposal, ResolveReason.DECISIVE, meter, emit)


def _decide_batch(
    state: RegistryState, proposal_id: int, votes: Sequence[Vote], meter: Optional[CostMeter], emit: Emit
) -> BatchResult:
    """Count an off-chain aggregate on an active proposal as one transaction.
    Invalid entries (bad or malformed signature, denied authorization, a
    token nonce used twice in the batch, duplicate controller, turnout cap)
    are skipped and reported by :func:`coord.submit_batch`, not fatal."""
    if not votes:
        raise EmptyBatch("batch holds no decisions")
    proposal = state.proposals.get(proposal_id)
    if proposal is None or proposal.status is not ProposalStatus.ACTIVE:
        raise NoActiveProposal(f"proposal {proposal_id} is not active")
    group = _group_of(state, proposal)
    charge(meter, "base_tx", 1)  # an off-chain aggregate rides one transaction too
    if group.execution is not ExecutionMode.OFF_CHAIN:
        raise WrongExecutionMode("aggregates are only possible for off-chain coordination")
    outcomes = [authorize(group, proposal, state.nonce_ledger, meter) for _, _, authorize in votes]
    ballots = [(controller, verdict) for controller, verdict, _ in votes]
    result = coord.submit_batch(group.coord_config, state.tallies[proposal_id], ballots, outcomes, meter)
    for index in result.tallied:
        controller, verdict, _ = votes[index]
        _decision(state, proposal, controller, verdict, outcomes[index], meter, emit)
    return result


def _decision(
    state: RegistryState,
    proposal: UpdateProposal,
    controller: bytes,
    verdict: Verdict,
    outcome: AuthzOutcome,
    meter: Optional[CostMeter],
    emit: Emit,
) -> None:
    """Log a decision coord has just counted and burn its token nonce."""
    _consume(state, outcome.consume_nonce)
    accepted = {
        "proposal_id": str(proposal.proposal_id),
        "controller": controller.hex(),
        "verdict": verdict.value,
        "weight": str(outcome.effective_weight),
    }
    accepted.update(_nonce_fields(outcome.consume_nonce))
    emit(state, EventKind.DECISION_ACCEPTED, accepted, meter)


def _resolve_manual(state: RegistryState, proposal_id: int, meter: Optional[CostMeter], emit: Emit) -> Verdict:
    """Resolve an active proposal now, on the tally it has."""
    proposal = state.proposals.get(proposal_id)
    if proposal is None:
        raise UnknownProposal(f"no proposal {proposal_id}")
    if proposal.status is not ProposalStatus.ACTIVE:
        raise AlreadyFinalized(f"proposal {proposal_id} is {proposal.status.value}")
    charge(meter, "base_tx", 1)
    return _resolve(state, proposal, ResolveReason.MANUAL, meter, emit)


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
    """Move the clock forward and expire each proposal whose deadline came
    due and that is still active, in firing order; returns their ids. Queue
    entries of proposals resolved earlier are dropped."""
    if to < state.clock.now:
        raise ClockRegression(f"clock must move forward from {state.clock.now}, not to {to}")
    charge(meter, "base_tx", 1)
    if to == state.clock.now:
        return []  # a quiet transaction (see Registry.advance_clock)
    state.clock.advance(to)
    emit(state, EventKind.CLOCK_ADVANCED, {"to": str(to)}, meter)
    expired: list[int] = []
    for _deadline, proposal_id in state.queue.due(to):
        proposal = state.proposals[proposal_id]
        if proposal.status is ProposalStatus.ACTIVE:
            _resolve(state, proposal, ResolveReason.EXPIRED, meter, emit)
            expired.append(proposal_id)
    return expired


def _granted(request: AuthzRequest) -> Authorize:
    """Live ``authorize`` of a proposer: the group's authorization of ``request``."""
    return lambda group, proposal, ledger, meter: authz.authorize(group.authz_config, request, ledger, meter)


def _signed(decision: Decision) -> Vote:
    """Live vote of ``decision``: its ``authorize`` checks the signature, then
    runs the group's authorization. Every refusal, wrong-length key or
    signature bytes included, is a denied outcome rather than an exception."""

    def authorize(group, proposal, ledger, meter) -> AuthzOutcome:
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
            return authz.authorize(group.authz_config, request, ledger, meter)
        except VerificationError as exc:
            return authz.deny(type(exc), str(exc))

    return decision.controller_key, decision.verdict, authorize


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
    """In-process registry; owns all mutable governance state. Each public
    method is one transaction: a fresh meter, the transaction's function
    run with :func:`_log_event`, and the meter's report committed."""

    def __init__(self, schedule: Optional[CostSchedule] = None) -> None:
        self.state = RegistryState()
        self.schedule = schedule if schedule is not None else CostSchedule()
        self.reports: list[CostReport] = []

    def _run(self, label: str, transaction: Callable, *args):
        meter = CostMeter(self.schedule)
        result = transaction(self.state, *args, meter, _log_event)
        self.reports.append(meter.report(label))
        return result

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
        self._run("anchor", _anchor, doc, _compact(model.document_to_json(doc)))
        return doc

    def propose(
        self,
        did: str,
        originating_group: int,
        change_set: ChangeSet,
        controller_key: bytes,
        credential=None,
    ) -> int:
        request = AuthzRequest(did=Did(did), controller_key=controller_key, credential=credential)
        proposal = self._run("propose", _propose, request.did, originating_group, change_set, _granted(request))
        return proposal.proposal_id

    def decide(self, decision: Decision) -> Optional[Verdict]:
        """Submit one on-chain decision; returns the verdict if it resolved
        the proposal (decisive vote), else None."""
        return self._run("decide", _decide, decision.proposal_id, _signed(decision))

    def decide_batch(self, batch: DecisionBatch) -> BatchResult:
        """Submit an off-chain aggregate as one transaction; invalid entries
        are skipped and reported, not fatal (see :func:`_decide_batch`)."""
        votes = [_signed(decision) for decision in batch.decisions]
        return self._run("decide_batch", _decide_batch, batch.proposal_id, votes)

    def resolve_manual(self, proposal_id: int) -> Verdict:
        return self._run("resolve", _resolve_manual, proposal_id)

    def advance_clock(self, to: int) -> list[int]:
        """Move the simulated clock; fire expiry resolutions that came due
        (see :func:`_advance_clock`). Returns the proposal ids resolved by
        expiry, in firing order. Advancing to the current tick is a quiet
        transaction: it is metered but changes nothing and logs no event."""
        return self._run("advance_clock", _advance_clock, to)

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


def _logged(nonce: Nonce, controller: bytes = b"", weight: int = 1) -> Authorize:
    """Replay's ``authorize``: grant a logged nonce, and a logged decision's
    weight, once the group's authorization config passes them as far as the
    log shows them; no event logs a signature, a credential or a proposer."""

    def authorize(group, proposal, ledger, meter) -> AuthzOutcome:
        config = group.authz_config
        config.check_logged_nonce(nonce, ledger, "proposal" if proposal is None else "decision")
        if proposal is not None:
            config.check_logged_weight(controller, weight)
        return AuthzOutcome(granted=True, effective_weight=weight, consume_nonce=nonce)

    return authorize


def _logged_vote(payload: Mapping[str, str]) -> Vote:
    controller, weight = bytes.fromhex(payload["controller"]), int(payload["weight"])
    return controller, Verdict(payload["verdict"]), _logged(_decode_nonce(payload), controller, weight)


def _aggregate(events: Sequence[GovernanceEvent], at: int) -> list[Vote]:
    """The votes of the off-chain aggregate that ``events[at]`` begins: it
    and each decision on the same proposal logged right after it."""
    proposal_id, end = events[at].payload["proposal_id"], at + 1
    while end < len(events) and events[end].kind is EventKind.DECISION_ACCEPTED:
        if events[end].payload.get("proposal_id") != proposal_id:
            break
        end += 1
    return [_logged_vote(event.payload) for event in events[at:end]]


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

    Each transaction runs the function the live registry runs, with
    :func:`_logged` as ``authorize``. Replay reads its inputs from the
    transaction's first event: an anchored document, a proposal (from the
    submission an override makes room for), a decision (with the decisions
    on the same off-chain proposal logged right after it, as one
    aggregate), a manual resolution or a clock advance; a ``scheduled``
    event never begins a transaction. Each transaction must derive at least
    one event, and every event it derives must be the next one logged,
    equal in sequence, tick, kind and payload. A log that does not decode,
    fold or pass these checks raises ``EncodingError`` naming the first
    logged event the failing transaction did not reproduce.
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
                authorize = _logged(_decode_nonce(payload))
                _propose(state, logged.did, logged.originating_group, logged.change_set, authorize, None, emit)
            elif event.kind is EventKind.DECISION_ACCEPTED:
                proposal_id = int(payload["proposal_id"])
                proposal = state.proposals.get(proposal_id)
                if proposal is not None and _group_of(state, proposal).execution is ExecutionMode.OFF_CHAIN:
                    _decide_batch(state, proposal_id, _aggregate(events, at), None, emit)
                else:
                    _decide(state, proposal_id, _logged_vote(payload), None, emit)
            elif event.kind is EventKind.RESOLVED:
                _resolve_manual(state, int(payload["proposal_id"]), None, emit)
            elif event.kind is EventKind.CLOCK_ADVANCED:
                _advance_clock(state, int(payload["to"]), None, emit)
            else:
                raise EncodingError("a scheduled event never begins a transaction")
            if len(state.event_log) == at:
                raise EncodingError("its transaction logs no event")
        except _MALFORMED as exc:
            at = len(state.event_log)
            if at == len(events):
                raise EncodingError(f"the log ends after event {at} ({exc})") from exc
            failed = events[at]
            raise EncodingError(
                f"event {failed.sequence} ({failed.kind.value}) does not fold: {type(exc).__name__}: {exc}"
            ) from exc
    return state
