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

An anchored event records its document, and a submission its proposal,
as the compact text that :func:`didgov.model.document_to_compact` and
:func:`didgov.model.proposal_to_compact` write from the record, with no
dict built; replay decodes the logged text, runs the transaction, and
requires the text the transaction derives to equal it.
:func:`event_log_to_jsonl` writes each event line from a template, with no
JSON encoder and no dict built. Each payload shape the transactions log (a
kind and its payload keys in order) has its own writer, one f-string with
the kind and the keys as literal text; any other event goes through the
generic line, its kind's fixed text and its payload's members. An audit
decodes, folds (each kind of event that begins a transaction through its
entry in :data:`_FOLDS`), then snapshots.
:func:`event_log_from_jsonl` reads each line with CPython's C JSON scanner
and accepts only a line that is exactly one event
(:func:`didgov.model.event_from_json`).
:func:`snapshot_json` writes the text of ``json.dumps(state_snapshot(state),
separators=(",", ":"))`` straight from the state's records, in the log's
compact form: a document and a proposal write the text their events
record (:mod:`didgov.model`), and this module writes the tallies, the
nonce ledger, the queue and the scalars. No dict of the snapshot is
built; :func:`state_snapshot` is the reference projection the text is
tested against. ``python -m json.tool`` indents a snapshot for reading.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from json.decoder import JSONDecodeError, JSONDecoder
from json.encoder import encode_basestring_ascii
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
    MalformedCredential,
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
    UpdateProposal,
    Verdict,
)
from .scheduler import DeadlineQueue, SimClock

if c_make_scanner is None:
    raise ImportError("didgov requires CPython's _json accelerator (c_make_scanner)")


@dataclass
class RegistryState:
    documents: dict[Did, DidDocument] = field(default_factory=dict)
    active_proposals: dict[Did, UpdateProposal] = field(default_factory=dict)
    # the document each active proposal installs if approved, admitted with it
    successors: dict[Did, DidDocument] = field(default_factory=dict)
    proposals: dict[int, UpdateProposal] = field(default_factory=dict)
    tallies: dict[int, Tally] = field(default_factory=dict)
    nonce_ledger: NonceLedger = field(default_factory=set)
    # the signature triples this registry found valid (see crypto.verify): a
    # memo of a pure function, never logged, snapshotted or compared
    verified: crypto.Verified = field(default_factory=set, compare=False, repr=False)
    event_log: list[GovernanceEvent] = field(default_factory=list)
    queue: DeadlineQueue = field(default_factory=DeadlineQueue)
    clock: SimClock = field(default_factory=SimClock)


# The enum members the transactions test and log, as module names: loading
# a member from its enum class costs several global loads.
_ACTIVE, _APPROVED, _REJECTED = ProposalStatus.ACTIVE, ProposalStatus.APPROVED, ProposalStatus.REJECTED
_EXPIRED, _OVERRIDDEN = ProposalStatus.EXPIRED, ProposalStatus.OVERRIDDEN
_APPROVE, _ON_CHAIN, _OFF_CHAIN = Verdict.APPROVE, ExecutionMode.ON_CHAIN, ExecutionMode.OFF_CHAIN
_DECISIVE, _MANUAL, _BY_EXPIRY = ResolveReason.DECISIVE, ResolveReason.MANUAL, ResolveReason.EXPIRED
_ANCHORED_EVENT, _SUBMITTED_EVENT = EventKind.ANCHORED, EventKind.PROPOSAL_SUBMITTED
_OVERRIDDEN_EVENT, _ACCEPTED_EVENT = EventKind.PROPOSAL_OVERRIDDEN, EventKind.DECISION_ACCEPTED
_SCHEDULED_EVENT, _RESOLVED_EVENT, _CLOCK_EVENT = EventKind.SCHEDULED, EventKind.RESOLVED, EventKind.CLOCK_ADVANCED
# each member's value, the str its ``value`` property returns, read without
# the property (members of two enums with equal values share an entry)
_VALUE = {member: member.value for kind in (Verdict, ProposalStatus, ResolveReason) for member in kind}


# --- transactions: one function each, run by the live registry and by replay --
# A transaction function holds all of a transaction's work, in order: its
# lookups and refusals, charges, authorization, state writes and each event
# it derives. Live and replay differ in two arguments. ``emit``: live,
# :func:`_log_event` appends and meters an event; replay requires the next
# logged event to equal it. ``authorize`` (``proposal`` is None for a
# proposer): live, :func:`_granted` or :func:`_signed`, which check each
# signature against the state's ``verified`` memo; replay, :func:`_logged`,
# which checks no signature.

Emit = Callable[[RegistryState, EventKind, dict[str, str], Optional[CostMeter]], None]
Authorize = Callable[
    [GovernanceGroup, Optional[UpdateProposal], NonceLedger, Optional[CostMeter], crypto.Verified], AuthzOutcome
]
Vote = tuple[bytes, Verdict, Authorize]  # controller key, verdict, and the check that admits it


def _log_event(
    state: RegistryState, kind: EventKind, payload: dict[str, str], meter: Optional[CostMeter]
) -> None:
    """Live ``emit``: append the event at the clock after the transition,
    and meter it."""
    event = GovernanceEvent(len(state.event_log) + 1, state.clock.now, kind, payload)
    state.event_log.append(event)
    charge(meter, "event_base", 1)
    charge(meter, "event_per_byte", event.payload_bytes())


def _burn(state: RegistryState, nonce: Nonce, payload: dict[str, str]) -> None:
    """Burn a granted token's nonce, if the outcome carries one, and record
    it in the payload of the event that commits it."""
    if nonce is not None:
        state.nonce_ledger.add(nonce)
        payload["nonce_issuer"] = nonce[0].hex()
        payload["nonce"] = nonce[1].hex()


def _group_of(state: RegistryState, proposal: UpdateProposal) -> GovernanceGroup:
    return state.documents[proposal.did].group(proposal.originating_group)


def _anchor(state: RegistryState, doc: DidDocument, meter: Optional[CostMeter], emit: Emit) -> None:
    """Install a new document, at version 1, and charge its storage. The
    event records the document's compact JSON text."""
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
    anchored = {"did": str(doc.did), "document": model.document_to_compact(doc)}
    emit(state, _ANCHORED_EVENT, anchored, meter)


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
    DID's active proposal, if any, then open proposal ``len(proposals) + 1``
    (Active, against the document's current version, created now, with a
    fresh tally) and schedule its deadline if the group has a time limit.

    The group submits only a change set its edit right permits and that
    applies to the document as it stands; the successor document it gives
    is kept until the proposal resolves, so resolving cannot fail. The group
    overrides an active proposal only with strictly higher edit right than
    that proposal's group.
    """
    doc = state.documents.get(did)
    if doc is None:
        raise NotAnchored(f"did {did} is not anchored")
    group = doc.group(originating_group)
    charge(meter, "base_tx", 1)
    # the router fetches the governance configurations from the document
    charge(meter, "iteration_step", len(doc.groups))
    outcome = authorize(group, None, state.nonce_ledger, meter, state.verified)
    if not outcome.granted:
        raise outcome.denial
    if not allowed_changes(group.edit_right, group.group_id, change_set):
        raise EditRightViolation(
            f"{group.edit_right.json_name()} group {group.group_id} cannot make this change"
        )
    successor = model.apply_change_set(doc, change_set)
    active = state.active_proposals.get(doc.did)
    if active is not None:
        if group.edit_right <= doc.group(active.originating_group).edit_right:
            raise ActiveProposalPrecedence(
                f"proposal {active.proposal_id} is active with equal or higher privilege"
            )
        coord.freeze(state.tallies[active.proposal_id], meter)
        active.status = _OVERRIDDEN
        overridden = {
            "proposal_id": str(active.proposal_id),
            "did": str(doc.did),
            "overriding_group": str(group.group_id),
        }
        emit(state, _OVERRIDDEN_EVENT, overridden, meter)
    proposal = UpdateProposal(
        proposal_id=len(state.proposals) + 1,  # no proposal is ever removed
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
    state.successors[doc.did] = successor  # the overridden proposal's successor is dropped
    submitted = {"proposal": model.proposal_to_compact(proposal)}
    _burn(state, outcome.consume_nonce, submitted)
    emit(state, _SUBMITTED_EVENT, submitted, meter)
    if group.time_limit is not None:
        proposal.deadline = proposal.created_at + group.time_limit
        state.queue.push(proposal.deadline, proposal.proposal_id)
        scheduled = {"proposal_id": str(proposal.proposal_id), "deadline": str(proposal.deadline)}
        emit(state, _SCHEDULED_EVENT, scheduled, meter)
    return proposal


def _decide(
    state: RegistryState, proposal_id: int, vote: Vote, meter: Optional[CostMeter], emit: Emit
) -> Optional[Verdict]:
    """Count one on-chain decision on an active proposal (its deadline lies
    ahead: the clock advance that reaches it expires it). A decision that
    settles the tally resolves the proposal at once: returns the verdict if
    it did, else None."""
    proposal = state.proposals.get(proposal_id)
    if proposal is None or proposal.status is not _ACTIVE:
        raise NoActiveProposal(f"proposal {proposal_id} is not active")
    group = _group_of(state, proposal)
    charge(meter, "base_tx", 1)
    if group.execution is not _ON_CHAIN:
        raise WrongExecutionMode("single decisions are only possible for on-chain coordination")
    controller, verdict, authorize = vote
    outcome = authorize(group, proposal, state.nonce_ledger, meter, state.verified)
    if not outcome.granted:
        raise outcome.denial
    weight, tally = outcome.effective_weight, state.tallies[proposal_id]
    # submit_decision validates (duplicate/full/finalized) before appending
    settled = coord.submit_decision(group.coord_config, tally, controller, verdict, weight, meter)
    _decision(state, proposal, controller, verdict, outcome, meter, emit)
    return None if settled is None else _resolve(state, proposal, _DECISIVE, meter, emit)


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
    if proposal is None or proposal.status is not _ACTIVE:
        raise NoActiveProposal(f"proposal {proposal_id} is not active")
    group = _group_of(state, proposal)
    charge(meter, "base_tx", 1)  # an off-chain aggregate rides one transaction too
    if group.execution is not _OFF_CHAIN:
        raise WrongExecutionMode("aggregates are only possible for off-chain coordination")
    ledger, verified = state.nonce_ledger, state.verified
    outcomes = [authorize(group, proposal, ledger, meter, verified) for _, _, authorize in votes]
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
    accepted = {
        "proposal_id": str(proposal.proposal_id),
        "controller": controller.hex(),
        "verdict": _VALUE[verdict],
        "weight": str(outcome.effective_weight),
    }
    _burn(state, outcome.consume_nonce, accepted)
    emit(state, _ACCEPTED_EVENT, accepted, meter)


def _resolve_manual(state: RegistryState, proposal_id: int, meter: Optional[CostMeter], emit: Emit) -> Verdict:
    """Resolve an active proposal now, on the tally it has."""
    proposal = state.proposals.get(proposal_id)
    if proposal is None:
        raise UnknownProposal(f"no proposal {proposal_id}")
    if proposal.status is not _ACTIVE:
        raise AlreadyFinalized(f"proposal {proposal_id} is {proposal.status.value}")
    charge(meter, "base_tx", 1)
    return _resolve(state, proposal, _MANUAL, meter, emit)


def _resolve(
    state: RegistryState,
    proposal: UpdateProposal,
    reason: ResolveReason,
    meter: Optional[CostMeter],
    emit: Emit,
) -> Verdict:
    """Finalize the tally of an Active proposal, install the approved
    successor document (if any) and close the proposal for ``reason``.

    The successor is the one :func:`_propose` admitted: the change set
    applied to this document version, which the single-active rule keeps
    fixed until the proposal resolves. It is not part of the proposal's
    JSON or the snapshot, so a decoder that rebuilds a registry from a
    snapshot (ROADMAP item 8) must rebuild it for each active proposal.
    """
    doc = state.documents[proposal.did]
    group = doc.group(proposal.originating_group)
    verdict = coord.resolve(group.coord_config, state.tallies[proposal.proposal_id], meter)
    successor = state.successors.pop(proposal.did)
    if verdict is _APPROVE:
        doc = successor
        state.documents[proposal.did] = doc
        charge(meter, "storage_write_update", 1)  # document record
        proposal.status = _APPROVED
    else:
        proposal.status = _EXPIRED if reason is _BY_EXPIRY else _REJECTED
    del state.active_proposals[proposal.did]
    resolved = {
        "proposal_id": str(proposal.proposal_id),
        "verdict": _VALUE[verdict],
        "reason": _VALUE[reason],
        "status": _VALUE[proposal.status],
    }
    if verdict is _APPROVE:
        resolved["new_version"] = str(doc.version)
    emit(state, _RESOLVED_EVENT, resolved, meter)
    return verdict


def _advance_clock(state: RegistryState, to: int, meter: Optional[CostMeter], emit: Emit) -> list[int]:
    """Move the clock forward and expire each proposal whose deadline came
    due and that is still active, in firing order; returns their ids. Queue
    entries of proposals resolved earlier are dropped."""
    model._require_int(to, "the clock tick", ClockRegression)
    if to < state.clock.now:
        raise ClockRegression(f"clock must move forward from {state.clock.now}, not to {to}")
    charge(meter, "base_tx", 1)
    if to == state.clock.now:
        return []  # a quiet transaction (see Registry.advance_clock)
    state.clock.advance(to)
    emit(state, _CLOCK_EVENT, {"to": str(to)}, meter)
    expired: list[int] = []
    for _deadline, proposal_id in state.queue.due(to):
        proposal = state.proposals[proposal_id]
        if proposal.status is _ACTIVE:
            _resolve(state, proposal, _BY_EXPIRY, meter, emit)
            expired.append(proposal_id)
    return expired


def _granted(request: AuthzRequest) -> Authorize:
    """Live ``authorize`` of a proposer: the group's authorization of ``request``."""
    return lambda group, proposal, ledger, meter, verified: authz.authorize(
        group.authz_config, request, ledger, meter, verified
    )


def _signed(decision: Decision) -> Vote:
    """Live vote of ``decision``: its ``authorize`` checks the signature, then
    runs the group's authorization. Every refusal, wrong-length key or
    signature bytes and credential claims that are not text included, is a
    denied outcome rather than an exception. Anything but a ``Decision``
    raises ``EncodingError`` before a transaction begins."""
    if not isinstance(decision, Decision):
        raise EncodingError(f"a vote is a decision, not {type(decision).__name__}")

    def authorize(group, proposal, ledger, meter, verified) -> AuthzOutcome:
        charge(meter, "sig_verify", 1)
        payload = encoding.decision_payload(
            str(proposal.did), proposal.proposal_id, proposal.base_version, decision.verdict.value
        )
        try:
            if not crypto.verify(decision.controller_key, payload, decision.signature, verified):
                return authz.deny(Unauthorized, "decision signature invalid")
            request = AuthzRequest(
                did=proposal.did,
                controller_key=decision.controller_key,
                proposal_id=proposal.proposal_id,
                credential=decision.credential,
            )
            return authz.authorize(group.authz_config, request, ledger, meter, verified)
        except (VerificationError, MalformedCredential) as exc:
            return authz.deny(type(exc), str(exc))

    return decision.controller_key, decision.verdict, authorize


def allowed_changes(edit_right: EditRightLevel, originating_group: int, change_set: ChangeSet) -> bool:
    """Does this edit right level permit this change set? Content changes
    are open to every level; each group operation names the least edit
    right that may propose it (see :mod:`didgov.model`)."""
    return all(edit_right >= op.edit_right_needed(originating_group) for op in change_set.group_ops)


def _batch_votes(batch: DecisionBatch) -> list[Vote]:
    """The live votes of an off-chain aggregate; anything but a
    ``DecisionBatch`` raises ``EncodingError`` before a transaction begins."""
    if not isinstance(batch, DecisionBatch):
        raise EncodingError(f"an aggregate is a decision batch, not {type(batch).__name__}")
    return [_signed(decision) for decision in batch.decisions]


def build_decision(
    signer: crypto.KeyPair,
    did: Did,
    proposal_id: int,
    base_version: int,
    verdict: Verdict,
    credential=None,
) -> Decision:
    """Client-side helper: sign the canonical decision payload."""
    if not isinstance(proposal_id, int) or not isinstance(base_version, int) or type(verdict) is not Verdict:
        raise EncodingError(
            f"a decision names an integer id and version and a verdict, not {proposal_id!r}, {base_version!r}, "
            f"{verdict!r}"
        )
    signature = crypto.sign(signer, encoding.decision_payload(str(did), proposal_id, base_version, verdict.value))
    return Decision(
        proposal_id=proposal_id,
        controller_key=signer.public_key,
        verdict=verdict,
        signature=signature,
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
        doc = DidDocument(did=Did(did), version=1, public_keys=public_keys, attributes=attributes, groups=groups)
        self._run("anchor", _anchor, doc)
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
        vote = _signed(decision)
        return self._run("decide", _decide, decision.proposal_id, vote)

    def decide_batch(self, batch: DecisionBatch) -> BatchResult:
        """Submit an off-chain aggregate as one transaction; invalid entries
        are skipped and reported, not fatal (see :func:`_decide_batch`)."""
        votes = _batch_votes(batch)
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
    ordered so equal states serialize to equal bytes: sections by name,
    documents and active proposals by DID, proposals and tallies by id."""
    return {
        "active_proposals": {
            str(did): proposal.proposal_id for did, proposal in sorted(state.active_proposals.items())
        },
        "clock": state.clock.now,
        "documents": {str(did): model.document_to_json(doc) for did, doc in sorted(state.documents.items())},
        "last_sequence": state.event_log[-1].sequence if state.event_log else 0,
        "next_proposal_id": len(state.proposals) + 1,
        "nonce_ledger": [[issuer.hex(), nonce.hex()] for issuer, nonce in sorted(state.nonce_ledger)],
        "proposals": {
            str(pid): model.proposal_to_json(proposal) for pid, proposal in sorted(state.proposals.items())
        },
        "schedule_queue": [[deadline, pid] for deadline, pid in state.queue.entries()],
        "tallies": {
            str(pid): {
                "accepted": [[key.hex(), verdict.value, weight] for key, verdict, weight in tally.accepted],
                "finalized": tally.finalized,
            }
            for pid, tally in sorted(state.tallies.items())
        },
    }


def _tally_text(tally: Tally) -> str:
    """The compact text of a tally's projection in :func:`state_snapshot`."""
    spell, quote = int.__repr__, encode_basestring_ascii
    accepted = ",".join([
        f'["{key.hex()}",{quote(verdict)},{spell(weight)}]' for key, verdict, weight in tally.accepted
    ])
    return f'{{"accepted":[{accepted}],"finalized":{"true" if tally.finalized else "false"}}}'


def snapshot_json(state: RegistryState) -> str:
    """``json.dumps(state_snapshot(state), separators=(",", ":")) + "\\n"``,
    written straight from the state's records, each through its compact
    template (:func:`didgov.model.document_to_compact`,
    :func:`didgov.model.proposal_to_compact`, :func:`_tally_text`, ...),
    with no dict of the snapshot built: a document's or proposal's text is
    the text its event logs. It holds each section's text and the whole
    text once: about twice the text at its peak."""
    spell, quote = int.__repr__, encode_basestring_ascii
    active = ",".join([
        f"{quote(did)}:{spell(proposal.proposal_id)}" for did, proposal in sorted(state.active_proposals.items())
    ])
    documents = ",".join([
        f"{quote(did)}:{model.document_to_compact(doc)}" for did, doc in sorted(state.documents.items())
    ])
    nonces = ",".join([f'["{issuer.hex()}","{nonce.hex()}"]' for issuer, nonce in sorted(state.nonce_ledger)])
    proposals = ",".join([
        f'"{spell(pid)}":{model.proposal_to_compact(proposal)}' for pid, proposal in sorted(state.proposals.items())
    ])
    queue = ",".join([f"[{spell(deadline)},{spell(pid)}]" for deadline, pid in state.queue.entries()])
    tallies = ",".join([f'"{spell(pid)}":{_tally_text(tally)}' for pid, tally in sorted(state.tallies.items())])
    last_sequence = state.event_log[-1].sequence if state.event_log else 0
    return (
        f'{{"active_proposals":{{{active}}},"clock":{spell(state.clock.now)},"documents":{{{documents}}},'
        f'"last_sequence":{spell(last_sequence)},"next_proposal_id":{spell(len(state.proposals) + 1)},'
        f'"nonce_ledger":[{nonces}],"proposals":{{{proposals}}},"schedule_queue":[{queue}],'
        f'"tallies":{{{tallies}}}}}\n'
    )


# what an event line holds between its tick and its payload, per kind
_KIND_FIELDS = {kind: f',"kind":{encode_basestring_ascii(kind.value)},"payload":' for kind in EventKind}
_quote, _spell = encode_basestring_ascii, int.__repr__


def _line(event: GovernanceEvent) -> str:
    """Any event's line: its kind's fixed text and its payload's members in
    order. A payload that is not a dict, or a key or value that is not
    text, raises ``TypeError`` or ``AttributeError``."""
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)}{_KIND_FIELDS[event.kind]}'
        f'{{{",".join([f"{_quote(key)}:{_quote(value)}" for key, value in event.payload.items()])}}}}}\n'
    )


# One writer per payload shape the transactions log: a kind and its payload
# keys in order. Each writes the line of :func:`_line` with the kind and the
# keys as literal text; a value that is not text raises ``TypeError``.

def _anchored_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"anchored","payload":'
        f'{{"did":{_quote(p["did"])},"document":{_quote(p["document"])}}}}}\n'
    )


def _submitted_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"proposal_submitted","payload":'
        f'{{"proposal":{_quote(p["proposal"])}}}}}\n'
    )


def _submitted_with_nonce_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"proposal_submitted","payload":'
        f'{{"proposal":{_quote(p["proposal"])},"nonce_issuer":{_quote(p["nonce_issuer"])},'
        f'"nonce":{_quote(p["nonce"])}}}}}\n'
    )


def _overridden_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"proposal_overridden","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"did":{_quote(p["did"])},'
        f'"overriding_group":{_quote(p["overriding_group"])}}}}}\n'
    )


def _accepted_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"decision_accepted","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"controller":{_quote(p["controller"])},'
        f'"verdict":{_quote(p["verdict"])},"weight":{_quote(p["weight"])}}}}}\n'
    )


def _accepted_with_nonce_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"decision_accepted","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"controller":{_quote(p["controller"])},'
        f'"verdict":{_quote(p["verdict"])},"weight":{_quote(p["weight"])},'
        f'"nonce_issuer":{_quote(p["nonce_issuer"])},"nonce":{_quote(p["nonce"])}}}}}\n'
    )


def _scheduled_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"scheduled","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"deadline":{_quote(p["deadline"])}}}}}\n'
    )


def _resolved_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"resolved","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"verdict":{_quote(p["verdict"])},'
        f'"reason":{_quote(p["reason"])},"status":{_quote(p["status"])}}}}}\n'
    )


def _resolved_with_version_line(event: GovernanceEvent) -> str:
    p = event.payload
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"resolved","payload":'
        f'{{"proposal_id":{_quote(p["proposal_id"])},"verdict":{_quote(p["verdict"])},'
        f'"reason":{_quote(p["reason"])},"status":{_quote(p["status"])},'
        f'"new_version":{_quote(p["new_version"])}}}}}\n'
    )


def _clock_line(event: GovernanceEvent) -> str:
    return (
        f'{{"sequence":{_spell(event.sequence)},"tick":{_spell(event.tick)},"kind":"clock_advanced","payload":'
        f'{{"to":{_quote(event.payload["to"])}}}}}\n'
    )


_LINE_WRITERS: dict[tuple[str, ...], Callable[[GovernanceEvent], str]] = {
    (_ANCHORED_EVENT, "did", "document"): _anchored_line,
    (_SUBMITTED_EVENT, "proposal"): _submitted_line,
    (_SUBMITTED_EVENT, "proposal", "nonce_issuer", "nonce"): _submitted_with_nonce_line,
    (_OVERRIDDEN_EVENT, "proposal_id", "did", "overriding_group"): _overridden_line,
    (_ACCEPTED_EVENT, "proposal_id", "controller", "verdict", "weight"): _accepted_line,
    (_ACCEPTED_EVENT, "proposal_id", "controller", "verdict", "weight", "nonce_issuer", "nonce"):
        _accepted_with_nonce_line,
    (_SCHEDULED_EVENT, "proposal_id", "deadline"): _scheduled_line,
    (_RESOLVED_EVENT, "proposal_id", "verdict", "reason", "status"): _resolved_line,
    (_RESOLVED_EVENT, "proposal_id", "verdict", "reason", "status", "new_version"): _resolved_with_version_line,
    (_CLOCK_EVENT, "to"): _clock_line,
}


def event_log_to_jsonl(events: Sequence[GovernanceEvent]) -> str:
    """One line per event, each the compact JSON text of
    :func:`didgov.model.event_to_json` for it, with no dict built per
    event. An event whose kind and payload keys, in order, are a shape the
    transactions log is written by that shape's writer in
    :data:`_LINE_WRITERS`; any other event (keys in another order, one
    missing or one extra, a hand-built or foreign event) by :func:`_line`.
    Both write the integers in ``json.dumps``'s spelling. A payload that is
    not a dict of text to text raises ``EncodingError``: every transaction
    logs text, so such an event was never logged."""
    writers, line = _LINE_WRITERS, _line
    try:
        return "".join([writers.get((event.kind, *event.payload), line)(event) for event in events])
    except (TypeError, AttributeError) as exc:
        raise EncodingError(f"an event holds integers and a text-to-text payload: {exc}") from None


# What a hostile log can make decoding or folding raise; each is reported
# as an EncodingError.
_MALFORMED = (GovernanceError, LookupError, ValueError, TypeError, AttributeError, RecursionError)


_scan = c_make_scanner(JSONDecoder())
_JSON_SPACE = " \t\n\r"


def _json_line(line: str):
    """``json.loads(line)``, errors included, without its per-call Python
    layers: the C scanner reads the value after any JSON whitespace, and
    only JSON whitespace may follow it. Replay decodes the document and
    proposal text that events hold with it too."""
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


class _Unfolded(EncodingError):
    """A fold failure, naming the logged event at fault."""

    def __init__(self, event: GovernanceEvent, exc: BaseException) -> None:
        super().__init__(f"event {event.sequence} ({event.kind.value}) does not fold: {type(exc).__name__}: {exc}")


def _logged(event: GovernanceEvent, controller: bytes = b"", weight: int = 1) -> Authorize:
    """Replay's ``authorize``: grant the nonce, and a decision's weight, that
    ``event`` logs, once the group's authorization config passes them as far
    as the log shows them; no event logs a signature, a credential or a
    proposer. A refusal names ``event``: an aggregate authorizes all its
    decisions before it derives any event."""
    try:
        nonce = _decode_nonce(event.payload)
    except _MALFORMED as exc:
        raise _Unfolded(event, exc) from exc

    def authorize(group, proposal, ledger, meter, verified) -> AuthzOutcome:
        config = group.authz_config
        try:
            config.check_logged_nonce(nonce, ledger, "proposal" if proposal is None else "decision")
            if proposal is not None:
                config.check_logged_weight(controller, weight)
        except GovernanceError as exc:
            raise _Unfolded(event, exc) from exc
        return AuthzOutcome(True, weight, None, nonce)

    return authorize


def _logged_vote(event: GovernanceEvent) -> Vote:
    """The vote a decision event logs; a field that does not decode names
    the event."""
    payload = event.payload
    try:
        controller, weight = bytes.fromhex(payload["controller"]), int(payload["weight"])
        verdict = model.enum_from_value(Verdict, payload["verdict"])
    except _MALFORMED as exc:
        raise _Unfolded(event, exc) from exc
    return controller, verdict, _logged(event, controller, weight)


def _aggregate(events: Sequence[GovernanceEvent], at: int) -> list[Vote]:
    """The votes of the off-chain aggregate that ``events[at]`` begins: it
    and each decision on the same proposal logged right after it."""
    proposal_id, end = events[at].payload["proposal_id"], at + 1
    while end < len(events) and events[end].kind is _ACCEPTED_EVENT:
        if events[end].payload.get("proposal_id") != proposal_id:
            break
        end += 1
    return [_logged_vote(event) for event in events[at:end]]


def _submission_after(events: Sequence[GovernanceEvent], at: int) -> GovernanceEvent:
    """The submission an override at ``events[at]`` makes room for: the
    event logged next."""
    if at + 1 < len(events) and events[at + 1].kind is _SUBMITTED_EVENT:
        return events[at + 1]
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
    logged_payload, derived_payload, absent = logged.payload, derived.payload, object()
    key = next(
        k
        for k in (*derived_payload, *logged_payload)
        if logged_payload.get(k, absent) != derived_payload.get(k, absent)
    )

    def value(payload) -> str:
        return repr(payload[key]) if key in payload else "(no such field)"

    return f"logged {key} {value(logged_payload)}, derived {value(derived_payload)}"


# Replay's reading of each kind of event that begins a transaction: the
# transaction's inputs, from the event at ``at`` (and the events after it
# that the same transaction logs), run through the transaction's function.
Fold = Callable[[RegistryState, Sequence[GovernanceEvent], int, Emit], None]


def _fold_anchor(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    _anchor(state, model.document_from_json(_json_line(events[at].payload["document"])), None, emit)


def _fold_proposal(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    event = events[at]
    if event.kind is _OVERRIDDEN_EVENT:
        event = _submission_after(events, at)
    logged = model.proposal_from_json(_json_line(event.payload["proposal"]))
    _propose(state, logged.did, logged.originating_group, logged.change_set, _logged(event), None, emit)


def _fold_decision(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    proposal_id = int(events[at].payload["proposal_id"])
    proposal = state.proposals.get(proposal_id)
    if proposal is not None and _group_of(state, proposal).execution is _OFF_CHAIN:
        _decide_batch(state, proposal_id, _aggregate(events, at), None, emit)
    else:
        _decide(state, proposal_id, _logged_vote(events[at]), None, emit)


def _fold_resolution(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    _resolve_manual(state, int(events[at].payload["proposal_id"]), None, emit)


def _fold_clock(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    _advance_clock(state, int(events[at].payload["to"]), None, emit)


def _fold_scheduled(state: RegistryState, events: Sequence[GovernanceEvent], at: int, emit: Emit) -> None:
    raise EncodingError("a scheduled event never begins a transaction")


_FOLDS: dict[EventKind, Fold] = {
    EventKind.ANCHORED: _fold_anchor,
    EventKind.PROPOSAL_SUBMITTED: _fold_proposal,
    EventKind.PROPOSAL_OVERRIDDEN: _fold_proposal,
    EventKind.DECISION_ACCEPTED: _fold_decision,
    EventKind.SCHEDULED: _fold_scheduled,
    EventKind.RESOLVED: _fold_resolution,
    EventKind.CLOCK_ADVANCED: _fold_clock,
}


def replay_events(events: Sequence[GovernanceEvent]) -> RegistryState:
    """Fold an audit log over an empty registry (event sourcing).

    Each transaction runs the function the live registry runs, with
    :func:`_logged` as ``authorize``. Replay reads its inputs from the
    transaction's first event, through its kind's entry in :data:`_FOLDS`:
    an anchored document, a proposal (from the submission an override
    makes room for), a decision (with the decisions on the same off-chain
    proposal logged right after it, as one aggregate), a manual resolution
    or a clock advance; a ``scheduled`` event never begins a transaction.
    Each transaction must derive at least one event, and every event it
    derives must be the next one logged, equal in sequence, tick, kind and
    payload. A log that does not decode, fold or pass these checks raises
    ``EncodingError`` naming the first logged event the failing transaction
    did not reproduce, or the decision or submission whose logged fields do
    not decode or do not authorize.
    """
    state = RegistryState()
    count = len(events)

    def emit(
        state: RegistryState, kind: EventKind, payload: dict[str, str], meter: Optional[CostMeter]
    ) -> None:
        at = len(state.event_log)
        if at == count:
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

    folds = _FOLDS
    while len(state.event_log) < count:
        at = len(state.event_log)
        try:
            folds[events[at].kind](state, events, at, emit)
            if len(state.event_log) == at:
                raise EncodingError("its transaction logs no event")
        except _Unfolded:
            raise
        except _MALFORMED as exc:
            at = len(state.event_log)
            if at == count:
                raise EncodingError(f"the log ends after event {at} ({exc})") from exc
            raise _Unfolded(events[at], exc) from exc
    return state
