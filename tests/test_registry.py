import dataclasses
import gc

import pytest

from didgov import crypto, registry as registry_mod
from didgov.coord import DecisionBatch
from didgov.errors import (
    ActiveProposalPrecedence,
    AlreadyAnchored,
    AlreadyFinalized,
    ClockRegression,
    DuplicateBatch,
    DuplicateDecision,
    EditRightViolation,
    EmptyBatch,
    EncodingError,
    GovernanceError,
    InvalidChangeSet,
    MalformedCredential,
    NoActiveProposal,
    NotAnchored,
    ReplayedNonce,
    Unauthorized,
    UnknownGroup,
    UnknownProposal,
    VerificationError,
    WrongExecutionMode,
)
from didgov.model import (
    AddGroup,
    ChangeSet,
    Did,
    EditRightLevel,
    EventKind,
    ExecutionMode,
    NOfMConfig,
    ProposalStatus,
    RemoveGroup,
    ReplaceGroup,
    Verdict,
)
from didgov.registry import Registry, allowed_changes, build_decision

from .util import acl_group, anchored, pair, token_group, vc_group

CONTENT = ChangeSet(new_attributes={"k": "v"})


def _propose(registry, did, proposer, group_id=0, change=CONTENT, credential=None):
    return registry.propose(did, group_id, change, proposer.public_key, credential)


def _decide(registry, did, signer, pid, verdict=Verdict.APPROVE, credential=None, base_version=None):
    if base_version is None:
        base_version = registry.state.proposals[pid].base_version
    decision = build_decision(signer, Did(did), pid, base_version, verdict, credential)
    return registry.decide(decision)


class TestAnchor:
    def test_anchor_creates_version_one(self):
        registry, did = anchored([acl_group([pair("a")])])
        doc = registry.state.documents[Did(did)]
        assert doc.version == 1
        assert registry.state.event_log[-1].kind is EventKind.ANCHORED
        assert registry.reports[-1].transaction_label == "anchor"

    def test_reanchoring_rejected(self):
        registry, did = anchored([acl_group([pair("a")])])
        with pytest.raises(AlreadyAnchored):
            registry.anchor(did, [], {}, (acl_group([pair("a")]),))

    def test_failed_anchor_leaves_nothing(self):
        registry = Registry()
        with pytest.raises(Exception):
            registry.anchor("aa", [], {}, ())  # no groups
        assert not registry.state.documents
        assert not registry.state.event_log
        assert not registry.reports

    @pytest.mark.parametrize("call", ["anchor", "propose"])
    def test_a_did_not_in_lowercase_hex_is_an_encoding_error(self, call):
        registry, _ = anchored([acl_group([pair("a")])])
        before = registry.snapshot_json(), len(registry.reports)
        with pytest.raises(EncodingError, match="lowercase hex"):
            if call == "anchor":
                registry.anchor("XYZ", [], {}, (acl_group([pair("a")]),))
            else:
                _propose(registry, "XYZ", pair("a"))
        assert (registry.snapshot_json(), len(registry.reports)) == before


class TestAllowedChanges:
    def test_content_open_to_every_level(self):
        for level in EditRightLevel:
            assert allowed_changes(level, 0, CONTENT)

    def test_document_level_cannot_touch_groups(self):
        op = ReplaceGroup(group_id=0, group=acl_group([pair("x")], group_id=0))
        assert not allowed_changes(EditRightLevel.DOCUMENT, 0, ChangeSet(group_ops=(op,)))

    def test_self_governance_replaces_own_group_only(self):
        own = ReplaceGroup(group_id=0, group=acl_group([pair("x")], group_id=0))
        other = ReplaceGroup(group_id=1, group=acl_group([pair("x")], group_id=1))
        assert allowed_changes(EditRightLevel.SELF_GOVERNANCE, 0, ChangeSet(group_ops=(own,)))
        assert not allowed_changes(EditRightLevel.SELF_GOVERNANCE, 0, ChangeSet(group_ops=(other,)))
        removal = ChangeSet(group_ops=(RemoveGroup(group_id=0),))
        assert not allowed_changes(EditRightLevel.SELF_GOVERNANCE, 0, removal)

    def test_delegates_creation_adds_document_level_groups(self):
        low = AddGroup(group=acl_group([pair("x")], group_id=9))
        high = AddGroup(
            group=acl_group([pair("x")], group_id=9, edit_right=EditRightLevel.SELF_GOVERNANCE)
        )
        assert allowed_changes(EditRightLevel.DELEGATES_CREATION, 0, ChangeSet(group_ops=(low,)))
        assert not allowed_changes(EditRightLevel.DELEGATES_CREATION, 0, ChangeSet(group_ops=(high,)))

    def test_all_level_unrestricted(self):
        change = ChangeSet(group_ops=(RemoveGroup(group_id=3),))
        assert allowed_changes(EditRightLevel.ALL, 0, change)


class TestPropose:
    def test_happy_path(self):
        registry, did = anchored([acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2))])
        pid = _propose(registry, did, pair("a"))
        assert pid == 1
        proposal = registry.state.proposals[pid]
        assert proposal.status is ProposalStatus.ACTIVE
        assert proposal.base_version == 1
        assert registry.state.active_proposals[Did(did)] is proposal
        assert registry.state.event_log[-1].kind is EventKind.PROPOSAL_SUBMITTED

    def test_unanchored_did_rejected(self):
        with pytest.raises(NotAnchored):
            _propose(Registry(), "aa", pair("a"))

    def test_unknown_group_rejected(self):
        registry, did = anchored([acl_group([pair("a")])])
        with pytest.raises(UnknownGroup):
            _propose(registry, did, pair("a"), group_id=9)

    def test_non_member_rejected(self):
        registry, did = anchored([acl_group([pair("a")])])
        with pytest.raises(Unauthorized):
            _propose(registry, did, pair("z"))

    def test_edit_right_enforced(self):
        registry, did = anchored([acl_group([pair("a")])])  # document level
        change = ChangeSet(group_ops=(ReplaceGroup(group_id=0, group=acl_group([pair("b")], group_id=0)),))
        with pytest.raises(EditRightViolation):
            _propose(registry, did, pair("a"), change=change)

    def test_unappliable_change_rejected_up_front(self):
        registry, did = anchored(
            [acl_group([pair("a")], edit_right=EditRightLevel.ALL)]
        )
        with pytest.raises(UnknownGroup):
            _propose(registry, did, pair("a"), change=ChangeSet(group_ops=(RemoveGroup(group_id=9),)))
        with pytest.raises(InvalidChangeSet):
            # duplicate group id only surfaces when applying
            _propose(
                registry,
                did,
                pair("a"),
                change=ChangeSet(group_ops=(AddGroup(group=acl_group([pair("b")], group_id=0)),)),
            )
        # nothing was admitted: the next proposal still takes id 1
        assert _propose(registry, did, pair("a")) == 1

    def test_second_active_proposal_rejected_first_come_wins(self):
        registry, did = anchored(
            [
                acl_group([pair("a")], group_id=0),
                acl_group([pair("b")], group_id=1),  # equal privilege
            ]
        )
        _propose(registry, did, pair("a"), group_id=0)
        with pytest.raises(ActiveProposalPrecedence):
            _propose(registry, did, pair("b"), group_id=1)

    def test_lower_privilege_cannot_displace(self):
        registry, did = anchored(
            [
                acl_group([pair("a")], group_id=0, edit_right=EditRightLevel.SELF_GOVERNANCE),
                acl_group([pair("b")], group_id=1),  # document < self_governance
            ]
        )
        _propose(registry, did, pair("a"), group_id=0)
        with pytest.raises(ActiveProposalPrecedence):
            _propose(registry, did, pair("b"), group_id=1)

    def test_strictly_higher_privilege_overrides(self):
        registry, did = anchored(
            [
                acl_group([pair("a"), pair("x")], group_id=0, coord=NOfMConfig(n=2, m=2)),
                acl_group([pair("b")], group_id=1, edit_right=EditRightLevel.ALL),
            ]
        )
        first = _propose(registry, did, pair("a"), group_id=0)
        _decide(registry, did, pair("a"), first)  # partial tally, still active
        second = _propose(registry, did, pair("b"), group_id=1)
        overridden = registry.state.proposals[first]
        assert overridden.status is ProposalStatus.OVERRIDDEN
        assert registry.state.tallies[first].finalized
        assert registry.state.active_proposals[Did(did)].proposal_id == second
        kinds = [event.kind for event in registry.state.event_log]
        assert EventKind.PROPOSAL_OVERRIDDEN in kinds
        # an overridden proposal is dead: no decisions, no resolution
        with pytest.raises(NoActiveProposal):
            _decide(registry, did, pair("x"), first)
        with pytest.raises(AlreadyFinalized):
            registry.resolve_manual(first)

    def test_proposals_on_different_dids_are_independent(self):
        registry = Registry()
        registry.anchor("aa", [], {}, (acl_group([pair("a")]),))
        registry.anchor("bb", [], {}, (acl_group([pair("a")]),))
        assert _propose(registry, "aa", pair("a")) == 1
        assert _propose(registry, "bb", pair("a")) == 2


class TestDecide:
    def _registry(self):
        return anchored([acl_group([pair("a"), pair("b"), pair("c")], coord=NOfMConfig(n=2, m=3))])

    def test_non_decisive_returns_none(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        assert _decide(registry, did, pair("a"), pid) is None
        assert registry.state.proposals[pid].status is ProposalStatus.ACTIVE

    def test_decisive_vote_resolves_and_applies(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid)
        assert _decide(registry, did, pair("b"), pid) is Verdict.APPROVE
        doc = registry.state.documents[Did(did)]
        assert doc.version == 2
        assert doc.attributes == {"k": "v"}
        assert registry.state.proposals[pid].status is ProposalStatus.APPROVED
        assert Did(did) not in registry.state.active_proposals
        assert registry.state.event_log[-1].kind is EventKind.RESOLVED

    def test_early_reject_resolves_without_applying(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid, Verdict.REJECT)
        assert _decide(registry, did, pair("b"), pid, Verdict.REJECT) is Verdict.REJECT
        assert registry.state.documents[Did(did)].version == 1
        assert registry.state.proposals[pid].status is ProposalStatus.REJECTED

    def test_bad_signature_rejected(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        # signed against the wrong base version -> signature check fails
        decision = build_decision(pair("b"), Did(did), pid, 7, Verdict.APPROVE)
        with pytest.raises(Unauthorized):
            registry.decide(decision)

    def test_duplicate_decision_rejected(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        decision = build_decision(pair("a"), Did(did), pid, 1, Verdict.APPROVE)
        registry.decide(decision)
        with pytest.raises(DuplicateDecision):
            registry.decide(decision)  # byte-identical replay
        with pytest.raises(DuplicateDecision):
            _decide(registry, did, pair("a"), pid, Verdict.REJECT)  # changed mind

    def test_decide_after_resolution_rejected(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid)
        _decide(registry, did, pair("b"), pid)
        with pytest.raises(NoActiveProposal):
            _decide(registry, did, pair("c"), pid)

    def test_unknown_proposal_rejected(self):
        registry, did = self._registry()
        with pytest.raises(NoActiveProposal):
            _decide(registry, did, pair("a"), 9, base_version=1)

    def test_on_chain_group_rejects_batches(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        decision = build_decision(pair("a"), Did(did), pid, 1, Verdict.APPROVE)
        with pytest.raises(WrongExecutionMode):
            registry.decide_batch(DecisionBatch(proposal_id=pid, decisions=(decision,)))

    def test_failed_decide_changes_nothing(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        before_snapshot = registry.snapshot_json()
        before_reports = len(registry.reports)
        with pytest.raises(Unauthorized):
            _decide(registry, did, pair("z"), pid)
        assert registry.snapshot_json() == before_snapshot
        assert len(registry.reports) == before_reports


class TestCredentialFlows:
    def test_token_nonce_consumed_only_on_commit(self):
        issuer = pair("issuer")
        registry, did = anchored([token_group(issuer, coord=NOfMConfig(n=1, m=2))])
        token = crypto.issue_token(issuer, b"p" * 16)
        presentation = crypto.TokenPresentation(token=token)
        # a failing transaction must not burn the token
        bad_change = ChangeSet(group_ops=(RemoveGroup(group_id=0),))
        with pytest.raises(EditRightViolation):
            _propose(registry, did, pair("a"), change=bad_change, credential=presentation)
        pid = _propose(registry, did, pair("a"), credential=presentation)
        assert pid == 1
        # now it is burned for good
        with pytest.raises(ReplayedNonce):
            _propose(registry, did, pair("b"), credential=presentation)

    def test_acl_group_rejects_credentials(self):
        registry, did = anchored([acl_group([pair("a")])])
        token = crypto.issue_token(pair("issuer"), b"q" * 16)
        with pytest.raises(MalformedCredential):
            _propose(registry, did, pair("a"), credential=crypto.TokenPresentation(token=token))

    def test_vc_flow_end_to_end(self):
        issuer, holder = pair("issuer"), pair("holder")
        registry, did = anchored([vc_group(issuer, coord=NOfMConfig(n=1, m=2))])
        vc = crypto.issue_vc(issuer, holder.public_key, {"role": "voter"})
        pid = _propose(
            registry, did, holder, credential=crypto.present_vc(vc, holder, did, 0)
        )
        verdict = _decide(
            registry, did, holder, pid, credential=crypto.present_vc(vc, holder, did, pid)
        )
        assert verdict is Verdict.APPROVE
        assert registry.state.documents[Did(did)].version == 2

    def test_vc_presentation_context_mismatch_rejected(self):
        issuer, holder = pair("issuer"), pair("holder")
        registry, did = anchored([vc_group(issuer, coord=NOfMConfig(n=1, m=2))])
        vc = crypto.issue_vc(issuer, holder.public_key, {"role": "voter"})
        pid = _propose(registry, did, holder, credential=crypto.present_vc(vc, holder, did, 0))
        # propose-context presentation replayed against the live proposal
        with pytest.raises(Unauthorized):
            _decide(registry, did, holder, pid, credential=crypto.present_vc(vc, holder, did, 0))


class TestBatchFlow:
    def _registry(self, n=3, m=5):
        members = [pair(f"ctrl-{i}") for i in range(m)]
        return anchored(
            [
                acl_group(
                    members, coord=NOfMConfig(n=n, m=m), execution=ExecutionMode.OFF_CHAIN
                )
            ]
        )

    def _batch(self, did, pid, entries):
        return DecisionBatch(
            proposal_id=pid,
            decisions=tuple(
                build_decision(signer, Did(did), pid, 1, verdict) for signer, verdict in entries
            ),
        )

    def test_aggregate_tallies_and_reports_skips(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("ctrl-0"))
        entries = [
            (pair("ctrl-0"), Verdict.APPROVE),
            (pair("ctrl-1"), Verdict.APPROVE),
            (pair("ctrl-0"), Verdict.REJECT),  # duplicate controller
            (pair("stranger"), Verdict.APPROVE),  # not a member
            (pair("ctrl-2"), Verdict.APPROVE),
        ]
        result = registry.decide_batch(self._batch(did, pid, entries))
        assert result.tallied == (0, 1, 4)
        assert dict(result.skipped) == {2: "duplicate-decision", 3: "unauthorized"}
        # one transaction, one report, decisions logged individually
        assert registry.reports[-1].transaction_label == "decide_batch"
        accepted_events = [
            e for e in registry.state.event_log if e.kind is EventKind.DECISION_ACCEPTED
        ]
        assert len(accepted_events) == 3

    def test_batch_does_not_resolve(self):
        registry, did = self._registry(n=1, m=5)
        pid = _propose(registry, did, pair("ctrl-0"))
        registry.decide_batch(self._batch(did, pid, [(pair("ctrl-0"), Verdict.APPROVE)]))
        assert registry.state.proposals[pid].status is ProposalStatus.ACTIVE
        assert registry.resolve_manual(pid) is Verdict.APPROVE
        assert registry.state.documents[Did(did)].version == 2

    def test_second_batch_rejected(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("ctrl-0"))
        registry.decide_batch(self._batch(did, pid, [(pair("ctrl-0"), Verdict.APPROVE)]))
        with pytest.raises(DuplicateBatch):
            registry.decide_batch(self._batch(did, pid, [(pair("ctrl-1"), Verdict.APPROVE)]))

    def test_empty_batch_rejected(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("ctrl-0"))
        with pytest.raises(EmptyBatch):
            registry.decide_batch(DecisionBatch(proposal_id=pid, decisions=()))

    def test_forged_batch_entry_skipped(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("ctrl-0"))
        good = build_decision(pair("ctrl-0"), Did(did), pid, 1, Verdict.APPROVE)
        forged = build_decision(pair("ctrl-1"), Did(did), pid, 7, Verdict.APPROVE)  # wrong version
        result = registry.decide_batch(DecisionBatch(proposal_id=pid, decisions=(good, forged)))
        assert result.tallied == (0,)
        assert result.skipped == ((1, "unauthorized"),)

    def test_malformed_batch_entries_skipped_not_fatal(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("ctrl-0"))
        good = build_decision(pair("ctrl-0"), Did(did), pid, 1, Verdict.APPROVE)
        other = build_decision(pair("ctrl-1"), Did(did), pid, 1, Verdict.APPROVE)
        short_signature = dataclasses.replace(other, signature=other.signature[:-1])
        short_key = dataclasses.replace(other, controller_key=other.controller_key[:-1])
        batch = DecisionBatch(proposal_id=pid, decisions=(short_signature, good, short_key))
        result = registry.decide_batch(batch)
        assert result.tallied == (1,)
        assert result.skipped == ((0, "verification-error"), (2, "verification-error"))
        assert registry.state.tallies[pid].accepted == [(pair("ctrl-0").public_key, Verdict.APPROVE, 1)]
        # every entry was checked, so every entry paid for its signature check
        assert registry.reports[-1].count("sig_verify") == 3

    def test_malformed_single_decision_still_raises(self):
        registry, did = anchored([acl_group([pair("a")])])
        pid = _propose(registry, did, pair("a"))
        decision = build_decision(pair("a"), Did(did), pid, 1, Verdict.APPROVE)
        with pytest.raises(VerificationError):
            registry.decide(dataclasses.replace(decision, signature=decision.signature[:-1]))
        assert registry.state.tallies[pid].accepted == []

    def test_same_nonce_twice_in_one_batch(self):
        issuer = pair("issuer")
        registry, did = anchored(
            [token_group(issuer, coord=NOfMConfig(n=2, m=4), execution=ExecutionMode.OFF_CHAIN)]
        )
        open_token = crypto.issue_token(issuer, b"o" * 16)
        pid = _propose(
            registry, did, pair("a"), credential=crypto.TokenPresentation(token=open_token)
        )
        shared = crypto.TokenPresentation(token=crypto.issue_token(issuer, b"s" * 16))
        other = crypto.TokenPresentation(token=crypto.issue_token(issuer, b"t" * 16))
        batch = DecisionBatch(
            proposal_id=pid,
            decisions=(
                build_decision(pair("x"), Did(did), pid, 1, Verdict.APPROVE, shared),
                build_decision(pair("y"), Did(did), pid, 1, Verdict.APPROVE, shared),
                build_decision(pair("z"), Did(did), pid, 1, Verdict.APPROVE, other),
            ),
        )
        result = registry.decide_batch(batch)
        assert result.tallied == (0, 2)
        assert result.skipped == ((1, "replayed-nonce"),)


class TestResolveManual:
    def test_unknown_proposal(self):
        registry, _ = anchored([acl_group([pair("a")])])
        with pytest.raises(UnknownProposal):
            registry.resolve_manual(9)

    def test_double_resolution_rejected(self):
        registry, did = anchored([acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2))])
        pid = _propose(registry, did, pair("a"))
        assert registry.resolve_manual(pid) is Verdict.REJECT  # empty tally
        assert registry.state.proposals[pid].status is ProposalStatus.REJECTED
        with pytest.raises(AlreadyFinalized):
            registry.resolve_manual(pid)


class TestClockAndExpiry:
    def _registry(self, time_limit=10):
        return anchored(
            [acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2), time_limit=time_limit)]
        )

    def test_proposal_gets_deadline_and_scheduled_event(self):
        registry, did = self._registry()
        registry.advance_clock(5)
        pid = _propose(registry, did, pair("a"))
        assert registry.state.proposals[pid].deadline == 15
        scheduled = [e for e in registry.state.event_log if e.kind is EventKind.SCHEDULED]
        assert len(scheduled) == 1
        assert scheduled[0].payload == {"proposal_id": str(pid), "deadline": "15"}

    def test_expiry_fires_at_deadline(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid)  # one of two needed approvals
        assert registry.advance_clock(9) == []
        assert registry.advance_clock(10) == [pid]
        proposal = registry.state.proposals[pid]
        assert proposal.status is ProposalStatus.EXPIRED
        assert registry.state.documents[Did(did)].version == 1
        assert Did(did) not in registry.state.active_proposals
        with pytest.raises(NoActiveProposal):  # a decision after the deadline
            _decide(registry, did, pair("b"), pid)

    def test_expiry_applies_passing_turnout_tally(self):
        # early termination beats any deadline for n-of-m and weighted, so a
        # deadline-approved proposal needs the non-terminating strategy
        from fractions import Fraction

        from didgov.model import TurnoutConfig

        registry, did = anchored(
            [
                acl_group(
                    [pair("a"), pair("b")],
                    coord=TurnoutConfig(quorum=2, ratio=Fraction(1, 2)),
                    time_limit=5,
                )
            ]
        )
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid)
        _decide(registry, did, pair("b"), pid)
        assert registry.advance_clock(5) == [pid]
        assert registry.state.proposals[pid].status is ProposalStatus.APPROVED
        assert registry.state.documents[Did(did)].version == 2

    def test_resolved_proposals_leave_stale_queue_entries(self):
        registry, did = self._registry()
        pid = _propose(registry, did, pair("a"))
        _decide(registry, did, pair("a"), pid)
        _decide(registry, did, pair("b"), pid)  # decisive at tick 0
        assert registry.state.proposals[pid].status is ProposalStatus.APPROVED
        assert registry.advance_clock(20) == []  # stale entry discarded silently
        resolved = [e for e in registry.state.event_log if e.kind is EventKind.RESOLVED]
        assert len(resolved) == 1

    def test_regression_rejected(self):
        registry, _ = self._registry()
        registry.advance_clock(5)
        with pytest.raises(ClockRegression):
            registry.advance_clock(4)
        assert registry.state.clock.now == 5

    def test_same_tick_advance_is_a_quiet_transaction(self):
        registry, _ = self._registry()
        registry.advance_clock(5)
        events_before = len(registry.state.event_log)
        assert registry.advance_clock(5) == []
        assert len(registry.state.event_log) == events_before  # no event
        assert registry.reports[-1].transaction_label == "advance_clock"

    def test_multiple_expiries_fire_in_deadline_order(self):
        registry = Registry()
        group = acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2), time_limit=5)
        registry.anchor("aa", [], {}, (group,))
        long_group = acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2), time_limit=8)
        registry.anchor("bb", [], {}, (long_group,))
        first = _propose(registry, "aa", pair("a"))
        second = _propose(registry, "bb", pair("a"))
        assert registry.advance_clock(10) == [first, second]


class TestEventSourcing:
    def _busy_registry(self):
        issuer = pair("issuer")
        registry = Registry()
        registry.anchor(
            "aa",
            [pair("subject").public_key],
            {"s": "1"},
            (
                acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2), time_limit=10),
                acl_group([pair("boss")], group_id=1, edit_right=EditRightLevel.ALL),
            ),
        )
        registry.anchor("bb", [], {}, (token_group(issuer, coord=NOfMConfig(n=1, m=2)),))
        pid = _propose(registry, "aa", pair("a"))
        _decide(registry, "aa", pair("a"), pid)
        boss_pid = _propose(registry, "aa", pair("boss"), group_id=1)  # overrides
        _decide(registry, "aa", pair("boss"), boss_pid)  # decisive, version 2
        token = crypto.issue_token(issuer, b"r" * 16)
        token_pid = _propose(
            registry, "bb", pair("x"), credential=crypto.TokenPresentation(token=token)
        )
        registry.advance_clock(4)
        stale = _propose(registry, "aa", pair("a"))  # deadline 14
        registry.advance_clock(20)  # expires `stale`, discards earlier entry
        registry.resolve_manual(token_pid)
        return registry

    def test_replay_reproduces_snapshot_exactly(self):
        registry = self._busy_registry()
        text = registry_mod.event_log_to_jsonl(registry.state.event_log)
        events = registry_mod.event_log_from_jsonl(text)
        replayed = registry_mod.replay_events(events)
        assert registry_mod.snapshot_json(replayed) == registry.snapshot_json()

    def test_jsonl_round_trip_preserves_events(self):
        registry = self._busy_registry()
        text = registry_mod.event_log_to_jsonl(registry.state.event_log)
        assert registry_mod.event_log_from_jsonl(text) == registry.state.event_log

    def test_bad_jsonl_line_reported_with_number(self):
        good = '{"sequence":1,"tick":0,"kind":"clock_advanced","payload":{"to":"1"}}'
        with pytest.raises(EncodingError, match="line 2"):
            registry_mod.event_log_from_jsonl(good + "\nnot json\n")

    def test_replay_rejects_sequence_gap(self):
        registry = self._busy_registry()
        events = list(registry.state.event_log)
        del events[1]
        with pytest.raises(EncodingError, match="sequence"):
            registry_mod.replay_events(events)

    @pytest.mark.parametrize("tamper", ["duplicate-decision", "flipped-verdict"])
    def test_replay_rejects_transitions_the_live_registry_refuses(self, tamper):
        events = list(self._busy_registry().state.event_log)
        if tamper == "duplicate-decision":
            index = next(i for i, e in enumerate(events) if e.kind is EventKind.DECISION_ACCEPTED) + 1
            events.insert(index, events[index - 1])
        else:
            index = next(i for i, e in enumerate(events) if e.kind is EventKind.RESOLVED)
            flipped = {"approve": "reject", "reject": "approve"}[events[index].payload["verdict"]]
            payload = {**events[index].payload, "verdict": flipped}
            events[index] = dataclasses.replace(events[index], payload=payload)
        events = [dataclasses.replace(e, sequence=n) for n, e in enumerate(events, start=1)]
        with pytest.raises(EncodingError, match=f"event {index + 1} "):
            registry_mod.replay_events(events)

    def _one_decision_per_authz_kind(self):
        """A log holding one accepted decision from each authz kind."""
        issuer, holder = pair("issuer"), pair("holder")
        registry = Registry()
        registry.anchor("aa", [], {}, (acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2)),))
        registry.anchor("bb", [], {}, (token_group(issuer, coord=NOfMConfig(n=2, m=3)),))
        registry.anchor("cc", [], {}, (vc_group(issuer, coord=NOfMConfig(n=2, m=2)),))
        acl_pid = _propose(registry, "aa", pair("a"))
        _decide(registry, "aa", pair("a"), acl_pid)
        token_pid = _propose(
            registry, "bb", pair("x"),
            credential=crypto.TokenPresentation(token=crypto.issue_token(issuer, b"p" * 16)),
        )
        token = crypto.issue_token(issuer, b"d" * 16)
        _decide(registry, "bb", pair("x"), token_pid, credential=crypto.TokenPresentation(token=token))
        vc = crypto.issue_vc(issuer, holder.public_key, {"role": "voter"})
        vc_pid = _propose(registry, "cc", holder, credential=crypto.present_vc(vc, holder, "cc", 0))
        _decide(registry, "cc", holder, vc_pid, credential=crypto.present_vc(vc, holder, "cc", vc_pid))
        return registry, {"acl": acl_pid, "token": token_pid, "vc": vc_pid}

    @pytest.mark.parametrize(
        "kind, changes, message",
        [
            ("acl", {"controller": "ab" * 32}, "not an acl member"),
            ("acl", {"weight": "7"}, "logged weight 7"),
            ("acl", {"nonce_issuer": "ab" * 32, "nonce": "cd" * 16}, "only token decisions"),
            ("token", {"nonce_issuer": None, "nonce": None}, "no nonce"),
            ("token", {"nonce_issuer": "ab" * 32}, "not trusted"),
            ("token", {"nonce": "70" * 16}, "already consumed"),  # the proposal's nonce
            ("token", {"weight": "2"}, "logged weight 2"),
            ("vc", {"weight": "0"}, "below 1"),
        ],
        ids=["acl-non-member", "acl-weight", "acl-nonce", "token-no-nonce", "token-untrusted-issuer",
             "token-consumed-nonce", "token-weight", "vc-weight"],
    )
    def test_replay_checks_decisions_against_group_authz(self, kind, changes, message):
        registry, pids = self._one_decision_per_authz_kind()
        events = list(registry.state.event_log)
        assert registry_mod.snapshot_json(registry_mod.replay_events(events)) == registry.snapshot_json()
        index = next(
            i for i, e in enumerate(events)
            if e.kind is EventKind.DECISION_ACCEPTED and e.payload["proposal_id"] == str(pids[kind])
        )
        payload = {**events[index].payload, **changes}
        payload = {key: value for key, value in payload.items() if value is not None}
        events[index] = dataclasses.replace(events[index], payload=payload)
        with pytest.raises(EncodingError, match=f"event {index + 1} .*{message}"):
            registry_mod.replay_events(events)

    def test_replay_refuses_a_proposal_with_a_consumed_nonce(self):
        issuer = pair("issuer")
        registry = Registry()
        registry.anchor("bb", [], {}, (token_group(issuer, coord=NOfMConfig(n=1, m=1)),))
        for nonce in (b"1" * 16, b"2" * 16):
            token = crypto.TokenPresentation(token=crypto.issue_token(issuer, nonce))
            registry.resolve_manual(_propose(registry, "bb", pair("x"), credential=token))
        events = list(registry.state.event_log)
        assert registry_mod.snapshot_json(registry_mod.replay_events(events)) == registry.snapshot_json()
        first, second = [i for i, e in enumerate(events) if e.kind is EventKind.PROPOSAL_SUBMITTED]
        payload = {**events[second].payload, "nonce": events[first].payload["nonce"]}
        events[second] = dataclasses.replace(events[second], payload=payload)
        with pytest.raises(EncodingError, match=f"event {second + 1} .*already consumed"):
            registry_mod.replay_events(events)

    def test_replay_requires_due_expiries_in_firing_order(self):
        registry = Registry()
        for did, time_limit in (("aa", 5), ("bb", 8)):
            group = acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2), time_limit=time_limit)
            registry.anchor(did, [], {}, (group,))
        first = _propose(registry, "aa", pair("a"))
        second = _propose(registry, "bb", pair("a"))
        registry.advance_clock(10)
        events = list(registry.state.event_log)
        assert registry_mod.snapshot_json(registry_mod.replay_events(events)) == registry.snapshot_json()
        events[-2:] = events[:-3:-1]  # the second expiry logged first
        events = [dataclasses.replace(e, sequence=n) for n, e in enumerate(events, start=1)]
        message = f"event {len(events) - 1} .*logged proposal_id '{second}', derived '{first}'"
        with pytest.raises(EncodingError, match=message):
            registry_mod.replay_events(events)

    def test_replay_requires_the_overriding_groups_submission_next(self):
        events = list(self._busy_registry().state.event_log)
        anchor_bb = events.pop(1)  # tick 0, like every event up to the override
        assert anchor_bb.kind is EventKind.ANCHORED and anchor_bb.payload["did"] == "bb"
        index = next(i for i, e in enumerate(events) if e.kind is EventKind.PROPOSAL_OVERRIDDEN)
        events.insert(index + 1, anchor_bb)  # between the override and its submission
        events = [dataclasses.replace(e, sequence=n) for n, e in enumerate(events, start=1)]
        with pytest.raises(EncodingError, match=f"event {index + 2} .*submit group 1's proposal on did aa"):
            registry_mod.replay_events(events)

    def test_event_sequence_and_ticks_are_coherent(self):
        registry = self._busy_registry()
        log = registry.state.event_log
        assert [e.sequence for e in log] == list(range(1, len(log) + 1))
        ticks = [e.tick for e in log]
        assert ticks == sorted(ticks)



def _garbage_after_refusal(call) -> int:
    """Objects the cyclic collector finds unreachable after ``call`` is
    refused, with the collector off meanwhile."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            call()
        except GovernanceError:
            pass
        else:
            pytest.fail("the call was not refused")
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestRefusalLeavesNoCycle:
    """A refused transaction's exception holds its traceback and so its
    frame; if the frame also held the exception, the cycle would keep the
    frame's objects alive until the cyclic collector ran."""

    def _registry(self):
        registry, did = anchored([acl_group([pair("a"), pair("b")], coord=NOfMConfig(n=2, m=2))])
        return registry, did, _propose(registry, did, pair("a"))

    def test_refused_propose(self):
        registry, did, _ = self._registry()
        assert _garbage_after_refusal(lambda: _propose(registry, did, pair("stranger"))) == 0

    def test_refused_decide(self):
        registry, did, pid = self._registry()
        assert _garbage_after_refusal(lambda: _decide(registry, did, pair("stranger"), pid)) == 0

    def test_refused_decide_with_a_malformed_key(self):
        registry, did, pid = self._registry()
        decision = dataclasses.replace(
            build_decision(pair("a"), Did(did), pid, 1, Verdict.APPROVE), controller_key=b"short"
        )
        assert _garbage_after_refusal(lambda: registry.decide(decision)) == 0

    def test_refused_resolve_manual(self):
        registry, _, _ = self._registry()
        assert _garbage_after_refusal(lambda: registry.resolve_manual(99)) == 0
