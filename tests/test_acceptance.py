"""End-to-end acceptance checks, one test per headline guarantee.

Each test here exercises the public surface (benchmark workflows, the
registry API, the CLI) rather than module internals; the per-module detail
lives in the sibling test files.  The terminal summary hook in conftest
prints one PASS/FAIL line per criterion.
"""

import json
import random
import statistics
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from didgov import crypto
from didgov.bench import batch_comparison, run_workflow
from didgov.cli import main
from didgov.errors import (
    ActiveProposalPrecedence,
    DuplicateDecision,
    GovernanceError,
    ReplayedNonce,
    Unauthorized,
)
from didgov.metering import CATEGORIES, CostSchedule
from didgov.model import (
    AuthzKind,
    ChangeSet,
    CoordKind,
    Did,
    EditRightLevel,
    EventKind,
    ExecutionMode,
    NOfMConfig,
    ProposalStatus,
    Verdict,
)
from didgov.registry import (
    Registry,
    build_decision,
    event_log_from_jsonl,
    replay_events,
    snapshot_json,
)
from didgov.scenario import run_scenario

from .test_coord import check_sequence, exhaustive_configs
from .util import acl_group, controllers, pair, token_group

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def _r_squared(xs, ys):
    slope, intercept = statistics.linear_regression(xs, ys)
    mean = statistics.fmean(ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def _anchor_total(groups, members, authz=AuthzKind.ACL, coord=CoordKind.NOFM):
    reports = run_workflow(groups, members, authz, coord, ExecutionMode.ON_CHAIN, None)
    return reports["anchor"].total


def test_criterion_1():
    """Anchoring cost is linear in group count and in member count."""
    started = time.perf_counter()
    group_counts = list(range(1, 11))
    by_groups = [_anchor_total(g, 3) for g in group_counts]
    member_counts = list(range(1, 11))
    by_members = [_anchor_total(3, m) for m in member_counts]
    elapsed = time.perf_counter() - started

    assert _r_squared(group_counts, by_groups) > 0.99
    assert _r_squared(member_counts, by_members) > 0.99
    # both sweeps genuinely grow; a flat line also fits perfectly
    assert by_groups[-1] > by_groups[0]
    assert by_members[-1] > by_members[0]
    assert elapsed < 5.0


def test_criterion_2():
    """Credential-based vote cost ignores group size; membership-list cost
    grows with every member."""
    started = time.perf_counter()
    vote_totals = {kind: [] for kind in AuthzKind}
    for members in range(1, 51):
        for kind in AuthzKind:
            reports = run_workflow(1, members, kind, CoordKind.NOFM, ExecutionMode.ON_CHAIN, None)
            vote_totals[kind].append(reports["vote"].total)
    elapsed = time.perf_counter() - started

    assert len(set(vote_totals[AuthzKind.TOKEN])) == 1
    assert len(set(vote_totals[AuthzKind.VC])) == 1
    acl = vote_totals[AuthzKind.ACL]
    assert all(earlier < later for earlier, later in zip(acl, acl[1:]))
    assert elapsed < 5.0


def test_criterion_3():
    """Anchoring storage: membership lists cost at least as much as issuer
    lists, and weighted coordination at least as much as n-of-m — strictly
    more when a weights array is actually stored."""
    for groups in (1, 3):
        for members in (2, 3, 5, 10):
            anchor = {
                (authz, coord): _anchor_total(groups, members, authz, coord)
                for authz in AuthzKind
                for coord in CoordKind
            }
            for coord in CoordKind:
                assert anchor[(AuthzKind.ACL, coord)] >= anchor[(AuthzKind.TOKEN, coord)]
                assert anchor[(AuthzKind.ACL, coord)] >= anchor[(AuthzKind.VC, coord)]
            for authz in AuthzKind:
                assert anchor[(authz, CoordKind.WEIGHTED)] >= anchor[(authz, CoordKind.NOFM)]
            # ACL + weighted stores one weight per member
            assert anchor[(AuthzKind.ACL, CoordKind.WEIGHTED)] > anchor[(AuthzKind.ACL, CoordKind.NOFM)]


def test_criterion_4():
    """One aggregated batch beats k individual submissions, and the
    aggregate's cost does not depend on how many groups the document has."""
    rows = batch_comparison(k_values=tuple(range(2, 11)))
    assert [k for k, _, _ in rows] == list(range(2, 11))
    for _, individual, aggregated in rows:
        assert aggregated < individual
    per_group_count = [batch_comparison(k_values=(5,), groups=g)[0][2] for g in (1, 3, 5)]
    assert len(set(per_group_count)) == 1


def _propose_only(time_limit):
    registry = Registry()
    members = controllers(3)
    group = acl_group(members, coord=NOfMConfig(n=2, m=3), time_limit=time_limit)
    did = Did("beef" * 8)
    registry.anchor(did, [members[0].public_key], {}, (group,))
    registry.propose(did, 0, ChangeSet(new_attributes={"x": "1"}), members[0].public_key)
    return registry


def test_criterion_5():
    """A time-limited proposal pays for exactly one extra storage write and
    one extra event emission, nothing else."""
    timed = _propose_only(40)
    plain = _propose_only(None)
    timed_report, plain_report = timed.reports[-1], plain.reports[-1]

    scheduled = [e for e in timed.state.event_log if e.kind is EventKind.SCHEDULED]
    assert len(scheduled) == 1
    schedule = CostSchedule()
    surcharge = (
        schedule.storage_write_new
        + schedule.event_base
        + schedule.event_per_byte * scheduled[0].payload_bytes()
    )
    assert timed_report.total - plain_report.total == surcharge
    assert timed_report.count("storage_write_new") - plain_report.count("storage_write_new") == 1
    assert timed_report.count("event_base") - plain_report.count("event_base") == 1
    delta_bytes = timed_report.count("event_per_byte") - plain_report.count("event_per_byte")
    assert delta_bytes == scheduled[0].payload_bytes()
    for category in set(CATEGORIES) - {"storage_write_new", "event_base", "event_per_byte"}:
        assert timed_report.count(category) == plain_report.count(category)


def test_criterion_6():
    """Early termination always announces the verdict a full tally would
    reach: exhaustive for short sequences, randomized for longer ones."""
    for length in (1, 2, 3):
        for mask in range(2 ** length):
            entries = [("approve" if (mask >> i) & 1 else "reject", 1) for i in range(length)]
            for config in exhaustive_configs(length):
                check_sequence(config, entries)

    rng = random.Random(0x5EED)
    for _ in range(10_000):
        length = rng.randint(1, 8)
        entries = [
            (rng.choice(("approve", "reject")), rng.randint(1, 4)) for _ in range(length)
        ]
        config = rng.choice(exhaustive_configs(length))
        check_sequence(config, entries)


# --- criterion 7: randomized lifecycle driver --------------------------------

_CONTROLLERS = controllers(6)  # index 5 never belongs to any group
_ISSUER = pair("acceptance-issuer")
_RIGHTS = {
    0: EditRightLevel.DOCUMENT,
    1: EditRightLevel.DOCUMENT,
    2: EditRightLevel.SELF_GOVERNANCE,
    3: EditRightLevel.ALL,
}
_GROUP_MEMBERS = {0: (0, 1, 2), 1: (2, 3), 2: (1, 3), 3: (4,)}
_ACL_GROUPS = (
    acl_group([_CONTROLLERS[i] for i in _GROUP_MEMBERS[0]], group_id=0, coord=NOfMConfig(n=2, m=3)),
    acl_group(
        [_CONTROLLERS[i] for i in _GROUP_MEMBERS[1]],
        group_id=1,
        coord=NOfMConfig(n=1, m=2),
        time_limit=9,
    ),
    acl_group(
        [_CONTROLLERS[i] for i in _GROUP_MEMBERS[2]],
        group_id=2,
        edit_right=EditRightLevel.SELF_GOVERNANCE,
        coord=NOfMConfig(n=2, m=2),
    ),
    acl_group(
        [_CONTROLLERS[i] for i in _GROUP_MEMBERS[3]],
        group_id=3,
        edit_right=EditRightLevel.ALL,
        coord=NOfMConfig(n=1, m=1),
    ),
)
_TOKENS = tuple(
    crypto.issue_token(_ISSUER, index.to_bytes(crypto.NONCE_LEN, "big")) for index in range(4)
)
# Ed25519 is deterministic, so identical decisions are reused across sequences
_decision_cache: dict[tuple, object] = {}


def _decision_for(index, did, proposal_id, base_version, verdict, nonce=None):
    key = (index, str(did), proposal_id, base_version, verdict, nonce)
    decision = _decision_cache.get(key)
    if decision is None:
        credential = None if nonce is None else crypto.TokenPresentation(token=_TOKENS[nonce])
        decision = build_decision(
            _CONTROLLERS[index], did, proposal_id, base_version, verdict, credential=credential
        )
        _decision_cache[key] = decision
    return decision


def _fingerprint(registry, did):
    return (
        registry.state.documents[did].version,
        tuple(sorted((pid, p.status) for pid, p in registry.state.proposals.items())),
        registry.state.clock.now,
    )


def _check_invariants(registry, did, overridden):
    active = [p for p in registry.state.proposals.values() if p.status is ProposalStatus.ACTIVE]
    assert len(active) <= 1
    for pid in overridden:
        assert registry.state.proposals[pid].status is ProposalStatus.OVERRIDDEN


def _acl_sequence(rng):
    registry = Registry()
    did = Did("ac" * 16)
    registry.anchor(did, [_CONTROLLERS[0].public_key], {}, _ACL_GROUPS)
    active = None  # (proposal_id, group_id)
    voters: dict[int, set] = {}
    accepted = []
    overridden: set[int] = set()
    finalized: set[int] = set()
    counter = 0

    def version():
        return registry.state.documents[did].version

    for _ in range(rng.randint(3, 8)):
        action = rng.choices(
            ("propose", "decide", "replay", "advance", "resolve"),
            weights=(30, 40, 10, 10, 10),
        )[0]
        version_before = version()

        if action == "propose":
            group_id = rng.randrange(len(_ACL_GROUPS))
            index = rng.choice(_GROUP_MEMBERS[group_id] + (5,))
            counter += 1
            change = ChangeSet(new_attributes={"n": str(counter)})
            signer = _CONTROLLERS[index].public_key
            if index not in _GROUP_MEMBERS[group_id]:
                with pytest.raises(Unauthorized):
                    registry.propose(did, group_id, change, signer)
            elif active is None:
                pid = registry.propose(did, group_id, change, signer)
                active, voters[pid] = (pid, group_id), set()
            elif _RIGHTS[group_id] > _RIGHTS[active[1]]:
                displaced = active[0]
                pid = registry.propose(did, group_id, change, signer)
                assert registry.state.proposals[displaced].status is ProposalStatus.OVERRIDDEN
                overridden.add(displaced)
                active, voters[pid] = (pid, group_id), set()
            else:
                # equal or lower privilege must never displace the incumbent
                with pytest.raises(ActiveProposalPrecedence):
                    registry.propose(did, group_id, change, signer)
                assert registry.state.proposals[active[0]].status is ProposalStatus.ACTIVE

        elif action == "decide":
            if active is None:
                dead = sorted(finalized | overridden)
                if dead:
                    decision = _decision_for(0, did, rng.choice(dead), version(), Verdict.APPROVE)
                    with pytest.raises(GovernanceError):
                        registry.decide(decision)
            else:
                pid, group_id = active
                index = rng.choice(_GROUP_MEMBERS[group_id] + (5,))
                verdict = Verdict.APPROVE if rng.random() < 0.7 else Verdict.REJECT
                decision = _decision_for(index, did, pid, version(), verdict)
                if index not in _GROUP_MEMBERS[group_id]:
                    with pytest.raises(Unauthorized):
                        registry.decide(decision)
                elif index in voters[pid]:
                    with pytest.raises(DuplicateDecision):
                        registry.decide(decision)
                    assert registry.state.proposals[pid].status is ProposalStatus.ACTIVE
                else:
                    result = registry.decide(decision)
                    voters[pid].add(index)
                    accepted.append(decision)
                    if result is None:
                        assert version() == version_before
                    else:
                        if result is Verdict.APPROVE:
                            assert version() == version_before + 1
                        else:
                            assert version() == version_before
                        finalized.add(pid)
                        active = None

        elif action == "replay" and accepted:
            before = _fingerprint(registry, did)
            with pytest.raises(GovernanceError):
                registry.decide(rng.choice(accepted))
            assert _fingerprint(registry, did) == before

        elif action == "advance":
            expired = registry.advance_clock(registry.state.clock.now + rng.randint(1, 6))
            if active is not None:
                status = registry.state.proposals[active[0]].status
                if status is not ProposalStatus.ACTIVE:
                    assert status is ProposalStatus.EXPIRED and active[0] in expired
                    finalized.add(active[0])
                    active = None
            assert version() == version_before  # n-of-m expiry cannot approve

        elif action == "resolve":
            if active is not None:
                pid = active[0]
                # a live n-of-m tally is never approvable, or it would
                # already have terminated
                assert registry.resolve_manual(pid) is Verdict.REJECT
                assert version() == version_before
                finalized.add(pid)
                active = None
            elif finalized or overridden:
                with pytest.raises(GovernanceError):
                    registry.resolve_manual(rng.choice(sorted(finalized | overridden)))

        _check_invariants(registry, did, overridden)


def _token_sequence(rng):
    registry = Registry()
    did = Did("7c" * 16)
    group = token_group(_ISSUER, coord=NOfMConfig(n=2, m=3))
    registry.anchor(did, [_CONTROLLERS[0].public_key], {}, (group,))
    pid = registry.propose(
        did,
        0,
        ChangeSet(new_attributes={"n": "1"}),
        _CONTROLLERS[0].public_key,
        crypto.TokenPresentation(token=_TOKENS[0]),
    )
    first = _decision_for(1, did, pid, 1, Verdict.APPROVE, nonce=1)
    assert registry.decide(first) is None

    # the same nonce presented by anybody, with any verdict, is dead
    reused = _decision_for(2, did, pid, 1, rng.choice((Verdict.APPROVE, Verdict.REJECT)), nonce=1)
    with pytest.raises(ReplayedNonce):
        registry.decide(reused)
    with pytest.raises(ReplayedNonce):  # the nonce spent at propose time too
        registry.decide(_decision_for(3, did, pid, 1, Verdict.APPROVE, nonce=0))
    with pytest.raises(GovernanceError):  # byte-for-byte decision replay
        registry.decide(first)
    assert registry.state.documents[did].version == 1

    if rng.random() < 0.5:
        closing = _decision_for(2, did, pid, 1, Verdict.APPROVE, nonce=2)
        assert registry.decide(closing) is Verdict.APPROVE
        assert registry.state.documents[did].version == 2
        with pytest.raises(ReplayedNonce):  # consumption survives resolution
            registry.propose(
                did,
                0,
                ChangeSet(new_attributes={"n": "2"}),
                _CONTROLLERS[0].public_key,
                crypto.TokenPresentation(token=_TOKENS[2]),
            )
    _check_invariants(registry, did, set())


def test_criterion_7():
    """Lifecycle invariants hold across randomized transaction sequences."""
    rng = random.Random(0xACCE557)
    for _ in range(10_000):
        if rng.random() < 0.12:
            _token_sequence(rng)
        else:
            _acl_sequence(rng)


def test_criterion_8(tmp_path):
    """A group can vote its own coordination rules out, and the next
    proposal runs under the replacement rules."""
    out = tmp_path / "evolution"
    result = CliRunner().invoke(
        main, ["run", str(SCENARIOS / "governance_evolution.json"), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    state = json.loads((out / "final_state.json").read_text())
    document = state["documents"]["c0ffee02"]
    assert document["version"] == 3
    assert document["groups"][0]["coord_config"]["threshold"] == 4


def test_criterion_9(tmp_path):
    """Every golden scenario's event log replays to a byte-identical
    snapshot, through the API and through the CLI."""
    runner = CliRunner()
    paths = sorted(SCENARIOS.glob("*.json"))
    assert paths, "golden scenarios missing"
    for path in paths:
        out = tmp_path / path.stem
        run_scenario(path, out, echo_warnings=False)
        events = event_log_from_jsonl((out / "events.jsonl").read_text())
        assert snapshot_json(replay_events(events)) == (out / "final_state.json").read_text()
        result = runner.invoke(main, ["replay", str(out / "events.jsonl")])
        assert result.exit_code == 0, result.output
        assert "matches" in result.output
