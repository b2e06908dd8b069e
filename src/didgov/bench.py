"""Cost benchmarking: run the standard anchor → propose → vote → resolve
workflow over a grid of governance configurations and collect per-phase
cost reports.

Conventions shared by every grid point, chosen so the phases stay
comparable:

- every group on the document gets the same configuration;
- the proposal is a key rotation submitted by the first controller;
- the vote phase is a single Approve from the *last* controller (worst
  case for a membership scan) with thresholds set so one vote is never
  decisive;
- resolution is forced manually, isolating its cost from voting.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import crypto
from .coord import DecisionBatch
from .crypto import KeyPair
from .metering import CATEGORIES, CostReport, CostSchedule
from .model import (
    AclConfig,
    AuthzKind,
    ChangeSet,
    CoordKind,
    Did,
    ExecutionMode,
    GovernanceGroup,
    EditRightLevel,
    NOfMConfig,
    TokenConfig,
    TurnoutConfig,
    VcConfig,
    Verdict,
    WeightedConfig,
)
from .registry import Registry, build_decision

PHASES = ("anchor", "propose", "vote", "resolve")

# the governance aspects of a grid point, as its reports' ``dimensions`` name them
_DIMENSIONS = ("groups", "members", "authz", "coord", "execution", "time")

CSV_COLUMNS = ("phase", *_DIMENSIONS, "total") + CATEGORIES

_ISSUER_SEED = b"I" * 32
_SUBJECT_SEED = b"S" * 32
_ROTATED_SEED = b"R" * 32

_keypair = functools.cache(crypto.generate_keypair)


def _controller(index: int) -> KeyPair:
    return _keypair(b"C" * 28 + index.to_bytes(4, "big"))


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid over the governance aspects."""

    groups: tuple[int, ...] = (1, 2, 3)
    members: tuple[int, ...] = (1, 2, 3)
    authz: tuple[AuthzKind, ...] = (AuthzKind.ACL,)
    coord: tuple[CoordKind, ...] = (CoordKind.NOFM,)
    execution: tuple[ExecutionMode, ...] = (ExecutionMode.ON_CHAIN,)
    time_limits: tuple[Optional[int], ...] = (None,)

    def points(self):
        return itertools.product(
            self.groups, self.members, self.authz, self.coord, self.execution, self.time_limits
        )


def _authz_config(kind: AuthzKind, members: int, coord_kind: CoordKind, issuer: KeyPair) -> object:
    if kind is AuthzKind.ACL:
        keys = tuple(_controller(i).public_key for i in range(members))
        # the weights array is only stored for weighted coordination
        weights = tuple(1 for _ in range(members)) if coord_kind is CoordKind.WEIGHTED else None
        return AclConfig(members=keys, weights=weights)
    if kind is AuthzKind.TOKEN:
        return TokenConfig(trusted_issuers=(issuer.public_key,))
    return VcConfig(trusted_issuers=(issuer.public_key,), required_claims={"role": "voter"})


def _coord_config(kind: CoordKind, members: int) -> object:
    # thresholds of 2 keep the single benchmark vote from terminating early
    if kind is CoordKind.NOFM:
        return NOfMConfig(n=2, m=max(2, members))
    if kind is CoordKind.TURNOUT_SENSITIVE:
        return TurnoutConfig(quorum=2, ratio=Fraction(1, 2))
    return WeightedConfig(threshold=2)


def _credential(
    kind: AuthzKind,
    controller: KeyPair,
    issuer: KeyPair,
    did: Did,
    proposal_id: int,
    nonce_tag: bytes,
):
    if kind is AuthzKind.ACL:
        return None
    if kind is AuthzKind.TOKEN:
        nonce = nonce_tag.ljust(crypto.NONCE_LEN, b"\x00")[: crypto.NONCE_LEN]
        return crypto.TokenPresentation(token=crypto.issue_token(issuer, nonce))
    vc = crypto.issue_vc(issuer, controller.public_key, {"role": "voter"})
    return crypto.present_vc(vc, controller, did, proposal_id)


def _open_proposal(
    registry: Registry,
    groups: int,
    members: int,
    authz_kind: AuthzKind,
    coord_kind: CoordKind,
    execution: ExecutionMode,
    time_limit: Optional[int],
) -> tuple[Did, int]:
    """Anchor the document with ``groups`` identical groups, then have the
    first controller propose the key rotation: two transactions. Returns
    the document's did and the proposal's id."""
    issuer = _keypair(_ISSUER_SEED)
    subject = _keypair(_SUBJECT_SEED)
    did = Did(subject.public_key.hex())
    group_list = tuple(
        GovernanceGroup(
            group_id=i,
            edit_right=EditRightLevel.DOCUMENT,
            authz_config=_authz_config(authz_kind, members, coord_kind, issuer),
            coord_config=_coord_config(coord_kind, members),
            execution=execution,
            time_limit=time_limit,
        )
        for i in range(groups)
    )
    registry.anchor(did, [subject.public_key], {}, group_list)
    proposer = _controller(0)
    change = ChangeSet(new_public_keys=(_keypair(_ROTATED_SEED).public_key,))
    credential = _credential(authz_kind, proposer, issuer, did, 0, b"propose")
    return did, registry.propose(did, 0, change, proposer.public_key, credential)


def run_workflow(
    groups: int,
    members: int,
    authz_kind: AuthzKind,
    coord_kind: CoordKind,
    execution: ExecutionMode,
    time_limit: Optional[int],
    schedule: Optional[CostSchedule] = None,
) -> dict[str, CostReport]:
    """One grid point: fresh registry, four phases, one transaction and
    report each."""
    registry = Registry(schedule=schedule)
    did, proposal_id = _open_proposal(registry, groups, members, authz_kind, coord_kind, execution, time_limit)
    voter = _controller(members - 1)  # last member: full membership scan
    credential = _credential(authz_kind, voter, _keypair(_ISSUER_SEED), did, proposal_id, b"vote")
    decision = build_decision(voter, did, proposal_id, 1, Verdict.APPROVE, credential=credential)
    if execution is ExecutionMode.ON_CHAIN:
        registry.decide(decision)
    else:
        registry.decide_batch(DecisionBatch(proposal_id=proposal_id, decisions=(decision,)))
    registry.resolve_manual(proposal_id)
    return dict(zip(PHASES, registry.reports))


def sweep(grid: SweepGrid, schedule: Optional[CostSchedule] = None) -> list[CostReport]:
    """Run the workflow at every grid point; reports carry their governance
    dimensions and are labelled by phase."""
    out: list[CostReport] = []
    for g, mc, a, c, e, t in grid.points():
        values = (g, mc, a.value, c.value, e.value, "unlimited" if t is None else t)
        dimensions = dict(zip(_DIMENSIONS, values))
        phase_reports = run_workflow(g, mc, a, c, e, t, schedule=schedule)
        for phase in PHASES:
            out.append(
                replace(phase_reports[phase], transaction_label=phase, dimensions=dimensions)
            )
    return out


def reports_to_csv(reports: Sequence[CostReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(
            [report.transaction_label]
            + [report.dimensions.get(name, "") for name in _DIMENSIONS]
            + [report.total]
            + [report.units(category) for category in CATEGORIES]
        )
    return buffer.getvalue()


def write_csv(reports: Sequence[CostReport], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(reports_to_csv(reports))


# --- off-chain aggregation comparison ---------------------------------------

def batch_comparison(
    k_values: Sequence[int] = tuple(range(2, 11)),
    groups: int = 1,
) -> list[tuple[int, int, int]]:
    """For each k: total cost of k individual on-chain decisions vs one
    off-chain aggregate of the same k decisions, in ACL groups of 10.

    Turnout-sensitive coordination is used because it never terminates
    early, so both sides tally exactly k decisions with no resolution
    riding along.
    """
    out = []
    for k in k_values:
        individual = _decision_phase_total(k, groups, ExecutionMode.ON_CHAIN)
        aggregated = _decision_phase_total(k, groups, ExecutionMode.OFF_CHAIN)
        out.append((k, individual, aggregated))
    return out


def _decision_phase_total(k: int, groups: int, execution: ExecutionMode) -> int:
    """Summed decision-submission cost for k approvals under one config."""
    registry = Registry()
    did, proposal_id = _open_proposal(
        registry, groups, 10, AuthzKind.ACL, CoordKind.TURNOUT_SENSITIVE, execution, None
    )
    decisions = tuple(
        build_decision(_controller(i), did, proposal_id, 1, Verdict.APPROVE) for i in range(k)
    )
    before = len(registry.reports)
    if execution is ExecutionMode.ON_CHAIN:
        for decision in decisions:
            registry.decide(decision)
    else:
        registry.decide_batch(DecisionBatch(proposal_id=proposal_id, decisions=decisions))
    return sum(report.total for report in registry.reports[before:])
