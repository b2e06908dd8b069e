"""Coordination strategies: decision tallying, early termination, and the
resolution formulas.

All three strategies share one mutable :class:`Tally`. ``evaluate`` is the
pure verdict function; ``resolve`` is evaluate-plus-finalize. Early
termination (per accepted on-chain decision) answers "is the outcome
already mathematically decided?":

- n-of-m approves at n approvals and rejects once approval is impossible
  (rejections > m - n); m additionally caps how many decisions count.
- weighted approves once the approve-weight sum reaches the threshold;
  rejection is never early because the electorate is unknown.
- turnout-sensitive never terminates early: its threshold depends on the
  final turnout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .authz import AuthzOutcome
from .errors import (
    AlreadyFinalized,
    DuplicateBatch,
    DuplicateDecision,
    EmptyBatch,
    NoActiveProposal,
    TallyFinalized,
    TallyFull,
)
from .metering import CostMeter, charge
from .model import (
    CoordConfig,
    Decision,
    ExecutionMode,
    GovernanceGroup,
    NOfMConfig,
    ProposalStatus,
    TurnoutConfig,
    UpdateProposal,
    Verdict,
    WeightedConfig,
)
from .scheduler import ScheduleRequest

TallyEntry = tuple[bytes, Verdict, int]  # (controller_key, verdict, effective_weight)


class ResolveReason(str, Enum):
    DECISIVE = "decisive"
    MANUAL = "manual"
    EXPIRED = "expired"


@dataclass
class Tally:
    proposal_id: int
    accepted: list[TallyEntry] = field(default_factory=list)
    finalized: bool = False

    def has_decided(self, controller_key: bytes) -> bool:
        return any(key == controller_key for key, _, _ in self.accepted)

    @property
    def approvals(self) -> int:
        return sum(1 for _, verdict, _ in self.accepted if verdict is Verdict.APPROVE)

    @property
    def rejections(self) -> int:
        return sum(1 for _, verdict, _ in self.accepted if verdict is Verdict.REJECT)

    @property
    def approve_weight(self) -> int:
        return sum(w for _, verdict, w in self.accepted if verdict is Verdict.APPROVE)


@dataclass(frozen=True)
class DecisionBatch:
    """Off-chain aggregate: individually signed decisions, one transaction."""

    proposal_id: int
    decisions: tuple[Decision, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "decisions", tuple(self.decisions))
        for decision in self.decisions:
            if decision.proposal_id != self.proposal_id:
                raise ValueError(
                    f"batch for proposal {self.proposal_id} contains a decision "
                    f"for proposal {decision.proposal_id}"
                )


@dataclass(frozen=True)
class BatchResult:
    tallied: tuple[int, ...]  # indices into the batch that were counted
    skipped: tuple[tuple[int, str], ...]  # (index, machine-readable code)


def init_process(
    group: GovernanceGroup,
    proposal: UpdateProposal,
    now: int,
    meter: Optional[CostMeter] = None,
) -> tuple[Tally, Optional[ScheduleRequest]]:
    """Start the coordination process for a freshly admitted proposal."""
    if proposal.status is not ProposalStatus.ACTIVE:
        raise NoActiveProposal(f"proposal {proposal.proposal_id} is {proposal.status.value}")
    charge(meter, "storage_write_new", 1)  # tally record
    if group.execution is ExecutionMode.OFF_CHAIN:
        # aggregation setup: record where/how signatures will be collected
        charge(meter, "storage_write_new", 1)
    request = None
    if group.time_limit is not None:
        charge(meter, "storage_write_new", 1)  # deadline settings
        request = ScheduleRequest(proposal_id=proposal.proposal_id, deadline=now + group.time_limit)
    return Tally(proposal_id=proposal.proposal_id), request


def evaluate(config: CoordConfig, accepted: Sequence[TallyEntry]) -> Verdict:
    """The pure resolution formula over a (possibly partial) tally."""
    approvals = sum(1 for _, verdict, _ in accepted if verdict is Verdict.APPROVE)
    if isinstance(config, NOfMConfig):
        return Verdict.APPROVE if approvals >= config.n else Verdict.REJECT
    if isinstance(config, WeightedConfig):
        approve_weight = sum(w for _, verdict, w in accepted if verdict is Verdict.APPROVE)
        return Verdict.APPROVE if approve_weight >= config.threshold else Verdict.REJECT
    assert isinstance(config, TurnoutConfig)
    submitted = len(accepted)
    if submitted < config.quorum:
        return Verdict.REJECT
    needed = math.ceil(config.ratio * submitted)  # exact: ratio is a Fraction
    return Verdict.APPROVE if approvals >= needed else Verdict.REJECT


def _early_outcome(config: CoordConfig, tally: Tally) -> Optional[Verdict]:
    if isinstance(config, NOfMConfig):
        if tally.approvals >= config.n:
            return Verdict.APPROVE
        if tally.rejections > config.m - config.n:
            return Verdict.REJECT
        return None
    if isinstance(config, WeightedConfig):
        return Verdict.APPROVE if tally.approve_weight >= config.threshold else None
    return None


def submit_decision(
    config: CoordConfig,
    tally: Tally,
    decision: Decision,
    outcome: AuthzOutcome,
    meter: Optional[CostMeter] = None,
) -> Optional[Verdict]:
    """Count one on-chain decision; returns the verdict if it was decisive.

    All failure checks precede the append, so a raising call leaves the
    tally untouched.
    """
    entry = (decision.controller_key, decision.verdict, outcome.effective_weight)
    append_entry(config, tally, entry, meter)
    if isinstance(config, (NOfMConfig, WeightedConfig)):
        # iterative early-termination pass over the tally after each vote
        charge(meter, "iteration_step", len(tally.accepted))
        return _early_outcome(config, tally)
    return None


def append_entry(
    config: CoordConfig,
    tally: Tally,
    entry: TallyEntry,
    meter: Optional[CostMeter] = None,
) -> None:
    """Count one decision: the only way an entry enters a tally, shared by
    live submission and by replay. Checks precede the append."""
    if tally.finalized:
        raise TallyFinalized(f"tally for proposal {tally.proposal_id} is finalized")
    if tally.has_decided(entry[0]):
        raise DuplicateDecision("controller already has a counted decision")
    if isinstance(config, NOfMConfig) and len(tally.accepted) >= config.m:
        raise TallyFull(f"turnout threshold m={config.m} reached")
    tally.accepted.append(entry)
    charge(meter, "storage_write_update", 1)


def submit_batch(
    config: CoordConfig,
    tally: Tally,
    batch: DecisionBatch,
    outcomes: Sequence[tuple[Optional[AuthzOutcome], Optional[str]]],
    meter: Optional[CostMeter] = None,
) -> BatchResult:
    """Count an off-chain aggregate in one pass, skipping invalid entries.

    ``outcomes`` parallels ``batch.decisions``: the caller has already run
    signature and authorization checks and supplies either a granted
    outcome or the denial code. No early termination happens mid-batch;
    the verdict is computed at resolve time.
    """
    if not batch.decisions:
        raise EmptyBatch("batch holds no decisions")
    if tally.finalized:
        raise TallyFinalized(f"tally for proposal {tally.proposal_id} is finalized")
    if tally.accepted:
        raise DuplicateBatch("an aggregate was already submitted for this proposal")
    tallied: list[int] = []
    skipped: list[tuple[int, str]] = []
    for index, decision in enumerate(batch.decisions):
        outcome, denial_code = outcomes[index]
        if denial_code is not None or outcome is None:
            skipped.append((index, denial_code or "unauthorized"))
            continue
        entry = (decision.controller_key, decision.verdict, outcome.effective_weight)
        try:
            append_entry(config, tally, entry, meter)
        except (DuplicateDecision, TallyFull) as exc:
            skipped.append((index, exc.code))
            continue
        tallied.append(index)
    return BatchResult(tallied=tuple(tallied), skipped=tuple(skipped))


def resolve(
    config: CoordConfig,
    tally: Tally,
    reason: ResolveReason,
    meter: Optional[CostMeter] = None,
) -> Verdict:
    """Finalize the tally and return its verdict."""
    if tally.finalized:
        raise AlreadyFinalized(f"proposal {tally.proposal_id} was already resolved")
    del reason  # recorded by the caller's event; the formula ignores it
    if isinstance(config, TurnoutConfig):
        # turnout recount plus threshold scaling: the costliest resolution
        charge(meter, "iteration_step", 2 * len(tally.accepted) + 2)
    else:
        charge(meter, "iteration_step", len(tally.accepted))
    charge(meter, "storage_write_update", 1)  # finalization flag
    verdict = evaluate(config, tally.accepted)
    tally.finalized = True
    return verdict


def freeze(tally: Tally, meter: Optional[CostMeter] = None) -> None:
    """Finalize without a verdict: used when a proposal is overridden."""
    if tally.finalized:
        raise AlreadyFinalized(f"proposal {tally.proposal_id} was already resolved")
    charge(meter, "storage_write_update", 1)
    tally.finalized = True
