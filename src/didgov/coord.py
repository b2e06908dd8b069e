"""Coordination: decisions counted into one mutable :class:`Tally`, off-chain
batches, and resolution. Each coordination kind is a config class in
:mod:`didgov.model` holding its verdict formula, early outcome, cap and
resolution charge. Verdicts and early outcomes read the tally's running
counts, which only :func:`append_entry` keeps; ``accepted`` is what the
snapshot holds. ``evaluate`` is the pure verdict function; ``resolve`` is
evaluate-plus-finalize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .authz import AuthzOutcome
from .errors import (
    AlreadyFinalized,
    DuplicateBatch,
    DuplicateDecision,
    ReplayedNonce,
    TallyFinalized,
    TallyFull,
)
from .metering import CostMeter, charge
from .model import CoordConfig, Decision, ExecutionMode, GovernanceGroup, UpdateProposal, Verdict

TallyEntry = tuple[bytes, Verdict, int]  # (controller_key, verdict, effective_weight)


class ResolveReason(str, Enum):
    DECISIVE = "decisive"
    MANUAL = "manual"
    EXPIRED = "expired"


@dataclass
class Tally:
    """Accepted decisions of one proposal, in order.

    ``accepted`` is what the snapshot holds. The controller set and the
    running counts beside it are derived from ``accepted`` and change only
    in :func:`append_entry`; verdicts and early outcomes read the counts,
    so no formula rescans the tally.
    """

    proposal_id: int
    accepted: list[TallyEntry] = field(default_factory=list, init=False)
    finalized: bool = False
    decided: set[bytes] = field(default_factory=set, init=False, repr=False)
    approvals: int = field(default=0, init=False)
    rejections: int = field(default=0, init=False)
    approve_weight: int = field(default=0, init=False)


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
    meter: Optional[CostMeter] = None,
) -> Tally:
    """Start the coordination process for a freshly admitted proposal."""
    charge(meter, "storage_write_new", 1)  # tally record
    if group.execution is ExecutionMode.OFF_CHAIN:
        # aggregation setup: record where/how signatures will be collected
        charge(meter, "storage_write_new", 1)
    if group.time_limit is not None:
        charge(meter, "storage_write_new", 1)  # deadline settings
    return Tally(proposal_id=proposal.proposal_id)


def evaluate(config: CoordConfig, tally: Tally) -> Verdict:
    """The pure resolution formula over a (possibly partial) tally."""
    return config.verdict(tally)


def submit_decision(
    config: CoordConfig,
    tally: Tally,
    controller: bytes,
    verdict: Verdict,
    weight: int,
    meter: Optional[CostMeter] = None,
) -> Optional[Verdict]:
    """Count one on-chain decision; returns the verdict if it was decisive.

    All failure checks precede the append, so a raising call leaves the
    tally untouched.
    """
    append_entry(config, tally, (controller, verdict, weight), meter)
    return config.early_outcome(tally, meter)


def append_entry(
    config: CoordConfig,
    tally: Tally,
    entry: TallyEntry,
    meter: Optional[CostMeter] = None,
) -> None:
    """Count one decision: the only way an entry enters a tally, through
    :func:`submit_decision` or :func:`submit_batch`. Checks precede it."""
    if tally.finalized:
        raise TallyFinalized(f"tally for proposal {tally.proposal_id} is finalized")
    if entry[0] in tally.decided:
        raise DuplicateDecision("controller already has a counted decision")
    if config.cap is not None and len(tally.accepted) >= config.cap:
        raise TallyFull(f"turnout threshold m={config.cap} reached")
    key, verdict, weight = entry
    tally.accepted.append(entry)
    tally.decided.add(key)
    if verdict is Verdict.APPROVE:
        tally.approvals += 1
        tally.approve_weight += weight
    else:
        tally.rejections += 1
    charge(meter, "storage_write_update", 1)


def submit_batch(
    config: CoordConfig,
    tally: Tally,
    ballots: Sequence[tuple[bytes, Verdict]],
    outcomes: Sequence[AuthzOutcome],
    meter: Optional[CostMeter] = None,
) -> BatchResult:
    """Count an off-chain aggregate in one pass, skipping invalid entries.

    ``outcomes`` parallels ``ballots`` (controller, verdict): each entry's
    signature and authorization check, with its weight. An entry is skipped
    under the code of what refused it: its check, a token nonce an earlier
    entry of the batch presented (reserved before the append, so even an
    entry the append refuses holds it), or :func:`append_entry`. No early
    termination happens mid-batch; the verdict is computed at resolve time.
    """
    if tally.accepted:
        raise DuplicateBatch("an aggregate was already submitted for this proposal")
    tallied: list[int] = []
    skipped: list[tuple[int, str]] = []
    presented: set[tuple[bytes, bytes]] = set()
    for index, ((controller, verdict), outcome) in enumerate(zip(ballots, outcomes)):
        if not outcome.granted:
            skipped.append((index, outcome.denial.code))
            continue
        nonce = outcome.consume_nonce
        if nonce is not None:
            if nonce in presented:
                skipped.append((index, ReplayedNonce.code))
                continue
            presented.add(nonce)
        try:
            append_entry(config, tally, (controller, verdict, outcome.effective_weight), meter)
        except (DuplicateDecision, TallyFull) as exc:
            skipped.append((index, exc.code))
            continue
        tallied.append(index)
    return BatchResult(tallied=tuple(tallied), skipped=tuple(skipped))


def resolve(
    config: CoordConfig,
    tally: Tally,
    meter: Optional[CostMeter] = None,
) -> Verdict:
    """Finalize the tally and return its verdict."""
    if tally.finalized:
        raise AlreadyFinalized(f"proposal {tally.proposal_id} was already resolved")
    charge(meter, "iteration_step", config.resolution_steps(len(tally.accepted)))
    charge(meter, "storage_write_update", 1)  # finalization flag
    verdict = evaluate(config, tally)
    tally.finalized = True
    return verdict


def freeze(tally: Tally, meter: Optional[CostMeter] = None) -> None:
    """Finalize without a verdict: used when a proposal is overridden."""
    if tally.finalized:
        raise AlreadyFinalized(f"proposal {tally.proposal_id} was already resolved")
    charge(meter, "storage_write_update", 1)
    tally.finalized = True
