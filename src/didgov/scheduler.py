"""Simulated time: an integer-tick clock and a deadline-ordered queue.

Replaces the on-chain scheduler plus its off-chain watcher with virtual
time the test harness controls. The registry enforces that time only
moves forward (``ClockRegression``); the clock itself just records it. Queue entries for proposals that were
resolved before their deadline are not cancelled; they are discarded
lazily when the clock reaches them, mirroring a fire-and-forget event
mechanism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class ScheduleRequest:
    proposal_id: int
    deadline: int


class SimClock:
    """Integer tick counter, starting at 0."""

    def __init__(self) -> None:
        self.now = 0

    def advance(self, to: int) -> None:
        self.now = to


class DeadlineQueue:
    """Min-heap of (deadline, proposal_id); pops in firing order."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []

    def push(self, request: ScheduleRequest) -> None:
        heapq.heappush(self._heap, (request.deadline, request.proposal_id))

    def due(self, now: int) -> list[tuple[int, int]]:
        """Pop every entry with deadline <= now, ordered by deadline then id."""
        fired: list[tuple[int, int]] = []
        while self._heap and self._heap[0][0] <= now:
            fired.append(heapq.heappop(self._heap))
        return fired

    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._heap))

    def __len__(self) -> int:
        return len(self._heap)
