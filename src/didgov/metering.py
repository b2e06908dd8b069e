"""Abstract cost accounting.

Every registry transaction owns one meter. Modules on the transaction path
charge itemized units (storage writes, event bytes, signature checks,
iteration steps) and the registry freezes the meter into a report when the
transaction commits. Failed transactions discard their meter, so metering
can never observe partial work.

The unit weights mirror EVM gas magnitudes so cost *trends* are comparable
with on-chain measurements; the absolute numbers carry no meaning and the
schedule is plain data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import Optional

from .errors import UnknownCategory


@dataclass(frozen=True)
class CostSchedule:
    base_tx: int = 21000
    storage_write_new: int = 20000
    storage_write_update: int = 5000
    event_base: int = 375
    event_per_byte: int = 8
    sig_verify: int = 3000
    iteration_step: int = 200

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
                raise UnknownCategory(f"schedule unit {f.name} must be a positive integer")

    def unit(self, category: str) -> int:
        if category not in CATEGORIES:
            raise UnknownCategory(f"unknown cost category {category!r}")
        return getattr(self, category)

    @classmethod
    def from_json(cls, data: Mapping) -> "CostSchedule":
        unknown = set(data) - set(CATEGORIES)
        if unknown:
            raise UnknownCategory(f"unknown cost categories in schedule: {sorted(unknown)}")
        return cls(**dict(data))

    @classmethod
    def from_json_file(cls, path) -> "CostSchedule":
        import json

        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise UnknownCategory("cost schedule file must hold a JSON object")
        return cls.from_json(data)


# in field order, which is also the order of the cost columns in CSV output
CATEGORIES = tuple(f.name for f in fields(CostSchedule))


@dataclass(frozen=True, slots=True)
class CostReport:
    """Frozen outcome of one metered transaction.

    ``items`` lists (category, count, units) in first-charge order;
    ``dimensions`` carries the governance aspects of the grid point when
    the report comes from a benchmark sweep (empty otherwise).
    """

    transaction_label: str
    total: int
    items: tuple[tuple[str, int, int], ...]
    dimensions: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", dict(self.dimensions))
        if self.total != sum(units for _, _, units in self.items):
            raise UnknownCategory("report total does not match its items")

    def count(self, category: str) -> int:
        return sum(count for cat, count, _ in self.items if cat == category)

    def units(self, category: str) -> int:
        return sum(units for cat, _, units in self.items if cat == category)


class CostMeter:
    """Accumulates charges for one transaction, in first-charge order."""

    def __init__(self, schedule: Optional[CostSchedule] = None) -> None:
        self.schedule = schedule if schedule is not None else CostSchedule()
        self._counts: dict[str, int] = {}

    def charge(self, category: str, count: int = 1) -> None:
        self.schedule.unit(category)  # validates the category
        if count < 0:
            raise UnknownCategory(f"cannot charge negative count {count}")
        if count == 0:
            return
        self._counts[category] = self._counts.get(category, 0) + count

    def items(self) -> tuple[tuple[str, int, int], ...]:
        return tuple(
            (category, count, count * self.schedule.unit(category))
            for category, count in self._counts.items()
        )

    @property
    def total(self) -> int:
        return sum(units for _, _, units in self.items())

    def report(self, label: str) -> CostReport:
        return CostReport(transaction_label=label, total=self.total, items=self.items())


def charge(meter: Optional[CostMeter], category: str, count: int = 1) -> None:
    """Charge helper tolerating a disabled (None) meter.

    Call sites on the transaction path use this so that running with
    metering off cannot change behavior.
    """
    if meter is not None:
        meter.charge(category, count)
