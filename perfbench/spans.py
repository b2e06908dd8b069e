"""Span tracing by wrapping the public functions of each ``didgov`` module.

The engine has no observer hook, so the tracer replaces module and class
attributes with timing wrappers while it is installed and puts the
originals back afterwards. Every call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the time its
direct children cover. Install it only around the timed region: set-up
calls the same functions (``build_decision`` signs ``decision_payload``).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from didgov import authz, coord, crypto, encoding, metering, model, registry, scheduler

_REGISTRY_TX = ("anchor", "propose", "decide", "decide_batch", "resolve_manual", "advance_clock")
_PERSISTENCE = ("event_log_to_jsonl", "event_log_from_jsonl", "replay_events", "snapshot_json")

# (owner, attribute, span name); several attributes may share one name
TARGETS = (
    [
        (crypto, "verify", "crypto.verify"),
        (authz, "authorize", "authz.authorize"),
        (metering.CostMeter, "charge", "metering.charge"),
        (metering.CostMeter, "report", "metering.report"),
        (model, "apply_change_set", "model.apply_change_set"),
        (scheduler.DeadlineQueue, "push", "scheduler.push"),
        (scheduler.DeadlineQueue, "due", "scheduler.due"),
        (scheduler.SimClock, "advance", "scheduler.advance"),
    ]
    + [(encoding, f"{kind}_payload", "encoding.payload") for kind in ("decision", "token", "vc", "presentation")]
    + [
        (coord, name, f"coord.{name}")
        for name in ("submit_decision", "submit_batch", "resolve", "init_process", "freeze", "evaluate")
    ]
    + [(model, f"{kind}_to_json", "model.to_json") for kind in ("document", "proposal", "event")]
    + [(model, f"{kind}_from_json", "model.from_json") for kind in ("document", "proposal", "event")]
    + [(registry.Registry, name, f"registry.{name}") for name in _REGISTRY_TX]
    + [(registry, name, f"registry.{name}") for name in _PERSISTENCE]
)


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent span index or -1)
        self.denied = 0  # authz.authorize outcomes not granted
        self.decisive = 0  # coord.submit_decision calls that settled the tally
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        index_of: dict[str, int] = {}
        for owner, attr, name in TARGETS:
            if name not in index_of:
                index_of[name] = len(self.names)
                self.names.append(name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, index_of[name], name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name_index: int, name: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if name == "authz.authorize" and not result.granted:
                self.denied += 1
            elif name == "coord.submit_decision" and result is not None:
                self.decisive += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def totals(self) -> tuple[dict[str, dict[str, int]], int]:
        """Per span name: calls, inclusive ns and self ns; plus the summed
        duration of top-level spans (the traced engine time)."""
        child_ns = [0] * len(self.spans)
        top_ns = 0
        for name_index, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                top_ns += end - start
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for index, (name_index, start, end, _) in enumerate(self.spans):
            entry = out[self.names[name_index]]
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return out, top_ns

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name_index, start, end, parent in self.spans:
                handle.write(json.dumps([self.names[name_index], start, end, parent]) + "\n")
