"""Closed-loop measurement of the three workloads.

One synchronous caller in one process: each transaction is submitted only
after the previous one returned. Set-up builds and signs every input; the
timed loop then replays the same episode on a fresh ``Registry`` until the
run time is used up, timing each registry call with ``perf_counter_ns``.
Each call counts with its fastest repetition in the run: rates are work
over the summed fastest durations, latencies are percentiles over the
distinct calls of an episode.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checks
import workloads
from spans import Tracer
from didgov import CATEGORIES, registry as registry_mod
from didgov.bench import reports_to_csv
from didgov.errors import GovernanceError
from didgov.registry import Registry

OK = workloads.OK
EXPORTS = 3  # event_log_to_jsonl timings per episode
CHUNK = 64  # events per timed event_log_to_jsonl / event_log_from_jsonl call
TRACED_EPISODES = 2
REJECT_CODES = (
    "unauthorized",
    "untrusted-issuer",
    "replayed-nonce",
    "no-active-proposal",
    "duplicate-decision",
    "verification-error",
)

SIZES = {
    "full": {
        "large-acl": {"members": 1000, "rounds": 1},
        "small-mixed": {"docs": 300},
        "replay": {"docs": 1200, "min_events": 10_000},
    },
    "tiny": {
        "large-acl": {"members": 40, "rounds": 1},
        "small-mixed": {"docs": 36},
        "replay": {"docs": 36, "min_events": 1},
    },
}
# Back-to-back set-up repetitions per run; setup_s is the fastest. Short
# set-ups get more repetitions, about 5 s in all, so that one of them meets
# a fast moment of the machine; replay's 5 s set-up gets 3.
SETUPS = {"large-acl": 15, "small-mixed": 10, "replay": 3}


# --- running one episode -----------------------------------------------------

@dataclass
class EpisodeRun:
    registry: Optional[Registry]
    durations: list[int]  # ns per step
    outcomes: list[str]  # "ok" or the error code, per step
    tallied: list[int]  # decisions counted, per step
    mismatches: int = 0
    first_error: str = ""  # traceback of the first exception that is no GovernanceError


def run_episode(episode: workloads.Episode) -> EpisodeRun:
    registry = Registry()
    run = EpisodeRun(registry, [], [], [])
    clock = time.perf_counter_ns
    for step in episode.steps:
        call = getattr(registry, step.method)
        start = clock()
        try:
            result = call(*step.args)
            outcome = OK
        except GovernanceError as exc:
            outcome = exc.code
        except Exception as exc:  # an engine defect: counted as a failed operation
            outcome = f"exception:{type(exc).__name__}"
            if not run.first_error:
                run.first_error = traceback.format_exc()
        end = clock()
        tallied = 0
        if outcome == OK and step.method == "decide":
            tallied = 1
        elif outcome == OK and step.method == "decide_batch":
            tallied = len(result.tallied)
            if tuple(index for index, _ in result.skipped) != step.skipped:
                outcome = "unexpected-skips"
        run.durations.append(end - start)
        run.outcomes.append(outcome)
        run.tallied.append(tallied)
        if outcome != step.expect:
            run.mismatches += 1
    return run


def export_chunks(events: list) -> tuple[str, list[int]]:
    """``event_log_to_jsonl`` over the log, ``CHUNK`` events per call: the
    JSONL text (the same as one call over the whole log) and ns per call.
    Short calls let the fastest-repetition rule find the machine's fast
    moments, which a whole-log call of 0.1 s seldom fits into."""
    clock = time.perf_counter_ns
    parts, ns = [], []
    for i in range(0, len(events), CHUNK):
        chunk = events[i:i + CHUNK]
        start = clock()
        parts.append(registry_mod.event_log_to_jsonl(chunk))
        ns.append(clock() - start)
    return "".join(parts), ns


def decode_chunks(text: str) -> tuple[list, list[int]]:
    """``event_log_from_jsonl`` over the text, ``CHUNK`` lines per call: the
    events (the same as one call over the whole text) and ns per call."""
    clock = time.perf_counter_ns
    lines = text.splitlines(keepends=True)
    events, ns = [], []
    for i in range(0, len(lines), CHUNK):
        chunk = "".join(lines[i:i + CHUNK])
        start = clock()
        events.extend(registry_mod.event_log_from_jsonl(chunk))
        ns.append(clock() - start)
    return events, ns


def fastest_sum(samples: list[list[int]]) -> int:
    """Sum over positions of the fastest sample at each position."""
    return sum(min(position) for position in zip(*samples))


@dataclass
class EpisodeCheck:
    ok: bool
    digests: tuple[str, str, str]  # events JSONL, cost rows, snapshot
    export_ns: list[list[int]]  # per export, ns per chunk
    events: int
    event_bytes: int


def check_episode(episode: workloads.Episode, run: EpisodeRun) -> EpisodeCheck:
    """Export the log (timed, for ``export_events_per_s``), replay it to a
    byte-identical snapshot, and compare final statuses and versions."""
    state = run.registry.state
    export_ns = []
    for _ in range(EXPORTS):
        text, ns = export_chunks(state.event_log)
        export_ns.append(ns)
    live = registry_mod.snapshot_json(state)
    try:
        replayed = registry_mod.snapshot_json(registry_mod.replay_events(registry_mod.event_log_from_jsonl(text)))
    except GovernanceError:
        replayed = None
    proposals, documents = state.proposals, state.documents
    ok = replayed == live
    ok &= all(pid in proposals and proposals[pid].status.value == s for pid, s in episode.statuses.items())
    ok &= all(did in documents and documents[did].version == v for did, v in episode.versions.items())
    digests = (checks.sha256(text), checks.sha256(reports_to_csv(run.registry.reports)), checks.sha256(live))
    return EpisodeCheck(ok, digests, export_ns, len(state.event_log), len(text.encode("utf-8")))


# --- statistics ----------------------------------------------------------------

def percentile(samples: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def rate(count: int, ns: int) -> float:
    return count * 1e9 / ns if ns else 0.0


@dataclass
class Report:
    """What one run prints: contract metrics, the workload's own named
    metrics with their notes, and the correctness tallies."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: list[tuple[str, float, str, str]] = field(default_factory=list)
    records: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def name(self, metric: str, value: float, unit: str, note: str = "") -> None:
        self.named.append((metric, value, unit, note))

    def latency(self, metric: str, samples: list[float], p: float, note: str) -> float:
        value, beyond = percentile(samples, p)
        if p == 99 and beyond < 10:
            self.name(metric, float("nan"), "us", f"not reported: n={len(samples)}, {beyond} beyond p99")
        else:
            self.name(metric, value, "us", f"n={len(samples)}, {beyond} beyond; {note}")
        return value


# --- the closed loop ------------------------------------------------------------

def setup(make, repeats: int) -> tuple[float, object]:
    """Run the set-up ``repeats`` times back to back: (fastest seconds, the
    last product). As with the per-call timings, the fastest repetition
    is the one the machine's slow phases missed."""
    times = []
    for _ in range(repeats):
        product = None  # let the previous product go before the next is built
        gc.collect()
        start = time.perf_counter()
        product = make()
        times.append(time.perf_counter() - start)
    return min(times), product


def loop(body, seconds: float) -> list:
    """Closed loop: run ``body`` back to back until ``seconds`` have passed
    (at least once), collecting garbage between iterations."""
    results = []
    clock = time.perf_counter
    start = clock()
    while True:
        gc.collect()
        results.append(body())
        if clock() - start >= seconds:
            break
    return results


# --- transaction workloads ------------------------------------------------------

def fastest_durations(runs: list[EpisodeRun]) -> list[int]:
    """Per step, its fastest duration (ns) over the episodes of a run.

    Every episode repeats the same deterministic calls, so noise only ever
    adds time. A shared machine has slow phases that can cover most of a
    run; the fastest repetition is the one they missed."""
    return [min(durations) for durations in zip(*(run.durations for run in runs))]


def step_rates(workload: str, episode: workloads.Episode, durations: list[int], tallied: list[int]) -> dict:
    totals: dict[str, list[float]] = {}  # method -> [decisions tallied, ns]
    for step, duration, count in zip(episode.steps, durations, tallied):
        entry = totals.setdefault(step.method, [0, 0.0])
        entry[0] += count
        entry[1] += duration
    on, on_ns = totals.get("decide", (0, 0.0))
    batched, batch_ns = totals.get("decide_batch", (0, 0.0))
    rates = {
        "tx_per_s": rate(len(durations), sum(durations)),
        "decisions_per_s": rate(on + batched, on_ns + batch_ns),
    }
    if workload == "large-acl":
        rates["decisions_per_s"] = rate(on, on_ns)
        rates["batch_decisions_per_s"] = rate(batched, batch_ns)
        rates["throughput_per_s"] = rate(on + batched, on_ns + batch_ns)
    else:
        rates["throughput_per_s"] = rates["tx_per_s"]
    return rates


def measure_transactions(workload: str, episode: workloads.Episode, seconds: float, report: Report) -> None:
    pairs = loop(lambda: _one_episode(episode), seconds)
    runs = [run for run, _ in pairs]
    checked = [check for _, check in pairs]
    fastest = fastest_durations(runs)
    rates = step_rates(workload, episode, fastest, runs[0].tallied)
    report.attempted = sum(len(run.outcomes) for run in runs)
    report.failed = sum(run.mismatches for run in runs)
    report.correct = all(c.ok for c in checked) and len({c.digests for c in checked}) == 1

    def latencies(method: str) -> list[float]:
        # a call whose outcome was not the expected one counts as infinitely slow
        return [
            fastest[i] / 1000 if all(run.outcomes[i] == step.expect for run in runs) else math.inf
            for i, step in enumerate(episode.steps)
            if step.method == method
        ]

    reps = f"each call the fastest of {len(runs)} episodes"
    decide = latencies("decide")
    p50 = report.latency("decide_p50_us", decide, 50, reps)
    report.latency("decide_p99_us", decide, 99, reps)
    if workload == "small-mixed":
        report.latency("propose_p50_us", latencies("propose"), 50, reps)
    for key in ("tx_per_s", "decisions_per_s", "batch_decisions_per_s"):
        if key in rates:
            report.name(key, rates[key], "1/s", f"{len(episode.steps)} calls, {reps}")
    export = rate(checked[0].events, fastest_sum([ns for c in checked for ns in c.export_ns]))
    report.name("export_events_per_s", export, "1/s",
                f"{CHUNK}-event calls, each the fastest of {len(checked) * EXPORTS} exports")
    report.metrics["throughput_per_s"] = (rates["throughput_per_s"], "1/s")
    report.metrics["latency_p50_us"] = (p50, "us")
    report.metrics["export_events_per_s"] = (export, "1/s")
    _outcome_records(episode, runs, checked, report)


def _one_episode(episode: workloads.Episode):
    run = run_episode(episode)
    check = check_episode(episode, run)
    run.registry = None  # keep memory flat however many episodes a run makes
    return run, check


def _outcome_records(episode, runs, checked, report: Report) -> None:
    mismatched: Counter = Counter()
    for run in runs:
        for step, outcome in zip(episode.steps, run.outcomes):
            if outcome != step.expect:
                mismatched[step.method, step.expect, outcome] += 1
        if run.first_error:
            print(run.first_error, file=sys.stderr, end="")
    for (method, expect, outcome), count in sorted(mismatched.items()):
        report.records.append(f"mismatch {method} expected={expect} observed={outcome} count={count}")
    events, costs, snapshot = checked[0].digests
    report.records.append(
        f"episode steps={len(episode.steps)} events={checked[0].events} events_jsonl={events} "
        f"costs={costs} snapshot={snapshot} replay_identical={all(c.ok for c in checked)} "
        f"digests_repeat={len({c.digests for c in checked}) == 1}"
    )


# --- replay workload ------------------------------------------------------------

@dataclass
class ReplayInput:
    events: list
    text_digest: str
    live: str
    setup_mismatches: int
    setup_steps: int
    units: dict[str, int]


def setup_replay(seed: int, docs: int, min_events: int) -> ReplayInput:
    """Run the small-mixed generator live to an event log of at least
    ``min_events`` events."""
    episode = workloads.small_mixed(seed, docs=docs)
    run = run_episode(episode)
    state = run.registry.state
    if len(state.event_log) < min_events:
        raise RuntimeError(f"replay log has {len(state.event_log)} events, fewer than {min_events}")
    return ReplayInput(
        events=state.event_log,
        text_digest=checks.sha256(registry_mod.event_log_to_jsonl(state.event_log)),
        live=registry_mod.snapshot_json(state),
        setup_mismatches=run.mismatches,
        setup_steps=len(episode.steps),
        units=_units(run.registry),
    )


@dataclass
class ReplayPass:
    export_ns: list[int]  # per chunk
    decode_ns: list[int]  # per chunk
    fold_ns: int
    snapshot_ns: int
    ok: bool

    @property
    def audit_ns(self) -> int:
        """Decode, fold and snapshot: the pass after the export."""
        return sum(self.decode_ns) + self.fold_ns + self.snapshot_ns


def replay_pass(source: ReplayInput) -> ReplayPass:
    """The auditor's path: export, decode, fold, snapshot, compare."""
    clock = time.perf_counter_ns
    text, export_ns = export_chunks(source.events)
    events, decode_ns = decode_chunks(text)
    start = clock()
    state = registry_mod.replay_events(events)
    folded = clock()
    snapshot = registry_mod.snapshot_json(state)
    end = clock()
    ok = snapshot == source.live and checks.sha256(text) == source.text_digest
    return ReplayPass(export_ns, decode_ns, folded - start, end - folded, ok)


def replay_rates(count: int, passes: list[ReplayPass]) -> tuple[float, float]:
    """(replay, export) events per second, each call at its fastest pass."""
    audit_ns = (
        fastest_sum([p.decode_ns for p in passes])
        + min(p.fold_ns for p in passes)
        + min(p.snapshot_ns for p in passes)
    )
    return rate(count, audit_ns), rate(count, fastest_sum([p.export_ns for p in passes]))


def measure_replay(source: ReplayInput, seconds: float, report: Report) -> None:
    passes = loop(lambda: replay_pass(source), seconds)
    count = len(source.events)
    replay_rate, export_rate = replay_rates(count, passes)
    report.attempted = len(passes)
    report.failed = sum(not p.ok for p in passes)
    report.correct = report.failed == 0
    note = f"each call the fastest of {len(passes)} passes over {count} events, {CHUNK}-event codec calls"
    report.name("replay_events_per_s", replay_rate, "1/s", note)
    report.name("export_events_per_s", export_rate, "1/s", note)
    p50 = report.latency("audit_pass_p50_us", [p.audit_ns / 1000 for p in passes], 50,
                         "passes; decode, fold and snapshot of the whole log")
    report.name("audit_pass_us", count / replay_rate * 1e6, "us", "the sum of the fastest stages")
    report.metrics["throughput_per_s"] = (replay_rate, "1/s")
    report.metrics["latency_p50_us"] = (p50, "us")
    report.metrics["export_events_per_s"] = (export_rate, "1/s")
    report.records.append(
        f"replay events={count} events_jsonl={source.text_digest} snapshot={checks.sha256(source.live)} "
        f"setup_steps={source.setup_steps} setup_mismatches={source.setup_mismatches}"
    )


# --- per-layer metrics (traced run) -----------------------------------------------

def _units(registry: Registry) -> dict[str, int]:
    return {c: sum(report.units(c) for report in registry.reports) for c in CATEGORIES}


def layer_metrics(tracer: Tracer, per: int, units: dict[str, int], rejected: dict[str, float],
                  events: float, event_bytes: float, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised to one episode (one pass for replay)."""
    totals, top_ns = tracer.totals()

    def get(name, key):
        return totals[name][key] if name in totals else 0

    def calls(name):
        return get(name, "calls") / per

    def self_us(*names):
        return sum(get(n, "self_ns") for n in names) / per / 1000

    def per_call(name):
        return get(name, "ns") / get(name, "calls") / 1000 if get(name, "calls") else 0.0

    def share(prefix):
        return sum(v["self_ns"] for k, v in totals.items() if k.startswith(prefix)) / top_ns if top_ns else 0.0

    m: dict[str, tuple[float, str]] = {
        "crypto.verify.calls": (calls("crypto.verify"), "count"),
        "crypto.verify.self_us": (self_us("crypto.verify"), "us"),
        "crypto.verify.us_per_call": (per_call("crypto.verify"), "us"),
        "crypto.verify.share": (share("crypto."), "ratio"),
        "encoding.payload.calls": (calls("encoding.payload"), "count"),
        "encoding.payload.self_us": (self_us("encoding.payload"), "us"),
        "authz.authorize.calls": (calls("authz.authorize"), "count"),
        "authz.authorize.self_us": (self_us("authz.authorize"), "us"),
        "authz.authorize.us_per_call": (per_call("authz.authorize"), "us"),
        "authz.authorize.denied": (tracer.denied / per, "count"),
        "authz.authorize.share": (share("authz."), "ratio"),
        "coord.submit_decision.us_per_call": (per_call("coord.submit_decision"), "us"),
        "coord.submit_decision.self_us": (self_us("coord.submit_decision"), "us"),
        "coord.submit_batch.self_us": (self_us("coord.submit_batch"), "us"),
        "coord.resolve.self_us": (self_us("coord.resolve"), "us"),
        "coord.decisive": (tracer.decisive / per, "count"),
        "coord.share": (share("coord."), "ratio"),
        "metering.charge.calls": (calls("metering.charge"), "count"),
        "metering.charge.self_us": (self_us("metering.charge"), "us"),
        "metering.report.self_us": (self_us("metering.report"), "us"),
        "metering.share": (share("metering."), "ratio"),
    }
    for category in CATEGORIES:
        m[f"metering.units.{category}"] = (units[category], "units")
    for name in ("apply_change_set", "to_json", "from_json"):
        m[f"model.{name}.calls"] = (calls(f"model.{name}"), "count")
        m[f"model.{name}.self_us"] = (self_us(f"model.{name}"), "us")
    for tx in ("anchor", "propose", "decide", "decide_batch", "resolve_manual", "advance_clock"):
        m[f"registry.{tx}.calls"] = (calls(f"registry.{tx}"), "count")
        m[f"registry.{tx}.self_us"] = (self_us(f"registry.{tx}"), "us")
    for code in REJECT_CODES + ("other",):
        m[f"registry.rejected.{code}"] = (rejected.get(code, 0), "count")
    m["registry.events"] = (events, "count")
    m["registry.event_bytes"] = (event_bytes, "B")
    m["registry.event_log_to_jsonl.us"] = (get("registry.event_log_to_jsonl", "ns") / per / 1000, "us")
    m["registry.event_log_from_jsonl.us"] = (get("registry.event_log_from_jsonl", "ns") / per / 1000, "us")
    m["registry.replay_events.self_us"] = (self_us("registry.replay_events"), "us")
    m["registry.snapshot_json.us"] = (get("registry.snapshot_json", "ns") / per / 1000, "us")
    m["scheduler.push.calls"] = (calls("scheduler.push"), "count")
    m["scheduler.due.calls"] = (calls("scheduler.due"), "count")
    m["scheduler.self_us"] = (self_us("scheduler.push", "scheduler.due", "scheduler.advance"), "us")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def _rejected(runs: list[EpisodeRun]) -> dict[str, float]:
    """Refused transactions per episode, by error code."""
    counts = Counter(
        outcome if outcome in REJECT_CODES else "other"
        for run in runs
        for outcome in run.outcomes
        if outcome != OK
    )
    return {code: count / len(runs) for code, count in counts.items()}


# --- entry ------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, traced: bool, size: str, root: Path) -> dict:
    out = root / ".bench_build" / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    print(f"machine {checks.machine_info()}")
    print(f"calibration before={checks.calibrate():.0f} loop_iterations/s")
    report = Report()

    make = {"large-acl": workloads.large_acl, "small-mixed": workloads.small_mixed, "replay": setup_replay}[workload]
    setup_s, product = setup(lambda: make(seed, **SIZES[size][workload]), SETUPS[workload])
    gc.freeze()  # set-up objects stay alive for the whole run; keep them out of collections

    if not traced:
        if workload == "replay":
            measure_replay(product, seconds, report)
        else:
            measure_transactions(workload, product, seconds, report)
        report.metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **report.metrics,
        }
        report.name("setup_s", setup_s, "s", f"fastest of {SETUPS[workload]} back-to-back set-ups")
        report.name("ops_failed_ratio", report.failed / report.attempted, "ratio",
                    f"{report.failed} of {report.attempted} differ from the expected outcome")
    else:
        _traced(workload, product, seconds, report, out, seed)

    report.records.extend(checks.scenario_records(root, out))
    report.records.append(checks.sweep_record())
    print(f"workload {workload} seed={seed} seconds={seconds} trace={int(traced)} size={size}")
    named = {name for name, _, _, _ in report.named}
    for name, value, unit, note in report.named:
        print(f"metric {name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for name, (value, unit) in report.metrics.items():
        if name not in named:
            print(f"metric {name} {value:.6g} {unit}")
    for line in report.records:
        print(f"record {line}")
    print(f"calibration after={checks.calibrate():.0f} loop_iterations/s")
    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
    }


def _traced(workload: str, product, seconds: float, report: Report, out: Path, seed: int) -> None:
    """Untraced for half the run time, then a fixed number of untraced and
    traced episodes (passes for replay) back to back, so traced counts
    repeat exactly and the overhead compares equal sample counts."""
    untraced = Report()
    tracer = Tracer()
    if workload == "replay":
        measure_replay(product, seconds / 2, untraced)
        count = len(product.events)
        baseline = [replay_pass(product) for _ in range(TRACED_EPISODES)]
        tracer.install()
        try:
            passes = [replay_pass(product) for _ in range(TRACED_EPISODES)]
        finally:
            tracer.uninstall()
        untraced_rate = replay_rates(count, baseline)[0]
        traced_rate = replay_rates(count, passes)[0]
        report.attempted = untraced.attempted + len(baseline + passes)
        report.failed = untraced.failed + sum(not p.ok for p in baseline + passes)
        report.correct = untraced.correct and report.failed == 0
        # the replayed log's committed cost, from the live set-up run
        units, rejected = product.units, {}
        events = count
        event_bytes = len(registry_mod.event_log_to_jsonl(product.events).encode("utf-8"))
    else:
        measure_transactions(workload, product, seconds / 2, untraced)
        baseline = [run_episode(product) for _ in range(TRACED_EPISODES)]
        tracer.install()
        try:
            runs = [run_episode(product) for _ in range(TRACED_EPISODES)]
        finally:
            tracer.uninstall()
        checked = [check_episode(product, r) for r in runs]
        untraced_rate, traced_rate = (
            step_rates(workload, product, fastest_durations(group), group[0].tallied)["throughput_per_s"]
            for group in (baseline, runs)
        )
        report.attempted = untraced.attempted + sum(len(r.outcomes) for r in baseline + runs)
        report.failed = untraced.failed + sum(r.mismatches for r in baseline + runs)
        report.correct = untraced.correct and all(c.ok for c in checked)
        units = _units(runs[0].registry)
        rejected = _rejected(runs)
        events, event_bytes = checked[0].events, checked[0].event_bytes
    overhead = untraced_rate / traced_rate
    report.metrics = layer_metrics(tracer, TRACED_EPISODES, units, rejected, events, event_bytes, overhead)
    report.records.extend(untraced.records)
    tracer.write(out / f"spans-{workload}-{seed}.jsonl")
    report.records.append(f"spans written={len(tracer.spans)} file=.bench_build/perfbench/spans-{workload}-{seed}.jsonl")
