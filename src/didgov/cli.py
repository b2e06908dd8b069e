"""Command line interface.

Exit codes: 0 success, 1 assertion/verification mismatch, 2 parse or
configuration error, 3 governance engine rejection.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .bench import SweepGrid, sweep, write_csv
from .errors import EncodingError, GovernanceError
from .metering import CostSchedule
from .model import AuthzKind, CoordKind, ExecutionMode
from .registry import event_log_from_jsonl, replay_events, snapshot_json
from .scenario import (
    ScenarioAssertionError,
    ScenarioEngineError,
    ScenarioParseError,
    run_scenario,
)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Deterministic governance engine for group-controlled DID documents."""


@main.command()
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Artifact directory (default: <scenario>-out next to the file).")
def run(scenario, out_dir):
    """Execute a scenario file and write events.jsonl, costs.csv and
    final_state.json."""
    try:
        result = run_scenario(scenario, out_dir)
    except ScenarioParseError as exc:
        where = f" (line {exc.line}, column {exc.column})" if exc.line is not None else ""
        _fail(f"{exc}{where}", 2)
    except ScenarioAssertionError as exc:
        _fail(str(exc), 1)
    except ScenarioEngineError as exc:
        _fail(str(exc), 3)
    state = result.registry.state
    click.echo(
        f"{result.name}: {len(state.event_log)} events, "
        f"{len(state.documents)} document(s), clock {state.clock.now} "
        f"-> {result.out_dir}"
    )


def _parse_range(text: str, flag: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            counts = tuple(range(lo_i, hi_i + 1))
        else:
            counts = tuple(int(part) for part in text.split(","))
        if min(counts) < 1:
            raise ValueError
        return counts
    except ValueError:
        raise click.BadParameter(
            f"{text!r} (expected counts of at least 1: N, N..M or N,M,...)", param_hint=flag
        )


def _parse_enum(text: str, enum_cls, flag: str):
    values = []
    for part in text.split(","):
        try:
            values.append(enum_cls(part.strip()))
        except ValueError:
            allowed = ", ".join(e.value for e in enum_cls)
            raise click.BadParameter(f"{part!r} (expected one of: {allowed})", param_hint=flag)
    return tuple(values)


def _parse_time(text: str) -> tuple:
    values = []
    for part in text.split(","):
        part = part.strip()
        if part == "unlimited":
            values.append(None)
        else:
            try:
                tick = int(part)
                if tick <= 0:
                    raise ValueError
            except ValueError:
                raise click.BadParameter(
                    f"{part!r} (expected 'unlimited' or a positive tick count)",
                    param_hint="--time",
                )
            values.append(tick)
    return tuple(values)


@main.command()
@click.option("--groups", default="1..3", help="Group counts: N, N..M or N,M,...")
@click.option("--members", default="1..3", help="Controller counts per group.")
@click.option("--authz", default="acl", help="Comma list of: acl, token, vc.")
@click.option("--coord", default="nofm",
              help="Comma list of: nofm, turnout_sensitive, weighted.")
@click.option("--execution", default="onchain", help="Comma list of: onchain, offchain.")
@click.option("--time", "time_", default="unlimited",
              help="Comma list of: unlimited or positive tick counts.")
@click.option("--schedule", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file overriding per-category unit costs.")
@click.option("--out", default="costs.csv", show_default=True, help="Output CSV path.")
def bench(groups, members, authz, coord, execution, time_, schedule, out):
    """Sweep governance configurations and write per-phase costs as CSV."""
    grid = SweepGrid(
        groups=_parse_range(groups, "--groups"),
        members=_parse_range(members, "--members"),
        authz=_parse_enum(authz, AuthzKind, "--authz"),
        coord=_parse_enum(coord, CoordKind, "--coord"),
        execution=_parse_enum(execution, ExecutionMode, "--execution"),
        time_limits=_parse_time(time_),
    )
    cost_schedule = None
    if schedule is not None:
        try:
            cost_schedule = CostSchedule.from_json_file(schedule)
        except (GovernanceError, OSError, ValueError, RecursionError) as exc:
            _fail(f"--schedule: {exc}", 2)
    try:
        reports = sweep(grid, schedule=cost_schedule)
    except GovernanceError as exc:
        _fail(f"{exc.code}: {exc}", 3)
    write_csv(reports, out)
    points = len(reports) // 4
    click.echo(f"{points} grid point(s), {len(reports)} rows -> {out}")


@main.command()
@click.argument("events", type=click.Path(exists=True, dir_okay=False))
@click.option("--expect", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Snapshot to compare against (default: final_state.json "
                   "next to the event log, when present).")
def replay(events, expect):
    """Rebuild registry state from an event log and verify it against a
    snapshot."""
    try:
        log = event_log_from_jsonl(Path(events).read_text(encoding="utf-8"))
        state = replay_events(log)
    except UnicodeDecodeError as exc:
        _fail(f"{EncodingError.code}: {events} is not UTF-8 text (byte {exc.start})", 2)
    except GovernanceError as exc:
        _fail(f"{exc.code}: {exc}", 2)
    rebuilt = snapshot_json(state)
    if expect is None:
        sibling = Path(events).parent / "final_state.json"
        if sibling.is_file():
            expect = str(sibling)
    if expect is None:
        click.echo(rebuilt, nl=False)
        return
    if rebuilt.encode() != Path(expect).read_bytes():
        _fail(f"replayed state does not match {expect}", 1)
    click.echo(f"{len(log)} events replayed; state matches {expect}")


if __name__ == "__main__":
    main()
