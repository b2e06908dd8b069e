#!/usr/bin/env python3
"""Wall-clock benchmark of the didgov engine.

Run from the repository root:

    python3 perfbench/run.py --workload large-acl --seed 1 --seconds 20 --trace 0

Workloads: large-acl, small-mixed, replay (see perfbench/NOTES.md).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
traced run that gives the per-layer metrics. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The engine is
imported from ``src/`` next to this directory; without it the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("large-acl", "small-mixed", "replay")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the engine from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.size, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
