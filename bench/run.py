#!/usr/bin/env python3
"""Benchmark for bftvss: four closed-loop workloads on virtual time.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

Workloads: defended-2048, defended-n10, baseline-attack, consensus-faults
(``all`` runs the four one after another).  Each workload calls the program
serially from this one process and thread, repeating its run until
``--seconds`` have passed, and checks every run's output.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it measures half the
time untraced and half traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric definitions and the
reasons behind each workload are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"


def import_program():
    """Put the checkout's src/ first on the path, or exit without a result."""
    if not (SRC / "bftvss" / "__init__.py").is_file():
        sys.exit(f"bench: program source not found at {SRC / 'bftvss'}")
    sys.path.insert(0, str(SRC))
    import bftvss

    if Path(bftvss.__file__).resolve().parent != SRC / "bftvss":
        sys.exit(f"bench: imported bftvss from {bftvss.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all" and args.trace:
        parser.error("--trace 1 takes a single workload")
    import_program()
    import workloads
    from probe import Probe

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    probe = Probe()
    attempted = failed = 0
    metrics = {}
    for name in names:
        print(f"bench: workload={name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}", flush=True)
        report = workloads.run_workload(probe, name, args.seed, args.seconds,
                                        bool(args.trace), SPAN_DIR)
        attempted += report.attempted
        failed += report.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in report.metrics.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
        for line in report.lines:
            print(f"  {line}")
        for err in report.errors:
            print(f"  error: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
