"""ssiforge benchmark: one command for every workload and metric.

Usage, from the repository root:

    python3 bench/run.py --workload cli|scale|lossy --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics.
The lines before it say how the tail was taken, the run's trace digest and
what the output checks found.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NEEDED = (Path("src") / "ssiforge" / "__init__.py", Path("fixtures") / "birth_registration.json")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "scale", "lossy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a ssiforge checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from workloads import WORK, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        metrics = workload.run_traced() if args.trace else workload.run_untraced()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    checks = workload.checks
    for note in workload.notes:
        print(note)
    print(f"trace_sha256 {workload.trace_sha256()} over the first {len(workload.texts)} traces")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed, failed_frac {checks.failed / checks.attempted:.4f}")
    for defect, count in checks.known.items():
        print(f"known defect, {count} failed checks: {defect}")
    for what in sorted(set(checks.broken)):
        print(f"FAILED: {what} ({checks.broken.count(what)}x)")
    print(
        json.dumps(
            {
                "correct": not checks.broken,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
