"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload glr-table1 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes one traced pass beside one untraced pass and
prints the per-layer metrics instead (spans are written under
``.perfbench/traces/``).  Earlier output lines are human-readable
notes (resolved engine, passes, any failed check); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  The program is
imported from ``src/`` next to this directory; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    outcome = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR
    )
    if not outcome.metrics:
        for problem in outcome.problems:
            print(f"error: {problem}", file=sys.stderr)
        print("error: nothing was measured", file=sys.stderr)
        return 1
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        + " ".join(f"{k} {v}" for k, v in outcome.notes.items())
    )
    print(f"error_rate {outcome.failed / outcome.attempted:.4f} "
          f"({outcome.failed}/{outcome.attempted})")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
