"""The repository's benchmark: four workloads, one command.

Workloads: ``suite`` (every registered experiment through the engine),
``paper-matrix`` (Table 4's traces x devices under both kernels),
``extension-matrix`` (the same traces x one configuration per vector
fallback class) and ``fleet`` (``run_fleet`` on the fast path).  See
``perfbench/workloads.py`` for what each measures.

Usage::

    python3 perfbench/run.py --workload paper-matrix --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass (``perfbench/spec.py`` lists
both; per-layer times are host seconds).  Outputs are checked after timing; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` and the exit status is 1 when any check failed.  Run from a
checkout of the repository: the program under test is imported from its
``src/`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="trace and fleet seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to measure (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="input sizes; tiny is for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print one set-up time as JSON and exit")
    return parser.parse_args(argv)


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: every catalogue metric with its unit."""
    from perfbench.spec import END_TO_END, PER_LAYER

    catalogue = PER_LAYER if trace else END_TO_END
    unknown = set(outcome.metrics) - set(catalogue)
    if unknown:
        raise KeyError(f"metrics missing from perfbench/spec.py: {sorted(unknown)}")
    failed = len(outcome.failures)
    values = {name: 0.0 for name in catalogue}
    values.update(outcome.metrics)
    if trace:
        values["gate.failed_share"] = failed / outcome.attempted
    return {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in catalogue.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    if args.setup_only:
        seconds = workloads.setup_only(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": seconds}))
        return 0

    outcome = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.size)
    line = result_line(outcome, bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    for note in outcome.notes:
        print(f"  {note}")
    for name, metric in line["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  failed_share {line['failed']}/{line['attempted']}")
    for label, problems in outcome.failures.items():
        for problem in problems:
            print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
