"""One pass of the ``suite`` workload, in a fresh process.

``run.py`` launches this script once per pass so that ``trace_for``'s
in-process trace cache starts empty every time.  It runs every
registered experiment through ``repro.engine.execute`` with ``jobs=1``,
no result cache and no trace store, and prints one JSON line: import
time, suite wall time, the unit outcomes and any that failed, the number
of simulated block operations, a digest of every unit's report, peak
RSS, the pass's host-speed factor (see ``perfbench/hostspeed.py``) and,
with ``--trace 1``, the per-layer metrics.

Usage::

    python3 perfbench/suite_pass.py --seed 1 --scale 0.05 --kernel vector --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--kernel", choices=("batched", "vector"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.hostspeed import HostSpeed

    speed = HostSpeed()
    started = time.perf_counter()
    from repro.engine import decompose, execute
    from repro.experiments.registry import all_experiments

    from perfbench.gate import check_units, digest
    from perfbench.instrument import Instrument

    import_s = (time.perf_counter() - started) * speed.factor()

    units = decompose(
        sorted(all_experiments()), scale=args.scale, seeds=(args.seed,),
        kernel=args.kernel,
    )
    # Untraced, a host-speed probe follows every unit; its time is taken
    # out of the engine's share of the suite wall.  The pass is scaled by
    # the median of the units' factors: one probe pair around a unit of a
    # few milliseconds says more about the probes than about the host.
    factors: list[float] = []
    probe_s = 0.0

    def after_unit(done: int, total: int, outcome) -> None:
        nonlocal probe_s
        started = time.perf_counter()
        factors.append(speed.factor())
        probe_s += time.perf_counter() - started

    instrument = Instrument(traced=bool(args.trace))
    with ExitStack() as stack:
        instrument.install(stack)
        started = time.perf_counter()
        outcomes = execute(units, jobs=1,
                           progress=None if args.trace else after_unit)
        wall_s = time.perf_counter() - started

    unit_walls = [outcome.wall_s for outcome in outcomes]
    report = {
        "kernel": args.kernel,
        "traced": bool(args.trace),
        "import_s": import_s,
        "wall_s": wall_s - probe_s,
        "ops": instrument.ops,
        "units": [
            {
                "id": outcome.unit.experiment_id,
                "wall_s": outcome.wall_s,
                "retries": outcome.retries,
            }
            for outcome in outcomes
        ],
        # every unit, then the engine's own time
        "parts": unit_walls + [wall_s - probe_s - sum(unit_walls)],
        "factor": statistics.median(factors) if factors else 1.0,
        "failures": check_units(outcomes),
        "digest": digest(
            (outcome.unit.label,
             outcome.result.render() if outcome.result is not None else None)
            for outcome in outcomes
        ),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        report["layers"] = instrument.layer_metrics()
        report["fallbacks"] = dict(instrument.fallback_reasons())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
