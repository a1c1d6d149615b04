"""The four workloads.

Every workload is a closed loop: one caller, ``jobs=1``, no threads, each
call waiting for its result.  A run sets up, then repeats rounds over the
same inputs until ``seconds`` have passed (and at least two rounds), then
checks the outputs outside the timed region.  A traced run instead makes
one untraced round, one traced pass and another untraced round, and
reports per-layer metrics.

Rates are simulated block operations per second.  Every pass's seconds,
like set-up times, are scaled to a reference host speed (see
:mod:`perfbench.hostspeed`), then a pass is estimated part by part (see
:func:`typical_total`); the notes a run prints give host seconds too.

* ``suite`` — a round is one pass per kernel of every registered
  experiment, each pass in a fresh process; operations are every
  simulation the experiments make (counted around ``Simulator.run``), parts
  are the units.
* ``paper-matrix``/``extension-matrix`` — a round is one sweep over every
  cell per kernel; operations are the cells' compiled trace lengths,
  parts are the cells.  The vector kernel's per-trace array caches fill
  on its first sweep and are reused after, as in an experiment that sweeps
  devices over one trace.
* ``fleet`` — a round is one ``run_fleet(fast=True)`` over the fleet
  (``vector_ops_per_s``: the array fast path) and one exact per-device
  run (``kernel="batched"``) over a smaller fleet in shards
  (``batched_ops_per_s``); parts are the shards.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench.gate import (
    Failures,
    check_cells,
    check_population,
    check_repeats,
    check_units,
    digest,
    digest_number,
)
from perfbench.hostspeed import HostSpeed
from perfbench.instrument import Instrument, Spans, patch
from perfbench.spec import EXPERIMENT_IDS

HERE = Path(__file__).resolve().parent

TRACES = ("mac", "dos", "hp")
KERNELS = ("batched", "vector")

#: A child process (suite pass or set-up sample) that outlives this stops
#: the run with an error.
PASS_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SIZES["tiny"]`` is for the benchmark's own tests."""

    suite_scale: float = 0.02
    paper_scale: float = 0.05
    extension_scale: float = 0.03
    fleet_devices: int = 4096
    #: the exact per-device path is timed on a smaller fleet, in shards
    fleet_exact_devices: int = 256
    fleet_exact_shards: int = 4
    fleet_scale: float = 0.1
    fleet_ops: int = 400
    #: devices in the set-up fleet that fills the fast path's lazy tables
    fleet_warmup_devices: int = 512
    #: set-up is measured this many times (once here, the rest in
    #: fresh processes) and reported as the median
    setup_samples: int = 3


SIZES = {
    "default": Sizes(),
    "tiny": Sizes(suite_scale=0.01, paper_scale=0.01, extension_scale=0.01,
                  fleet_devices=300, fleet_exact_devices=16, setup_samples=2),
}


@dataclass
class Outcome:
    """What one run measured and what its gate found."""

    metrics: dict[str, float]
    attempted: int
    failures: Failures
    notes: list[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def typical_total(repeats: list[list[float]]) -> float:
    """The time of one pass, estimated part by part: the sum over the
    parts (cells, units or shards, in the same order in every repeat) of
    each part's median over the repeats, so that a burst of contention
    moves only the parts it overlapped."""
    return sum(statistics.median(part) for part in zip(*repeats))


@dataclass
class Passes:
    """Timed repeats of one kind of pass.  Only the first pass's output is
    kept, for the gate; every pass is reduced to a digest at once, so the
    heap, and with it the garbage collector's work, stays the same size
    from pass to pass."""

    host: list[list[float]] = field(default_factory=list)
    reference: list[list[float]] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    first: Any = None

    def add(self, parts: list[float], factors: list[float], output: Any,
            output_digest: str) -> None:
        """``parts`` in host seconds, each with its reference factor."""
        self.host.append(parts)
        self.reference.append([t * f for t, f in zip(parts, factors)])
        self.digests.append(output_digest)
        if self.first is None:
            self.first = output

    def note(self, what: str) -> str:
        return (f"{what}: {len(self.host)} passes, typical "
                f"{typical_total(self.host):.4f} host s = "
                f"{typical_total(self.reference):.4f} reference s")


def sample_setup(workload: str, seed: int, size: str, first: float,
                 samples: int) -> float:
    """Median set-up time: ``first`` plus ``samples - 1`` fresh processes."""
    times = [first]
    for _ in range(samples - 1):
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--size", size, "--setup-only"],
            capture_output=True, text=True, check=True, timeout=PASS_TIMEOUT_S,
        ).stdout
        times.append(json.loads(output.splitlines()[-1])["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# paper-matrix and extension-matrix
# ---------------------------------------------------------------------------


def paper_cells(traces: dict[str, Any], seed: int):
    """Table 4: every trace x the seven ``DEVICE_ROWS`` at the paper's
    settings (2 MB DRAM for mac/dos, none for hp, 5 s spin-down)."""
    from repro.core.config import SimulationConfig
    from repro.experiments.exp_table4 import DEVICE_ROWS
    from repro.experiments.traces_cache import dram_for

    return [
        (f"{name}/{device}", name, SimulationConfig(
            device=device, dram_bytes=dram_for(name),
            spin_down_timeout_s=5.0, flash_utilization=0.8,
        ))
        for name in TRACES
        for device in DEVICE_ROWS
    ]


def extension_cells(traces: dict[str, Any], seed: int):
    """Every trace x one configuration per vector-kernel fallback class.
    Write-back gets 2 MB of DRAM on every trace, hp included, because a
    write-back cache needs a cache."""
    from repro.core.config import SimulationConfig
    from repro.experiments.exp_fault_tolerance import fault_plan_for
    from repro.experiments.traces_cache import dram_for
    from repro.units import MB

    cells = []
    for name in TRACES:
        dram = dram_for(name)
        classes = {
            "flash-cache-4mb": SimulationConfig(
                device="cu140-datasheet", dram_bytes=dram, flash_cache_bytes=4 * MB),
            "write-back-dram": SimulationConfig(
                device="cu140-datasheet", dram_bytes=2 * MB, write_back=True),
            "cost-benefit-cleaning": SimulationConfig(
                device="intel-datasheet", dram_bytes=dram,
                cleaning_policy="cost-benefit"),
            "sram-on-flash": SimulationConfig(
                device="sdp5-datasheet", dram_bytes=dram, sram_on_flash=True),
            "async-erase-flash-disk": SimulationConfig(
                device="sdp5a-datasheet", dram_bytes=dram),
            "fault-plan": SimulationConfig(
                device="intel-datasheet", dram_bytes=dram,
                fault_plan=fault_plan_for(traces[name], seed=seed)),
        }
        cells.extend((f"{name}/{label}", name, config)
                      for label, config in classes.items())
    return cells


MATRICES: dict[str, tuple[Callable, str]] = {
    "paper-matrix": (paper_cells, "paper_scale"),
    "extension-matrix": (extension_cells, "extension_scale"),
}


def matrix_setup(workload: str, seed: int, sizes: Sizes):
    """Import, generate the three traces and compile them; returns
    ``(host seconds, traces, cells)``."""
    started = time.perf_counter()
    from repro.experiments.traces_cache import FULL_OPS
    from repro.traces import compiled
    from repro.traces.workloads import workload_by_name

    make_cells, scale_field = MATRICES[workload]
    scale = getattr(sizes, scale_field)
    traces = {}
    for name in TRACES:
        # The length trace_for gives the experiments.
        n_ops = max(500, int(FULL_OPS[name] * scale))
        traces[name] = workload_by_name(name).generate(seed=seed, n_ops=n_ops)
        compiled.compile_trace(traces[name])
    cells = make_cells(traces, seed)
    return time.perf_counter() - started, traces, cells


def sweep(cells, traces, kernel: str) -> tuple[list[float], list[Any]]:
    """Every cell once under ``kernel``: per-cell wall times and results."""
    from repro.core.simulator import Simulator

    times, results = [], []
    for _, name, config in cells:
        started = time.perf_counter()
        results.append(Simulator(config).run(traces[name], kernel=kernel))
        times.append(time.perf_counter() - started)
    return times, results


def table4_error(cells, results) -> float:
    """Mean relative error of the read and write mean response times
    against the paper's Table 4."""
    from repro.experiments.exp_table4 import PAPER_TABLE4

    errors = []
    for (_, name, config), result in zip(cells, results):
        paper = PAPER_TABLE4[name][config.device]
        errors.append(abs(result.read_response.mean_ms - paper[1]) / paper[1])
        errors.append(abs(result.write_response.mean_ms - paper[4]) / paper[4])
    return statistics.fmean(errors)


def run_matrix(workload: str, seed: int, seconds: float, trace: bool,
               sizes: Sizes, size: str) -> Outcome:
    from repro.traces.compiled import compile_trace

    instrument = Instrument(traced=True)
    speed = HostSpeed()
    with ExitStack() as stack:
        if trace:
            instrument.install(stack)
        setup_s, traces, cells = matrix_setup(workload, seed, sizes)
    setup_s *= speed.factor()
    ops = sum(compile_trace(traces[name]).n_ops for _, name, _ in cells)
    passes = {kernel: Passes() for kernel in KERNELS}

    def timed_sweep(kernel: str) -> None:
        gc.collect()
        times, results = sweep(cells, traces, kernel)
        factor = speed.factor()
        passes[kernel].add(times, [factor] * len(times), results,
                           digest(result.to_dict() for result in results))

    if trace:
        # untraced (fills the vector caches), traced, untraced again
        for traced in (False, True, False):
            for kernel in KERNELS:
                with ExitStack() as stack:
                    if traced:
                        instrument.install(stack)
                    timed_sweep(kernel)
    else:
        # Rounds of one sweep per kernel, in alternating order.
        started = time.perf_counter()
        while (len(passes["vector"].host) < 2
               or time.perf_counter() - started < seconds):
            rounds = len(passes["vector"].host)
            for kernel in KERNELS if rounds % 2 else KERNELS[::-1]:
                timed_sweep(kernel)

    cell_failures = check_cells(
        (label, batched, vector)
        for (label, _, _), batched, vector
        in zip(cells, passes["batched"].first, passes["vector"].first)
    )
    failures = dict(cell_failures)
    for kernel in KERNELS:
        failures.update(check_repeats(f"{kernel} sweeps", passes[kernel].digests))
    sim_digest = digest(passes[kernel].digests[0] for kernel in KERNELS)
    attempted = len(cells) + len(KERNELS)

    notes = [
        f"cells {len(cells)}, simulated block ops per sweep {ops}",
        *(passes[kernel].note(f"{kernel} sweeps") for kernel in KERNELS),
        f"sim_digest {sim_digest}",
    ]
    if trace:
        reasons = instrument.fallback_reasons()
        notes.extend(f"fallback x{count}: {reason}"
                     for reason, count in sorted(reasons.items()))
        metrics = instrument.layer_metrics()
        metrics.update({
            "kernel.tolerance_violations": len(cell_failures),
            "model.sim_digest": digest_number(sim_digest),
            "trace_overhead_s": sum(
                sum(passes[k].host[1]) - sum(passes[k].host[2]) for k in KERNELS),
        })
        if workload == "paper-matrix":
            metrics["model.table4_err"] = table4_error(cells, passes["batched"].first)
    else:
        metrics = {
            "setup_s": sample_setup(workload, seed, size, setup_s,
                                    sizes.setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            **{f"{kernel}_ops_per_s": ops / typical_total(passes[kernel].reference)
               for kernel in KERNELS},
        }
    return Outcome(metrics, attempted, failures, notes)


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


def fleet_spec(seed: int, sizes: Sizes, devices: int):
    from repro.fleet import FleetSpec

    return FleetSpec(devices=devices, seed=seed, scale=sizes.fleet_scale,
                     ops_per_device=sizes.fleet_ops)


def fleet_setup(seed: int, sizes: Sizes) -> float:
    """Import, then one small fleet to fill the fast path's lazy tables."""
    started = time.perf_counter()
    from repro.fleet import run_fleet

    run_fleet(fleet_spec(seed, sizes, sizes.fleet_warmup_devices),
              jobs=1, fast=True)
    return time.perf_counter() - started


def fleet_digest(run) -> str:
    from repro.fleet import canonical_json

    def plain(value):
        return value.tolist() if hasattr(value, "tolist") else value

    return digest([
        canonical_json(run.summary),
        *({key: plain(value) for key, value in (outcome.result.columns or {}).items()}
          for outcome in run.outcomes),
    ])


def traced_fleet(spec) -> tuple[float, dict[str, float], dict]:
    """The fast path shard by shard, with a span around each public call."""
    from repro.fleet import aggregate, runner, synth
    from repro.fleet.experiment import shard_indices

    spans = Spans()
    shards = runner.default_shards(spec.devices, 1)
    device_ops = 0
    parts = []

    def shard(indices):
        rows, batch = synth.simulate_shard_fast(spec, indices)
        return aggregate.pack_columns(rows), int(batch.n_ops.sum())

    started = time.perf_counter()
    with ExitStack() as stack:
        sample = synth.sample_device_batch
        patch(stack, synth, "sample_device_batch",
              lambda *a, **k: spans.call("fleet.sample", sample, *a, **k))
        for index in range(shards):
            part, ops = spans.call("fleet.shard", shard,
                                   shard_indices(spec.devices, index, shards))
            parts.append(part)
            device_ops += ops
        summary = spans.call("fleet.aggregate",
                             aggregate.population_summary_from_columns,
                             spec, parts)
    wall = time.perf_counter() - started
    metrics = {
        "fleet.sample_s": spans.self_s["fleet.sample"],
        "fleet.shard_s": spans.self_s["fleet.shard"],
        "fleet.aggregate_s": spans.self_s["fleet.aggregate"],
        "fleet.shards": shards,
        "fleet.device_ops": device_ops,
    }
    return wall, metrics, summary


def timed_fleet(spec, **options) -> tuple[Any, list[float]]:
    """One ``run_fleet`` call and its parts: every shard's wall time, then
    the rest of the call (decomposition and aggregation)."""
    from repro.fleet import run_fleet

    started = time.perf_counter()
    run = run_fleet(spec, jobs=1, **options)
    wall = time.perf_counter() - started
    shards = [outcome.wall_s for outcome in run.outcomes]
    return run, shards + [wall - sum(shards)]


def run_fleet_workload(seed: int, seconds: float, trace: bool, sizes: Sizes,
                       size: str) -> Outcome:
    speed = HostSpeed()
    setup_s = fleet_setup(seed, sizes) * speed.factor()
    from repro.fleet import canonical_json, run_fleet, sample_devices
    from repro.fleet.contract import MIN_CONTRACT_DEVICES, compare_summaries

    spec = fleet_spec(seed, sizes, sizes.fleet_devices)
    exact_spec = fleet_spec(seed, sizes, sizes.fleet_exact_devices)
    fast, exact = Passes(), Passes()
    failures: Failures = {}
    shards = 0

    def timed(passes: Passes, fleet, **options) -> None:
        nonlocal shards
        gc.collect()
        run, parts = timed_fleet(fleet, **options)
        factor = speed.factor()
        shards += len(run.outcomes)
        failures.update({
            f"{fleet.devices} devices, pass {len(passes.host)}: {label}": problems
            for label, problems in check_units(run.outcomes).items()
        })
        passes.add(parts, [factor] * len(parts), run,
                   fleet_digest(run) if run.ok else "incomplete")

    def round_trip() -> None:
        timed(fast, spec, fast=True)
        timed(exact, exact_spec, kernel="batched", shards=sizes.fleet_exact_shards)

    if trace:
        # untraced (first full-size pass), traced, untraced again
        round_trip()
        traced_wall, metrics, traced_summary = traced_fleet(spec)
        round_trip()
        metrics["trace_overhead_s"] = traced_wall - sum(fast.host[-1])
        if fast.first.ok and (canonical_json(traced_summary)
                              != canonical_json(fast.first.summary)):
            failures["traced fleet"] = ["traced summary differs from run_fleet's"]
    else:
        started = time.perf_counter()
        while len(fast.host) < 2 or time.perf_counter() - started < seconds:
            round_trip()

    failures.update(check_repeats("fast fleet passes", fast.digests))
    failures.update(check_repeats("exact fleet passes", exact.digests))

    # The population contract, on the fleet size its tolerances hold for.
    contract_spec = fleet_spec(seed, sizes, MIN_CONTRACT_DEVICES)
    contract = [run_fleet(contract_spec, jobs=1, kernel="batched"),
                run_fleet(contract_spec, jobs=1, fast=True)]
    shards += sum(len(run.outcomes) for run in contract)
    attempted = shards + 4
    if all(run.ok for run in contract):
        problems = compare_summaries(contract[0].summary, contract[1].summary)
    else:
        problems = ["contract fleet did not complete"]
    if problems:
        failures["population contract"] = problems
    if not (fast.first.ok and exact.first.ok):
        return Outcome({}, attempted, failures)
    failures.update(check_population(fast.first.summary, sample_devices(spec)))

    sim_digest = digest([fast.digests[0], exact.digests[0],
                         *(fleet_digest(run) for run in contract if run.ok)])
    fast_ops = fast.first.summary["population"]["total_ops"]
    exact_ops = exact.first.summary["population"]["total_ops"]
    notes = [
        f"fast path: {spec.devices} devices, {fast.first.shards} shard(s), "
        f"{fast_ops} device ops, fleet_devices_per_s "
        f"{spec.devices / typical_total(fast.host):.1f} per host second",
        fast.note("fast path"),
        f"exact path: {exact_spec.devices} devices, "
        f"{sizes.fleet_exact_shards} shards, {exact_ops} device ops",
        exact.note("exact path"),
        f"population contract on {MIN_CONTRACT_DEVICES} devices: "
        f"{len(problems)} violation(s)",
        f"sim_digest {sim_digest}",
    ]
    if trace:
        metrics["model.sim_digest"] = digest_number(sim_digest)
    else:
        metrics = {
            "setup_s": sample_setup("fleet", seed, size, setup_s,
                                    sizes.setup_samples),
            "peak_rss_mb": peak_rss_mb(),
            "batched_ops_per_s": exact_ops / typical_total(exact.reference),
            "vector_ops_per_s": fast_ops / typical_total(fast.reference),
        }
    return Outcome(metrics, attempted, failures, notes)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def suite_pass(seed: int, scale: float, kernel: str, traced: bool) -> dict:
    """One pass in a fresh process (``suite_pass.py``); its JSON report."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "suite_pass.py"), "--seed", str(seed),
         "--scale", str(scale), "--kernel", kernel, "--trace", str(int(traced))],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"suite pass ({kernel}) exited {completed.returncode}:\n"
            f"{completed.stderr[-4000:]}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def run_suite(seed: int, seconds: float, trace: bool, sizes: Sizes,
              size: str) -> Outcome:
    scale = sizes.suite_scale
    reports: list[dict] = []
    if trace:
        reports = [suite_pass(seed, scale, "vector", traced) for traced in (False, True)]
    else:
        started = time.perf_counter()
        while len(reports) < 2 * len(KERNELS) or time.perf_counter() - started < seconds:
            reports.extend(suite_pass(seed, scale, kernel, False) for kernel in KERNELS)

    failures: Failures = {}
    for number, report in enumerate(reports):
        failures.update({f"pass {number} [{report['kernel']}] {label}": problems
                         for label, problems in report["failures"].items()})
    passes = {kernel: Passes() for kernel in KERNELS}
    for report in reports:
        if not report["traced"]:
            parts = report["parts"]
            passes[report["kernel"]].add(parts, [report["factor"]] * len(parts),
                                         report, report["digest"])
    for kernel in KERNELS:
        failures.update(check_repeats(
            f"{kernel} suite passes",
            [r["digest"] for r in reports if r["kernel"] == kernel]))
    attempted = sum(len(report["units"]) for report in reports)
    sim_digest = next(r["digest"] for r in reports if r["kernel"] == "vector")
    notes = [
        f"scale {scale}, {len(reports[0]['units'])} units, "
        f"simulated block ops {reports[0]['ops']}",
        *(passes[kernel].note(f"suite_wall_s[{kernel}]")
          for kernel in KERNELS if passes[kernel].host),
        f"sim_digest {sim_digest}",
    ]
    if trace:
        untraced, traced = reports
        units = traced["units"]
        metrics = dict(traced["layers"])
        for entry in units:
            eid = entry["id"] if entry["id"] in EXPERIMENT_IDS else "other"
            key = f"experiments.{eid}_s"
            metrics[key] = metrics.get(key, 0.0) + entry["wall_s"]
        notes.extend(f"fallback x{count}: {reason}"
                     for reason, count in sorted(traced["fallbacks"].items()))
        metrics.update({
            "engine.overhead_s": traced["wall_s"] - sum(u["wall_s"] for u in units),
            "engine.units": len(units),
            "engine.failed": len(traced["failures"]),
            "engine.retries": sum(u["retries"] for u in units),
            "model.sim_digest": digest_number(sim_digest),
            "trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
        })
    else:
        metrics = {
            "setup_s": statistics.median(r["import_s"] for r in reports),
            "peak_rss_mb": max(r["rss_mb"] for r in reports),
            **{f"{kernel}_ops_per_s":
               passes[kernel].first["ops"] / typical_total(passes[kernel].reference)
               for kernel in KERNELS},
        }
    return Outcome(metrics, attempted, failures, notes)


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "default") -> Outcome:
    sizes = SIZES[size]
    if workload == "suite":
        return run_suite(seed, seconds, trace, sizes, size)
    if workload == "fleet":
        return run_fleet_workload(seed, seconds, trace, sizes, size)
    return run_matrix(workload, seed, seconds, trace, sizes, size)


def setup_only(workload: str, seed: int, size: str) -> float:
    """Set-up time of one fresh process (``run.py --setup-only``)."""
    sizes = SIZES[size]
    speed = HostSpeed()
    if workload == "fleet":
        seconds = fleet_setup(seed, sizes)
    else:
        seconds = matrix_setup(workload, seed, sizes)[0]
    return seconds * speed.factor()
