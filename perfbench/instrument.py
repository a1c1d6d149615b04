"""Instruments installed from outside the program, around public calls.

:class:`Instrument` wraps ``Simulator.run`` at class level.  Untraced, it only
counts simulated block operations (the suite's end-to-end rates need the
count; the cost is one cached ``compile_trace`` lookup per simulation).
Traced, it also records a span around trace generation, trace
compilation and every simulation, and keeps every
:class:`~repro.core.results.SimulationResult` for the simulated
statistics.  A span's self time is its duration minus the time of the
spans nested inside it, so compile time inside ``Simulator.run`` is
charged to ``traces.compile_s`` and not to the kernel that triggered it.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable

from perfbench.spec import FALLBACK_SLUGS


def fallback_slug(reason: str) -> str:
    """``"cleaning policy 'cost-benefit'"`` -> ``"cleaning_policy_cost_benefit"``."""
    slug = re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")
    return slug if slug in FALLBACK_SLUGS else "other"


def patch(stack: ExitStack, owner: Any, name: str, value: Any) -> None:
    """Set ``owner.name`` to ``value`` until ``stack`` closes."""
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    setattr(owner, name, value)
    stack.callback(setattr, owner, name, original)


class Spans:
    """Self time per span name; nesting is tracked on a stack."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        #: (duration, self time) of the span that ended last
        self.last = (0.0, 0.0)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            own = elapsed - self._children.pop()
            self.self_s[name] += own
            if self._children:
                self._children[-1] += elapsed
            self.last = (elapsed, own)


@dataclass(frozen=True)
class Cell:
    """One ``Simulator.run`` call as the traced run saw it."""

    ran: str  # kernel that executed: "vector", or the exact path
    requested: str
    elapsed_s: float
    self_s: float
    ops: int
    fallback: str | None


class Instrument:
    """Counts (and, traced, times) every simulation while installed."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans = Spans()
        self.ops = 0
        self.generated_ops = 0
        self.cells: list[Cell] = []
        self.results: list[Any] = []

    def install(self, stack: ExitStack) -> None:
        from repro.core import simulator
        from repro.kernel import vector
        from repro.traces import compiled, synthetic, workloads

        compile_trace = compiled.compile_trace
        run = simulator.Simulator.__dict__["run"]
        instrument = self

        def traced_run(sim, trace, *args, **kwargs):
            if not instrument.traced:
                result = run(sim, trace, *args, **kwargs)
                instrument.ops += compile_trace(trace).n_ops
                return result
            result = instrument.spans.call("core.run", run, sim, trace, *args, **kwargs)
            elapsed, own = instrument.spans.last
            ops = compile_trace(trace).n_ops
            instrument.ops += ops
            extra = result.extra
            ran = extra.get("kernel", "batched")
            instrument.cells.append(Cell(
                ran=ran,
                requested=extra.get("kernel_requested", ran),
                elapsed_s=elapsed,
                self_s=own,
                ops=ops,
                fallback=extra.get("kernel_fallback_reason"),
            ))
            instrument.results.append(result)
            return result

        patch(stack, simulator.Simulator, "run", traced_run)
        if not self.traced:
            return

        def traced_compile(trace):
            return instrument.spans.call("traces.compile", compile_trace, trace)

        for module in (compiled, simulator, vector):
            patch(stack, module, "compile_trace", traced_compile)
        for cls in (workloads.WorkloadSpec, synthetic.SyntheticWorkload):
            generate = cls.__dict__["generate"]

            def traced_generate(spec, *args, _generate=generate, **kwargs):
                trace = instrument.spans.call("traces.generate", _generate, spec, *args, **kwargs)
                instrument.generated_ops += len(trace)
                return trace

            patch(stack, cls, "generate", traced_generate)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this instrument observed."""
        cells = self.cells
        exact = [cell for cell in cells if cell.ran != "vector"]
        asked_vector = [cell for cell in cells if cell.requested == "vector"]
        ran_vector = [cell for cell in cells if cell.ran == "vector"]
        exact_s = sum(cell.self_s for cell in exact)
        exact_ops = sum(cell.ops for cell in exact)
        durations = [cell.elapsed_s for cell in cells]
        metrics = {
            "traces.generate_s": self.spans.self_s["traces.generate"],
            "traces.compile_s": self.spans.self_s["traces.compile"],
            "traces.ops": self.generated_ops,
            "core.batched_s": exact_s,
            "core.batched_us_per_op": exact_s / exact_ops * 1e6 if exact_ops else 0.0,
            "core.cells": len(cells),
            "core.cell_p50_s": statistics.median(durations) if durations else 0.0,
            "core.cell_max_s": max(durations, default=0.0),
            "kernel.vector_s": sum(cell.self_s for cell in ran_vector),
            "kernel.fallback_s": sum(
                cell.self_s for cell in asked_vector if cell.ran != "vector"
            ),
            "kernel.vector_share": (
                len(ran_vector) / len(asked_vector) if asked_vector else 0.0
            ),
        }
        reasons = Counter(
            fallback_slug(cell.fallback) for cell in cells if cell.fallback
        )
        for slug in FALLBACK_SLUGS:
            metrics[f"kernel.fallbacks.{slug}"] = reasons[slug]
        metrics.update(simulated_stats(self.results))
        return metrics

    def fallback_reasons(self) -> Counter:
        """Fallback reasons as the program wrote them, with counts."""
        return Counter(cell.fallback for cell in self.cells if cell.fallback)


def simulated_stats(results: list[Any]) -> dict[str, float]:
    """Simulated statistics summed over ``results``.  They depend only on
    the inputs, so a change that only speeds up the host leaves them
    unchanged."""

    def total(key: str) -> float:
        return sum(result.device_stats.get(key, 0) for result in results)

    hit_rates = [r.dram_hit_rate for r in results if r.dram_hit_rate is not None]
    return {
        "devices.spin_ups": total("spin_ups"),
        "devices.background_erasures": total("background_erasures"),
        "devices.flashcache_read_hits": total("flash_read_hits"),
        "devices.disk_flushes": total("disk_flushes"),
        "flash.segments_cleaned": total("segments_cleaned"),
        "flash.blocks_copied": total("blocks_copied"),
        "cache.dram_hit_rate": statistics.fmean(hit_rates) if hit_rates else 0.0,
    }
