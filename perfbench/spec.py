"""The benchmark's metric catalogue: every name it emits, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own tests keep the two in step.  Per-layer metrics that a
workload does not exercise are emitted as 0, so every run reports the
full catalogue.
"""

from __future__ import annotations

#: Workloads, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("suite", "paper-matrix", "extension-matrix", "fleet")

#: End-to-end metrics (untraced runs): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "batched_ops_per_s": ("1/s", "higher"),
    "vector_ops_per_s": ("1/s", "higher"),
}

#: Registered experiments at the time the benchmark was defined; an
#: experiment added later is timed under ``experiments.other_s``.
EXPERIMENT_IDS = (
    "ablation-cleaner", "ablation-flash-sram", "ablation-leveling",
    "ablation-segment", "ablation-series2plus", "ablation-spindown",
    "ablation-writeback", "async-cleaning", "endurance", "fault-tolerance",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fitted_replay", "flashcache",
    "fleet", "headline", "table1", "table2", "table3", "table4",
    "validation",
)

#: Vector-kernel fallback reasons (``result.extra["kernel_fallback_reason"]``
#: as slugs); any other reason is counted under ``other``.
FALLBACK_SLUGS = (
    "flash_backed_disk_cache",
    "write_back_dram_cache",
    "sram_buffer_on_flash",
    "decoupled_async_flash_disk_erasure",
    "fault_injection_configured",
    "cleaning_policy_cost_benefit",
    "cleaning_policy_envy",
    "cleaning_policy_wear_aware",
    "cleaning_policy_cold_swap",
    "eviction_policy_fifo",
    "eviction_policy_random",
    "queueing_inclusive_response_times",
    "observability_session_active",
    "other",
)

_LOWER_S = ("s", "lower")
_COUNT = ("count", "higher")
_COST = ("count", "lower")

#: Per-layer metrics (traced runs): name -> (unit, better).  Layers are
#: named after the repository's modules.
PER_LAYER: dict[str, tuple[str, str]] = {
    "traces.generate_s": _LOWER_S,
    "traces.compile_s": _LOWER_S,
    "traces.ops": _COUNT,
    "core.batched_s": _LOWER_S,
    "core.batched_us_per_op": ("us", "lower"),
    "core.cells": _COUNT,
    "core.cell_p50_s": _LOWER_S,
    "core.cell_max_s": _LOWER_S,
    "kernel.vector_s": _LOWER_S,
    "kernel.fallback_s": _LOWER_S,
    "kernel.vector_share": ("share", "higher"),
    "kernel.tolerance_violations": _COST,
    **{f"kernel.fallbacks.{slug}": _COST for slug in FALLBACK_SLUGS},
    "devices.spin_ups": _COST,
    "devices.background_erasures": _COST,
    "devices.flashcache_read_hits": _COUNT,
    "devices.disk_flushes": _COST,
    "flash.segments_cleaned": _COST,
    "flash.blocks_copied": _COST,
    "cache.dram_hit_rate": ("share", "higher"),
    "model.table4_err": ("share", "lower"),
    # A digest has no direction; the first 13 hex digits as an integer.
    "model.sim_digest": ("hash", "lower"),
    **{f"experiments.{eid}_s": _LOWER_S for eid in EXPERIMENT_IDS},
    "experiments.other_s": _LOWER_S,
    "engine.overhead_s": _LOWER_S,
    "engine.units": _COUNT,
    "engine.failed": _COST,
    "engine.retries": _COST,
    "fleet.sample_s": _LOWER_S,
    "fleet.shard_s": _LOWER_S,
    "fleet.aggregate_s": _LOWER_S,
    "fleet.shards": _COUNT,
    "fleet.device_ops": _COUNT,
    "trace_overhead_s": _LOWER_S,
    "gate.failed_share": ("share", "lower"),
}
