"""Correctness gate: run after timing, never inside a timed region.

Every check returns ``{item label: [problem, ...]}`` holding only the
items that failed, so a workload counts its failures as the number of
failed cells, units or shards.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Iterable

Failures = dict[str, list[str]]


def check_cells(cells: Iterable[tuple[str, Any, Any]]) -> Failures:
    """Each ``(label, batched result, vector result)`` cell must either
    agree under :func:`repro.kernel.tolerance.compare_results`, or show a
    named fallback reason and then match the batched result exactly."""
    from repro.kernel.tolerance import compare_results

    failures: Failures = {}
    for label, batched, vector in cells:
        problems = compare_results(batched, vector)
        if vector.extra.get("kernel") != "vector":
            if not vector.extra.get("kernel_fallback_reason"):
                problems.append("vector run fell back without a named reason")
            if digest([vector.to_dict()]) != digest([batched.to_dict()]):
                problems.append("fallback result differs from the batched result")
        if problems:
            failures[label] = problems
    return failures


def check_units(outcomes: Iterable[Any]) -> Failures:
    """Every engine unit must finish ``ok`` with a result."""
    return {
        outcome.unit.label: [outcome.error or "no result"]
        for outcome in outcomes
        if not outcome.ok or outcome.result is None
    }


def check_repeats(label: str, digests: list[str]) -> Failures:
    """Repeated passes over the same inputs must give the same bytes."""
    if len(set(digests)) <= 1:
        return {}
    return {label: [f"{len(set(digests))} distinct digests over {len(digests)} passes"]}


def check_population(summary: dict[str, Any], samples: list[Any]) -> Failures:
    """A fleet summary's population counts must equal the counts of the
    reference sampler's devices exactly."""
    population = summary["population"]
    expected = {
        "devices": len(samples),
        "total_ops": sum(sample.n_ops for sample in samples),
        "workloads": dict(Counter(sample.workload for sample in samples)),
        "device_specs": dict(Counter(sample.device for sample in samples)),
    }
    problems = [
        f"{key}: {population[key]!r} != {value!r}"
        for key, value in expected.items()
        if population[key] != value
    ]
    return {"population counts": problems} if problems else {}


def digest(records: Iterable[Any]) -> str:
    """sha256 over JSON records (floats written with every digit)."""
    sha = hashlib.sha256()
    for record in records:
        sha.update(json.dumps(record, sort_keys=True, default=repr).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def digest_number(hex_digest: str) -> int:
    """The first 13 hex digits, which a float64 holds exactly."""
    return int(hex_digest[:13], 16)
