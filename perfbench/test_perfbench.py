"""Tests of the benchmark itself, at tiny size.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate, run
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent


def benchmark_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part
               for part in manifest["command"]]
    return subprocess.run(command + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_json_lists_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for key, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in manifest[key]}
        assert listed == catalogue
        assert len(listed) == len(manifest[key])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = benchmark_command(
        "--workload", workload, "--seed", "3", "--seconds", "0.01",
        "--trace", str(trace), "--size", "tiny",
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    catalogue = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _) in catalogue.items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def _cell(device: str):
    from repro.core.config import SimulationConfig
    from repro.core.simulator import simulate
    from repro.traces.synthetic import SyntheticWorkload

    trace = SyntheticWorkload().generate(n_ops=600, seed=5)
    config = SimulationConfig(device=device)
    return (simulate(trace, config, kernel="batched"),
            simulate(trace, config, kernel="vector"))


def test_agreeing_vector_result_passes_the_gate():
    batched, vector = _cell("intel-datasheet")
    assert vector.extra["kernel"] == "vector"
    assert gate.check_cells([("cell", batched, vector)]) == {}


def test_perturbed_vector_result_trips_the_gate():
    batched, vector = _cell("intel-datasheet")
    perturbed = dataclasses.replace(vector, energy_j=vector.energy_j * (1 + 1e-6))
    failures = gate.check_cells([("cell", batched, perturbed)])
    assert list(failures) == ["cell"]
    assert any("energy_j" in problem for problem in failures["cell"])


def test_fallback_without_a_reason_trips_the_gate():
    batched, _ = _cell("intel-datasheet")
    unexplained = dataclasses.replace(batched, extra={"kernel": "batched"})
    assert list(gate.check_cells([("cell", batched, unexplained)])) == ["cell"]


def test_failing_unit_trips_the_gate():
    from repro.engine import WorkUnit, execute

    outcomes = execute([WorkUnit("table3", scale=0.01),
                        WorkUnit("no-such-experiment", scale=0.01)], jobs=1)
    failures = gate.check_units(outcomes)
    assert list(failures) == [outcomes[1].unit.label]


def test_a_failure_makes_the_result_incorrect():
    outcome = Outcome(metrics={}, attempted=4, failures={"unit": ["boom"]})
    line = run.result_line(outcome, trace=True)
    assert not line["correct"] and line["failed"] == 1
    assert line["metrics"]["gate.failed_share"]["value"] == 0.25


def test_repeated_passes_must_agree():
    assert gate.check_repeats("passes", ["a", "a"]) == {}
    assert list(gate.check_repeats("passes", ["a", "b"])) == ["passes"]


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = benchmark_command("--workload", "suite", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
