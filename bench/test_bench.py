"""Tests of the benchmark itself: its counts repeat for a seed, its
correctness gate fires, and it refuses to run without the package.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import generators  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def traced_metrics(name: str, seed: int, workdir: Path, keep=None) -> tuple[dict, run.Run]:
    """One untraced and one traced round over the workload's instances (or
    the first `keep` of them); returns the per-layer metrics and the run."""
    pkg = run.import_package()
    instances = workloads.setup(name, seed, workdir, pkg)[:keep]
    tr = tracer.Tracer()
    result = run.measure(pkg, instances, 2, workdir, tr)
    metrics, _ = run.per_layer(result, tr.spans, [], 1.0, len(instances))
    return {k: v for k, (v, _) in metrics.items()}, result


COUNTS = list(run.LAYER_COUNTS) + [
    "unfolding.states",
    "synthesis.witness_found_ratio",
]


@pytest.mark.parametrize(
    "name, keep", [("fig1-sweep", 4), ("random-fgf", 1), ("parity", 2), ("reduction", 3)]
)
def test_counts_repeat_exactly_for_a_seed(tmp_path, name, keep):
    first, run1 = traced_metrics(name, 7, tmp_path / "a", keep)
    second, run2 = traced_metrics(name, 7, tmp_path / "b", keep)
    assert run1.failed == run2.failed == 0, run1.failures + run2.failures
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["synthesis.product_nodes"] > 0


def test_fig1_at_3_3_unfolds_to_12_states(tmp_path):
    metrics, result = traced_metrics("fig1-sweep", 0, tmp_path, keep=1)
    assert result.failed == 0, result.failures
    assert metrics["unfolding.states"] == 12
    assert metrics["synthesis.winner_sets_tried"] >= 1


def test_a_wrong_reference_counts_as_a_failed_call(tmp_path):
    pkg = run.import_package()
    fig1 = workloads.setup("fig1-sweep", 0, tmp_path, pkg)[0]
    wrong = dataclasses.replace(fig1, winners=(1,))
    result = run.measure(pkg, [wrong], 2, tmp_path, None)
    # two rounds, each with one failed solve and one passing check
    assert (result.attempted, result.failed) == (4, 2)
    assert "winners [1, 2], expected [1]" in result.failures[0]


def test_generators_are_deterministic_and_plant_their_witness():
    assert generators.random_fgf_arena(3, 1) == generators.random_fgf_arena(3, 1)
    assert generators.random_fgf_arena(3, 1) != generators.random_fgf_arena(4, 1)
    for k in range(20):
        doc, planted = generators.counter_automaton(5, k)
        assert generators.replay_counter_run(doc, planted)
        assert "->" not in json.dumps(generators.random_fgf_arena(5, k)["objectives"])


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "reduction",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
