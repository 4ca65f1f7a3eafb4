"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import lpatrace  # noqa: E402
import refs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# One round of each workload's query schedule.
ROUND = {"algebra_session": 20, "cli_reports": 20, "semigroup_tables": 40}


def tiny_run(name, tmp_path, seed=7, trace=None):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    try:
        result = worker.measure(workload, random.Random(seed), 0, ROUND[name], trace)
        return result, workload.output_bytes
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(ROUND))
def test_tiny_run_has_no_errors(name, tmp_path):
    result, _ = tiny_run(name, tmp_path)
    assert len(result["digests"]) == ROUND[name]
    assert result["failures"] == []


@pytest.mark.parametrize("name", sorted(ROUND))
def test_traced_run_matches_untraced_and_fills_its_layers(name, tmp_path):
    untraced, _ = tiny_run(name, tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        traced, output_bytes = tiny_run(name, tmp_path, trace=t)
    finally:
        t.uninstall()
    assert traced["digests"] == untraced["digests"]
    assert traced["failures"] == []
    layers = t.layer_metrics(ROUND[name], output_bytes, [1.0] * ROUND[name])
    for metric, _, _, _, _, moves in tracer.PER_LAYER:
        if name in moves and metric in layers:  # run.py adds the tracing.* ones
            assert layers[metric]["value"] > 0, metric


@pytest.mark.parametrize("name, attr, corrupt", [
    ("cli_reports", "complete_digraph_cycles", lambda f: lambda n: f(n) + 1),
    ("semigroup_tables", "partitions", lambda f: lambda n: f(n) + 1),
    ("algebra_session", "trace_value",
     lambda f: lambda *a: refs.add(f(*a), (refs.Fraction(1), refs.Fraction(0)))),
])
def test_corrupted_reference_counts_as_error(name, attr, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(refs, attr, corrupt(getattr(refs, attr)))
    result, _ = tiny_run(name, tmp_path)
    assert result["failures"]


def _bindings():
    """Identity of every name bound in lpatrace modules and their classes."""
    seen = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "lpatrace" or mod_name.startswith("lpatrace."):
            for key, val in vars(mod).items():
                seen[(mod_name, key)] = id(val)
                if isinstance(val, type) and val.__module__ == mod_name:
                    for attr, member in vars(val).items():
                        seen[(mod_name, key, attr)] = id(member)
    return seen


def test_tracer_restores_every_binding():
    import lpatrace.cli  # noqa: F401  (the tracer patches it too)

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        assert during != before
        wrapped = lpatrace.graphs.cycles
        assert wrapped.__wrapped__ is not wrapped
        assert lpatrace.cycles is lpatrace.structure.cycles is lpatrace.cli.cycles is wrapped
    finally:
        t.uninstall()
    assert _bindings() == before


def test_benchmark_json_lists_the_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == [
        {"name": m, "unit": u, "better": b} for m, u, b, *_ in tracer.PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_references_match_known_values():
    assert refs.complete_digraph_cycles(7) == 2365
    assert refs.rotation_classes(workloads.rose(2), 4) == 2 + 3 + 4 + 6
    assert refs.partitions(5) == 7
    assert refs.block_sizes(workloads.rose(1)) == ([], [1])
    assert refs.parse_scalar("-3/2+1/4i") == (refs.Fraction(-3, 2), refs.Fraction(1, 4))


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_contract_result():
    out = _run(ROOT, "--workload", "semigroup_tables", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "--workload", "cli_reports", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


@pytest.mark.parametrize("parent, change, expected", [
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [13] * 10, "better"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [10, 11] * 5, "unchanged"),
    ([10, 11, 10, 11, 10, 11, 10, 11, 10, 11], [7, 8] * 5, "worse"),
    ([5, 15, 5, 15, 5, 15, 5, 15, 5, 15], [6, 14] * 5, "unresolved"),
])
def test_compare_verdicts(parent, change, expected):
    assert compare.verdict(parent, change, "higher", 0.1) == expected
