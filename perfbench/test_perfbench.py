"""Checks on the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes: the determinism and traced-run checks execute real
rounds).  The repository's own suite under ``tests/`` does not collect
this file.
"""

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _imported_modules(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_probe_imports_only_the_stdlib():
    imported = _imported_modules(os.path.join(HERE, "probe.py"))
    assert not any(name.split(".")[0] == "repro" for name in imported)
    assert imported <= {"heapq", "signal", "statistics", "time"}


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert set(run.BYPASS) == set(workloads.WORKLOADS)


def _virtual(name, seed, work_dir):
    workload = workloads.WORKLOADS[name](seed, str(work_dir))
    latencies = []
    for index in range(workload.virtual_rounds):
        state = workload.prepare(index)
        for _label, step in workload.steps(state):
            step()
        workload.check(state)
        assert state.failed == 0, state.errors
        latencies += state.latencies
        if index == 0:
            temp = state.virtual.get("temp_incongruence")
    figures = run.virtual_metrics(latencies)
    figures["temp_incongruence"] = temp
    return figures


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_virtual_metrics_repeat_on_a_seed_and_move_on_another(name,
                                                              tmp_path):
    first = _virtual(name, 7, tmp_path)
    again = _virtual(name, 7, tmp_path)
    held_out = _virtual(name, 8, tmp_path)
    assert first == again
    assert first["latency_p50_vs"] != held_out["latency_p50_vs"]
    assert first["latency_tail_vs"] != held_out["latency_tail_vs"]
    if name == "fleet-ev":
        assert first["temp_incongruence"] != held_out["temp_incongruence"]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_is_correct_and_bypasses_hold(name):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = _last_json(done.stdout)
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert set(result["metrics"]) == {n for n, _ in run.PER_LAYER}
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    for counter, nonzero in run.BYPASS[name].items():
        assert (metrics[counter] > 0) == nonzero, counter


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-ev",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
