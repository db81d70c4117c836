"""Tests of the benchmark itself: determinism, metric names, and refusal to run
without the program's sources.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from layers import CATALOG
from workloads import ROOT, WORKLOADS, GameFiles

sys.path.insert(0, str(run.SRC))

EXACT = ("counts", "digest", "attempted", "failed", "passes")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m.name, m.unit) for m in CATALOG]
    record = run.run("tail_mc", seed=0, seconds=0.1, trace=False)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in record["end_to_end"].items()
    }


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_exact_counts_and_outputs(workload):
    first = run.run(workload, seed=3, seconds=0.1, trace=True)
    second = run.run(workload, seed=3, seconds=0.1, trace=True)
    assert first["correct"], first["failures"]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["counts"]["lp_calls"] > 0 or workload == "tail_mc"
    assert not any(status.startswith("MISSING") for status in first["coverage"].values())


def _game_files(seed: int, tag: str) -> list[str]:
    workdir = run.OUT / "test" / tag
    try:
        workload = GameFiles()
        workload.setup(run.fresh_import(), seed, 1, workdir)
        workload.write_inputs()
        return [p.read_text(encoding="utf-8") for p in sorted(workdir.glob("*.json"))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_seed_chooses_the_random_games():
    assert _game_files(1, "a") == _game_files(1, "b")
    assert _game_files(1, "a") != _game_files(2, "a")


def test_refuses_to_run_without_the_sources():
    bare = run.OUT / "test" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tail_mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
