"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

Traced runs on a reduced seed set must repeat their coloring digest and
every count exactly, and must confirm what each workload was built to
exercise.  A directory holding only the benchmark must make it fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
COUNT_UNITS = ("count", "ratio")


def run(workload, seed, trace=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def traced(workload, seed):
    proc = run(workload, seed)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, record["errors"]
    return record, result


def counts_of(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["cli_incidence", "strong_girth", "strong_small"])
def test_digests_and_counts_repeat(workload):
    digests = set()
    for seed in SEEDS:
        rec1, res1 = traced(workload, seed)
        rec2, res2 = traced(workload, seed)
        assert rec1["coloring_sha256"] == rec2["coloring_sha256"]
        assert rec1["counts"] == rec2["counts"]
        assert counts_of(res1) == counts_of(res2)
        digests.add(rec1["coloring_sha256"])
    assert len(digests) == len(SEEDS), "different seeds must give different inputs"


def test_traced_runs_confirm_the_workload_design():
    layer_times = {}
    for workload in ("cli_incidence", "strong_girth", "strong_small"):
        record, result = traced(workload, SEEDS[0])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer_times[workload] = m
        carved = sum(m[f"solver.{k}"] for k in (
            "c4_extensions", "c6_extensions", "long_cycle_extensions", "k23_base_cases"))
        if workload == "strong_small":
            assert carved >= record["instances"]
            assert m["matching.sdr.calls"] > 0
        else:
            assert m["solver.carved_per_solve"] < 10
        if workload != "cli_incidence":
            assert all(m[k] == 0 for k in m if k.startswith("fileio."))
    girth = layer_times["strong_girth"]
    self_times = {k: v for k, v in girth.items()
                  if k.endswith("_s") and not k.startswith("bench.")}
    assert max(self_times, key=self_times.get) == "graph.cycle_search_s"


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("strong_small", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
