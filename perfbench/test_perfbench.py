"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They check that a seed fixes the inputs, that a tiny run of every workload
reports every declared metric with no failed request, that the output checks
reject wrong answers, and that the benchmark refuses to run without the
library's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen_inputs as gi
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CACHE_METRICS = {
    f"{fn}.{stat}"
    for fn in ("spaces.is_avoidant", "embedding.check_one_point_injectivity")
    for stat in ("cache_hit_ratio", "cache_size")
}

DIGEST = """
import hashlib, json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path.cwd())
try:
    reqs = wl.requests("timed", 0) + wl.requests("traced", 3)
    print(hashlib.sha256(json.dumps([[r.kind, r.doc] for r in reqs]).encode()).hexdigest())
finally:
    wl.close()
"""


def digest(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST, workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_across_processes(workload):
    first = digest(workload, 7, "1")
    assert first == digest(workload, 7, "2")
    assert first != digest(workload, 8, "1")


def tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_without_failures(workload):
    result = tiny_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = tiny_run(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    # The cache metrics are omitted once the cached searches are gone.
    assert set(declared) - set(got) <= CACHE_METRICS
    assert got == {k: u for k, u in declared.items() if k in got}


def test_declared_metrics_match_the_runner():
    sys.path.insert(0, str(HERE))
    import run

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def test_planted_violation_check_needs_the_full_report():
    tree = gi.Tree(gi.stream(1, "test", 0), 12)
    doc, pair = gi.corrupt(gi.stream(1, "test", 1), tree)
    full = [("triangle", (*pair, z)) for z in tree.labels if z not in pair]
    assert oracle.planted_violations_ok(tree.labels, pair, full)
    assert not oracle.planted_violations_ok(tree.labels, pair, full[:1])
    assert not oracle.planted_violations_ok(tree.labels, pair, full + full[:1])


def test_embedding_check_uses_its_own_distance():
    tree = gi.Tree(gi.stream(1, "test", 2), 10)
    images = {l: tree.image(i) for i, l in enumerate(tree.labels)}
    assert oracle.embedding_ok(tree.labels, tree.dist, images)
    images[tree.labels[0]] = images[tree.labels[1]]
    assert not oracle.embedding_ok(tree.labels, tree.dist, images)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
