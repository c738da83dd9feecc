"""Tests of the benchmark itself, on the small smoke sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke_all(request):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "1", "--trace", str(request.param), "--smoke"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return request.param, proc.stdout.splitlines()


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    doc = spec()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.PER_LAYER


def test_smoke_runs_pass_and_print_every_metric_with_its_unit(smoke_all):
    trace, lines = smoke_all
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    for workload in run.WORKLOADS:
        for metric in wanted:
            name = f"{workload}.{metric['name']}"
            assert result["metrics"][name]["unit"] == metric["unit"]
            assert any(line.startswith(f"{name} ") and line.endswith(f" {metric['unit']}") for line in lines)
        assert f"{workload}.fail_frac 0 ratio" in lines


def test_search_quality_is_printed(smoke_all):
    trace, lines = smoke_all
    if trace:
        assert json.loads(lines[-1])["metrics"]["tuples-search.tuples.search.diameter_sum"]["value"] > 0
    else:
        assert any(line.startswith("tuples-search.search_diameter_sum ") for line in lines)


def smoke_invocations(tmp_path, name):
    return workloads.build(name, 7, tmp_path, smoke=True)


def test_corrupted_outputs_count_as_failures(tmp_path):
    r = run.Run(tmp_path)
    invs = smoke_invocations(tmp_path, "sieve-1e8") + smoke_invocations(tmp_path, "tuples-search")
    scan = next(i for i in invs if i.argv[:2] == ["scan", "consecutive-pairs"])
    search = next(i for i in invs if i.argv[0] == "search")
    children = [run.cli_child(r, scan), run.cli_child(r, search)]
    assert r.judge([scan, search], [children]) == [[None, None]]

    scan_doc = json.loads(children[0].stdout)
    scan_doc["records"][0]["count"] += 1
    search_doc = json.loads(children[1].stdout)
    search_doc["tuple"][1] += 1  # breaks admissibility or the proven optimum
    corrupted = [
        run.Child(c.argv, c.code, c.wall_s, c.rss_mb, (json.dumps(d) + "\n").encode())
        for c, d in zip(children, [scan_doc, search_doc])
    ]
    wrong_exit = run.Child(children[0].argv, 3, 0.0, 0.0, children[0].stdout)
    problems = r.judge([scan, search], [corrupted])[0] + r.judge([scan], [[wrong_exit]])[0]
    assert all(p is not None for p in problems), problems
    assert r.failed == 3 and r.attempted == 5


def test_traced_and_untraced_stdout_are_identical(tmp_path):
    r = run.Run(tmp_path)
    for inv in smoke_invocations(tmp_path, "sieve-1e8") + smoke_invocations(tmp_path, "pairs-kernel"):
        plain = run.cli_child(r, inv)
        traced = run.traced_child(r, inv, alloc=False)
        assert plain.code == traced.code == 0
        assert plain.stdout == traced.stdout
        assert traced.spans["spans"], inv.argv


def test_missing_function_span_is_reported_absent(tmp_path):
    r = run.Run(tmp_path)
    inv = smoke_invocations(tmp_path, "pairs-kernel")[0]
    child = run.traced_child(r, inv, alloc=False)
    _, absent = run.layer_metrics([inv], [child], [], [])
    assert absent == []

    # as if a later version of the package had deleted the function
    child.spans["functions"].remove("scan.count_smooth_gap_pairs")
    child.spans["spans"] = [
        [name, start, end, -1, size, alloc]
        for name, start, end, _, size, alloc in child.spans["spans"]
        if name != "scan.count_smooth_gap_pairs"
    ]
    metrics, absent = run.layer_metrics([inv], [child], [], [])
    assert absent == ["scan.count_smooth_gap_pairs.self_s"]
    assert metrics["scan.count_smooth_gap_pairs.self_s"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pairs-kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
