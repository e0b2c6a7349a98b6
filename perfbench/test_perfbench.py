"""Tests of the benchmark itself:  python3 -m pytest perfbench"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, workload: str = "grid-bi-sweep", trace: int = 0) -> tuple[int, list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def test_spec_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    code, lines, result = bench(workload=workload, trace=trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("meta ")}
    for m in SPEC["end_to_end"] + [{"name": "failed_frac", "unit": "1"}]:
        assert printed[m["name"]] == m["unit"]
    meta = json.loads(lines[0][len("meta ") :])
    assert {"python", "nproc", "git_sha", "numpy", "seed", "params"} <= set(meta)


def test_planted_defect_fails_the_command():
    code, lines, result = bench("--plant-defect")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert float(next(line for line in lines if line.startswith("failed_frac")).split()[1]) > 0


def test_road_pair_is_byte_identical_per_seed_and_needs_the_parallel_fallback(tmp_path):
    from mosbench import Query, convert, path_cost, solve_exact, verify_solutions

    files = []
    for name in ("a", "b"):
        pair = (tmp_path / f"{name}.dist.gr", tmp_path / f"{name}.time.gr")
        workloads.write_road_pair(10, 0.15, 5, *pair)
        files.append([p.read_bytes() for p in pair])
    assert files[0] == files[1]
    workloads.write_road_pair(10, 0.15, 6, tmp_path / "c.dist.gr", tmp_path / "c.time.gr")
    assert (tmp_path / "c.dist.gr").read_bytes() != files[0][0]

    graph = convert.parse_dimacs(tmp_path / "a.dist.gr", tmp_path / "a.time.gr")
    fallback = 0
    for i, (s, t) in enumerate(workloads.road_queries(10, 4, 5)):
        front = solve_exact(graph, Query(s, t, i))
        assert verify_solutions(graph, front.query, front).clean
        fallback += sum(path_cost(graph, e.path) != e.cost for e in front.entries)
    assert fallback > 0


def test_check_flags_a_front_missing_its_first_point():
    code, _, _ = bench()
    assert code == 0
    work = HERE / ".work" / "grid-bi-sweep-3"
    gr, q, sol = (work / f"grid0{ext}" for ext in (".gr", ".q", ".sol"))
    assert check.check_instance(gr, q, sol) == 0
    lines = sol.read_text().splitlines()
    head = lines[0] if lines[0].startswith("r") else lines[1]
    at = lines.index(head)
    r, idx, eps, count = head.split()
    lines[at : at + 2] = [f"r {idx} {eps} {int(count) - 1}"]
    sol.write_text("\n".join(lines) + "\n")
    assert check.check_instance(gr, q, sol) >= 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_reference_kernel_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert calib.reference_s() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert calib.reference_s() > 0 and not gc.isenabled()
    finally:
        gc.enable()
