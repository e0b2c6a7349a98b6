"""mosbench pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports mosbench from ./src).
Each repetition runs the whole pipeline of the workload in a fresh Python
process (perfbench/pipeline.py), serially; repetitions continue while the
next one is expected to finish within --seconds, and at least MIN_REPS run.

--trace 0 reports the end-to-end metrics as medians over repetitions.
Their times are CPU seconds calibrated to a fixed host speed by a reference
kernel run around every timed block (calib.py); each repetition's raw CPU
and wall times are kept in result.json.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

Outputs are checked twice: by mosbench's own verify step inside every
repetition, and once per run by check.py, which reads the files with its
own parsers.  The .sol files must hash the same in every repetition.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import self_times  # noqa: E402

MIN_REPS = 2
CHILD_LIMIT_S = 170.0

# (name, unit) of the end-to-end metrics, medians over untraced repetitions.
# The times are calibrated CPU seconds (calib.py).
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("verify_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Per-layer metrics: (name, unit, which end-to-end metric it should move and
# on which workload).  Times are self times summed over one pipeline,
# medians over traced repetitions.
PER_LAYER = (
    ("generate.instance_s", "s", "setup_s on grid-bi-sweep"),
    ("convert.parse_dimacs_s", "s", "setup_s on road-multigraph-verify"),
    ("formats.write_graph_s", "s", "setup_s on both workloads"),
    ("formats.read_graph_s", "s", "solve_s and verify_s on both workloads"),
    ("core.validate_s", "s", "solve_s and verify_s on both workloads"),
    ("core.csr_s", "s", "solve_s and verify_s on both workloads"),
    ("formats.write_solutions_s", "s", "solve_s on road-multigraph-verify"),
    ("formats.read_solutions_s", "s", "verify_s on road-multigraph-verify"),
    ("formats.graph_bytes", "bytes", "solve_s and verify_s on road-multigraph-verify"),
    ("formats.solution_bytes", "bytes", "solve_s and verify_s on road-multigraph-verify"),
    ("solve.heuristic_s", "s", "solve_s on road-multigraph-verify"),
    ("solve.heuristic_calls", "count", "solve_s on road-multigraph-verify"),
    ("solve.search_exact_s", "s", "solve_s and pipeline_s on grid-bi-sweep, not on road"),
    ("solve.search_approx_s", "s", "solve_s and pipeline_s on grid-bi-sweep, not on road"),
    ("solve.search_calls", "count", "solve_s and pipeline_s on grid-bi-sweep, not on road"),
    ("solve.task_s_p50", "s", "solve_s and pipeline_s on grid-bi-sweep, not on road"),
    ("solve.task_s_tail", "s", "solve_s and pipeline_s on grid-bi-sweep, not on road"),
    ("solve.task_s_tail_pct", "%", "percentile of solve.task_s_tail"),
    ("solve.task_samples", "count", "sample count behind the task percentiles"),
    ("solve.front_entries", "count", "fixed while search work drops"),
    ("solve.approx_keep_ratio", "ratio", "fixed while search work drops"),
    ("protocol.run_benchmark_self_s", "s", "solve_s on both workloads"),
    ("protocol.verify_solutions_s", "s", "verify_s on road-multigraph-verify"),
    ("protocol.verify_entries", "count", "verify_s on road-multigraph-verify"),
    ("protocol.verify_coverage_s", "s", "verify_s on grid-bi-sweep"),
    ("protocol.stats_s", "s", "pipeline_s on both workloads"),
    ("trace.overhead_frac", "ratio", "traced pipeline_s / untraced pipeline_s - 1"),
)

# Per-layer time metric -> the span name whose self times it sums.
SPAN_OF = {
    "generate.instance_s": "generate.instance",
    "convert.parse_dimacs_s": "convert.parse_dimacs",
    "formats.write_graph_s": "formats.write_graph",
    "formats.read_graph_s": "formats.read_graph",
    "core.validate_s": "core.validate",
    "core.csr_s": "core.csr",
    "formats.write_solutions_s": "formats.write_solutions",
    "formats.read_solutions_s": "formats.read_solutions",
    "solve.heuristic_s": "solve.heuristic",
    "solve.search_exact_s": "solve.search_exact",
    "solve.search_approx_s": "solve.search_approx",
    "protocol.run_benchmark_self_s": "protocol.run_benchmark",
    "protocol.verify_solutions_s": "protocol.verify_solutions",
    "protocol.verify_coverage_s": "protocol.verify_coverage",
    "protocol.stats_s": "step.stats",
}

# Counts the pipeline reports itself, by metric name.
COUNT_OF = {
    "formats.graph_bytes": "graph_bytes",
    "formats.solution_bytes": "solution_bytes",
    "solve.front_entries": "front_entries",
    "solve.approx_keep_ratio": "keep_ratio",
    "protocol.verify_entries": "verify_entries",
}


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def package_version(name: str) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def run_pipeline(args: argparse.Namespace, work: Path, rep: int, traced: bool, budget: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "pipeline.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(work),
        "--run-id", f"{args.workload}-{args.seed}-rep{rep}",
    ]
    cmd += ["--trace"] * traced + ["--tiny"] * args.tiny + ["--plant-defect"] * args.plant_defect
    start = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"pipeline repetition {rep} ran past {CHILD_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pipeline repetition {rep} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = monotonic() - start
    result["traced"] = traced
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With ten or fewer samples no such percentile exists; the maximum is
    given as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrated_self_times(rep: dict) -> list[tuple[str, float, float]]:
    """self_times of a traced repetition, each scaled like the timed block
    (top-level step span) that holds it."""
    blocks = iter(rep["scales"])
    scale: list[float] = []
    for sp in rep["spans"]:
        if sp["parent"] < 0:
            assert sp["name"].startswith("step."), sp["name"]
            scale.append(next(blocks))
        else:
            scale.append(scale[sp["parent"]])
    return [(name, dur * f, own * f) for (name, dur, own), f in zip(self_times(rep["spans"]), scale)]


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    per_rep: list[dict[str, float]] = []
    tasks: list[float] = []
    for rep in traced:
        values = dict.fromkeys(SPAN_OF, 0.0)
        values["solve.heuristic_calls"] = values["solve.search_calls"] = 0
        for name, dur, own in calibrated_self_times(rep):
            for metric, span in SPAN_OF.items():
                if span == name:
                    values[metric] += own
            if name == "solve.heuristic":
                values["solve.heuristic_calls"] += 1
            elif name.startswith("solve.search_"):
                values["solve.search_calls"] += 1
                tasks.append(dur)
        for metric, key in COUNT_OF.items():
            values[metric] = rep[key]
        per_rep.append(values)
    out = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
    out["solve.task_s_p50"] = statistics.median(tasks)
    out["solve.task_s_tail"], out["solve.task_s_tail_pct"] = tail(tasks)
    out["solve.task_samples"] = len(tasks)
    out["trace.overhead_frac"] = (
        statistics.median(r["pipeline_s"] for r in traced)
        / statistics.median(r["pipeline_s"] for r in untraced)
        - 1.0
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest instances (smoke tests)")
    ap.add_argument("--plant-defect", action="store_true", help="corrupt one .sol cost (tests)")
    args = ap.parse_args()
    if not (ROOT / "src" / "mosbench" / "__init__.py").is_file():
        print(f"no mosbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    p = workloads.params(args.workload, args.tiny)
    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if p["family"] == "road":
        for i, rseed in enumerate(workloads.instance_seeds("road", args.seed, p["graphs"])):
            workloads.write_road_pair(p["k"], p["parallel"], rseed, *workloads.road_files(work, i))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "params": p,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "numpy": package_version("numpy"),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("meta " + json.dumps(meta), flush=True)

    reps: list[dict] = []
    start = monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        budget = CHILD_LIMIT_S - (monotonic() - start)
        reps.append(run_pipeline(args, work, len(reps), traced, budget))
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and monotonic() - start + longest > args.seconds:
            break

    attempted = sum(r["tasks"] for r in reps)
    failed = sum(r["timeouts"] + r["violations"] + r["uncovered"] + r["missing"] for r in reps)
    failed += sum(r["tasks"] for r in reps if r["sha256"] != reps[0]["sha256"])
    failed += sum(check.check_instance(Path(gr), Path(q), Path(sol)) for _, gr, q, sol in reps[-1]["instances"])

    untraced = [r for r in reps if not r["traced"]]
    e2e = {name: statistics.median(r[name] for r in untraced) for name, _ in END_TO_END}
    if args.trace:
        values = layer_metrics([r for r in reps if r["traced"]], untraced)
        wanted = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values, wanted = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}

    (work / "result.json").write_text(
        json.dumps(
            {
                "meta": meta,
                "end_to_end": e2e,
                "metrics": metrics,
                "layer_moves": {name: moves for name, _, moves in PER_LAYER},
                "attempted": attempted,
                "failed": failed,
                "reps": reps,
            },
            indent=1,
        ),
        encoding="ascii",
    )
    for name, unit in END_TO_END:
        print(f"{name} {e2e[name]:.6g} {unit} ({len(untraced)} repetitions)")
    print(f"failed_frac {failed / attempted:.6g} 1 ({failed} of {attempted} tasks)")
    if args.trace:
        for name, unit in wanted:
            print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
