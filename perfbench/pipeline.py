"""One repetition of a workload's pipeline, in a fresh process.

    python3 perfbench/pipeline.py --workload W --seed N --workdir DIR [--trace]

Steps, all through mosbench's public calls (the ones its CLI makes):
setup (import mosbench, generate or convert, write graph and queries),
solve (read, run_benchmark at its serial default, write .sol and records
CSV), verify (reread, verify_solutions per set, verify_coverage of each
eps>0 set against its eps=0 set) and stats (read_records, cardinality and
reduction stats).  Prints one JSON object with step times, peak RSS,
failure counts, output sizes and hash, and the spans when traced.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import calib  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

# (owner under the mosbench package, attribute, span name).  Owners are the
# names callers look up, so run_benchmark's own calls are caught too.
TRACED = (
    ("generate", "generate_grid", "generate.instance"),
    ("convert", "parse_dimacs", "convert.parse_dimacs"),
    ("formats", "write_graph", "formats.write_graph"),
    ("formats", "write_queries", "formats.write_queries"),
    ("formats", "read_graph", "formats.read_graph"),
    ("formats", "read_queries", "formats.read_queries"),
    ("formats", "write_solutions", "formats.write_solutions"),
    ("formats", "read_solutions", "formats.read_solutions"),
    ("protocol", "run_benchmark", "protocol.run_benchmark"),
    ("protocol", "ideal_point_heuristic", "solve.heuristic"),
    ("protocol", "solve_exact", "solve.search_exact"),
    ("protocol", "solve_approx", "solve.search_approx"),
    ("protocol", "verify_solutions", "protocol.verify_solutions"),
    ("protocol", "verify_coverage", "protocol.verify_coverage"),
    ("core.MosGraph", "__post_init__", "core.validate"),
    ("core.MosGraph", "_csr", "core.csr"),
)


def plant_defect(sol: Path) -> None:
    """Add 1 to the first cost of the first entry: a wrong front cost."""
    lines = sol.read_text(encoding="ascii").split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("x "))
    tokens = lines[i].split(" ")
    tokens[1] = str(int(tokens[1]) + 1)
    lines[i] = " ".join(tokens)
    sol.write_text("\n".join(lines), encoding="ascii")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant-defect", action="store_true")
    args = ap.parse_args()
    p = workloads.params(args.workload, args.tiny)
    work = Path(args.workdir)
    tracer = Tracer(args.run_id)
    span = tracer.span if args.trace else (lambda name: nullcontext())

    # Step times accumulate over the step's timed blocks; bookkeeping that
    # the CLI would not do (counting, hashing) stays outside them.  The
    # pipeline is serial and single-threaded, so its CPU time (user +
    # system) is the wall time it needs on a core of its own.  Each block's
    # CPU time is calibrated by the reference kernel runs right before and
    # after it (see calib.py); a block shares its "before" run with the
    # "after" run of the block preceding it.  Raw CPU and wall times are
    # kept alongside.
    steps = dict.fromkeys(("setup_s", "solve_s", "verify_s", "stats_s"), 0.0)
    cpus = dict.fromkeys(steps, 0.0)
    walls = dict.fromkeys(steps, 0.0)
    refs: list[float] = []
    scales: list[float] = []  # per timed block, in order

    @contextmanager
    def timed(step: str):
        if not refs:
            refs.append(calib.reference_s())
        cpu, wall = process_time(), perf_counter()
        with span(f"step.{step}"):
            yield
        cpu, wall = process_time() - cpu, perf_counter() - wall
        refs.append(calib.reference_s())
        scales.append(2.0 * calib.REF_S / (refs[-2] + refs[-1]))
        steps[f"{step}_s"] += cpu * scales[-1]
        cpus[f"{step}_s"] += cpu
        walls[f"{step}_s"] += wall

    with timed("setup"):
        import mosbench
        from mosbench import convert, formats, generate, protocol
        from mosbench.core import Query

        if Path(mosbench.__file__).resolve().parent != (SRC / "mosbench").resolve():
            print(f"mosbench imported from {mosbench.__file__}, not {SRC}", file=sys.stderr)
            return 2
    if args.trace:
        for owner, attr, name in TRACED:
            obj = mosbench
            for part in owner.split("."):
                obj = getattr(obj, part)
            tracer.wrap(obj, attr, name)

    def build(i: int, iseed: int) -> tuple[str, object, list]:
        if p["family"] == "grid":
            graph, query = generate.generate_grid(generate.GridSpec(k=p["k"], m=p["k"], d=2, seed=iseed))
            return f"grid{i}", graph, [query]
        graph = convert.parse_dimacs(*workloads.road_files(work, i))
        pairs = workloads.road_queries(p["k"], p["queries"], iseed)
        return f"road{i}", graph, [Query(s, t, j) for j, (s, t) in enumerate(pairs)]

    # setup: materialise every instance's graph and query files
    instances: list[tuple[str, Path, Path, Path]] = []
    for i, iseed in enumerate(workloads.instance_seeds(p["family"], args.seed, p["graphs"])):
        with timed("setup"):
            name, graph, queries = build(i, iseed)
            gr, qf, sol = (work / f"{name}{ext}" for ext in (".gr", ".q", ".sol"))
            formats.write_graph(graph, gr)
            formats.write_queries(queries, qf)
        instances.append((name, gr, qf, sol))
    # The CLI solves and verifies in separate processes; do not carry
    # instance data from one step into the next.
    del graph, queries

    # solve: read, run every (query, eps) task serially, write outputs
    eps_grid = protocol.EpsilonGrid(tuple(Fraction(e) for e in p["eps"]))
    records_csv = work / "records.csv"
    records: list = []
    tasks = front_entries = kept = kept_base = 0
    for name, gr, qf, sol in instances:
        with timed("solve"):
            graph = formats.read_graph(gr)
            queries = formats.read_queries(qf)
            sets, recs = protocol.run_benchmark(graph, queries, eps_grid, benchmark_name=name)
            formats.write_solutions(sets, sol, objectives=graph.objectives)
        records.extend(recs)
        tasks += len(queries) * len(eps_grid.values)
        zero = {ss.query.index: ss.cardinality for ss in sets if ss.epsilon.is_zero}
        for ss in sets:
            front_entries += ss.cardinality
            if not ss.epsilon.is_zero and ss.query.index in zero:
                kept += ss.cardinality
                kept_base += zero[ss.query.index]
    with timed("solve"):
        records_csv.write_text(protocol.records_to_csv(records), encoding="ascii")
    del graph, queries, sets, records

    digest = hashlib.sha256()
    for _, _, _, sol in instances:
        digest.update(sol.read_bytes())
    if args.plant_defect:
        plant_defect(instances[0][3])

    # verify: feasibility of every set, coverage of eps>0 sets
    violations = uncovered = verify_entries = found = 0
    for name, gr, qf, sol in instances:
        with timed("verify"):
            graph = formats.read_graph(gr)
            queries = formats.read_queries(qf)
            sets = formats.read_solutions(sol, queries)
            clean = [protocol.verify_solutions(graph, ss.query, ss).clean for ss in sets]
            zero = {ss.query.index: ss for ss in sets if ss.epsilon.is_zero}
            covered = [
                protocol.verify_coverage(zero[ss.query.index], ss, ss.epsilon)[0]
                for ss in sets
                if not ss.epsilon.is_zero and ss.query.index in zero
            ]
        found += len(sets)
        verify_entries += sum(ss.cardinality for ss in sets)
        violations += clean.count(False)
        uncovered += covered.count(False)

    with timed("stats"):
        recs = protocol.read_records(records_csv)
        protocol.cardinality_stats(recs, "0")
        protocol.reduction_stats(recs)

    timeouts = sum(r.status == protocol.STATUS_TIMEOUT for r in recs)
    out = {
        **steps,
        "pipeline_s": sum(steps.values()),
        "cpu": {**cpus, "pipeline_s": sum(cpus.values())},
        "wall": {**walls, "pipeline_s": sum(walls.values())},
        "reference_s": statistics.median(refs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": tasks,
        "timeouts": timeouts,
        "violations": violations,
        "uncovered": uncovered,
        "missing": tasks - timeouts - found,
        "sha256": digest.hexdigest(),
        "front_entries": front_entries,
        "keep_ratio": kept / kept_base if kept_base else 1.0,
        "verify_entries": verify_entries,
        "graph_bytes": sum(gr.stat().st_size for _, gr, _, _ in instances),
        "solution_bytes": sum(sol.stat().st_size for _, _, _, sol in instances),
        "instances": [[n, str(gr), str(qf), str(sol)] for n, gr, qf, sol in instances],
        "spans": tracer.export(),
        "scales": scales,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
