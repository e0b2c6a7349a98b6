"""Command-line entry point: generate, convert, solve, verify, stats."""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, TypeVar

from . import convert, formats, generate, protocol
from .core import Epsilon, SolutionSet, _fraction_text
from .errors import MosbenchError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

T = TypeVar("T")


def _option(option: str, text: str, parse: Callable[[str], T]) -> T:
    """parse(text); a ValueError, or a zero denominator, names the option and its text."""
    try:
        return parse(text)
    except ZeroDivisionError:
        raise ValueError(f"{option} {text!r}: zero denominator") from None
    except ValueError as exc:
        raise ValueError(f"{option} {text!r}: {exc}") from None


def _fractions(text: str) -> tuple[Fraction, ...]:
    return tuple(map(Fraction, text.split(",")))


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "grid":
        spec = generate.GridSpec(
            k=args.k,
            m=args.m,
            d=args.d,
            seed=args.seed,
            cost_low=args.cost_low,
            cost_high=args.cost_high,
        )
        graph, query = generate.generate_grid(spec)
        formats.write_graph(graph, args.out_graph)
        formats.write_queries([query], args.out_queries)
        print(
            f"grid {args.k}x{args.m} d={args.d}: {graph.num_vertices} vertices, "
            f"{graph.num_edges} edges, query {query.source}->{query.target}"
        )
        return EXIT_OK
    spec = generate.NetMakerSpec(
        n=args.n,
        i_vertex=args.i_vertex,
        a_min=args.a_min,
        a_max=args.a_max,
        seed=args.seed,
    )
    graph = generate.generate_netmaker(spec)
    qseed = args.seed if args.query_seed is None else args.query_seed
    queries = generate.sample_netmaker_queries(graph, args.queries, qseed)
    formats.write_graph(graph, args.out_graph)
    formats.write_queries(queries, args.out_queries)
    print(
        f"netmaker n={args.n} I={args.i_vertex}: {graph.num_edges} edges, "
        f"{len(queries)} queries"
    )
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    if args.kind == "dimacs":
        graph = convert.parse_dimacs(args.distance, args.time)
    elif args.kind == "dimacs-extend":
        base = formats.read_graph(args.graph)
        elevation = convert.read_elevation(args.elevation) if args.elevation else None
        graph = convert.extend_dimacs(base, elevation, args.target_d)
    elif args.kind == "guards":
        grid = convert.parse_guards_map(args.map)
        graph = convert.guards_to_graph(grid)
    elif args.kind == "panda":
        roadmap = convert.read_roadmap(args.roadmap)
        delta = _option("--delta", args.delta, Fraction)
        graph = convert.panda_apply_clearance(roadmap, delta, args.mode)
    else:
        base = formats.read_graph(args.graph)
        graph, remap = convert.extract_connected_subgraph(base, args.root, args.limit)
        if args.out_remap:
            lines = [f"{i + 1} {old}" for i, old in enumerate(remap)]
            _emit("\n".join(lines) + "\n", args.out_remap)
    formats.write_graph(graph, args.out)
    print(
        f"{args.kind}: {graph.num_vertices} vertices, {graph.num_edges} edges, "
        f"d={graph.d} -> {args.out}"
    )
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    if args.name is not None and not args.name.isascii():
        raise ValueError(f"--name {args.name!r} is not ASCII, so the records CSV cannot hold it")
    graph = formats.read_graph(args.graph)
    queries = formats.read_queries(args.queries, num_vertices=graph.num_vertices)
    grid = _option("--eps", args.eps, lambda t: protocol.EpsilonGrid(_fractions(t)))
    eps_list = grid.epsilons(graph.d)
    for text in args.eps_vec or []:
        eps_list.append(_option("--eps-vec", text, lambda t: Epsilon.from_text(t, graph.d)))
    sets, records = protocol.run_benchmark(
        graph,
        queries,
        eps_list,
        timeout_ms=args.timeout * 1000.0,
        benchmark_name=args.name,
        progress=lambda r: print(
            f"{r.benchmark} q{r.query_index} eps={r.epsilon}: {r.status} "
            f"|{r.cardinality}| {r.ms:.1f} ms"
        ),
    )
    formats.write_solutions(
        sets,
        args.out_solutions,
        objectives=graph.objectives,
        include_paths=not args.no_paths,
    )
    _emit(protocol.records_to_csv(records), args.out_records)
    return EXIT_OK


def _blocks_by_query(sets: list[SolutionSet]) -> dict[int, list[SolutionSet]]:
    out: dict[int, list[SolutionSet]] = {}
    for ss in sets:
        out.setdefault(ss.query.index, []).append(ss)
    return out


def _block_at(blocks: list[SolutionSet], eps: Epsilon) -> SolutionSet | None:
    """A query's block at eps; a query with a single block pairs it whatever its eps."""
    if len(blocks) == 1:
        return blocks[0]
    return next((ss for ss in blocks if ss.epsilon == eps), None)


def cmd_verify(args: argparse.Namespace) -> int:
    violations = failures = 0
    ran = False
    if args.solutions:
        if not args.graph or not args.queries:
            print("error: --solutions needs --graph and --queries", file=sys.stderr)
            return EXIT_USAGE
        ran = True
        graph = formats.read_graph(args.graph)
        queries = formats.read_queries(args.queries, num_vertices=graph.num_vertices)
        sets = formats.read_solutions(args.solutions, queries)
        for ss in sets:
            report = protocol.verify_solutions(graph, ss.query, ss)
            for violation in report.violations:
                violations += 1
                print(f"query {ss.query.index} eps={ss.epsilon.display()}: {violation}")
        # Each eps>0 block must cover its query's eps=0 block in the same file.
        for idx, blocks in _blocks_by_query(sets).items():
            exact = next((ss for ss in blocks if ss.epsilon.is_zero), None)
            if exact is None:
                continue
            for ss in blocks:
                if ss.epsilon.is_zero:
                    continue
                _, uncovered = protocol.verify_coverage(exact, ss, ss.epsilon)
                failures += len(uncovered)
                for c in uncovered:
                    print(f"query {idx} eps={ss.epsilon.display()}: uncovered exact cost {c}")
        print(f"feasibility: {len(sets)} solution sets, {violations} violations")
    if args.exact or args.approx:
        if not (args.exact and args.approx and args.eps):
            print("error: coverage needs --exact, --approx and --eps", file=sys.stderr)
            return EXIT_USAGE
        ran = True
        queries = formats.read_queries(args.queries) if args.queries else None
        exact_sets = formats.read_solutions(args.exact, queries)
        approx_sets = formats.read_solutions(args.approx, queries)
        if not exact_sets:
            print("error: no solution sets in the exact file", file=sys.stderr)
            return EXIT_USAGE
        d = exact_sets[0].epsilon.d
        eps = _option("--eps", args.eps, lambda t: Epsilon.from_text(t, d))
        exact_by_idx = _blocks_by_query(exact_sets)
        approx_by_idx = _blocks_by_query(approx_sets)
        pairs = failed = 0
        for idx, blocks in exact_by_idx.items():
            ex = _block_at(blocks, Epsilon.zero(d))
            if ex is None:
                failed += 1
                print(f"query {idx}: no eps=0 set in the exact file")
                continue
            ap = _block_at(approx_by_idx.get(idx, []), eps)
            if ap is None:
                failed += 1
                print(f"query {idx}: no matching approximate set")
                continue
            pairs += 1
            ok, uncovered = protocol.verify_coverage(ex, ap, eps)
            if not ok:
                failed += 1
                for c in uncovered:
                    print(f"query {idx}: uncovered exact cost {c}")
        print(f"coverage at eps={eps.display()}: {pairs} pairs, {failed} failures")
        failures += failed
    if not ran:
        print("error: nothing to verify; pass --solutions or --exact/--approx", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VERIFICATION if violations or failures else EXIT_OK


def _emit(text: str, out: str | None) -> None:
    # Encoded before the file is opened, so a refused text leaves it as it was.
    if out:
        Path(out).write_bytes(text.encode("ascii"))
    else:
        sys.stdout.write(text)


def cmd_stats(args: argparse.Namespace) -> int:
    if args.report == "cardinality":
        records = protocol.read_records(args.records)
        eps = _option("--eps", args.eps, lambda t: Epsilon(_fractions(t)))
        stats = protocol.cardinality_stats(records, eps)
        if stats.excluded_timeouts:
            print(f"excluded {stats.excluded_timeouts} timed-out records", file=sys.stderr)
        _emit(protocol.cardinality_csv(stats, eps.display()), args.out)
    elif args.report == "reduction":
        records = protocol.read_records(args.records)
        _emit(protocol.reduction_csv(protocol.reduction_stats(records)), args.out)
    elif args.report == "spread":
        sets = formats.read_solutions(args.solutions)
        names = None
        if args.graph:
            names = [o.name for o in formats.read_objectives(args.graph)]
        spreads = protocol.spread_stats(sets)
        excluded = sum(s.excluded for s in spreads)
        if excluded:
            print(f"excluded {excluded} query/axis pairs", file=sys.stderr)
        _emit(protocol.spread_csv(spreads, names), args.out)
    else:
        graph = formats.read_graph(args.graph)
        _emit(protocol.correlation_csv(graph, args.edges), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mosbench",
        description="Benchmark toolkit for exact and epsilon-approximate "
        "multi-objective shortest-path search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gen = sub.add_parser("generate", help="generate a synthetic benchmark instance")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    grid = gen_sub.add_parser("grid", help="random-cost grid", formatter_class=fmt)
    grid.add_argument("--k", type=int, required=True, help="grid width (columns)")
    grid.add_argument("--m", type=int, required=True, help="grid height (rows)")
    grid.add_argument("--d", type=int, default=2, help="number of objectives (2-4)")
    grid.add_argument("--seed", type=int, default=0, help="generator seed")
    grid.add_argument("--cost-low", type=int, default=1, help="minimum edge cost")
    grid.add_argument("--cost-high", type=int, default=10, help="maximum edge cost")
    grid.add_argument("--out-graph", required=True, help="output graph file")
    grid.add_argument("--out-queries", required=True, help="output query file")
    grid.set_defaults(func=cmd_generate)
    net = gen_sub.add_parser("netmaker", help="NetMaker-style directed graph", formatter_class=fmt)
    net.add_argument("--n", type=int, required=True, help="vertex count")
    net.add_argument("--i-vertex", type=int, default=20, help="locality window size")
    net.add_argument("--a-min", type=int, default=1, help="minimum out-degree bound")
    net.add_argument("--a-max", type=int, default=10, help="maximum out-degree bound")
    net.add_argument("--seed", type=int, default=0, help="generator seed")
    net.add_argument("--queries", type=int, default=50, help="number of query pairs")
    net.add_argument("--query-seed", type=int, default=None, help="query seed (defaults to --seed)")
    net.add_argument("--out-graph", required=True, help="output graph file")
    net.add_argument("--out-queries", required=True, help="output query file")
    net.set_defaults(func=cmd_generate)

    conv = sub.add_parser("convert", help="convert external data into the canonical format")
    conv_sub = conv.add_subparsers(dest="kind", required=True)
    dim = conv_sub.add_parser("dimacs", help="paired distance/time arc files", formatter_class=fmt)
    dim.add_argument("--distance", required=True, help="distance .gr file")
    dim.add_argument("--time", required=True, help="travel-time .gr file")
    dim.add_argument("--out", required=True, help="output graph file")
    dim.set_defaults(func=cmd_convert)
    ext = conv_sub.add_parser("dimacs-extend", help="append elevation/degree/hop objectives", formatter_class=fmt)
    ext.add_argument("--graph", required=True, help="bi-objective base graph")
    ext.add_argument("--elevation", help="per-vertex elevation file")
    ext.add_argument("--target-d", type=int, required=True, choices=(3, 4, 5), help="objective count after extension")
    ext.add_argument("--out", required=True, help="output graph file")
    ext.set_defaults(func=cmd_convert)
    gua = conv_sub.add_parser("guards", help="patrol map to 8-connected move graph", formatter_class=fmt)
    gua.add_argument("--map", required=True, help="guards map file")
    gua.add_argument("--out", required=True, help="output graph file")
    gua.set_defaults(func=cmd_convert)
    pan = conv_sub.add_parser("panda", help="manipulator roadmap with clearance penalties", formatter_class=fmt)
    pan.add_argument("--roadmap", required=True, help="roadmap file")
    pan.add_argument("--delta", default="0.1", help="clearance safety band in meters")
    pan.add_argument("--mode", required=True, choices=("bi", "many"), help="penalty aggregation")
    pan.add_argument("--out", required=True, help="output graph file")
    pan.set_defaults(func=cmd_convert)
    sg = conv_sub.add_parser("subgraph", help="BFS-connected subgraph extraction", formatter_class=fmt)
    sg.add_argument("--graph", required=True, help="input graph file")
    sg.add_argument("--root", type=int, required=True, help="BFS root vertex")
    sg.add_argument("--limit", type=int, default=None, help="max vertices to keep")
    sg.add_argument("--out", required=True, help="output graph file")
    sg.add_argument("--out-remap", help="optional new-id to old-id table file")
    sg.set_defaults(func=cmd_convert)

    sol = sub.add_parser("solve", help="run the evaluation protocol", formatter_class=fmt)
    sol.add_argument("--graph", required=True, help="graph file")
    sol.add_argument("--queries", required=True, help="query file")
    eps_default = ",".join(map(_fraction_text, protocol.EpsilonGrid().values))
    sol.add_argument("--eps", default=eps_default, help="comma list of scalar epsilon grid points")
    sol.add_argument("--eps-vec", action="append", help="extra per-objective epsilon point (repeatable)")
    sol.add_argument("--timeout", type=float, default=300.0, help="per-query search time limit in seconds")
    sol.add_argument("--name", default=None, help="benchmark name for the records CSV")
    sol.add_argument("--no-paths", action="store_true", help="omit witness paths from the solution file")
    sol.add_argument("--out-solutions", required=True, help="output solution file")
    sol.add_argument("--out-records", required=True, help="output records CSV")
    sol.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="verify solution files", formatter_class=fmt)
    ver.add_argument("--graph", help="graph file (feasibility checks)")
    ver.add_argument("--queries", help="query file")
    ver.add_argument("--solutions", help="solution file to check for feasibility")
    ver.add_argument("--exact", help="exact solution file (coverage check)")
    ver.add_argument("--approx", help="approximate solution file (coverage check)")
    ver.add_argument("--eps", help="epsilon for the coverage check")
    ver.set_defaults(func=cmd_verify)

    st = sub.add_parser("stats", help="descriptive statistics CSVs")
    st_sub = st.add_subparsers(dest="report", required=True)
    card = st_sub.add_parser("cardinality", help="front-size summary at one epsilon", formatter_class=fmt)
    card.add_argument("--records", required=True, help="records CSV")
    card.add_argument("--eps", required=True, help="epsilon grid point")
    card.add_argument("--out", help="output CSV (default stdout)")
    card.set_defaults(func=cmd_stats)
    red = st_sub.add_parser("reduction", help="cardinality reduction vs the exact baseline", formatter_class=fmt)
    red.add_argument("--records", required=True, help="records CSV")
    red.add_argument("--out", help="output CSV (default stdout)")
    red.set_defaults(func=cmd_stats)
    spr = st_sub.add_parser("spread", help="per-axis max/min cost ratios", formatter_class=fmt)
    spr.add_argument("--solutions", required=True, help="solution file")
    spr.add_argument("--graph", help="graph file for objective names")
    spr.add_argument("--out", help="output CSV (default stdout)")
    spr.set_defaults(func=cmd_stats)
    cor = st_sub.add_parser("correlation", help="objective correlation matrix", formatter_class=fmt)
    cor.add_argument("--graph", required=True, help="graph file")
    cor.add_argument("--edges", choices=("cycle", "local"), default=None, help="restrict to a NetMaker edge class")
    cor.add_argument("--out", help="output CSV (default stdout)")
    cor.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MosbenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
