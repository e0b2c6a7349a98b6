"""Release gate: one test per documented toolkit guarantee.

Every test appends a one-line summary (with the measured values) to
RESULTS; conftest echoes the collected lines after the run.  The two
heavy instances sit at positions 3 and 4 and dominate the runtime.
"""
from __future__ import annotations

import random
import time
from collections import deque
from fractions import Fraction

from mosbench.cli import EXIT_OK, main
from mosbench.convert import (
    ClearanceRoadmap,
    GuardGrid,
    clearance_penalty,
    extend_dimacs,
    guards_to_graph,
    panda_apply_clearance,
    parse_dimacs,
    read_elevation,
)
from mosbench.core import Epsilon, Query, correlation_matrix_from_costs
from mosbench.formats import read_graph, write_graph
from mosbench.generate import (
    GridSpec,
    NetMakerSpec,
    generate_grid,
    generate_netmaker,
    netmaker_edge_kinds,
    sample_netmaker_queries,
)
from mosbench.protocol import (
    STATUS_EMPTY,
    read_records,
    reduction_stats,
    run_benchmark,
    verify_coverage,
    verify_solutions,
)
from mosbench.solve import solve_approx, solve_exact

from conftest import diamond_graph, guards_cell_vertex, random_graph
from oracles import brute_force_pareto

RESULTS: list[str] = []

EPS_POINTS = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10))


def test_01_exact_solver_matches_brute_force():
    rng = random.Random(5)
    t0 = time.monotonic()
    for trial in range(200):
        d = (2, 3, 4)[trial % 3]
        g = random_graph(rng, rng.randint(2, 10), 0.3, d, 1, 9)
        q = Query(rng.randint(1, g.num_vertices), rng.randint(1, g.num_vertices), 0)
        got = [e.cost for e in solve_exact(g, q).entries]
        want = [e.cost for e in brute_force_pareto(g, q).entries]
        assert got == want, f"trial {trial}: {got} != {want}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    RESULTS.append(
        f"01 exact-vs-enumeration PASS: 200 random instances identical, {elapsed:.2f}s"
    )


def _desk_guard_grid() -> GuardGrid:
    passable = [True] * 20
    for blocked in (6, 8, 17):
        passable[blocked] = False
    guards = tuple(
        (i * 7 + 3) % 5 if passable[i] else 0 for i in range(20)
    )
    return GuardGrid(5, 4, tuple(passable), guards)


def _desk_roadmap() -> ClearanceRoadmap:
    f = Fraction
    clear = (f(1, 2),) * 7
    configs = ((f(0),) * 7,) * 5
    edges = (
        (1, 2, f(1), (f(1, 2), f(3, 100), f(1, 5)) + (f(1, 2),) * 4),
        (2, 5, f(1), clear),
        (1, 3, f(4, 5), (f(3, 50),) + (f(1, 2),) * 6),
        (3, 5, f(9, 10), (f(1, 2), f(1, 2), f(9, 100)) + (f(1, 2),) * 4),
        (1, 4, f(5, 2), clear),
        (4, 5, f(1, 10), (f(1, 25),) + (f(1, 2),) * 4 + (f(1, 25), f(1, 2))),
    )
    return ClearanceRoadmap(configs, edges)


def _desk_instances():
    out = []
    g, q = diamond_graph()
    out.append(("diamond", g, [q]))
    g, q = generate_grid(GridSpec(20, 20, d=2, seed=2))
    out.append(("grid-20x20-d2", g, [q]))
    g, q = generate_grid(GridSpec(8, 8, d=3, seed=3))
    out.append(("grid-8x8-d3", g, [q]))
    g, q = generate_grid(GridSpec(6, 6, d=4, seed=6))
    out.append(("grid-6x6-d4", g, [q]))
    net = generate_netmaker(NetMakerSpec(n=400, seed=4))
    out.append(("netmaker-400", net, sample_netmaker_queries(net, 3, 4)))
    grid = _desk_guard_grid()
    gg = guards_to_graph(grid)
    out.append(
        (
            "guards-5x4",
            gg,
            [Query(guards_cell_vertex(grid, 0, 0), guards_cell_vertex(grid, 3, 4), 0)],
        )
    )
    roadmap = _desk_roadmap()
    out.append(("panda-bi", panda_apply_clearance(roadmap, "0.1", "bi"), [Query(1, 5, 0)]))
    out.append(("panda-many", panda_apply_clearance(roadmap, "0.1", "many"), [Query(1, 5, 0)]))
    return out


def test_02_approximation_coverage_on_reference_instances():
    pairs = 0
    checks = 0
    for name, graph, queries in _desk_instances():
        d = graph.d
        for q in queries:
            exact = solve_exact(graph, q)
            assert exact.entries, f"{name}: reference query found nothing"
            identical = solve_approx(graph, q, Epsilon.zero(d))
            assert identical.entries == exact.entries, f"{name}: eps=0 differs"
            pairs += 1
            for value in EPS_POINTS:
                eps = Epsilon.broadcast(value, d)
                approx = solve_approx(graph, q, eps)
                ok, uncovered = verify_coverage(exact, approx, eps)
                assert ok, f"{name} eps={value}: uncovered {uncovered[:3]}"
                assert verify_solutions(graph, q, approx).clean, name
                assert len(approx.entries) <= len(exact.entries), name
                checks += 1
    RESULTS.append(
        f"02 approximation-coverage PASS: {pairs} instance queries, "
        f"{checks} epsilon checks, eps=0 identical on all"
    )


def test_03_large_grid_shape_correlation_and_solve_time():
    graph, query = generate_grid(GridSpec(k=300, m=300, d=2, seed=0))
    assert graph.num_vertices == 90_002
    aux = {graph.num_vertices - 1, graph.num_vertices}
    interior = [c for u, v, c in graph.edges if u not in aux and v not in aux]
    rho = correlation_matrix_from_costs(interior)[0][1]
    assert abs(rho) < 0.02
    t1 = time.monotonic()
    front = solve_exact(graph, query)
    solve_s = time.monotonic() - t1
    assert solve_s < 300.0
    assert front.entries
    RESULTS.append(
        f"03 grid-300x300 PASS: 90002 vertices, interior rho={rho:+.5f}, "
        f"exact front cardinality {front.cardinality} in {solve_s:.1f}s"
    )


def _reachable_all(graph, start, forward):
    rows, end = (graph.out_arcs, 1) if forward else (graph.in_arcs, 0)
    seen = bytearray(graph.num_vertices + 1)
    seen[start] = 1
    queue = deque([start])
    count = 1
    while queue:
        u = queue.popleft()
        for arc in rows[u]:
            w = arc[end]
            if not seen[w]:
                seen[w] = 1
                count += 1
                queue.append(w)
    return count


def test_04_netmaker_10k_structure_and_reduction():
    t0 = time.monotonic()
    graph = generate_netmaker(NetMakerSpec(n=10_000, i_vertex=20, a_min=1, a_max=10, seed=7))
    assert abs(graph.num_edges - 59_943) <= 0.02 * 59_943
    assert _reachable_all(graph, 1, True) == 10_000
    assert _reachable_all(graph, 1, False) == 10_000

    cycle_idx, local_idx = netmaker_edge_kinds(graph)
    cyc = correlation_matrix_from_costs([graph.edges[i][2] for i in cycle_idx])
    loc = correlation_matrix_from_costs([graph.edges[i][2] for i in local_idx])
    cyc_vals = [cyc[i][j] for i in range(3) for j in range(3) if i < j]
    loc_vals = [loc[i][j] for i in range(3) for j in range(3) if i < j]
    assert all(abs(v - (-0.44)) <= 0.05 for v in cyc_vals), cyc_vals
    assert all(abs(v) <= 0.02 for v in loc_vals), loc_vals

    queries = sample_netmaker_queries(graph, 50, 7)[:10]
    eps_pair = [Epsilon.zero(3), Epsilon.broadcast(Fraction(1, 10), 3)]
    sets, records = run_benchmark(graph, queries, eps_pair, timeout_ms=None)
    assert all(r.status == "solved" for r in records)
    by_key = {(s.query.index, s.epsilon.is_zero): s for s in sets}
    for q in queries:
        ok, uncovered = verify_coverage(
            by_key[(q.index, True)], by_key[(q.index, False)], eps_pair[1]
        )
        assert ok, uncovered
    median = reduction_stats(records)[1].pooled_median_pct
    assert median >= 80.0
    elapsed = time.monotonic() - t0
    RESULTS.append(
        f"04 netmaker-10k PASS: {graph.num_edges} edges, strongly connected, "
        f"cycle rho {min(cyc_vals):+.3f}..{max(cyc_vals):+.3f}, "
        f"local |rho| max {max(abs(v) for v in loc_vals):.4f}, "
        f"median reduction {median:.1f}% at eps=0.1, {elapsed:.0f}s"
    )


def _rule_based_guard_edges(grid: GuardGrid):
    ids = {}
    for r in range(grid.height):
        for c in range(grid.width):
            if grid.passable[grid.cell(r, c)]:
                ids[(r, c)] = len(ids) + 1
    found = set()
    for (r, c), u in ids.items():
        for (nr, nc), v in ids.items():
            dr, dc = nr - r, nc - c
            if (dr, dc) == (0, 0) or abs(dr) > 1 or abs(dc) > 1:
                continue
            if dr == 0 or dc == 0:
                found.add((u, v, (10, grid.guards[grid.cell(nr, nc)])))
            elif (nr, c) in ids and (r, nc) in ids:
                exposure = max(
                    grid.guards[grid.cell(nr, nc)],
                    grid.guards[grid.cell(nr, c)],
                    grid.guards[grid.cell(r, nc)],
                )
                found.add((u, v, (14, exposure)))
    return found


def test_05_guard_move_semantics_exhaustive():
    compared = 0
    for mask in range(1, 512):
        passable = tuple(bool(mask >> i & 1) for i in range(9))
        guards = tuple((i * 7 + 3) % 10 if passable[i] else 0 for i in range(9))
        grid = GuardGrid(3, 3, passable, guards)
        assert set(guards_to_graph(grid).edges) == _rule_based_guard_edges(grid)
        compared += 1

    # spot semantics on the fully open pattern
    grid = GuardGrid(3, 3, (True,) * 9, tuple(range(9)))
    edges = set(guards_to_graph(grid).edges)
    assert (5, 6, (10, 5)) in edges  # center -> east, orthogonal
    assert (5, 9, (14, 8)) in edges  # center -> southeast, max(8, 7, 5)
    blocked = GuardGrid(3, 3, tuple(i != 5 for i in range(9)), (0,) * 9)
    pairs = {(u, v) for u, v, _ in guards_to_graph(blocked).edges}
    center = 5  # row-major rank of cell (1,1) once (1,2) is removed
    assert (center, 7) in pairs  # orthogonal south move is unaffected
    assert (center, 3) not in pairs  # diagonals that cut the removed corner
    assert (center, 8) not in pairs
    RESULTS.append(
        f"05 guard-moves PASS: {compared} 3x3 passability patterns match the move rules"
    )


def test_06_clearance_penalty_values():
    delta = Fraction(1, 10)
    assert clearance_penalty(Fraction(1, 10), delta) == 0
    assert clearance_penalty(Fraction(1, 20), delta) == Fraction(1, 80)  # 0.0125
    from mosbench.convert import _fixed

    eta = Fraction(1, 10**6)
    inside = clearance_penalty(delta - eta, delta)
    assert abs(_fixed(inside) - _fixed(Fraction(0))) <= 1
    RESULTS.append(
        "06 clearance-penalty PASS: U(0.1)=0, U(0.05)=0.0125, "
        "continuous at the band edge within one fixed-point step"
    )


def test_07_disconnected_query_empty_status(tmp_path):
    (tmp_path / "wall.map").write_text("height 1\nwidth 3\nmap\n0 @ 0\n")
    assert (
        main(
            [
                "convert", "guards", "--map", str(tmp_path / "wall.map"),
                "--out", str(tmp_path / "g.gr"),
            ]
        )
        == EXIT_OK
    )
    (tmp_path / "q.txt").write_text("q 1 2\n")
    code = main(
        [
            "solve", "--graph", str(tmp_path / "g.gr"),
            "--queries", str(tmp_path / "q.txt"),
            "--out-solutions", str(tmp_path / "s.sol"),
            "--out-records", str(tmp_path / "r.csv"),
        ]
    )
    assert code == EXIT_OK
    records = read_records(tmp_path / "r.csv")
    assert len(records) == 4
    assert all(r.status == STATUS_EMPTY for r in records)
    assert all(r.cardinality == 0 for r in records)
    RESULTS.append(
        "07 disconnected-query PASS: separated map solves to empty sets, "
        "cardinality 0, exit code 0"
    )


def test_08_byte_identical_reruns(tmp_path):
    def run(args):
        assert main([str(a) for a in args]) == EXIT_OK

    digests = []
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        base.mkdir()
        run(
            [
                "generate", "grid", "--k", 7, "--m", 5, "--seed", 21,
                "--out-graph", base / "grid.gr", "--out-queries", base / "grid.q",
            ]
        )
        run(
            [
                "generate", "netmaker", "--n", 120, "--seed", 22, "--queries", 6,
                "--out-graph", base / "net.gr", "--out-queries", base / "net.q",
            ]
        )
        (base / "m.map").write_text("height 2\nwidth 3\nmap\n0 1 2\n1 0 3\n")
        run(["convert", "guards", "--map", base / "m.map", "--out", base / "guards.gr"])
        run(
            [
                "solve", "--graph", base / "grid.gr", "--queries", base / "grid.q",
                "--out-solutions", base / "grid.sol",
                "--out-records", base / "grid.csv",
            ]
        )
        digests.append(
            tuple(
                (base / name).read_bytes()
                for name in ("grid.gr", "grid.q", "net.gr", "net.q", "guards.gr", "grid.sol")
            )
        )
    assert digests[0] == digests[1]
    RESULTS.append(
        "08 determinism PASS: generate/convert/solve reruns byte-identical "
        "(graph, query and solution files)"
    )


ROAD_EXCERPT_DIST = """c truncated road-network excerpt, distance objective
c
p sp 8 10
a 1 2 803
a 2 1 803
a 2 3 158
a 3 4 774
a 4 5 1531
a 5 6 912
a 6 7 277
a 7 8 331
a 8 1 695
a 3 7 2445
"""

ROAD_EXCERPT_TIME = """c truncated road-network excerpt, travel-time objective
p sp 8 10
a 1 2 79
a 2 1 81
a 2 3 17
a 3 4 70
a 4 5 141
a 5 6 88
a 6 7 25
a 7 8 30
a 8 1 64
a 3 7 198
"""


def test_09_road_data_round_trip_at_reduced_scale(tmp_path):
    # full-size road networks and their published query sets are out of
    # desk reach; the parsers are exercised on a truncated excerpt instead
    (tmp_path / "d.gr").write_text(ROAD_EXCERPT_DIST)
    (tmp_path / "t.gr").write_text(ROAD_EXCERPT_TIME)
    graph = parse_dimacs(tmp_path / "d.gr", tmp_path / "t.gr")
    assert graph.num_vertices == 8 and graph.num_edges == 10

    write_graph(graph, tmp_path / "round.gr")
    back = read_graph(tmp_path / "round.gr")
    assert sorted(back.edges) == sorted(graph.edges)
    assert back.objectives == graph.objectives
    write_graph(back, tmp_path / "round2.gr")
    assert (tmp_path / "round.gr").read_bytes() == (tmp_path / "round2.gr").read_bytes()

    (tmp_path / "elev.txt").write_text("10.5\n12\n9.75\n14\n8\n11.25\n13\n10\n")
    extended = extend_dimacs(graph, read_elevation(tmp_path / "elev.txt"), 5)
    write_graph(extended, tmp_path / "ext.gr")
    ext_back = read_graph(tmp_path / "ext.gr")
    assert ext_back.objectives == extended.objectives
    assert sorted(ext_back.edges) == sorted(extended.edges)

    q = Query(1, 5, 0)
    got = [e.cost for e in solve_exact(graph, q).entries]
    want = [e.cost for e in brute_force_pareto(graph, q).entries]
    assert got == want
    RESULTS.append(
        "09 road-excerpt PASS: truncated dual-objective road file round-trips "
        "byte-stable and solves; full-size instances stay out of scope"
    )
