"""Search correctness: bounds, exact fronts, approximation, oracles."""
from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosbench.core import (
    Cost,
    Epsilon,
    MosGraph,
    Objective,
    Query,
    SolutionEntry,
    SolutionSet,
    pareto_filter,
    path_cost,
)
from mosbench.errors import (
    DimensionMismatch,
    SearchTimeout,
    TargetOutOfRange,
)
from mosbench.generate import GridSpec, generate_grid
from mosbench.protocol import STATUS_SOLVED, run_benchmark
from mosbench.solve import (
    _eps_front,
    _search_bi,
    _search_multi,
    dijkstra_bound,
    ideal_point_heuristic,
    solve_approx,
    solve_exact,
)

from conftest import diamond_graph, line_graph, random_graph
from oracles import InstanceTooLarge, brute_force_pareto, eps_covers

INF = float("inf")


@dataclass(eq=False)
class SearchLabel:
    """A partial path in the reference search: vertex, g, f and parent link."""

    vertex: int
    g: Cost
    f: Cost
    parent: "SearchLabel | None" = None

    def path(self) -> tuple[int, ...]:
        out = []
        lab: SearchLabel | None = self
        while lab is not None:
            out.append(lab.vertex)
            lab = lab.parent
        return tuple(reversed(out))


def reference_label_search(graph: MosGraph, query: Query) -> list[tuple[Cost, tuple[int, ...]]]:
    """Plain label-setting without heuristic, packing or suffix tricks.

    Deliberately naive (full-vector dominance scans, object labels) so it
    can serve as an independent cross-check for the production solver.
    The query's endpoints must be vertices of the graph.
    """
    d = graph.d
    zero = (0,) * d
    if query.source == query.target:
        return [(zero, (query.source,))]
    arcs = graph.out_arcs
    tgt = query.target
    counter = 0
    root = SearchLabel(query.source, zero, zero)
    heap: list[tuple[Cost, int, int, SearchLabel]] = [(zero, query.source, 0, root)]
    closed: list[list[Cost]] = [[] for _ in range(graph.num_vertices + 1)]
    sols: list[tuple[Cost, tuple[int, ...]]] = []

    def blocked(g: Cost, pool: list[Cost]) -> bool:
        return any(all(a <= b for a, b in zip(p, g)) for p in pool)

    while heap:
        _, v, _, lab = heapq.heappop(heap)
        g = lab.g
        if blocked(g, closed[v]) or blocked(g, [c for c, _ in sols]):
            continue
        if v == tgt:
            sols.append((g, lab.path()))
            continue
        closed[v].append(g)
        for _, w, cost in arcs[v]:
            ng = tuple(g[k] + cost[k] for k in range(d))
            if blocked(ng, closed[w]) or blocked(ng, [c for c, _ in sols]):
                continue
            counter += 1
            heapq.heappush(heap, (ng, w, counter, SearchLabel(w, ng, ng, lab)))
    return sols


def bellman_ford_to_target(graph: MosGraph, target: int, objective: int):
    dist = [INF] * (graph.num_vertices + 1)
    dist[target] = 0
    for _ in range(graph.num_vertices):
        changed = False
        for u, v, cost in graph.edges:
            if dist[v] + cost[objective] < dist[u]:
                dist[u] = dist[v] + cost[objective]
                changed = True
        if not changed:
            break
    return dist


def push_order_search(graph: MosGraph, query: Query):
    """The exact search with the pop order of plain push-then-pop heaps.

    Keys are (f..., vertex, push sequence) tuples, and each label keeps its
    parent's sequence number.  Pruning is the production searches': a
    label dies when a closed label of its vertex, or a found target cost,
    weakly dominates its cost suffix g[1:] (f[1:] against the target).  For
    d=2 those suffix lists are the scalars g2min[v] and tbound.  Arcs are
    read from graph.edges in edge-tuple order.
    """
    h = ideal_point_heuristic(graph, query.target).columns
    d, src, tgt = graph.d, query.source, query.target
    if h[0][src] < 0:
        return []
    closed = {v: [] for v in range(1, graph.num_vertices + 1)}

    def blocked(v, suffix):
        return any(all(a <= b for a, b in zip(p, suffix)) for p in closed[v])

    def close(v, suffix):
        closed[v] = [p for p in closed[v] if not all(a >= b for a, b in zip(p, suffix))]
        closed[v].append(suffix)

    labels = [(src, -1)]  # per push sequence: vertex, parent's sequence
    heap = [tuple(col[src] for col in h) + (src, 0)]
    found = []
    while heap:
        *f, v, seq = heapq.heappop(heap)
        g = [f[k] - h[k][v] for k in range(d)]
        if v == tgt:
            if not blocked(tgt, g[1:]):
                close(tgt, g[1:])
                path, cur = [], seq
                while cur >= 0:
                    path.append(labels[cur][0])
                    cur = labels[cur][1]
                found.append((tuple(g), tuple(reversed(path))))
            continue
        if blocked(v, g[1:]) or blocked(tgt, f[1:]):
            continue
        close(v, g[1:])
        for u, w, cost in graph.edges:
            if u != v or h[0][w] < 0:
                continue
            ng = [g[k] + cost[k] for k in range(d)]
            nf = [ng[k] + h[k][w] for k in range(d)]
            if blocked(w, ng[1:]) or blocked(tgt, nf[1:]):
                continue
            labels.append((w, seq))
            heapq.heappush(heap, tuple(nf) + (w, len(labels) - 1))
    return found


@st.composite
def tie_heavy_multigraphs(draw):
    """Small d=1..5 multigraphs with zero costs, parallel arcs and ties."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(2, 8))
    vertex = st.integers(1, n)
    cost = st.tuples(*[st.integers(0, 3)] * d)
    edges = []
    for u, v, c, copies in draw(
        st.lists(st.tuples(vertex, vertex, cost, st.integers(1, 3)), max_size=32)
    ):
        edges += [(u, v, c)] * copies
        if copies > 1 and draw(st.booleans()):
            edges.append((u, v, draw(cost)))
    g = MosGraph(n, tuple(draw(st.permutations(edges))), tuple(Objective(f"c{k}") for k in range(d)))
    s, t = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
    return g, Query(s, t, 0)


class TestDijkstraBound:
    def test_against_bellman_ford(self):
        rng = random.Random(71)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 30), 0.15, 2)
            t = rng.randint(1, g.num_vertices)
            for k in range(2):
                got = dijkstra_bound(g, t, k)
                want = bellman_ford_to_target(g, t, k)
                assert got[1:] == want[1:]

    def test_unreachable_is_inf(self):
        g = line_graph([(3, 1), (2, 2)])
        dist = dijkstra_bound(g, 1, 0)
        assert dist[1] == 0
        assert dist[2] == INF and dist[3] == INF

    def test_validation(self):
        g = line_graph([(3, 1)])
        with pytest.raises(TargetOutOfRange):
            dijkstra_bound(g, 5, 0)
        with pytest.raises(DimensionMismatch):
            dijkstra_bound(g, 1, 2)


class TestIdealPointHeuristic:
    def test_componentwise_single_objective_optimum(self):
        # each component equals the one-objective shortest distance, which
        # no path can beat, so the table is admissible by construction
        rng = random.Random(72)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 20), 0.25, 3)
            t = rng.randint(1, g.num_vertices)
            h = ideal_point_heuristic(g, t)
            per_obj = [dijkstra_bound(g, t, k) for k in range(3)]
            assert len(h.columns) == 3
            for v in range(1, g.num_vertices + 1):
                bound = tuple(col[v] for col in h.columns)
                if per_obj[0][v] == INF:
                    assert bound[0] < 0
                else:
                    assert bound == tuple(int(per_obj[k][v]) for k in range(3))
                # -1 marks exactly the vertices that cannot reach the target
                for k in range(3):
                    if per_obj[k][v] == INF:
                        assert h.columns[k][v] == -1
                    else:
                        assert h.columns[k][v] == per_obj[k][v]

    def test_consistency_across_edges(self):
        rng = random.Random(73)
        g = random_graph(rng, 25, 0.2, 2)
        h = ideal_point_heuristic(g, 25)
        for u, v, cost in g.edges:
            hu, hv = (tuple(col[x] for col in h.columns) for x in (u, v))
            if hv[0] < 0:
                continue
            assert hu[0] >= 0
            for k in range(2):
                assert hu[k] <= cost[k] + hv[k]

    def test_target_is_zero(self):
        # The searches rely on f = g at the target, for every objective.
        rng = random.Random(74)
        for d in range(1, 5):
            g = random_graph(rng, 12, 0.4, d, cost_low=0)
            for t in range(1, 13):
                assert {col[t] for col in ideal_point_heuristic(g, t).columns} == {0}


class TestExactSearch:
    def test_diamond(self):
        g, q = diamond_graph()
        ss = solve_exact(g, q)
        assert [e.cost for e in ss.entries] == [(1, 4), (4, 1)]
        assert ss.entries[0].path == (1, 2, 4)
        assert ss.entries[1].path == (1, 3, 4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("v", [1, 3, 4])
    def test_source_equals_target(self, d, v):
        # 3 lies on a zero-cost cycle with 2, and 4 has a zero-cost self-loop.
        edges = ((1, 2, 1), (2, 3, 0), (3, 2, 0), (3, 4, 2), (4, 4, 0), (4, 1, 1))
        g = MosGraph(
            4,
            tuple((u, w, (c,) * d) for u, w, c in edges),
            tuple(Objective(f"c{k}") for k in range(d)),
        )
        q = Query(v, v, 0)
        want = (SolutionEntry((0,) * d, (v,)),)
        assert solve_exact(g, q).entries == want
        assert brute_force_pareto(g, q).entries == want
        sets, records = run_benchmark(g, [q])
        assert [s.entries for s in sets] == [want] * len(records)
        assert {(r.status, r.cardinality) for r in records} == {(STATUS_SOLVED, 1)}

    def test_disconnected_is_empty(self):
        g = line_graph([(1, 1), (1, 1)])
        ss = solve_exact(g, Query(3, 1, 0))
        assert ss.entries == ()

    def test_single_path(self):
        g = line_graph([(2, 3), (4, 1), (1, 1)])
        ss = solve_exact(g, Query(1, 4, 0))
        assert [e.cost for e in ss.entries] == [(7, 5)]
        assert ss.entries[0].path == (1, 2, 3, 4)

    def test_entries_lex_sorted_with_witnesses(self):
        rng = random.Random(75)
        for _ in range(30):
            d = rng.choice((2, 3))
            g = random_graph(rng, rng.randint(2, 9), 0.35, d)
            q = Query(1, g.num_vertices, 0)
            ss = solve_exact(g, q)
            costs = [e.cost for e in ss.entries]
            assert costs == sorted(costs)
            for e in ss.entries:
                assert e.path[0] == q.source and e.path[-1] == q.target
                assert len(set(e.path)) == len(e.path)
                assert path_cost(g, e.path) == e.cost

    def test_matches_brute_force(self):
        rng = random.Random(76)
        for _ in range(60):
            d = rng.choice((2, 3, 4))
            g = random_graph(rng, rng.randint(2, 10), 0.3, d)
            q = Query(rng.randint(1, g.num_vertices), rng.randint(1, g.num_vertices), 0)
            got = [e.cost for e in solve_exact(g, q).entries]
            want = [e.cost for e in brute_force_pareto(g, q).entries]
            assert got == want

    def test_matches_reference_search(self):
        rng = random.Random(77)
        for _ in range(25):
            d = rng.choice((2, 3))
            g = random_graph(rng, rng.randint(2, 12), 0.3, d)
            q = Query(1, g.num_vertices, 0)
            got = [e.cost for e in solve_exact(g, q).entries]
            want = sorted(c for c, _ in reference_label_search(g, q))
            assert got == want

    def test_general_path_agrees_on_two_objectives(self):
        # Costs and witness paths, with a random target that has out-arcs, a
        # self-loop and a zero-cost in-arc; the source may be the target.
        rng = random.Random(78)
        for _ in range(300):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, 0.3, 2, cost_low=0)
            t = rng.randint(1, n)
            extra = (
                (t, t, (rng.randint(0, 3), rng.randint(0, 3))),
                (rng.randint(1, n), t, (0, 0)),
                (t, rng.randint(1, n), (rng.randint(0, 9), rng.randint(0, 9))),
            )
            g = MosGraph(n, g.edges + extra, g.objectives)
            q = Query(rng.randint(1, n), t, 0)
            h = ideal_point_heuristic(g, t)
            assert _search_multi(g, q, h, None) == _search_bi(g, q, h, None)

    def test_parallel_edges(self):
        g = MosGraph(
            2,
            ((1, 2, (100, 101)), (1, 2, (101, 100)), (1, 2, (200, 200))),
            (Objective("a"), Objective("b")),
        )
        ss = solve_exact(g, Query(1, 2, 0))
        assert [e.cost for e in ss.entries] == [(100, 101), (101, 100)]

    def test_large_second_cost_matches_brute_force(self):
        # a second cost of 2^62 is a valid cost, not a 'no label yet' marker
        g = MosGraph(2, ((1, 2, (1, 1 << 62)),), (Objective("a"), Objective("b")))
        q = Query(1, 2, 0)
        want = brute_force_pareto(g, q).entries
        assert want == ((SolutionEntry((1, 1 << 62), (1, 2)),))
        assert solve_exact(g, q).entries == want

    def test_endpoint_validation(self):
        g, _ = diamond_graph()
        with pytest.raises(TargetOutOfRange):
            solve_exact(g, Query(1, 99, 0))
        with pytest.raises(TargetOutOfRange):
            solve_exact(g, Query(0, 4, 0))

    def test_foreign_heuristic_rejected(self):
        g, q = diamond_graph()
        h = ideal_point_heuristic(g, 2)
        with pytest.raises(TargetOutOfRange):
            solve_exact(g, q, h)


    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_multigraphs())
    def test_pop_order_matches_push_then_pop_reference(self, case):
        # Same costs and the same witness paths, tie for tie.
        g, q = case
        got = [(e.cost, e.path) for e in solve_exact(g, q).entries]
        assert got == push_order_search(g, q)


EPS_PARTS = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1))


def generator_eps_front(costs, eps):
    """_eps_front's greedy admission with a per-pair generator over the costs."""
    ratios = eps.ratios()
    kept = []
    for c in costs:
        if not any(
            all(s * den <= num * x for s, x, (num, den) in zip(k, c, ratios))
            for k in reversed(kept)
        ):
            kept.append(c)
    return kept


@st.composite
def pareto_fronts(draw):
    """A lexicographically sorted Pareto front with d 1-4, and an epsilon for it."""
    d = draw(st.integers(1, 4))
    costs = draw(st.lists(st.tuples(*[st.integers(0, 40)] * d), max_size=40))
    eps = Epsilon(tuple(draw(st.sampled_from(EPS_PARTS)) for _ in range(d)))
    return pareto_filter(costs), eps


class TestApproxSearch:
    @settings(max_examples=300, deadline=None)
    @given(pareto_fronts())
    def test_eps_front_matches_generator_greedy(self, case):
        front, eps = case
        d = eps.d
        entries = tuple(SolutionEntry(c, (1, 2 + i)) for i, c in enumerate(front))
        got = _eps_front(SolutionSet(Query(1, 2, 0), Epsilon.zero(d), entries), eps)
        assert got.epsilon == eps
        assert [e.cost for e in got.entries] == generator_eps_front(front, eps)
        assert set(got.entries) <= set(entries)

    def test_solve_approx_is_eps_front_of_solve_exact(self):
        rng = random.Random(83)
        for _ in range(20):
            d = rng.choice((2, 3, 4))
            g = random_graph(rng, rng.randint(3, 10), 0.4, d)
            q = Query(1, g.num_vertices, 0)
            for value in EPS_PARTS:
                eps = Epsilon.broadcast(value, d)
                assert solve_approx(g, q, eps) == _eps_front(solve_exact(g, q), eps)

    def test_zero_eps_identical_to_exact(self):
        rng = random.Random(80)
        for _ in range(20):
            d = rng.choice((2, 3))
            g = random_graph(rng, rng.randint(2, 10), 0.3, d)
            q = Query(1, g.num_vertices, 0)
            exact = solve_exact(g, q)
            approx = solve_approx(g, q, Epsilon.zero(d))
            assert approx.entries == exact.entries

    def test_collapse_of_mutually_close_pair(self):
        g = MosGraph(
            2,
            ((1, 2, (100, 101)), (1, 2, (101, 100))),
            (Objective("a"), Objective("b")),
        )
        q = Query(1, 2, 0)
        assert len(solve_exact(g, q).entries) == 2
        near = solve_approx(g, q, Epsilon.broadcast(Fraction(1, 20), 2))
        assert [e.cost for e in near.entries] == [(100, 101)]

    def test_coverage_and_cardinality_bound(self):
        rng = random.Random(81)
        grid = [Fraction(1, 100), Fraction(1, 20), Fraction(1, 10), Fraction(1, 2)]
        for _ in range(40):
            d = rng.choice((2, 3))
            g = random_graph(rng, rng.randint(2, 10), 0.35, d)
            q = Query(1, g.num_vertices, 0)
            exact = solve_exact(g, q)
            for value in grid:
                eps = Epsilon.broadcast(value, d)
                approx = solve_approx(g, q, eps)
                assert len(approx.entries) <= len(exact.entries)
                approx_costs = [e.cost for e in approx.entries]
                exact_costs = {e.cost for e in exact.entries}
                assert set(approx_costs) <= exact_costs
                for c in exact_costs:
                    assert any(eps_covers(p, c, eps) for p in approx_costs)
                for e in approx.entries:
                    assert path_cost(g, e.path) == e.cost

    def test_cardinality_monotone_on_fixed_seeds(self):
        rng = random.Random(82)
        ladder = [
            Fraction(0),
            Fraction(1, 100),
            Fraction(1, 20),
            Fraction(1, 10),
            Fraction(1, 4),
            Fraction(1, 2),
        ]
        for _ in range(20):
            d = rng.choice((2, 3, 4))
            g = random_graph(rng, rng.randint(3, 10), 0.4, d)
            q = Query(1, g.num_vertices, 0)
            sizes = [
                len(solve_approx(g, q, Epsilon.broadcast(v, d)).entries)
                for v in ladder
            ]
            assert sizes == sorted(sizes, reverse=True)

    def test_vector_eps(self):
        g = MosGraph(
            2,
            ((1, 2, (100, 101)), (1, 2, (101, 100))),
            (Objective("a"), Objective("b")),
        )
        q = Query(1, 2, 0)
        only_first = Epsilon((Fraction(1, 20), Fraction(0)))
        ss = solve_approx(g, q, only_first)
        # (100,101) cannot cover (101,100): axis 2 is exact
        assert len(ss.entries) == 2

    def test_eps_dimension_checked(self):
        g, q = diamond_graph()
        with pytest.raises(DimensionMismatch):
            solve_approx(g, q, Epsilon.zero(3))


class TestTimeout:
    def test_bi_objective_timeout(self):
        g, q = generate_grid(GridSpec(k=40, m=40, d=2, seed=5))
        with pytest.raises(SearchTimeout):
            solve_exact(g, q, time_limit_ms=0.01)

    def test_multi_objective_timeout(self):
        g, q = generate_grid(GridSpec(k=25, m=25, d=3, seed=6))
        with pytest.raises(SearchTimeout):
            solve_exact(g, q, time_limit_ms=0.01)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tiny_limit_stops_a_short_search(self, d):
        # Fewer than 1024 pops: the clock is read only when the search ends.
        g, q = generate_grid(GridSpec(k=10, m=10, d=d, seed=7))
        assert solve_exact(g, q).entries
        with pytest.raises(SearchTimeout):
            solve_exact(g, q, time_limit_ms=0.001)

    def test_tiny_limit_stops_a_one_vertex_query(self):
        g, _ = diamond_graph()
        q = Query(3, 3, 0)
        assert solve_exact(g, q).cardinality == 1
        with pytest.raises(SearchTimeout):
            solve_exact(g, q, time_limit_ms=1e-6)

    def test_no_limit_completes(self):
        g, q = generate_grid(GridSpec(k=12, m=12, d=2, seed=7))
        ss = solve_exact(g, q)
        assert len(ss.entries) >= 1
        assert solve_exact(g, q, time_limit_ms=math.inf).entries == ss.entries

    @pytest.mark.parametrize("limit", [math.nan, 0, -1.0, -math.inf])
    def test_limit_must_be_positive(self, limit):
        g, q = diamond_graph()
        with pytest.raises(ValueError, match="time_limit_ms must be a positive"):
            solve_exact(g, q, time_limit_ms=limit)
        with pytest.raises(ValueError, match="timeout_ms must be a positive"):
            run_benchmark(g, [q], timeout_ms=limit)


class TestBruteForce:
    def test_explosion_guard(self):
        rng = random.Random(83)
        g = random_graph(rng, 8, 1.0, 2)
        with pytest.raises(InstanceTooLarge):
            brute_force_pareto(g, Query(1, 8, 0), max_paths=100)

    def test_front_is_mutually_nondominated(self):
        from mosbench.core import dominates

        rng = random.Random(84)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.4, 2)
            entries = brute_force_pareto(g, Query(1, g.num_vertices, 0)).entries
            costs = [e.cost for e in entries]
            for a in costs:
                for b in costs:
                    assert not dominates(a, b)

    def test_witnesses_are_feasible_simple_paths(self):
        rng = random.Random(85)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.4, 3)
            q = Query(1, g.num_vertices, 0)
            for e in brute_force_pareto(g, q).entries:
                assert e.path[0] == q.source and e.path[-1] == q.target
                assert len(set(e.path)) == len(e.path)
                assert path_cost(g, e.path) == e.cost
