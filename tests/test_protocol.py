"""Protocol: benchmark runs, verification, descriptive statistics, CSV."""
from __future__ import annotations

import importlib.util
import random
import signal
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosbench.convert import parse_dimacs
from mosbench.core import (
    Epsilon,
    MosGraph,
    Objective,
    Query,
    SolutionEntry,
    SolutionSet,
    _path_costs,
    dominates,
    pareto_filter,
    path_cost,
)
from mosbench.errors import (
    AllExcluded,
    DimensionMismatch,
    Malformed,
    MissingBaseline,
    NonEdge,
    NoRecords,
    QueryMismatch,
)
from mosbench.formats import read_graph, read_solutions, write_graph, write_solutions
from mosbench.generate import GridSpec, NetMakerSpec, generate_grid, generate_netmaker
from mosbench.protocol import (
    SOLVER_ID,
    STATUS_EMPTY,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    BenchmarkRecord,
    EpsilonGrid,
    cardinality_csv,
    cardinality_stats,
    correlation_csv,
    read_records,
    records_to_csv,
    reduction_csv,
    reduction_stats,
    run_benchmark,
    spread_csv,
    spread_stats,
    verify_coverage,
    verify_solutions,
)
from mosbench.solve import _eps_front, solve_approx, solve_exact

from conftest import diamond_graph, random_graph, twin_arc_chain
from oracles import arc_choice_sums, eps_covers
from test_acceptance import _desk_instances
from test_core import reference_path_cost


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block after `seconds`, instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def multigraph_paths(draw, dims=(2, 3)):
    """A small multigraph and a walk in it.

    d is drawn from dims.  Every hop has 1-3 parallel arcs; other arcs leave
    the same tails toward other heads.  Costs may be zero, and hops and
    vertices may repeat.
    """
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 4))
    vertex = st.integers(1, n)
    cost = st.tuples(*[st.integers(0, 3)] * d)
    path = draw(st.lists(vertex, min_size=1, max_size=9))
    hops = sorted(set(zip(path, path[1:])))
    edges = [(u, v, c) for u, v in hops for c in draw(st.lists(cost, min_size=1, max_size=3))]
    extra = draw(st.lists(st.tuples(vertex, vertex, cost), max_size=4))
    edges += [(u, v, c) for u, v, c in extra if (u, v) not in hops]
    edges = draw(st.permutations(edges))
    return MosGraph(n, tuple(edges), tuple(Objective(f"c{k + 1}") for k in range(d))), path


class TestEpsilonGrid:
    def test_default_values(self):
        assert EpsilonGrid().values == (
            Fraction(0),
            Fraction(1, 100),
            Fraction(1, 20),
            Fraction(1, 10),
        )

    def test_broadcast(self):
        eps = EpsilonGrid((Fraction(0), Fraction(1, 2))).epsilons(3)
        assert eps[1].values == (Fraction(1, 2),) * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonGrid(())
        with pytest.raises(ValueError):
            EpsilonGrid((Fraction(1, 10), Fraction(1, 10)))
        with pytest.raises(ValueError):
            EpsilonGrid((Fraction(-1, 10),))


class TestRunBenchmark:
    def test_task_order_query_major(self):
        g, q = diamond_graph()
        queries = [q, Query(1, 2, 1)]
        sets, records = run_benchmark(g, queries, benchmark_name="toy")
        assert len(records) == 8
        assert [r.query_index for r in records] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [r.epsilon for r in records[:4]] == ["0", "0.01", "0.05", "0.1"]
        assert len(sets) == 8
        assert all(r.solver == SOLVER_ID for r in records)
        assert all(r.benchmark == "toy" for r in records)
        assert all(r.ms >= 0 for r in records)

    def test_exact_baseline_cardinality(self):
        g, q = diamond_graph()
        sets, records = run_benchmark(g, [q])
        assert records[0].epsilon == "0"
        assert records[0].cardinality == 2
        assert records[0].status == STATUS_SOLVED
        assert sets[0].entries == solve_exact(g, q).entries

    def test_empty_status(self):
        g, _ = diamond_graph()
        sets, records = run_benchmark(g, [Query(2, 3, 0)])
        assert all(r.status == STATUS_EMPTY for r in records)
        assert all(r.cardinality == 0 for r in records)
        assert all(ss.entries == () for ss in sets)

    def test_timeout_records_without_sets(self):
        g, q = generate_grid(GridSpec(k=40, m=40, d=2, seed=3))
        sets, records = run_benchmark(g, [q], timeout_ms=0.01)
        assert sets == []
        assert len(records) == 4
        assert all(r.status == STATUS_TIMEOUT for r in records)
        assert all(r.cardinality == 0 for r in records)

    def test_tiny_timeout_times_out_every_epsilon(self):
        # Searches this short end before their first in-loop clock check.
        g, q = diamond_graph()
        sets, records = run_benchmark(g, [q, Query(3, 3, 1)], timeout_ms=1e-6)
        assert sets == []
        assert [(r.query_index, r.status) for r in records] == [
            (i, STATUS_TIMEOUT) for i in (0, 1) for _ in EpsilonGrid().values
        ]

    def test_explicit_epsilon_sequence(self):
        g, q = diamond_graph()
        eps = [Epsilon.zero(2), Epsilon((Fraction(1, 10), Fraction(0)))]
        _, records = run_benchmark(g, [q], eps)
        assert [r.epsilon for r in records] == ["0", "0.1,0"]

    @pytest.mark.parametrize(
        "eps_list,error,message",
        [
            # 0.1 and 0.1,0.1 are one epsilon: two identical fronts and
            # records would count one query twice.
            (
                [Epsilon.broadcast("0.1", 2), Epsilon.zero(2), Epsilon((Fraction(1, 10),) * 2)],
                ValueError,
                "epsilon 0.1 is listed twice",
            ),
            ([Epsilon.zero(2), Epsilon.zero(3)], DimensionMismatch, "epsilon has 3 components"),
        ],
    )
    def test_epsilon_list_checked_before_any_work(self, eps_list, error, message):
        g, q = diamond_graph()
        seen = []
        with pytest.raises(error, match=message):
            run_benchmark(g, [q], eps_list, progress=seen.append)
        assert seen == []

    def test_family_name_fallback(self):
        g, q = generate_grid(GridSpec(k=3, m=3, seed=1))
        _, records = run_benchmark(g, [q])
        assert records[0].benchmark == "grid"

    def test_progress_callback(self):
        g, q = diamond_graph()
        seen = []
        _, records = run_benchmark(g, [q], progress=seen.append)
        assert seen == records

    def test_one_search_per_query(self, monkeypatch):
        import mosbench.solve

        search = mosbench.solve._search_bi
        calls = []

        def counted(*args):
            calls.append(args[1])
            return search(*args)

        monkeypatch.setattr(mosbench.solve, "_search_bi", counted)
        g, q = generate_grid(GridSpec(k=6, m=6, d=2, seed=9))
        sets, records = run_benchmark(g, [q])
        assert calls == [q]
        eps_list = EpsilonGrid().epsilons(2)
        assert [ss.epsilon for ss in sets] == eps_list
        for ss, eps in zip(sets, eps_list):
            assert ss.entries == solve_approx(g, q, eps).entries
        assert [r.cardinality for r in records] == [ss.cardinality for ss in sets]

    @pytest.mark.parametrize("timeout_ms", [None, 1e-6])
    def test_repeated_endpoints_search_once(self, monkeypatch, timeout_ms):
        import mosbench.protocol

        search = mosbench.protocol.solve_exact
        calls = []

        def counted(graph, query, *args, **kwargs):
            calls.append((query.source, query.target))
            return search(graph, query, *args, **kwargs)

        g, q = diamond_graph()
        queries = [q, Query(1, 2, 1), Query(1, 4, 2), Query(3, 4, 3), Query(1, 2, 4)]
        separate = [run_benchmark(g, [x], timeout_ms=timeout_ms) for x in queries]
        monkeypatch.setattr(mosbench.protocol, "solve_exact", counted)
        sets, records = run_benchmark(g, queries, timeout_ms=timeout_ms)
        assert calls == [(1, 4), (1, 2), (3, 4)]
        # Each repeat's sets carry its own Query, so they equal a lone run's.
        assert sets == [ss for s, _ in separate for ss in s]
        assert [replace(r, ms=0.0) for r in records] == [
            replace(r, ms=0.0) for _, rs in separate for r in rs
        ]
        if timeout_ms is not None:  # a repeat's timeout rows keep the first search's ms
            assert [r.ms for r in records[8:12]] == [r.ms for r in records[:4]]


@st.composite
def unsorted_cost_sets(draw):
    """d in 1..4 and a list of costs in any order, with duplicates and ties."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=12))
    return d, draw(st.lists(st.sampled_from(pool), max_size=30))


def pairwise_set_violations(costs):
    """verify_solutions's set-level checks, written as a pairwise loop in entry order."""
    out, seen = [], {}
    for i, c in enumerate(costs):
        if c in seen:
            out.append(f"Duplicate: entry {i} repeats the cost of entry {seen[c]}")
        else:
            seen[c] = i
    for i, ci in enumerate(costs):
        for j, cj in enumerate(costs):
            if i != j and dominates(cj, ci):
                out.append(f"DominanceViolation: entry {i} is dominated by entry {j}")
                break
    return out


def witness_violations(graph, query, solset):
    """verify_solutions's witness checks as a loop of their own: the reference.

    reference_path_cost sums each hop's cheapest arc or names the witness's
    error.  A stored cost other than that sum passes when some choice of
    arcs sums to it (arc_choice_sums).
    """
    out = []
    for i, entry in enumerate(solset.entries):
        p = entry.path
        if p is None:
            continue
        if p and p[0] != query.source:
            out.append(f"PathStart: entry {i} starts at {p[0]}, query source is {query.source}")
            continue
        if p and p[-1] != query.target:
            out.append(f"PathEnd: entry {i} ends at {p[-1]}, query target is {query.target}")
            continue
        try:
            rc = reference_path_cost(graph, p)
        except NonEdge as exc:
            out.append(f"PathBroken: entry {i}: {exc}")
            continue
        if rc != entry.cost and entry.cost not in arc_choice_sums(graph, p):
            out.append(f"CostMismatch: entry {i} stores {entry.cost}, path recomputes to {rc}")
    return out


@st.composite
def tampered_fronts(draw):
    """A solver's exact front on a small multigraph (d in 1..4), tampered.

    Each tampering picks an entry and moves one cost component by +-1,
    replaces one path vertex (if any) by any of 0..n+1, cuts the path to its
    first vertex, empties it, or duplicates the entry; the entries are then
    shuffled.
    """
    g, path = draw(multigraph_paths(dims=(1, 2, 3, 4)))
    q = Query(path[0], path[-1], 0)
    entries = list(solve_exact(g, q).entries)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(entries) - 1))
        cost, p = entries[i].cost, entries[i].path
        kind = draw(st.sampled_from(("cost", "vertex", "cut", "empty", "duplicate")))
        if kind == "cost":
            k = draw(st.integers(0, g.d - 1))
            cost = cost[:k] + (cost[k] + draw(st.sampled_from((-1, 1))),) + cost[k + 1 :]
        elif kind == "vertex" and p:
            j = draw(st.integers(0, len(p) - 1))
            p = p[:j] + (draw(st.integers(0, g.num_vertices + 1)),) + p[j + 1 :]
        elif kind == "cut":
            p = p[:1]
        elif kind == "empty":
            p = ()
        elif kind == "duplicate":
            entries.append(entries[i])
        entries[i] = SolutionEntry(cost, p)
    entries = draw(st.permutations(entries))
    return g, SolutionSet(q, Epsilon.zero(g.d), tuple(entries))


class TestVerifySolutions:
    def test_solver_output_is_clean(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 10), 0.35, rng.choice((2, 3)))
            q = Query(1, g.num_vertices, 0)
            report = verify_solutions(g, q, solve_exact(g, q))
            assert report.clean, report.violations

    def graph_and_set(self):
        g, q = diamond_graph()
        return g, q, solve_exact(g, q)

    def test_duplicate_detected(self):
        g, q, ss = self.graph_and_set()
        bad = SolutionSet(q, ss.epsilon, ss.entries + (ss.entries[0],))
        report = verify_solutions(g, q, bad)
        assert any(v.startswith("Duplicate") for v in report.violations)

    def test_dominated_entry_detected(self):
        g, q, ss = self.graph_and_set()
        bad = SolutionSet(
            q, ss.epsilon, ss.entries + (SolutionEntry((5, 5), (1, 4)),)
        )
        report = verify_solutions(g, q, bad)
        assert any(v.startswith("DominanceViolation") for v in report.violations)

    def test_path_endpoint_checks(self):
        g, q, ss = self.graph_and_set()
        wrong_start = SolutionSet(
            q, ss.epsilon, (SolutionEntry((1, 4), (2, 4)),)
        )
        assert any(
            v.startswith("PathStart")
            for v in verify_solutions(g, q, wrong_start).violations
        )
        wrong_end = SolutionSet(
            q, ss.epsilon, (SolutionEntry((1, 4), (1, 2)),)
        )
        assert any(
            v.startswith("PathEnd")
            for v in verify_solutions(g, q, wrong_end).violations
        )

    def test_broken_path_detected(self):
        g, q, ss = self.graph_and_set()
        bad = SolutionSet(q, ss.epsilon, (SolutionEntry((1, 4), (1, 4, 4)),))
        # 1 -> 4 exists, 4 -> 4 does not
        report = verify_solutions(g, q, bad)
        assert any(v.startswith("PathBroken") for v in report.violations)

    def test_cost_mismatch_detected(self):
        g, q, ss = self.graph_and_set()
        bad = SolutionSet(q, ss.epsilon, (SolutionEntry((1, 3), (1, 2, 4)),))
        report = verify_solutions(g, q, bad)
        assert any(v.startswith("CostMismatch") for v in report.violations)

    def test_parallel_edge_cost_choice_accepted(self):
        g = MosGraph(
            2,
            ((1, 2, (100, 101)), (1, 2, (101, 100))),
            (Objective("a"), Objective("b")),
        )
        q = Query(1, 2, 0)
        ss = SolutionSet(
            q,
            Epsilon.zero(2),
            (SolutionEntry((100, 101), (1, 2)), SolutionEntry((101, 100), (1, 2))),
        )
        assert verify_solutions(g, q, ss).clean

    def test_long_parallel_arc_path_verifies(self):
        # 1,500 hops used to exceed the recursion limit of a per-hop DFS.
        hops = 1500
        g = twin_arc_chain(hops)
        q = Query(1, hops + 1, 0)
        # (2, 1) on the first 10 hops, the lexicographic minimum (1, 2) after.
        cost = (hops + 10, 2 * hops - 10)
        ss = SolutionSet(q, Epsilon.zero(2), (SolutionEntry(cost, tuple(range(1, hops + 2))),))
        assert verify_solutions(g, q, ss).clean

    def test_unreachable_cost_on_many_parallel_hops_is_reported(self):
        # Every choice of arcs sums to (40 + j, 80 - j): the components add up
        # to 120, never to 121.  A DFS over the choices tries up to 2^40 of them.
        hops = 40
        g = twin_arc_chain(hops)
        q = Query(1, hops + 1, 0)
        ss = SolutionSet(q, Epsilon.zero(2), (SolutionEntry((61, 60), tuple(range(1, hops + 2))),))
        with deadline(10):
            report = verify_solutions(g, q, ss)
        assert [v.split(":")[0] for v in report.violations] == ["CostMismatch"]

    @settings(max_examples=300, deadline=None)
    @given(unsorted_cost_sets())
    def test_set_checks_match_pairwise_reference(self, case):
        d, costs = case
        g = MosGraph(1, (), tuple(Objective(f"c{k + 1}") for k in range(d)))
        q = Query(1, 1, 0)
        ss = SolutionSet(q, Epsilon.zero(d), tuple(SolutionEntry(c) for c in costs))
        assert verify_solutions(g, q, ss).violations == pairwise_set_violations(costs)

    @settings(max_examples=300, deadline=None)
    @given(tampered_fronts())
    def test_tampered_fronts_match_reference_loop(self, case):
        g, ss = case
        want = pairwise_set_violations(ss.costs()) + witness_violations(g, ss.query, ss)
        assert verify_solutions(g, ss.query, ss).violations == want

    def test_empty_path_is_reported_as_broken(self):
        g, q = diamond_graph()
        ss = SolutionSet(q, Epsilon.zero(2), (SolutionEntry((2, 2), ()),))
        assert verify_solutions(g, q, ss).violations == ["PathBroken: entry 0: empty path"]

    def test_cost_with_wrong_dimension_raises(self):
        # the path costs (1, 4); a third cost component must not be ignored
        g, q = diamond_graph()
        ss = SolutionSet(q, Epsilon.zero(3), (SolutionEntry((1, 4, 999), (1, 2, 4)),))
        with pytest.raises(DimensionMismatch):
            verify_solutions(g, q, ss)

    @staticmethod
    def check_path_costs(case, data):
        # Several costs per path, as verify passes a path's stored costs:
        # some reachable sums, some other costs, and the path's own cost.
        g, path = case
        sums = arc_choice_sums(g, path)
        base = path_cost(g, path)
        reachable = data.draw(st.lists(st.sampled_from(sorted(sums)), min_size=1, max_size=4))
        top = 3 * (len(path) - 1) + 1
        other = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * g.d), max_size=4))
        costs = set(reachable + other + [base])
        assert _path_costs(g, path, costs, base) == costs & sums

    @settings(max_examples=300, deadline=None)
    @given(multigraph_paths(), st.data())
    def test_path_costs_match_brute_force(self, case, data):
        self.check_path_costs(case, data)

    @settings(max_examples=300, deadline=None)
    @given(multigraph_paths(dims=(1, 4)), st.data())
    def test_path_costs_generic_walk_matches_brute_force(self, case, data):
        # d=2 has its own pair walk; d=1 and d=4 take the tuple walk.
        self.check_path_costs(case, data)

    @pytest.mark.parametrize("order", ["decreasing", "increasing"])
    def test_path_costs_stay_linear_on_power_of_two_bypasses(self, order):
        # Each hop has a direct arc and a bypass dearer by a distinct power
        # of two in the first objective and as much cheaper in the second,
        # so the 2^20 arc choices give 2^20 distinct sums.  Each stored cost
        # is walked on its own, the hops with the largest deltas first, and
        # the suffix bounds leave at most one remainder per hop.  A walk
        # over every partial sum inside the box the stored costs span, or
        # a walk that takes the increasing deltas in path order, would hold
        # up to all 2^20 of them.
        hops = 20
        edges = []
        for k in range(hops):
            delta = 1 << (hops - 1 - k if order == "decreasing" else k)
            edges += [(k + 1, k + 2, (1, 1 + delta)), (k + 1, k + 2, (1 + delta, 1))]
        g = MosGraph(hops + 1, tuple(edges), (Objective("a"), Objective("b")))
        path = tuple(range(1, hops + 2))
        top = (1 << hops) - 1
        direct, bypass = (hops, hops + top), (hops + top, hops)
        unreachable = (hops + (1 << (hops - 1)), hops + (1 << (hops - 1)))
        base = path_cost(g, path)
        assert base == direct
        g._parallel_arcs  # the graph's table, built before tracing starts
        with deadline(2):
            tracemalloc.start()
            try:
                got = _path_costs(g, path, {direct, bypass, unreachable}, base)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert got == {direct, bypass}
        assert peak < 1 << 20, peak

    def test_mixed_block_reports_in_entry_order(self):
        # A twin-arc chain 1 -> 5 with shortcuts: every choice along
        # (1, 2, 3, 4, 5) costs (4 + j, 8 - j).  Five entries share that
        # path, reachable and not, among entries on other paths and entries
        # that fail their endpoint or arc checks.
        chain = twin_arc_chain(4).edges
        shortcuts = ((1, 3, (3, 3)), (3, 5, (2, 2)), (1, 5, (9, 9)))
        g = MosGraph(5, chain + shortcuts, (Objective("a"), Objective("b")))
        q = Query(1, 5, 0)
        long = (1, 2, 3, 4, 5)
        entries = (
            SolutionEntry((5, 7), long),
            SolutionEntry((9, 9), (1, 5)),
            SolutionEntry((5, 8), long),
            SolutionEntry((3, 3), (2, 3, 5)),
            SolutionEntry((6, 6), long),
            SolutionEntry((4, 4), (1, 3, 4)),
            SolutionEntry((7, 7), (1, 4, 5)),
            SolutionEntry((9, 4), long),
            SolutionEntry((5, 5), (1, 3, 5)),
            SolutionEntry((6, 5), (1, 3, 5)),
            SolutionEntry((4, 8), long),
        )
        ss = SolutionSet(q, Epsilon.zero(2), entries)
        want = pairwise_set_violations(ss.costs()) + witness_violations(g, q, ss)
        kinds = [v.split(":")[0] for v in witness_violations(g, q, ss)]
        assert kinds == [
            "CostMismatch", "PathStart", "PathEnd", "PathBroken", "CostMismatch", "CostMismatch"
        ]
        assert verify_solutions(g, q, ss).violations == want
        # Again on the same graph: verify keeps nothing between calls.
        assert verify_solutions(g, q, ss).violations == want

    def test_pathless_entries_get_set_level_checks_only(self):
        g, q, ss = self.graph_and_set()
        stripped = SolutionSet(
            q, ss.epsilon, tuple(SolutionEntry(e.cost, None) for e in ss.entries)
        )
        assert verify_solutions(g, q, stripped).clean


def perfbench_workloads():
    """perfbench/workloads.py, which builds the road workload's DIMACS pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workload_sols(tmp_path_factory):
    """Small .gr/.sol files as the two perfbench workloads write them.

    name -> (graph file, the .sol's blocks read back in file order):
    a 12x12 d=2 grid on the default epsilon grid, a road-like multigraph
    with 15% bypass arcs at epsilon 0 (the road workload), and the same
    road queries on the default grid, where the epsilon blocks repeat
    witnesses whose stored cost uses a bypass arc.
    """
    work = tmp_path_factory.mktemp("workloads")
    wl = perfbench_workloads()
    dist, time = work / "road.dist.gr", work / "road.time.gr"
    wl.write_road_pair(8, 0.15, 2001, dist, time)
    road = parse_dimacs(dist, time)
    road_queries = [Query(s, t, j) for j, (s, t) in enumerate(wl.road_queries(8, 8, 2001))]
    grid, grid_query = generate_grid(GridSpec(k=12, m=12, d=2, seed=2001))
    cases = {
        "grid": (grid, [grid_query], EpsilonGrid()),
        "road": (road, road_queries, EpsilonGrid((Fraction(0),))),
        "road-multi-eps": (road, road_queries, EpsilonGrid()),
    }
    out = {}
    for name, (graph, queries, grid_eps) in cases.items():
        gr, sol = work / f"{name}.gr", work / f"{name}.sol"
        write_graph(graph, gr)
        sets, records = run_benchmark(graph, queries, grid_eps)
        assert all(r.status == STATUS_SOLVED for r in records)
        write_solutions(sets, sol, objectives=graph.objectives)
        out[name] = (gr, read_solutions(sol, queries))
    return out


TAMPER_KINDS = ("cost", "vertex", "cut", "empty", "reverse", "duplicate")


def tampered_copy(rng, sets, num_vertices):
    """Copies of a .sol's blocks with 1-4 entries tampered, every block shuffled.

    Each tampering picks one entry of one query and a scope: the query's
    exact block only, one epsilon block only, or every block of the query
    that holds the entry.  Every copy in scope gets the same change, so a
    tampered witness repeats across blocks as an untouched one does: a cost
    component moved by +-1, one path vertex replaced by any of 0..n+1, the
    path cut to a proper prefix, emptied or reversed, or the entry
    duplicated in its block.
    """
    blocks = [list(ss.entries) for ss in sets]
    by_query: dict[int, list[int]] = {}
    for b, ss in enumerate(sets):
        by_query.setdefault(ss.query.index, []).append(b)
    for _ in range(rng.randint(1, 4)):
        qblocks = by_query[rng.choice(sorted(by_query))]
        exact, eps_blocks = qblocks[0], qblocks[1:]
        assert sets[exact].epsilon.is_zero
        scope = rng.choice(("exact", "eps", "both"))
        pool = [b for b in (eps_blocks if scope == "eps" else [exact]) if blocks[b]]
        if not pool:
            continue
        b = rng.choice(pool)
        entry = rng.choice(blocks[b])
        holders = [c for c in qblocks if entry in blocks[c]]
        targets = holders if scope == "both" else [b]
        kind = rng.choice(TAMPER_KINDS)
        cost, path = entry.cost, entry.path
        if kind == "cost":
            k = rng.randrange(len(cost))
            cost = cost[:k] + (cost[k] + rng.choice((-1, 1)),) + cost[k + 1 :]
        elif kind == "vertex" and path:
            j = rng.randrange(len(path))
            path = path[:j] + (rng.randint(0, num_vertices + 1),) + path[j + 1 :]
        elif kind == "cut":
            path = path[: rng.randint(1, max(1, len(path) - 1))]
        elif kind == "empty":
            path = ()
        elif kind == "reverse":
            path = path[::-1]
        changed = SolutionEntry(cost, path)
        for c in targets:
            entries = blocks[c]
            i = entries.index(entry)
            if kind == "duplicate":
                entries.insert(i, entry)
            else:
                entries[i] = changed
    for entries in blocks:
        rng.shuffle(entries)
    return [SolutionSet(ss.query, ss.epsilon, tuple(e)) for ss, e in zip(sets, blocks)]


def fresh_graph_reports(gr, blocks):
    """verify_solutions with each block on a freshly read graph."""
    return [verify_solutions(read_graph(gr), ss.query, ss) for ss in blocks]


def one_graph_reports(gr, blocks):
    """verify_solutions as mosbench verify runs it: one graph, blocks in order."""
    graph = read_graph(gr)
    return [verify_solutions(graph, ss.query, ss) for ss in blocks]


def same_reports(got, want):
    assert [r.violations for r in got] == [r.violations for r in want]
    assert [r.clean for r in got] == [r.clean for r in want]


class TestVerifyKeepsNoState:
    """Blocks verified one after another on one graph report what each
    block reports on a freshly read graph: verify keeps no state."""

    @pytest.mark.parametrize("name", ["grid", "road", "road-multi-eps"])
    def test_untouched_files_are_clean(self, workload_sols, name):
        gr, sets = workload_sols[name]
        assert all(r.clean for r in one_graph_reports(gr, sets))

    @pytest.mark.parametrize("name", ["grid", "road", "road-multi-eps"])
    def test_tampered_copies_match_fresh_graph_oracle(self, workload_sols, name):
        gr, sets = workload_sols[name]
        n = read_graph(gr).num_vertices
        rng = random.Random(f"memo-{name}")
        dirty = 0
        for _ in range(40):
            blocks = tampered_copy(rng, sets, n)
            want = fresh_graph_reports(gr, blocks)
            same_reports(one_graph_reports(gr, blocks), want)
            dirty += sum(not r.clean for r in want)
        assert dirty >= 40

    def test_each_distinct_witness_path_is_costed_once_per_block(
        self, workload_sols, monkeypatch
    ):
        import mosbench.protocol

        gr, sets = workload_sols["road-multi-eps"]
        graph = read_graph(gr)
        costed, path_costs = mosbench.protocol.path_cost, mosbench.protocol._path_costs
        costed_paths, walked = [], []

        def counted_path_cost(g, path):
            costed_paths.append(path)
            return costed(g, path)

        def counted_path_costs(g, path, costs, base):
            walked.extend((path, c) for c in costs)
            return path_costs(g, path, costs, base)

        monkeypatch.setattr(mosbench.protocol, "path_cost", counted_path_cost)
        monkeypatch.setattr(mosbench.protocol, "_path_costs", counted_path_costs)
        assert all(verify_solutions(graph, ss.query, ss).clean for ss in sets)
        # Each block costs each distinct path among its witnesses once: far
        # fewer calls than entries.
        want_paths = [p for ss in sets for p in sorted({e.path for e in ss.entries})]
        assert sorted(costed_paths) == sorted(want_paths)
        assert len(costed_paths) < sum(ss.cardinality for ss in sets)
        # One walk per distinct witness of a block whose stored cost is off
        # its path's cheapest sum; the epsilon blocks walk their copies again.
        bypass = [
            (e.path, e.cost)
            for ss in sets
            for e in set(ss.entries)
            if path_cost(graph, e.path) != e.cost
        ]
        assert sorted(walked) == sorted(bypass)
        eps_entries = {e for ss in sets if not ss.epsilon.is_zero for e in ss.entries}
        assert any(path_cost(graph, e.path) != e.cost for e in eps_entries)

    def test_verify_leaves_the_graph_as_it_found_it(self, workload_sols):
        gr, sets = workload_sols["road-multi-eps"]
        graph = read_graph(gr)
        graph._min_edge_cost, graph._parallel_arcs, graph._columns
        held = set(vars(graph))
        for ss in sets:
            verify_solutions(graph, ss.query, ss)
        assert set(vars(graph)) == held

    def test_interleaved_queries_match_fresh_graph_oracle(self, workload_sols):
        gr, sets = workload_sols["road-multi-eps"]
        n = read_graph(gr).num_vertices
        rng = random.Random("memo-interleaved")
        for _ in range(20):
            blocks = tampered_copy(rng, sets, n)
            q0, q1 = rng.sample(sorted({ss.query.index for ss in blocks}), 2)
            first = [ss for ss in blocks if ss.query.index == q0]
            second = [ss for ss in blocks if ss.query.index == q1]
            order = [ss for pair in zip(first, second) for ss in pair] + first
            same_reports(one_graph_reports(gr, order), fresh_graph_reports(gr, order))

    def test_same_index_with_other_endpoints_is_another_query(self):
        # Query 0 of one file and query 0 of another share an index only.
        g, q = diamond_graph()
        ss = solve_exact(g, q)
        assert verify_solutions(g, q, ss).clean
        other = Query(2, 4, 0)
        moved = SolutionSet(other, ss.epsilon, ss.entries)
        assert verify_solutions(g, other, moved).violations == [
            "PathStart: entry 0 starts at 1, query source is 2",
            "PathStart: entry 1 starts at 1, query source is 2",
        ]


class TestVerifyCoverage:
    def as_set(self, q, costs, eps):
        return SolutionSet(q, eps, tuple(SolutionEntry(c, None) for c in costs))

    def test_identity_always_covers(self):
        g, q = diamond_graph()
        exact = solve_exact(g, q)
        for value in (Fraction(0), Fraction(1, 100), Fraction(1, 2)):
            eps = Epsilon.broadcast(value, 2)
            ok, uncovered = verify_coverage(exact, exact, eps)
            assert ok and uncovered == []

    def test_boundary_coverage(self):
        q = Query(1, 9, 0)
        eps10 = Epsilon.broadcast(Fraction(1, 10), 2)
        eps5 = Epsilon.broadcast(Fraction(1, 20), 2)
        exact = self.as_set(q, [(100, 110), (110, 100)], Epsilon.zero(2))
        approx = self.as_set(q, [(100, 110)], eps10)
        ok, uncovered = verify_coverage(exact, approx, eps10)
        assert ok
        ok, uncovered = verify_coverage(exact, approx, eps5)
        assert not ok
        assert uncovered == [(110, 100)]

    def test_empty_exact_is_vacuous(self):
        q = Query(1, 2, 0)
        eps = Epsilon.broadcast(Fraction(1, 10), 2)
        ok, uncovered = verify_coverage(
            self.as_set(q, [], Epsilon.zero(2)), self.as_set(q, [], eps), eps
        )
        assert ok and uncovered == []

    def test_query_mismatch(self):
        eps = Epsilon.zero(2)
        a = self.as_set(Query(1, 2, 0), [], eps)
        b = self.as_set(Query(1, 3, 0), [], eps)
        with pytest.raises(QueryMismatch):
            verify_coverage(a, b, eps)

    def test_solver_coverage_end_to_end(self):
        rng = random.Random(32)
        eps = Epsilon.broadcast(Fraction(1, 10), 2)
        from mosbench.solve import solve_approx

        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 10), 0.4, 2)
            q = Query(1, g.num_vertices, 0)
            exact = solve_exact(g, q)
            approx = solve_approx(g, q, eps)
            ok, uncovered = verify_coverage(exact, approx, eps)
            assert ok, uncovered


def pairwise_uncovered(exact, approx, eps):
    """The exact costs that no approximate cost covers, one eps_covers per pair."""
    return [c for c in exact.costs() if not any(eps_covers(a, c, eps) for a in approx.costs())]


EPS_PARTS = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1))


@st.composite
def coverage_cases(draw):
    """(exact costs, approx costs, eps): small costs force ties after scaling.

    The exact list may repeat costs; the approx list mixes exact costs, free
    ones that need not be exact costs, and (1 + eps) * c for exact costs c
    where that is integral, which equal c's bound without covering it.  It
    may be empty.
    """
    d = draw(st.integers(1, 5))
    cost = st.tuples(*[st.integers(0, 6)] * d)
    eps = Epsilon(tuple(draw(st.sampled_from(EPS_PARTS)) for _ in range(d)))
    exact = draw(st.lists(cost, max_size=12))
    approx = draw(st.lists(cost, max_size=4))
    if exact:
        exact += draw(st.lists(st.sampled_from(exact), max_size=3))
        approx += draw(st.lists(st.sampled_from(exact), max_size=6))
        for c in draw(st.lists(st.sampled_from(exact), max_size=3)):
            bound = [(1 + e) * x for e, x in zip(eps.values, c)]
            if all(b.denominator == 1 for b in bound):
                approx.append(tuple(map(int, bound)))
    return draw(st.permutations(exact)), draw(st.permutations(approx)), eps


class TestCoverageSweep:
    q = Query(1, 2, 0)

    def as_set(self, costs, eps):
        return SolutionSet(self.q, eps, tuple(SolutionEntry(c, None) for c in costs))

    def check(self, exact_costs, approx_costs, eps):
        exact = self.as_set(exact_costs, Epsilon.zero(eps.d))
        approx = self.as_set(approx_costs, eps)
        want = pairwise_uncovered(exact, approx, eps)
        assert verify_coverage(exact, approx, eps) == (not want, want)
        return want

    @settings(max_examples=400, deadline=None)
    @given(coverage_cases())
    def test_matches_pairwise_rule(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "exact,approx,value,uncovered",
        [
            # Scaled, (2, 2) equals (1, 1) * 2: covering needs strictness.
            ([(1, 1)], [(2, 2)], Fraction(1), [(1, 1)]),
            ([(1, 1, 1)], [(2, 2, 2)], Fraction(1), [(1, 1, 1)]),
            # (6, 10) ties (3, 5)'s bound; (2, 10) shares its second
            # component and covers.
            ([(3, 5)], [(6, 10), (2, 10)], Fraction(1), []),
            # Equal costs cover at eps 0, where no cost dominates itself.
            ([(3, 4)], [(3, 4)], Fraction(0), []),
            ([(3, 4), (1, 1), (3, 4)], [], Fraction(1, 10), [(3, 4), (1, 1), (3, 4)]),
            ([(5, 5), (5, 5), (6, 1)], [(4, 5), (9, 9)], Fraction(0), [(6, 1)]),
            ([(2, 4, 2), (4, 2, 2)], [(3, 3, 3)], Fraction(1, 10), [(2, 4, 2), (4, 2, 2)]),
            ([(2, 4, 2), (4, 2, 2)], [(3, 3, 3)], Fraction(1, 2), []),
            ([(2, 4, 2), (4, 2, 2)], [(3, 3, 3)], Fraction(1), []),
            # d=1: (6,) ties (5,)'s bound and covers only (10,).
            ([(5,), (10,)], [(6,)], Fraction(1, 5), [(5,)]),
            ([(1, 2, 3, 4, 5), (1, 1, 1, 1, 1)], [(1, 2, 3, 4, 6), (2, 1, 1, 1, 1)],
             Fraction(1, 4), [(1, 1, 1, 1, 1)]),
        ],
    )
    def test_named_cases(self, exact, approx, value, uncovered):
        eps = Epsilon.broadcast(value, len(exact[0]))
        assert self.check(exact, approx, eps) == uncovered

    def test_real_fronts_missing_their_widest_cover(self):
        # On each reference query at eps 0.1, drop the approximate entry that
        # covers the most exact costs: the suffix-store sweep, at d=2 and at
        # grid-8x8-d3, grid-6x6-d4 and panda-many (d=8), must name the same
        # uncovered costs as the pairwise rule, in entry order.
        widths = set()
        missed = 0
        for name, graph, queries in _desk_instances():
            eps = Epsilon.broadcast(Fraction(1, 10), graph.d)
            for q in queries:
                exact = solve_exact(graph, q)
                approx = solve_approx(graph, q, eps)
                costs = exact.costs()
                widest = max(
                    approx.entries, key=lambda e: sum(eps_covers(e.cost, c, eps) for c in costs)
                )
                fewer = SolutionSet(q, eps, tuple(e for e in approx.entries if e != widest))
                want = pairwise_uncovered(exact, fewer, eps)
                assert verify_coverage(exact, fewer, eps) == (not want, want), name
                widths.add(graph.d)
                missed += len(want)
        assert {2, 3, 4, 8} <= widths
        assert missed > 0

    N = 10_000

    @pytest.mark.parametrize("d", [2, 3])
    def test_uncovered_antichain_in_near_linear_time(self, d):
        # Each approximate cost sits one unit above an exact cost in its last
        # objective, so every exact cost stays uncovered, where a scan of the
        # candidates below each one would be quadratic.
        n = self.N
        if d == 2:
            exact = [(i, n - i) for i in range(n)]
            approx = [(i, n - i + 1) for i in range(n)]
        else:
            exact = [(i, n - i, 0) for i in range(n)]
            approx = [(i, n - i, 1) for i in range(n)]
        eps = Epsilon.zero(d)
        with deadline(2):
            got = verify_coverage(self.as_set(exact, eps), self.as_set(approx, eps), eps)
        assert got == (False, exact)

    @pytest.mark.parametrize(
        "exact,approx",
        [
            ([(1, 2, 3)], [(1, 2)]),
            ([(1, 2)], [(1, 2, 3)]),
            ([(1, 2, 3)], []),
            ([], [(1,)]),
        ],
    )
    def test_width_other_than_eps_raises(self, exact, approx):
        eps = Epsilon.broadcast(Fraction(1, 10), 2)
        with pytest.raises(DimensionMismatch):
            verify_coverage(self.as_set(exact, eps), self.as_set(approx, eps), eps)


class TestSuffixFrontFilters:
    """verify's Pareto filter and run_benchmark's epsilon filter at d=3."""

    N = 10_000

    def antichain(self):
        return [(i, self.N - i, 0) for i in range(self.N)]

    def test_pareto_filter_keeps_a_d3_antichain_in_near_linear_time(self):
        # Every suffix (N - i, 0) replaces the one before it, so each check
        # is one bisect where a sweep over the kept front is quadratic.
        costs = self.antichain()
        with deadline(2):
            front = pareto_filter(costs)
        assert front == costs

    def test_eps_front_keeps_a_d3_antichain_in_near_linear_time(self):
        # No kept cost covers a later one in the second objective, so the
        # whole front is kept; the first objective's slack changes nothing.
        entries = tuple(SolutionEntry(c, (1, 2)) for c in self.antichain())
        exact = SolutionSet(Query(1, 2, 0), Epsilon.zero(3), entries)
        eps = Epsilon((Fraction(1, 10), Fraction(0), Fraction(0)))
        with deadline(2):
            got = _eps_front(exact, eps)
        assert got.entries == entries


def rec(card, eps="0", status=STATUS_SOLVED, bench="x", qidx=0):
    return BenchmarkRecord(bench, qidx, eps, card, 1.0, SOLVER_ID, status)


class TestCardinalityStats:
    def test_summary_values(self):
        records = [rec(808, qidx=0), rec(3, qidx=1), rec(94, qidx=2)]
        s = cardinality_stats(records, "0")
        assert (s.minimum, s.maximum, s.median) == (3, 808, 94)
        assert s.count == 3
        assert abs(s.mean - 301.6666667) < 1e-6
        assert s.mean_rounded == 302

    def test_lower_median_and_half_up_mean(self):
        records = [rec(c, qidx=i) for i, c in enumerate((1, 2, 3, 4))]
        s = cardinality_stats(records, "0")
        assert s.median == 2
        assert s.mean == 2.5
        assert s.mean_rounded == 3

    def test_timeouts_excluded_and_counted(self):
        records = [rec(5), rec(0, status=STATUS_TIMEOUT, qidx=1)]
        s = cardinality_stats(records, "0")
        assert s.count == 1 and s.excluded_timeouts == 1

    def test_epsilon_object_accepted(self):
        records = [rec(7, eps="0.05")]
        s = cardinality_stats(records, Epsilon.broadcast(Fraction(1, 20), 3))
        assert s.maximum == 7

    def test_no_records(self):
        with pytest.raises(NoRecords):
            cardinality_stats([rec(5, eps="0.1")], "0")
        with pytest.raises(NoRecords):
            cardinality_stats([rec(0, status=STATUS_TIMEOUT)], "0")


class TestReductionStats:
    def test_hand_computed_families(self):
        records = [
            rec(100, bench="A", qidx=0),
            rec(100, bench="A", qidx=1),
            rec(10, bench="B", qidx=0),
            rec(10, eps="0.1", bench="A", qidx=0),
            rec(20, eps="0.1", bench="A", qidx=1),
            rec(5, eps="0.1", bench="B", qidx=0),
        ]
        rows = reduction_stats(records)
        assert [r.epsilon for r in rows] == ["0", "0.1"]
        zero, tenth = rows
        assert zero.pooled_median_pct == 0.0 and zero.pooled_mean_pct == 0.0
        assert tenth.queries == 3
        assert tenth.pooled_median_pct == 80.0
        assert abs(tenth.pooled_mean_pct - (90 + 80 + 50) / 3) < 1e-9
        assert tenth.family_median_avg_pct == (80 + 50) / 2
        assert tenth.family_mean_avg_pct == (85 + 50) / 2

    def test_single_query_98_percent(self):
        records = [rec(100), rec(2, eps="0.1")]
        rows = reduction_stats(records)
        assert rows[1].pooled_median_pct == 98.0

    def test_zero_baseline_excluded(self):
        records = [rec(0), rec(100, qidx=1), rec(0, eps="0.1"), rec(50, eps="0.1", qidx=1)]
        rows = reduction_stats(records)
        assert rows[1].excluded_empty == 1
        assert rows[1].queries == 1
        assert rows[1].pooled_mean_pct == 50.0

    def test_missing_baseline(self):
        with pytest.raises(MissingBaseline):
            reduction_stats([rec(10, eps="0.1")])
        # a timed-out baseline is not usable either
        with pytest.raises(MissingBaseline):
            reduction_stats(
                [rec(0, status=STATUS_TIMEOUT), rec(10, eps="0.1")]
            )

    def test_timeout_rows_skipped(self):
        records = [rec(100), rec(0, eps="0.1", status=STATUS_TIMEOUT)]
        rows = reduction_stats(records)
        assert [r.epsilon for r in rows] == ["0"]


class TestSpreadStats:
    def ss(self, costs, index=0):
        q = Query(1, 2, index)
        return SolutionSet(
            q, Epsilon.zero(len(costs[0]) if costs else 2),
            tuple(SolutionEntry(c, None) for c in costs),
        )

    def test_hand_computed(self):
        sets = [self.ss([(1, 4), (2, 2), (4, 1)]), self.ss([(3, 3)], 1)]
        spreads = spread_stats(sets)
        assert [s.objective for s in spreads] == [0, 1]
        assert spreads[0].average == (4.0 + 1.0) / 2
        assert spreads[1].average == (4.0 + 1.0) / 2
        assert spreads[0].included == 2 and spreads[0].excluded == 0

    def test_zero_minimum_excluded_per_axis(self):
        sets = [self.ss([(0, 4), (2, 2)]), self.ss([(5, 10), (10, 5)], 1)]
        spreads = spread_stats(sets)
        assert spreads[0].included == 1 and spreads[0].excluded == 1
        assert spreads[0].average == 2.0
        assert spreads[1].included == 2
        assert spreads[1].average == (2.0 + 2.0) / 2

    def test_empty_sets_excluded_everywhere(self):
        sets = [self.ss([]), self.ss([(2, 4), (4, 2)], 1)]
        spreads = spread_stats(sets)
        assert all(s.excluded == 1 for s in spreads)

    def test_all_excluded_raises(self):
        with pytest.raises(AllExcluded):
            spread_stats([])
        with pytest.raises(AllExcluded):
            spread_stats([self.ss([])])
        with pytest.raises(AllExcluded):
            spread_stats([self.ss([(0, 1)])])

    def test_mixed_widths_raise(self):
        with pytest.raises(DimensionMismatch):
            spread_stats([self.ss([(1, 2)]), self.ss([(1, 2, 3)], 1)])
        with pytest.raises(DimensionMismatch):
            spread_stats([self.ss([]), self.ss([(1, 2, 3), (3, 2)], 1)])


class TestCorrelationCsv:
    def test_duplicated_objective(self):
        g = MosGraph(
            2,
            ((1, 2, (3, 3)), (2, 1, (7, 7))),
            (Objective("a"), Objective("b")),
        )
        lines = correlation_csv(g).splitlines()
        assert lines[0] == "objective,a,b"
        assert lines[1] == "a,1.000000,1.000000"

    def test_constant_objective_prints_na(self):
        g = MosGraph(
            2,
            ((1, 2, (3, 5)), (2, 1, (7, 5))),
            (Objective("a"), Objective("b")),
        )
        lines = correlation_csv(g).splitlines()
        assert lines[2] == "b,NA,NA"

    def test_netmaker_edge_filters(self):
        g = generate_netmaker(NetMakerSpec(n=300, seed=40))
        cyc = correlation_csv(g, "cycle")
        loc = correlation_csv(g, "local")
        cyc_val = float(cyc.splitlines()[1].split(",")[2])
        loc_val = float(loc.splitlines()[1].split(",")[2])
        # cycle bands anticorrelate; local costs are independent draws
        assert cyc_val < -0.2
        assert abs(loc_val) < 0.2
        with pytest.raises(ValueError):
            correlation_csv(g, "interior")


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        records = [
            BenchmarkRecord("grid", 0, "0", 494, 86900.123, SOLVER_ID, STATUS_SOLVED),
            BenchmarkRecord("grid", 0, "0.1", 44, 12.5, SOLVER_ID, STATUS_SOLVED),
            BenchmarkRecord("net", 3, "0.5,0,0", 0, 0.0, SOLVER_ID, STATUS_TIMEOUT),
        ]
        text = records_to_csv(records)
        assert text.splitlines()[0] == "benchmark,query,epsilon,cardinality,ms,solver,status"
        p = tmp_path / "records.csv"
        p.write_text(text)
        assert read_records(p) == records

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("who,what\n")
        with pytest.raises(NoRecords):
            read_records(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(records_to_csv([]) + "grid,0,0\n")
        with pytest.raises(Malformed) as err:
            read_records(p)
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "row, words",
        [
            ("grid,0,0,5,1.0,labelset-dr,solved,extra", "got 8"),
            ("grid,x,0,5,1.0,labelset-dr,solved", "'x'"),
            ("grid,0,0,5.5,1.0,labelset-dr,solved", "'5.5'"),
            ("grid,0,0,5,fast,labelset-dr,solved", "'fast'"),
            ("grid,0,0,-3,1.0,labelset-dr,solved", "negative"),
            ("grid,-1,0,5,1.0,labelset-dr,solved", "negative"),
            ("grid,0,0,5,-0.5,labelset-dr,solved", "'-0.5'"),
            ("grid,0,0,5,nan,labelset-dr,solved", "'nan'"),
            ("grid,0,0,5,inf,labelset-dr,solved", "'inf'"),
            ("grid,0,0,5,1.0,labelset-dr,bogus", "'bogus'"),
        ],
    )
    def test_bad_row_reported_on_its_line(self, tmp_path, row, words):
        good = records_to_csv([BenchmarkRecord("grid", 0, "0", 5, 1.0)])
        p = tmp_path / "bad.csv"
        p.write_text(good + good.splitlines()[1] + "\n" + row + "\n")
        with pytest.raises(Malformed) as err:
            read_records(p)
        assert err.value.line_number == 4
        assert words in err.value.reason

    def test_line_numbers_count_quoted_newlines(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(records_to_csv([BenchmarkRecord("two\nlines", 0, "0", 5, 1.0)]) + "grid,0\n")
        with pytest.raises(Malformed) as err:
            read_records(p)
        assert err.value.line_number == 4


class TestStatsCsv:
    def test_cardinality_csv(self):
        s = cardinality_stats([rec(5), rec(9, qidx=1)], "0")
        text = cardinality_csv(s, "0")
        assert text.splitlines()[1] == "0,2,5,9,5,7.000000,7,0"

    def test_reduction_csv(self):
        rows = reduction_stats([rec(100), rec(2, eps="0.1")])
        text = reduction_csv(rows)
        assert "0.1,1,0,98.000,98.000,98.000,98.000" in text

    def test_spread_csv_with_names(self):
        spreads = spread_stats(
            [
                SolutionSet(
                    Query(1, 2, 0),
                    Epsilon.zero(2),
                    (SolutionEntry((2, 8), None), SolutionEntry((4, 2), None)),
                )
            ]
        )
        text = spread_csv(spreads, ["length", "risk"])
        assert text.splitlines()[1] == "length,2.000000,1,0"
        assert text.splitlines()[2] == "risk,4.000000,1,0"
        for names in (["length"], ["length", "risk", "time"]):
            with pytest.raises(DimensionMismatch):
                spread_csv(spreads, names)
