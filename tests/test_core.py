"""Dominance semantics, fronts, correlation, and the core data types."""
from __future__ import annotations

import gc
import random
from fractions import Fraction
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mosbench.core import (
    Epsilon,
    MosGraph,
    Objective,
    _suffix_fronts,
    collector_paused,
    correlation_matrix_from_costs,
    dominates,
    objective_correlation_matrix,
    pareto_filter,
    path_cost,
    pearson,
)
from mosbench.errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyGraph,
    LengthMismatch,
    NegativeCost,
    NonEdge,
)
from mosbench.formats import read_graph, write_graph

from conftest import random_graph
from oracles import eps_covers, eps_dominates, weakly_dominates


class TestDominance:
    def test_strict_in_one_component(self):
        assert dominates((1, 2), (1, 3))
        assert dominates((1, 2), (2, 2))
        assert dominates((1, 2), (2, 3))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((3, 3), (3, 3))
        assert weakly_dominates((3, 3), (3, 3))

    def test_incomparable(self):
        assert not dominates((1, 4), (4, 1))
        assert not dominates((4, 1), (1, 4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dominates((1, 2), (1, 2, 3))

    def test_mixed_sequence_types(self):
        # A list never equals a tuple, so strictness must come from a
        # component, not from comparing the vectors whole.
        assert not dominates([1, 2], (1, 2))
        assert dominates([1, 2], (1, 3))
        assert weakly_dominates([1, 2], (1, 2))

    def test_antisymmetry_property(self):
        rng = random.Random(11)
        for _ in range(500):
            d = rng.randint(2, 5)
            p = tuple(rng.randint(0, 6) for _ in range(d))
            q = tuple(rng.randint(0, 6) for _ in range(d))
            assert not (dominates(p, q) and dominates(q, p))
            if dominates(p, q):
                assert weakly_dominates(p, q) and p != q

    def test_transitivity_property(self):
        rng = random.Random(12)
        for _ in range(500):
            d = rng.randint(2, 4)
            p, q, r = (
                tuple(rng.randint(0, 4) for _ in range(d)) for _ in range(3)
            )
            if dominates(p, q) and dominates(q, r):
                assert dominates(p, r)


EPS_PARTS = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1))


def flag_loop_eps_dominates(p, q, eps):
    """eps_dominates as a loop with a strictness flag over each scaled pair."""
    strict = False
    for (a, b), (num, den) in zip(zip(p, q), eps.ratios()):
        lhs = a * den
        rhs = num * b
        if lhs > rhs:
            return False
        if lhs < rhs:
            strict = True
    return strict


@st.composite
def eps_dominance_cases(draw):
    """(p, q, eps) with d 1-4; p's parts often sit at or next to (1 + eps) * q."""
    d = draw(st.integers(1, 4))
    eps = Epsilon(tuple(draw(st.sampled_from(EPS_PARTS)) for _ in range(d)))
    q = tuple(draw(st.integers(0, 30)) for _ in range(d))
    p = tuple(
        draw(
            st.one_of(
                st.integers(0, 40),
                st.sampled_from([max(0, int(c * (1 + e)) + k) for k in (-1, 0, 1)]),
            )
        )
        for c, e in zip(q, eps.values)
    )
    return p, q, eps


class TestEpsDominance:
    @given(eps_dominance_cases())
    def test_matches_flag_loop(self, case):
        p, q, eps = case
        assert eps_dominates(p, q, eps) == flag_loop_eps_dominates(p, q, eps)

    def test_width_other_than_eps_raises(self):
        with pytest.raises(DimensionMismatch):
            eps_dominates((1, 2), (1, 2), Epsilon.zero(3))

    def test_reduces_to_dominance_at_zero(self):
        zero = Epsilon.zero(2)
        rng = random.Random(13)
        for _ in range(300):
            p = (rng.randint(0, 9), rng.randint(0, 9))
            q = (rng.randint(0, 9), rng.randint(0, 9))
            assert eps_dominates(p, q, zero) == dominates(p, q)

    def test_slack_allows_slightly_worse(self):
        # (10, 10) vs (9.5, 9.5) at fixed-point scale 10: within 10% slack.
        eps = Epsilon.broadcast(Fraction(1, 10), 2)
        assert eps_dominates((100, 100), (95, 95), eps)
        assert not eps_dominates((100, 100), (90, 90), eps)

    def test_exact_rational_boundary(self):
        # 1.05 * 100 = 105 exactly: components may touch the bound but one
        # must be strictly inside.
        eps = Epsilon.broadcast(Fraction(1, 20), 2)
        assert eps_dominates((105, 1), (100, 1), eps)
        assert eps_dominates((105, 104), (100, 100), eps)
        assert not eps_dominates((105, 106), (100, 100), eps)

    def test_all_components_on_bound_is_not_strict(self):
        eps = Epsilon.broadcast(Fraction(1, 20), 2)
        assert not eps_dominates((105, 105), (100, 100), eps)
        assert eps_covers((105, 105), (100, 100), eps) is False
        assert eps_covers((100, 100), (100, 100), eps) is True

    def test_per_objective_vector(self):
        eps = Epsilon((Fraction(1, 10), Fraction(0)))
        assert eps_dominates((11, 4), (10, 5), eps)
        # on the bound in axis 0, equal in axis 1: no strict axis
        assert not eps_dominates((11, 5), (10, 5), eps)
        assert not eps_dominates((11, 6), (10, 5), eps)

    def test_zero_cost_components(self):
        eps = Epsilon.broadcast(Fraction(1, 10), 2)
        assert eps_dominates((0, 5), (0, 6), eps)
        assert not eps_dominates((1, 5), (0, 500), eps)


class TestEpsilonType:
    def test_from_text_scalar_broadcast(self):
        e = Epsilon.from_text("0.1", 3)
        assert e.values == (Fraction(1, 10),) * 3

    def test_from_text_list(self):
        e = Epsilon.from_text("0.1,0.05,1/3", 3)
        assert e.values == (Fraction(1, 10), Fraction(1, 20), Fraction(1, 3))

    def test_from_text_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            Epsilon.from_text("0.1,0.2", 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Epsilon.broadcast(Fraction(-1, 10), 2)

    def test_no_components_rejected(self):
        with pytest.raises(DimensionMismatch):
            Epsilon(())

    def test_display_round_trips(self):
        for text in ("0", "0.01", "0.05", "0.1", "0.125", "1/3", "2"):
            e = Epsilon.broadcast(Fraction(text), 2)
            assert Epsilon.from_text(e.display(), 2) == e

    def test_display_vector(self):
        e = Epsilon((Fraction(1, 10), Fraction(1, 20)))
        assert e.display() == "0.1,0.05"

    def test_ratios(self):
        e = Epsilon.broadcast(Fraction(1, 20), 2)
        assert e.ratios() == ((21, 20), (21, 20))
        mixed = Epsilon((Fraction(0), Fraction(1, 3), Fraction(5, 2)))
        assert mixed.ratios() == ((1, 1), (4, 3), (7, 2))

    def test_ratios_computed_once(self):
        e = Epsilon.broadcast(Fraction(1, 10), 3)
        assert e.ratios() is e.ratios()
        # the cache is not part of equality or hashing
        fresh = Epsilon.broadcast(Fraction(1, 10), 3)
        assert e == fresh and hash(e) == hash(fresh)


class TestParetoFilter:
    def oracle(self, costs):
        uniq = sorted(set(costs))
        return [c for c in uniq if not any(dominates(o, c) for o in uniq)]

    def test_known_front(self):
        costs = [(1, 4), (4, 1), (2, 2), (3, 3), (1, 4)]
        assert pareto_filter(costs) == [(1, 4), (2, 2), (4, 1)]

    def test_matches_quadratic_oracle(self):
        rng = random.Random(21)
        for _ in range(200):
            d = rng.randint(2, 4)
            costs = [
                tuple(rng.randint(0, 12) for _ in range(d))
                for _ in range(rng.randint(0, 60))
            ]
            assert pareto_filter(costs) == self.oracle(costs)

    def test_output_sorted_and_mutually_nondominated(self):
        rng = random.Random(22)
        costs = [(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(500)]
        front = pareto_filter(costs)
        assert front == sorted(front)
        for p in front:
            for q in front:
                assert p == q or not dominates(p, q)

    @given(
        st.integers(1, 4).flatmap(
            lambda d: st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=40)
        )
    )
    def test_matches_brute_force_for_any_dimension(self, costs):
        assert pareto_filter(costs) == self.oracle(costs)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            pareto_filter([(1, 2), (1, 2, 3)])


@st.composite
def sorted_cost_streams(draw):
    """d 1-5 and a lexicographically sorted list of d-vectors, with repeats
    and zeros."""
    d = draw(st.integers(1, 5))
    pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=12))
    costs = draw(st.lists(st.sampled_from(pool), max_size=40))
    return d, sorted(costs)


class TestSuffixFronts:
    @settings(max_examples=400, deadline=None)
    @given(sorted_cost_streams())
    def test_matches_a_scan_of_every_inserted_suffix(self, case):
        # The store drops suffixes that a later insert dominates; the scan
        # keeps every one, so it checks that dropping loses no answer.
        d, costs = case
        dominated, insert = _suffix_fronts(d, 1)
        inserted = []
        for c in costs:
            s = c[1:]
            want = any(all(map(le, p, s)) for p in inserted)
            assert dominated(0, s) == want
            if not want:
                insert(0, s)
                inserted.append(s)


def reference_path_cost(graph: MosGraph, path):
    """path_cost with its checks first, each hop's cheapest arc picked from
    graph.edges and a zip(*) column sum: the reference."""
    if not path:
        raise NonEdge("empty path")
    n = graph.num_vertices
    if min(path) < 1 or max(path) > n:
        v = next(v for v in path if not 1 <= v <= n)
        raise NonEdge(f"path vertex {v} out of range 1..{n}")
    costs = []
    for hop in zip(path, path[1:]):
        arcs = [c for u, v, c in graph.edges if (u, v) == hop]
        if not arcs:
            raise NonEdge(f"({hop[0]}, {hop[1]}) is not an arc of the graph")
        costs.append(min(arcs))
    return tuple(map(sum, zip(*costs))) or (0,) * graph.d


def cost_outcome(cost, graph, path):
    try:
        return cost(graph, path)
    except NonEdge as exc:
        return f"NonEdge: {exc}"


@st.composite
def multigraph_vertex_lists(draw):
    """A multigraph with d in 1..4 and a vertex list to cost in it.

    The list has up to 7 vertices.  It walks along arcs, parallel arcs
    included, and jumps to any vertex where no arc leaves; then possibly one
    vertex is replaced by any of -1..n+2.  So it may be empty or one vertex,
    miss an arc or leave the vertex range.
    """
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    cost = st.tuples(*[st.integers(0, 5)] * d)
    hops = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))
    edges = [(u, v, c) for u, v in hops for c in draw(st.lists(cost, min_size=1, max_size=3))]
    edges = draw(st.permutations(edges))
    g = MosGraph(n, tuple(edges), tuple(Objective(f"c{k + 1}") for k in range(d)))
    size = draw(st.integers(0, 7))
    path = [draw(st.integers(1, n))] if size else []
    while 0 < len(path) < size:
        heads = [v for u, v, _ in g.edges if u == path[-1]]
        path.append(draw(st.sampled_from(heads) if heads else st.integers(1, n)))
    if path and draw(st.booleans()):
        path[draw(st.integers(0, len(path) - 1))] = draw(st.integers(-1, n + 2))
    return g, path


class TestGraphAndPathCost:
    @settings(max_examples=500, deadline=None)
    @given(multigraph_vertex_lists())
    # Row -1 of the per-tail table would be row 3, which has the arc 3 -> 2.
    @example((MosGraph(3, ((3, 2, (1, 1)),), (Objective("a"), Objective("b"))), [-1, 2]))
    def test_matches_reference_path_cost(self, case):
        g, path = case
        want = cost_outcome(reference_path_cost, g, path)
        assert cost_outcome(path_cost, g, path) == want
        assert cost_outcome(path_cost, g, tuple(path)) == want

    def test_path_cost_sums_edges(self):
        g = random_graph(random.Random(31), 6, 1.0, 3)
        cost = path_cost(g, [1, 2, 3])
        direct = tuple(
            a + b
            for a, b in zip(
                min(c for u, v, c in g.edges if (u, v) == (1, 2)),
                min(c for u, v, c in g.edges if (u, v) == (2, 3)),
            )
        )
        assert cost == direct

    def test_single_vertex_is_zero(self):
        g = random_graph(random.Random(32), 4, 0.5, 2)
        assert path_cost(g, [2]) == (0, 0)

    def test_non_edge_raises(self):
        g = MosGraph(3, ((1, 2, (1, 1)),), (Objective("a"), Objective("b")))
        with pytest.raises(NonEdge):
            path_cost(g, [1, 3])
        with pytest.raises(NonEdge):
            path_cost(g, [1, 2, 9])

    def test_first_out_of_range_vertex_is_named(self):
        g = MosGraph(3, ((1, 2, (1, 1)),), (Objective("a"), Objective("b")))
        with pytest.raises(NonEdge) as err:
            path_cost(g, [1, 2, 7, 0, 9])
        assert str(err.value) == "path vertex 7 out of range 1..3"
        with pytest.raises(NonEdge) as err:
            path_cost(g, [0, 2, 7])
        assert str(err.value) == "path vertex 0 out of range 1..3"

    def test_first_non_arc_hop_is_named(self):
        g = MosGraph(3, ((1, 2, (1, 1)), (2, 3, (1, 1))), (Objective("a"), Objective("b")))
        with pytest.raises(NonEdge) as err:
            path_cost(g, [1, 2, 3, 1, 3, 2])
        assert str(err.value) == "(3, 1) is not an arc of the graph"

    def test_empty_path_raises(self):
        g = MosGraph(2, ((1, 2, (1, 1)),), (Objective("a"), Objective("b")))
        with pytest.raises(NonEdge) as err:
            path_cost(g, [])
        assert str(err.value) == "empty path"

    def test_parallel_edges_use_lexicographic_minimum(self):
        g = MosGraph(
            2,
            ((1, 2, (5, 1)), (1, 2, (3, 9)), (1, 2, (3, 7))),
            (Objective("a"), Objective("b")),
        )
        assert path_cost(g, [1, 2]) == (3, 7)

    def test_validation_rejects_bad_edges(self):
        objs = (Objective("a"), Objective("b"))
        with pytest.raises(NonEdge):
            MosGraph(2, ((1, 3, (1, 1)),), objs)
        with pytest.raises(NegativeCost):
            MosGraph(2, ((1, 2, (1, -1)),), objs)
        with pytest.raises(DimensionMismatch):
            MosGraph(2, ((1, 2, (1, 1, 1)),), objs)

    def test_validation_rejects_empty_shapes(self):
        with pytest.raises(EmptyGraph):
            MosGraph(0, (), (Objective("a"),))
        with pytest.raises(DimensionMismatch):
            MosGraph(1, (), ())
        with pytest.raises(ValueError):
            Objective("a", scale=0)

    def test_csr_round_trip(self):
        g = random_graph(random.Random(33), 8, 0.4, 2)
        rebuilt = []
        for u in range(1, 9):
            for t, w, cost in g.out_arcs[u]:
                assert t == u
                rebuilt.append((u, w, cost))
        assert sorted(rebuilt) == sorted(g.edges)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_csr_rows_keep_edge_order(self, d):
        rng = random.Random(60 + d)
        for _ in range(20):
            n = rng.randint(1, 9)
            # few endpoints, so parallel arcs, self-loops and isolated vertices all occur
            ends = range(1, min(n, rng.randint(1, 5)) + 1)
            edges = []
            for _ in range(rng.randint(0, 25)):
                cost = tuple(rng.randint(0, 4) for _ in range(d))
                edges.append((rng.choice(ends), rng.choice(ends), cost))
                if rng.random() < 0.3:
                    edges.append(edges[-1])
            g = MosGraph(n, tuple(edges), tuple(Objective(f"c{i}") for i in range(d)))
            for rows, row in ((g.out_arcs, 0), (g.in_arcs, 1)):
                assert len(rows) == n + 1 and rows[0] == []
                assert sum(map(len, rows)) == len(edges)
                for v in range(1, n + 1):
                    # naive reference: the arcs of row v, in edge-tuple order
                    want = [e for e in edges if e[row] == v]
                    assert rows[v] == want
                    # the rows hold the graph's own edge tuples, not copies
                    assert all(a is b for a, b in zip(rows[v], [e for e in g.edges if e[row] == v]))


def young_ids() -> set[int]:
    """ids of the objects that young collections walk (generations 0 and 1)."""
    return {id(o) for gen in (0, 1) for o in gc.get_objects(gen)}


class TestCollectorPause:
    """A pause hands what it built to the oldest generation when it ends."""

    def test_paused_build_leaves_the_young_generations(self):
        assert gc.isenabled()
        with collector_paused():
            built = tuple((i, i + 1, (i, 2 * i)) for i in range(100))
        young = young_ids()
        assert id(built) not in young
        assert not young & {id(x) for e in built for x in (e, e[2])}

    def test_read_graph_and_edge_table_are_promoted(self, tmp_path):
        write_graph(random_graph(random.Random(34), 30, 0.3, 2), tmp_path / "g.gr")
        graph = read_graph(tmp_path / "g.gr")
        young = young_ids()
        assert id(graph.edges) not in young
        assert not young & set(map(id, graph.edges))
        rows = graph._min_edge_cost
        young = young_ids()
        assert id(rows) not in young
        assert not young & set(map(id, rows))

    def test_frozen_objects_stay_frozen(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with collector_paused():
                built = [(i,) for i in range(10)]
            assert gc.get_freeze_count() == frozen
            assert id(built) in young_ids()
        finally:
            gc.unfreeze()


class TestPearson:
    def test_hand_computed_case(self):
        # cov = 0.75, both variances 1.25, r = 0.6 exactly.
        assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        rng = random.Random(41)
        xs = [rng.randint(1, 100) for _ in range(50)]
        ys = [rng.randint(1, 100) for _ in range(50)]
        r1 = pearson(xs, ys)
        r2 = pearson([x * 1000 for x in xs], [y * 7 for y in ys])
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            pearson([1], [2])


class TestCorrelationMatrix:
    def test_duplicated_objective_gives_one(self):
        costs = [(i, i, 10 - i) for i in range(1, 8)]
        m = correlation_matrix_from_costs(costs)
        assert m[0][1] == pytest.approx(1.0)
        assert m[0][2] == pytest.approx(-1.0)
        assert m[1][1] == pytest.approx(1.0)

    def test_constant_column_is_none(self):
        costs = [(i, 5) for i in range(1, 6)]
        m = correlation_matrix_from_costs(costs)
        assert m[0][1] is None
        assert m[1][1] is None
        assert m[0][0] == pytest.approx(1.0)

    def test_graph_wrapper(self):
        g = MosGraph(
            2,
            tuple((1, 2, (i, 2 * i)) for i in range(1, 6)),
            (Objective("a"), Objective("b")),
        )
        m = objective_correlation_matrix(g)
        assert m[0][1] == pytest.approx(1.0)

    def test_needs_two_edges(self):
        g = MosGraph(2, ((1, 2, (1, 1)),), (Objective("a"), Objective("b")))
        with pytest.raises(EmptyGraph):
            objective_correlation_matrix(g)

    def test_needs_two_cost_vectors(self):
        with pytest.raises(EmptyGraph):
            correlation_matrix_from_costs([(1, 2)])

    def test_symmetry(self):
        rng = random.Random(42)
        costs = [tuple(rng.randint(1, 50) for _ in range(4)) for _ in range(40)]
        m = correlation_matrix_from_costs(costs)
        for i in range(4):
            for j in range(4):
                assert m[i][j] == m[j][i]
