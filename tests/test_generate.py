"""Generator families: structure, cost distributions, determinism."""
from __future__ import annotations

from collections import deque

import pytest

from mosbench.core import MosGraph, Query
from mosbench.errors import EmptyGraph, ExhaustedPairs, WindowTooSmall
from mosbench.generate import (
    CYCLE_BANDS,
    GridSpec,
    NetMakerSpec,
    generate_grid,
    generate_netmaker,
    netmaker_edge_kinds,
    sample_netmaker_queries,
)
from mosbench.rng import TAG_COSTS, TAG_STRUCTURE, substream

CHI2_CRIT_DF9 = 27.878


def reachable_count(graph: MosGraph, start: int, forward: bool) -> int:
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


class TestGrid:
    def test_vertex_and_edge_counts(self):
        for k, m in ((1, 1), (3, 2), (5, 5), (12, 7)):
            g, q = generate_grid(GridSpec(k=k, m=m, d=2, seed=1))
            assert g.num_vertices == k * m + 2
            interior = 2 * (2 * k * m - k - m)
            assert g.num_edges == interior + 2 * m
            assert q.source == k * m + 1
            assert q.target == k * m + 2

    @pytest.mark.parametrize(
        "d, k, m", [(2, 4, 3), (3, 4, 3), (4, 4, 3), (3, 24, 24)], ids=["2", "3", "4", "3-24x24"]
    )
    def test_known_answer(self, d, k, m):
        # hand-built expectation: interior pairs in row-major cell order, the
        # right pair then the down pair, forward first; d draws per edge.
        # The 24x24 grid takes 6,624 draws, more than one bounded_run chunk.
        seed = 17 + d
        rng = substream(seed, TAG_COSTS)
        expected = []
        for y in range(1, m + 1):
            for x in range(1, k + 1):
                v = (y - 1) * k + x
                pairs = []
                if x < k:
                    pairs += [(v, v + 1), (v + 1, v)]
                if y < m:
                    pairs += [(v, v + k), (v + k, v)]
                for a, b in pairs:
                    expected.append((a, b, tuple(rng.uniform_int(2, 9) for _ in range(d))))
        zero = (0,) * d
        expected += [(k * m + 1, (y - 1) * k + 1, zero) for y in range(1, m + 1)]
        expected += [(y * k, k * m + 2, zero) for y in range(1, m + 1)]
        g, q = generate_grid(GridSpec(k=k, m=m, d=d, seed=seed, cost_low=2, cost_high=9))
        assert g.edges == tuple(expected)
        assert (g.num_vertices, q) == (k * m + 2, Query(k * m + 1, k * m + 2, 0))

    def test_costs_in_declared_range(self):
        g, _ = generate_grid(GridSpec(k=9, m=8, d=3, seed=5))
        aux = {g.num_vertices - 1, g.num_vertices}
        for u, v, cost in g.edges:
            if u in aux or v in aux:
                assert cost == (0, 0, 0)
            else:
                assert all(1 <= c <= 10 for c in cost)

    def test_auxiliary_wiring(self):
        k, m = 6, 4
        g, q = generate_grid(GridSpec(k=k, m=m, d=2, seed=2))
        source, target = q.source, q.target
        from_source = sorted(v for u, v, _ in g.edges if u == source)
        into_target = sorted(u for u, v, _ in g.edges if v == target)
        leftmost = sorted((y - 1) * k + 1 for y in range(1, m + 1))
        rightmost = sorted((y - 1) * k + k for y in range(1, m + 1))
        assert from_source == leftmost
        assert into_target == rightmost
        assert all(v != source for _, v, _ in g.edges)
        assert all(u != target for u, _, _ in g.edges)

    def test_orthogonal_neighbors_both_directions(self):
        k, m = 4, 3
        g, _ = generate_grid(GridSpec(k=k, m=m, d=2, seed=3))
        pairs = {(u, v) for u, v, _ in g.edges if u <= k * m and v <= k * m}
        for y in range(1, m + 1):
            for x in range(1, k + 1):
                v = (y - 1) * k + x
                if x < k:
                    assert (v, v + 1) in pairs and (v + 1, v) in pairs
                if y < m:
                    assert (v, v + k) in pairs and (v + k, v) in pairs
        # no diagonals
        assert (1, k + 2) not in pairs

    def test_opposite_directions_sampled_independently(self):
        g, _ = generate_grid(GridSpec(k=20, m=20, d=2, seed=4))
        by_pair = {(u, v): c for u, v, c in g.edges}
        differing = sum(
            1
            for (u, v), c in by_pair.items()
            if (v, u) in by_pair and by_pair[(v, u)] != c
        )
        assert differing > 0

    def test_determinism_and_seed_sensitivity(self):
        a, qa = generate_grid(GridSpec(k=7, m=7, d=2, seed=99))
        b, qb = generate_grid(GridSpec(k=7, m=7, d=2, seed=99))
        c, _ = generate_grid(GridSpec(k=7, m=7, d=2, seed=100))
        assert a == b and qa == qb
        assert a != c

    def test_interior_cost_uniformity(self):
        g, _ = generate_grid(GridSpec(k=120, m=120, d=2, seed=11))
        aux = {g.num_vertices - 1, g.num_vertices}
        counts = [0] * 10
        samples = 0
        for u, v, cost in g.edges:
            if u in aux or v in aux:
                continue
            for c in cost:
                counts[c - 1] += 1
                samples += 1
        assert samples > 100_000
        expected = samples / 10
        chi2 = sum((n - expected) ** 2 / expected for n in counts)
        assert chi2 < CHI2_CRIT_DF9

    def test_objectives_roughly_uncorrelated(self):
        from mosbench.core import correlation_matrix_from_costs

        g, _ = generate_grid(GridSpec(k=120, m=120, d=2, seed=12))
        aux = {g.num_vertices - 1, g.num_vertices}
        costs = [c for u, v, c in g.edges if u not in aux and v not in aux]
        m = correlation_matrix_from_costs(costs)
        assert abs(m[0][1]) < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(k=0, m=3)
        with pytest.raises(ValueError):
            GridSpec(k=3, m=3, d=5)
        with pytest.raises(ValueError):
            GridSpec(k=3, m=3, cost_low=7, cost_high=3)


def hand_built_netmaker(spec: NetMakerSpec) -> list[tuple[int, int, tuple[int, ...]]]:
    """Independent transcription of the documented construction steps."""
    n = spec.n
    struct = substream(spec.seed, TAG_STRUCTURE)
    sigma = list(range(1, n + 1))
    struct.shuffle(sigma)
    succ = {sigma[i]: sigma[(i + 1) % n] for i in range(n)}
    cycle_pairs = [(sigma[i], succ[sigma[i]]) for i in range(n)]
    degree_target = {u: struct.uniform_int(spec.a_min + 1, spec.a_max) for u in range(1, n + 1)}
    half = spec.i_vertex // 2
    local_pairs = []
    for u in range(1, n + 1):
        pool = [
            w
            for w in range(max(1, u - half), min(n, u + half) + 1)
            if w != u and w != succ[u]
        ]
        picks = degree_target[u] - 1
        while picks > 0 and pool:
            local_pairs.append((u, pool.pop(struct.bounded(len(pool)))))
            picks -= 1
    costs = substream(spec.seed, TAG_COSTS)
    edges = []
    for u, w in cycle_pairs:
        assignment = [0, 1, 2]
        costs.shuffle(assignment)
        edges.append(
            (u, w, tuple(costs.uniform_int(*CYCLE_BANDS[assignment[k]]) for k in range(3)))
        )
    for u, w in local_pairs:
        edges.append((u, w, tuple(costs.uniform_int(1, 99) for _ in range(3))))
    return edges


class TestNetMaker:
    def test_matches_hand_simulation_on_toy(self):
        import warnings

        spec = NetMakerSpec(n=20, i_vertex=6, a_min=1, a_max=4, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WindowTooSmall)
            g = generate_netmaker(spec)
        assert list(g.edges) == hand_built_netmaker(spec)

    def test_cycle_is_hamiltonian(self):
        g = generate_netmaker(NetMakerSpec(n=50, seed=8))
        cyc, _ = netmaker_edge_kinds(g)
        assert len(cyc) == 50
        succ = {}
        for i in cyc:
            u, v, _ = g.edges[i]
            assert u not in succ
            succ[u] = v
        # one cycle covering all vertices
        seen = set()
        v = 1
        for _ in range(50):
            seen.add(v)
            v = succ[v]
        assert v == 1 and len(seen) == 50

    def test_cycle_edge_costs_one_per_band(self):
        g = generate_netmaker(NetMakerSpec(n=60, seed=9))
        cyc, loc = netmaker_edge_kinds(g)
        for i in cyc:
            cost = sorted(g.edges[i][2])
            for value, (lo, hi) in zip(cost, CYCLE_BANDS):
                assert lo <= value <= hi
        for i in loc:
            assert all(1 <= c <= 99 for c in g.edges[i][2])

    def test_out_degree_bounds(self):
        spec = NetMakerSpec(n=200, i_vertex=30, a_min=2, a_max=6, seed=10)
        g = generate_netmaker(spec)
        for v in range(1, 201):
            assert 1 <= len(g.out_arcs[v]) <= spec.a_max

    def test_locality_window_respected(self):
        spec = NetMakerSpec(n=300, i_vertex=20, seed=11)
        g = generate_netmaker(spec)
        _, loc = netmaker_edge_kinds(g)
        half = spec.i_vertex // 2
        for i in loc:
            u, w, _ = g.edges[i]
            assert abs(u - w) <= half

    def test_no_self_loops_or_duplicates(self):
        g = generate_netmaker(NetMakerSpec(n=150, seed=12))
        pairs = [(u, v) for u, v, _ in g.edges]
        assert len(pairs) == len(set(pairs))
        assert all(u != v for u, v in pairs)

    def test_strongly_connected(self):
        g = generate_netmaker(NetMakerSpec(n=400, seed=13))
        assert reachable_count(g, 1, forward=True) == 400
        assert reachable_count(g, 1, forward=False) == 400

    def test_window_too_small_warns(self):
        with pytest.warns(WindowTooSmall):
            generate_netmaker(NetMakerSpec(n=40, i_vertex=2, a_min=5, a_max=10, seed=14))

    def test_determinism(self):
        a = generate_netmaker(NetMakerSpec(n=80, seed=15))
        b = generate_netmaker(NetMakerSpec(n=80, seed=15))
        c = generate_netmaker(NetMakerSpec(n=80, seed=16))
        assert a == b
        assert a != c

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NetMakerSpec(n=1)
        with pytest.raises(ValueError):
            NetMakerSpec(n=10, a_min=5, a_max=5)
        with pytest.raises(ValueError):
            NetMakerSpec(n=10, i_vertex=0)


class TestQuerySampling:
    def test_pools_and_distinctness(self):
        g = generate_netmaker(NetMakerSpec(n=100, seed=20))
        qs = sample_netmaker_queries(g, 50, 20)
        assert len(qs) == 50
        assert len({(q.source, q.target) for q in qs}) == 50
        assert all(1 <= q.source <= 10 for q in qs)
        assert all(91 <= q.target <= 100 for q in qs)
        assert [q.index for q in qs] == list(range(50))

    def test_determinism_and_seed_dependence(self):
        g = generate_netmaker(NetMakerSpec(n=100, seed=21))
        assert sample_netmaker_queries(g, 20, 5) == sample_netmaker_queries(g, 20, 5)
        assert sample_netmaker_queries(g, 20, 5) != sample_netmaker_queries(g, 20, 6)

    def test_capacity_exhaustion(self):
        g = generate_netmaker(NetMakerSpec(n=100, seed=22))
        with pytest.raises(ExhaustedPairs):
            sample_netmaker_queries(g, 101, 1)

    def test_small_graph_rejected(self):
        g = generate_netmaker(NetMakerSpec(n=19, i_vertex=6, a_max=4, seed=23))
        with pytest.raises(EmptyGraph):
            sample_netmaker_queries(g, 1, 1)

    def test_zero_count_rejected(self):
        g = generate_netmaker(NetMakerSpec(n=100, seed=24))
        with pytest.raises(ValueError):
            sample_netmaker_queries(g, 0, 1)
