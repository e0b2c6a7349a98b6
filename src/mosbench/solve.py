"""Exact multi-objective shortest-path solver and its epsilon fronts.

The production solver is best-first label setting over a lexicographic
ordering of f = g + h, with the dimensionality-reduction dominance device:
because labels of one vertex leave the open list in lexicographic order,
their first f component is non-decreasing, so dominance among them only
needs the (d-1)-suffix of g.  For d = 2 that suffix is a single scalar per
vertex; other d keep one core._suffix_fronts store per vertex, the same
structure pareto_filter and _eps_front use.  The target is an ordinary
vertex (h = 0 there, so f = g): its closed set is the target bound
(g2min[tgt] at d = 2, its suffix store otherwise), and a target label that
passes the common prune test is recorded, not expanded, so a one-vertex
query records its zero cost and ends.  Heap keys are single big integers
packing (f, vertex, parent's closed id), which keeps comparisons cheap and
memory flat.  Labels that tie on (f, vertex) have equal g, and closed ids
grow in expansion order, so the pop order is the order of their parents'
expansions.  Each expansion holds back its smallest child and the next pop
is a heappushpop of it, which returns the same label a push and a pop
would, often without moving anything in the heap.  A label that becomes
dominated after its push stays in the heap until it is popped and
discarded; nothing rebuilds the heap, so the open list grows with the
pushes a search makes.  Arcs are read from the graph's per-vertex rows of
its own edge tuples (MosGraph.out_arcs).

The search only ever computes the exact Pareto front, in lexicographic
order.  An epsilon-approximate front is derived from it by greedy
admission: walk the exact entries in order and keep each one that no kept
entry epsilon-covers, asking one suffix store of the kept entries' scaled
costs.  Every exact cost is then covered by a kept one, and every kept cost
is a true path cost with its witness path.
"""
from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from operator import mul
from time import monotonic

from .core import Cost, Epsilon, MosGraph, Query, SolutionEntry, SolutionSet, _suffix_fronts
from .errors import (
    DimensionMismatch,
    SearchTimeout,
    TargetOutOfRange,
)

INF = float("inf")

# Parent-id field width; 2^44 expansions is out of reach in practice.
_ID_BITS = 44


def _check_vertex(graph: MosGraph, v: int, what: str) -> None:
    if not (1 <= v <= graph.num_vertices):
        raise TargetOutOfRange(f"{what} {v} outside 1..{graph.num_vertices}")


def dijkstra_bound(graph: MosGraph, target: int, objective: int) -> list[float]:
    """Single-objective shortest distances *to* target over reversed edges.

    Index 0 of the returned table is unused; unreachable vertices hold inf.
    """
    _check_vertex(graph, target, "target")
    if not (0 <= objective < graph.d):
        raise DimensionMismatch(
            f"objective index {objective} outside 0..{graph.d - 1}"
        )
    rows = graph.in_arcs
    # Heap keys pack (distance, vertex) into one int: nd << v_bits | w.
    v_bits = graph.num_vertices.bit_length()
    v_mask = (1 << v_bits) - 1
    dist: list[float] = [INF] * (graph.num_vertices + 1)
    dist[target] = 0
    heap = [target]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        key = pop(heap)
        u = key & v_mask
        d_u = key >> v_bits
        if d_u > dist[u]:
            continue
        for w, _, cost in rows[u]:
            nd = d_u + cost[objective]
            if nd < dist[w]:
                dist[w] = nd
                push(heap, nd << v_bits | w)
    return dist


@dataclass(frozen=True)
class HeuristicTable:
    """Componentwise lower bounds to one target (the ideal-point heuristic).

    columns[k][v] is h_k(v) <= cost_k of every v-to-target path, or -1 when
    v cannot reach the target at all; index 0 of each column is unused.
    """

    target: int
    columns: tuple[tuple[int, ...], ...]


def ideal_point_heuristic(graph: MosGraph, target: int) -> HeuristicTable:
    """One reverse Dijkstra per objective, each kept as a column.

    Reachability of the target is a structural property, so either every
    column holds -1 at a vertex or none does.
    """
    return HeuristicTable(
        target,
        tuple(
            tuple(-1 if x == INF else x for x in dijkstra_bound(graph, target, k))
            for k in range(graph.d)
        ),
    )


def _search_bi(
    graph: MosGraph,
    query: Query,
    heur: HeuristicTable,
    deadline: float | None,
) -> list[tuple[Cost, tuple[int, ...]]]:
    """Specialized d=2 search; the per-vertex closed set is one scalar.

    g2min[tgt] is the target bound; a one-vertex query is no special case."""
    n = graph.num_vertices
    src, tgt = query.source, query.target
    arcs = graph.out_arcs
    h1, h2 = heur.columns
    if h1[src] < 0:
        return []

    # Above the second cost of every simple path, which includes every
    # Pareto-optimal one.
    big = graph.cost_sums[1] + 1
    f2_bits = (big + max(h2)).bit_length() + 1
    v_bits = n.bit_length() + 1
    p_bits = _ID_BITS
    f2_mask = (1 << f2_bits) - 1
    v_mask = (1 << v_bits) - 1
    p_mask = (1 << p_bits) - 1

    g2min = [big] * (n + 1)
    tbound = big
    # Closed labels by id, from 1: their vertex and their parent's id.
    closed_v = array("q", [0])
    closed_p = array("q", [0])
    sols: list[tuple[Cost, int]] = []

    # held: the smallest child of the last expansion, kept out of the heap
    # (0 when there is none); the root's parent id is 0.
    held = (((h1[src] << f2_bits) | h2[src]) << v_bits | src) << p_bits
    heap: list[int] = []
    push = heapq.heappush
    pop = heapq.heappop
    pushpop = heapq.heappushpop
    pops = 0

    while held or heap:
        key = pushpop(heap, held) if held else pop(heap)
        held = 0
        pops += 1
        if deadline is not None and not (pops & 1023) and monotonic() > deadline:
            raise SearchTimeout(f"search past its deadline after {pops} pops")
        rest = key >> p_bits
        v = rest & v_mask
        rest >>= v_bits
        f2 = rest & f2_mask
        g2 = f2 - h2[v]
        if g2 >= g2min[v] or f2 >= tbound:
            continue
        g2min[v] = g2
        pid = key & p_mask
        if v == tgt:
            tbound = g2
            sols.append((((rest >> f2_bits) - h1[tgt], g2), pid))
            continue
        cid = len(closed_v)
        closed_v.append(v)
        closed_p.append(pid)
        g1 = (rest >> f2_bits) - h1[v]
        for _, w, (c1, c2) in arcs[v]:
            hw2 = h2[w]
            if hw2 < 0:
                continue
            ng2 = g2 + c2
            if ng2 >= g2min[w]:
                continue
            nf2 = ng2 + hw2
            if nf2 >= tbound:
                continue
            k = ((((g1 + c1 + h1[w]) << f2_bits | nf2) << v_bits | w) << p_bits) | cid
            if not held:
                held = k
            elif k < held:
                push(heap, held)
                held = k
            else:
                push(heap, k)

    return _materialize(sols, tgt, closed_v, closed_p)


def _search_multi(
    graph: MosGraph,
    query: Query,
    heur: HeuristicTable,
    deadline: float | None,
) -> list[tuple[Cost, tuple[int, ...]]]:
    """General-d packed search; shares its contract with _search_bi.

    The target's suffix store is the target bound; no one-vertex branch."""
    n = graph.num_vertices
    d = graph.d
    src, tgt = query.source, query.target
    arcs = graph.out_arcs
    hcols = heur.columns
    if hcols[0][src] < 0:
        return []

    sums = graph.cost_sums
    f_bits = [(sums[k] + max(hcols[k]) + 1).bit_length() + 1 for k in range(d)]
    v_bits = n.bit_length() + 1
    p_bits = _ID_BITS
    f_masks = [(1 << b) - 1 for b in f_bits]
    v_mask = (1 << v_bits) - 1
    p_mask = (1 << p_bits) - 1

    def pack(f: list[int], v: int, pid: int) -> int:
        key = f[0]
        for k in range(1, d):
            key = (key << f_bits[k]) | f[k]
        return ((key << v_bits | v) << p_bits) | pid

    def unpack_f(rest: int) -> list[int]:
        f = [0] * d
        for k in range(d - 1, 0, -1):
            f[k] = rest & f_masks[k]
            rest >>= f_bits[k]
        f[0] = rest
        return f

    # Closed (d-1)-suffixes per vertex; the target's are the found costs.
    dominated, insert = _suffix_fronts(d, n + 1)

    closed_v = array("q", [0])
    closed_p = array("q", [0])
    sols: list[tuple[Cost, int]] = []

    held = pack([hcols[k][src] for k in range(d)], src, 0)
    heap: list[int] = []
    pops = 0

    while held or heap:
        key = heapq.heappushpop(heap, held) if held else heapq.heappop(heap)
        held = 0
        pops += 1
        if deadline is not None and not (pops & 1023) and monotonic() > deadline:
            raise SearchTimeout(f"search past its deadline after {pops} pops")
        rest = key >> p_bits
        v = rest & v_mask
        f = unpack_f(rest >> v_bits)
        g = [f[k] - hcols[k][v] for k in range(d)]
        gsuf = tuple(g[1:])
        if dominated(v, gsuf) or dominated(tgt, tuple(f[1:])):
            continue
        insert(v, gsuf)
        pid = key & p_mask
        if v == tgt:
            sols.append((tuple(g), pid))
            continue
        cid = len(closed_v)
        closed_v.append(v)
        closed_p.append(pid)
        for _, w, cost in arcs[v]:
            if hcols[0][w] < 0:
                continue
            ng = [g[k] + cost[k] for k in range(d)]
            if dominated(w, tuple(ng[1:])):
                continue
            nf = [ng[k] + hcols[k][w] for k in range(d)]
            if dominated(tgt, tuple(nf[1:])):
                continue
            k = pack(nf, w, cid)
            if not held:
                held = k
            elif k < held:
                heapq.heappush(heap, held)
                held = k
            else:
                heapq.heappush(heap, k)

    return _materialize(sols, tgt, closed_v, closed_p)


def _materialize(
    sols: list[tuple[Cost, int]],
    tgt: int,
    closed_v: array,
    closed_p: array,
) -> list[tuple[Cost, tuple[int, ...]]]:
    out = []
    for cost, cid in sols:
        path = [tgt]
        cur = cid
        while cur:
            path.append(closed_v[cur])
            cur = closed_p[cur]
        path.reverse()
        out.append((cost, tuple(path)))
    return out


def _check_time_limit(ms: float | None, name: str) -> None:
    # NaN fails the comparison too: a NaN deadline would never pass.
    if ms is not None and not ms > 0:
        raise ValueError(f"{name} must be a positive number of milliseconds or None, got {ms}")


def _check_eps(eps: Epsilon, d: int) -> None:
    if eps.d != d:
        raise DimensionMismatch(
            f"epsilon has {eps.d} components, graph has {d} objectives"
        )


def solve_exact(
    graph: MosGraph,
    query: Query,
    heuristic: HeuristicTable | None = None,
    *,
    time_limit_ms: float | None = None,
) -> SolutionSet:
    """The complete Pareto front of a query, with witness paths.

    Entries arrive already sorted lexicographically by cost (the order the
    search finds them).  A disconnected query gives an empty set.  A
    search that ends past time_limit_ms raises SearchTimeout, however few
    labels it popped.  A time_limit_ms of None or inf means no limit; NaN
    or <= 0 raises ValueError.
    """
    _check_time_limit(time_limit_ms, "time_limit_ms")
    _check_vertex(graph, query.source, "source")
    _check_vertex(graph, query.target, "target")
    if heuristic is None:
        heuristic = ideal_point_heuristic(graph, query.target)
    elif heuristic.target != query.target:
        raise TargetOutOfRange(
            f"heuristic was built for target {heuristic.target}, query wants {query.target}"
        )
    deadline = None if time_limit_ms is None else monotonic() + time_limit_ms / 1000.0
    search = _search_bi if graph.d == 2 else _search_multi
    found = search(graph, query, heuristic, deadline)
    # The searches read the clock every 1024 pops, so a shorter search
    # would never see its deadline: a search that ends past it gives no front.
    if deadline is not None and monotonic() > deadline:
        raise SearchTimeout("search past its deadline when it ended")
    entries = tuple(SolutionEntry(cost, path) for cost, path in found)
    return SolutionSet(query, Epsilon.zero(graph.d), entries)


def _eps_front(exact: SolutionSet, eps: Epsilon) -> SolutionSet:
    """The epsilon front of an exact one: greedy admission in entry order.

    An entry is kept when no kept entry epsilon-covers it: with (num_k,
    den_k) the fraction form of 1 + eps_k, no kept cost scaled to
    (a_k * den_k) is <= the entry's (num_k * c_k) in every component.
    Exact entries are pairwise distinct and lexicographically sorted, so the
    all-components test cannot fire on an exactly equal vector and the
    strictness clause of epsilon-dominance is automatic.  The sort also
    settles the first component (a_1 <= c_1 and den_1 <= num_1), so one
    _suffix_fronts store holds the kept (den_k * a_k) suffixes and is
    asked about each (num_k * c_k) suffix.  Epsilon 0 keeps every entry.
    """
    _check_eps(eps, exact.epsilon.d)
    if eps.is_zero:
        return SolutionSet(exact.query, eps, exact.entries)
    nums, dens = zip(*eps.ratios())
    nums, dens = nums[1:], dens[1:]
    dominated, insert = _suffix_fronts(eps.d, 1)
    kept: list[SolutionEntry] = []
    for e in exact.entries:
        c = e.cost[1:]
        if not dominated(0, tuple(map(mul, nums, c))):
            kept.append(e)
            insert(0, tuple(map(mul, dens, c)))
    return SolutionSet(exact.query, eps, tuple(kept))


def solve_approx(graph: MosGraph, query: Query, eps: Epsilon) -> SolutionSet:
    """An epsilon-approximate front: every exact Pareto cost is epsilon
    dominated by (or equal to) some returned cost, and every returned cost
    is a true path cost.  With eps = 0 the output equals solve_exact."""
    _check_eps(eps, graph.d)
    return _eps_front(solve_exact(graph, query), eps)
