"""Seeded construction of the synthetic benchmark families.

Two families are built here: random-cost grids (4-connected, auxiliary
source/target columns) and NetMaker-style directed graphs (a Hamiltonian
cycle over a random permutation plus locality edges in vertex-id space).
Both consume fixed substreams of one seed, so a spec fully determines the
instance down to the byte.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

from .core import MosGraph, Objective, Query, collector_paused
from .errors import EmptyGraph, ExhaustedPairs, WindowTooSmall
from .rng import TAG_COSTS, TAG_QUERIES, TAG_STRUCTURE, substream

# NetMaker cycle edges draw one cost from each band; locality edges draw
# all costs from one small range.
CYCLE_BANDS = ((1, 333), (334, 666), (667, 1000))
LOCAL_RANGE = (1, 99)


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a random-cost grid instance."""

    k: int
    m: int
    d: int = 2
    seed: int = 0
    cost_low: int = 1
    cost_high: int = 10

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError("grid needs k, m >= 1")
        if not (2 <= self.d <= 4):
            raise ValueError("grid objective count must be 2, 3 or 4")
        if not (0 <= self.cost_low <= self.cost_high):
            raise ValueError("need 0 <= cost_low <= cost_high")


@dataclass(frozen=True)
class NetMakerSpec:
    """Parameters of a NetMaker-style instance (always 3 objectives)."""

    n: int
    i_vertex: int = 20
    a_min: int = 1
    a_max: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if not (1 <= self.a_min < self.a_max):
            raise ValueError("need 1 <= a_min < a_max (degree targets come from {a_min+1..a_max})")
        if self.i_vertex < 1:
            raise ValueError("locality window must be positive")


def generate_grid(spec: GridSpec) -> tuple[MosGraph, Query]:
    """Build a k x m grid with uniform integer costs and its standard query.

    Cell (x, y) with column x in 1..k and row y in 1..m gets vertex id
    (y-1)*k + x.  Every orthogonal neighbor pair carries two directed edges
    with independently sampled costs.  An auxiliary source (id k*m+1) feeds
    the leftmost column and the rightmost column feeds an auxiliary target
    (id k*m+2), both through zero-cost edges, so the returned query spans
    the whole grid while the front reflects interior trade-offs only.

    Interior edges come in row-major cell order (per cell the pair to its
    right, then the pair below, forward first), and each takes the next d
    draws of uniform_int(cost_low, cost_high) from the TAG_COSTS substream.
    """
    k, m, d = spec.k, spec.m, spec.d
    lo, hi = spec.cost_low, spec.cost_high
    with collector_paused():
        arcs: list[tuple[int, int]] = []
        for v in range(1, k * m + 1):  # row-major cell order
            if v % k:  # not in the rightmost column
                arcs += ((v, v + 1), (v + 1, v))
            if v <= k * (m - 1):  # not in the bottom row
                arcs += ((v, v + k), (v + k, v))
        # d consecutive draws of uniform_int(lo, hi) per arc, in arc order
        draws = substream(spec.seed, TAG_COSTS).bounded_run(hi - lo + 1, len(arcs) * d)
        costs = map(lo.__add__, draws)
        edges = [(u, v, cost) for (u, v), cost in zip(arcs, zip(*[costs] * d))]
        source = k * m + 1
        target = k * m + 2
        zero = (0,) * d
        edges += [(source, y * k + 1, zero) for y in range(m)]
        edges += [((y + 1) * k, target, zero) for y in range(m)]

        graph = MosGraph(
            num_vertices=k * m + 2,
            edges=tuple(edges),
            objectives=tuple(Objective(f"c{i + 1}") for i in range(d)),
            metadata={
                "family": "grid",
                "k": str(k),
                "m": str(m),
                "seed": str(spec.seed),
                "cost_low": str(lo),
                "cost_high": str(hi),
                "source": str(source),
                "target": str(target),
            },
        )
    return graph, Query(source, target, 0)


def generate_netmaker(spec: NetMakerSpec) -> MosGraph:
    """Build a NetMaker-style graph: random Hamiltonian cycle + local edges.

    Structure comes from one substream: the cycle permutation, then one
    out-degree target per vertex from {a_min+1 .. a_max}, then for each
    vertex uniform picks without replacement from its locality window
    W(u) = [max(1, u - I//2), min(n, u + I//2)] minus self, duplicates and
    the cycle successor.  Costs come from a second substream in final edge
    order: cycle edges get one value from each of the three bands assigned
    to objectives by a per-edge random permutation; local edges get three
    independent values from [1, 99].
    """
    n = spec.n
    struct = substream(spec.seed, TAG_STRUCTURE)

    perm = list(range(1, n + 1))
    struct.shuffle(perm)
    cycle_succ = [0] * (n + 1)
    cycle: list[tuple[int, int]] = []
    for i in range(n):
        u = perm[i]
        w = perm[(i + 1) % n]
        cycle_succ[u] = w
        cycle.append((u, w))

    targets = [0] * (n + 1)
    for u in range(1, n + 1):
        targets[u] = struct.uniform_int(spec.a_min + 1, spec.a_max)

    half = spec.i_vertex // 2
    local: list[tuple[int, int]] = []
    for u in range(1, n + 1):
        need = targets[u] - 1
        lo = max(1, u - half)
        hi = min(n, u + half)
        candidates = [w for w in range(lo, hi + 1) if w != u and w != cycle_succ[u]]
        if need > len(candidates):
            warnings.warn(
                f"vertex {u}: window supplies {len(candidates)} targets, "
                f"degree target {targets[u]} truncated",
                WindowTooSmall,
            )
        while need > 0 and candidates:
            j = struct.bounded(len(candidates))
            local.append((u, candidates.pop(j)))
            need -= 1

    costs = substream(spec.seed, TAG_COSTS)
    edges: list[tuple[int, int, tuple[int, ...]]] = []
    band_order = [0, 1, 2]
    for u, w in cycle:
        order = band_order[:]
        costs.shuffle(order)
        cost = tuple(costs.uniform_int(*CYCLE_BANDS[order[i]]) for i in range(3))
        edges.append((u, w, cost))
    lo, hi = LOCAL_RANGE
    draws = map(lo.__add__, costs.bounded_run(hi - lo + 1, 3 * len(local)))
    edges += [(u, w, cost) for (u, w), cost in zip(local, zip(draws, draws, draws))]

    return MosGraph(
        num_vertices=n,
        edges=tuple(edges),
        objectives=(Objective("c1"), Objective("c2"), Objective("c3")),
        metadata={
            "family": "netmaker",
            "n": str(n),
            "i_vertex": str(spec.i_vertex),
            "a_min": str(spec.a_min),
            "a_max": str(spec.a_max),
            "seed": str(spec.seed),
        },
    )


def netmaker_edge_kinds(graph: MosGraph) -> tuple[list[int], list[int]]:
    """Split edge indices into (cycle, local) lists.

    Cycle edges always carry one cost from the top band, local costs stay
    below 100, so a max component >= 667 identifies a cycle edge.
    """
    cycle_idx: list[int] = []
    local_idx: list[int] = []
    floor = CYCLE_BANDS[2][0]
    for i, (_, _, cost) in enumerate(graph.edges):
        (cycle_idx if max(cost) >= floor else local_idx).append(i)
    return cycle_idx, local_idx


def sample_netmaker_queries(graph: MosGraph, count: int, seed: int) -> list[Query]:
    """Draw distinct query pairs: sources from the first 10% of vertex ids,
    targets from the last 10%.  Duplicates are resampled, with a 100x-count
    attempt cap before giving up."""
    n = graph.num_vertices
    if n < 20:
        raise EmptyGraph("query sampling needs at least 20 vertices")
    if count < 1:
        raise ValueError("need count >= 1")
    pool = n // 10
    if count > pool * pool:
        raise ExhaustedPairs(
            f"{count} distinct pairs requested, only {pool * pool} exist"
        )
    rng = substream(seed, TAG_QUERIES)
    seen: set[tuple[int, int]] = set()
    out: list[Query] = []
    attempts = 0
    while len(out) < count:
        if attempts >= 100 * count:
            raise ExhaustedPairs(
                f"gave up after {attempts} draws for {count} distinct pairs"
            )
        attempts += 1
        s = rng.uniform_int(1, pool)
        t = rng.uniform_int(n - pool + 1, n)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        out.append(Query(s, t, len(out)))
    return out
