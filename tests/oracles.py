"""Independent oracles that the suite checks the toolkit against.

None of these is used by the toolkit itself: exhaustive path enumeration
stands in for the exact search, the sums over every choice of parallel arcs
stand in for verify's pruned walk, and the dominance predicates spell out
the definitions that the solvers and verifiers evaluate in their own way.
A per-cell arc loop with one draw per cost component stands in for the
grid generator's columns, and a line-by-line text for write_graph's.
"""
from __future__ import annotations

from itertools import product
from operator import le, mul
from typing import Sequence

from mosbench.core import Cost, Epsilon, MosGraph, Query, SolutionEntry, SolutionSet
from mosbench.errors import DimensionMismatch, MosbenchError
from mosbench.generate import GridSpec
from mosbench.rng import TAG_COSTS, substream
from mosbench.solve import _check_vertex


class InstanceTooLarge(MosbenchError):
    """Exhaustive path enumeration exceeded its safety cap."""


def _check_pair(p: Sequence[int], q: Sequence[int]) -> None:
    if len(p) != len(q):
        raise DimensionMismatch(f"cost vectors of length {len(p)} and {len(q)}")


def weakly_dominates(p: Sequence[int], q: Sequence[int]) -> bool:
    """True when p <= q componentwise (dominated-or-equal)."""
    _check_pair(p, q)
    return all(map(le, p, q))


def eps_dominates(p: Sequence[int], q: Sequence[int], eps: Epsilon) -> bool:
    """True when p_i <= (1 + eps_i) * q_i for all i, strictly for some i.

    With eps = 0 this reduces to dominates().  Evaluated exactly over the
    integers: with (num_i, den_i) the fraction form of 1 + eps_i, the scaled
    vector (p_i * den_i) must be <= (num_i * q_i) in every component and
    differ from it.
    """
    _check_pair(p, q)
    if eps.d != len(p):
        raise DimensionMismatch(
            f"epsilon has {eps.d} components, vectors have {len(p)}"
        )
    nums, dens = zip(*eps.ratios())
    a = tuple(map(mul, p, dens))
    t = tuple(map(mul, nums, q))
    return all(map(le, a, t)) and a != t


def eps_covers(p: Sequence[int], q: Sequence[int], eps: Epsilon) -> bool:
    """eps_dominates or equality: p is an acceptable stand-in for q."""
    return tuple(p) == tuple(q) or eps_dominates(p, q, eps)


def arc_choice_sums(graph: MosGraph, path: Sequence[int]) -> set[Cost]:
    """Every cost that taking one arc per hop gives path: the sums over all
    arc choices (itertools.product of each hop's arcs).

    Empty when some hop is not an arc; a one-vertex path sums to zero.
    Exponential in the number of hops with parallel arcs, so small paths only.
    """
    hops = [[c for u, v, c in graph.edges if (u, v) == hop] for hop in zip(path, path[1:])]
    return {
        tuple(sum(c[k] for c in pick) for k in range(graph.d)) for pick in product(*hops)
    }


def brute_force_pareto(
    graph: MosGraph, query: Query, max_paths: int = 10**7
) -> SolutionSet:
    """Enumerate all simple source-to-target paths and filter.

    The filter is its own quadratic scan: a distinct cost is kept when no
    other one weakly dominates it, so the front shares no code with the
    suffix stores of the search and of pareto_filter.  Sound for
    cost-vector fronts because removing a non-negative cycle never increases
    any component.  Counts complete paths and raises InstanceTooLarge past
    max_paths.  Witness per front cost is the first path found in DFS order
    (adjacency order, deterministic).
    """
    _check_vertex(graph, query.source, "source")
    _check_vertex(graph, query.target, "target")
    d = graph.d
    src, tgt = query.source, query.target
    if src == tgt:
        return SolutionSet(
            query, Epsilon.zero(d), (SolutionEntry((0,) * d, (src,)),)
        )
    arcs = graph.out_arcs
    found: dict[Cost, tuple[int, ...]] = {}
    count = 0
    path = [src]
    onpath = {src}
    acc: list[Cost] = [(0,) * d]
    stack: list = [iter(arcs[src])]
    while stack:
        advanced = False
        for _, w, c in stack[-1]:
            if w in onpath:
                continue
            cost = tuple(acc[-1][k] + c[k] for k in range(d))
            if w == tgt:
                count += 1
                if count > max_paths:
                    raise InstanceTooLarge(
                        f"more than {max_paths} simple paths enumerated"
                    )
                if cost not in found:
                    found[cost] = tuple(path) + (tgt,)
                continue
            path.append(w)
            onpath.add(w)
            acc.append(cost)
            stack.append(iter(arcs[w]))
            advanced = True
            break
        if not advanced:
            stack.pop()
            onpath.discard(path.pop())
            acc.pop()
    costs = sorted(found)
    front = [c for c in costs if not any(k != c and weakly_dominates(k, c) for k in costs)]
    entries = tuple(SolutionEntry(c, found[c]) for c in front)
    return SolutionSet(query, Epsilon.zero(d), entries)


def grid_edges(spec: GridSpec) -> tuple[tuple[int, int, Cost], ...]:
    """generate_grid's edge tuple, built one cell and one draw at a time.

    Per cell in row-major order the pair to its right, then the pair below,
    forward first; each arc takes d uniform_int draws from the TAG_COSTS
    substream.  Then the zero-cost source arcs and target arcs, row by row.
    """
    k, m, d = spec.k, spec.m, spec.d
    arcs: list[tuple[int, int]] = []
    for v in range(1, k * m + 1):
        if v % k:  # not in the rightmost column
            arcs += ((v, v + 1), (v + 1, v))
        if v <= k * (m - 1):  # not in the bottom row
            arcs += ((v, v + k), (v + k, v))
    rng = substream(spec.seed, TAG_COSTS)
    edges = [
        (u, v, tuple(rng.uniform_int(spec.cost_low, spec.cost_high) for _ in range(d)))
        for u, v in arcs
    ]
    source, target, zero = k * m + 1, k * m + 2, (0,) * d
    edges += [(source, y * k + 1, zero) for y in range(m)]
    edges += [((y + 1) * k, target, zero) for y in range(m)]
    return tuple(edges)


def graph_text(graph: MosGraph) -> str:
    """write_graph's text, one line at a time: the objectives, the sorted
    metadata, the problem line, the scales when one is not 1, then one
    `a u v c_1 .. c_d` line per arc in sorted order."""
    lines = ["c objectives " + ",".join(o.name for o in graph.objectives)]
    lines += [f"c meta {key} {graph.metadata[key]}" for key in sorted(graph.metadata)]
    lines.append(f"p mosp {graph.num_vertices} {len(graph.edges)} {graph.d}")
    if any(o.scale != 1 for o in graph.objectives):
        lines.append("s " + " ".join(str(o.scale) for o in graph.objectives))
    lines += ["a " + " ".join(map(str, (u, v, *cost))) for u, v, cost in sorted(graph.edges)]
    return "\n".join(lines) + "\n"
