"""Independent oracles that the suite checks the toolkit against.

None of these is used by the toolkit itself: exhaustive path enumeration
stands in for the exact search, the sums over every choice of parallel arcs
stand in for verify's pruned walk, and the dominance predicates spell out
the definitions that the solvers and verifiers evaluate in their own way.
"""
from __future__ import annotations

from itertools import product
from operator import le, mul
from typing import Sequence

from mosbench.core import Cost, Epsilon, MosGraph, Query, SolutionEntry, SolutionSet
from mosbench.errors import DimensionMismatch, MosbenchError
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
