"""Output check that does not go through mosbench.

Reads the graph, query and solution files a pipeline left behind with its
own parsers and checks, for every solution set: witness paths run from the
query source to its target over real arcs, the stored cost is reachable by
some choice among parallel arcs, and no entry repeats or dominates another.
Each eps=0 set must also hold the optimum of every weighted-sum shortest
path (Dijkstra, for the unit weights and all-ones), so a front that misses
a supported Pareto point fails; each eps>0 set must eps-cover its eps=0 set.
"""
from __future__ import annotations

import heapq
from operator import itemgetter
from fractions import Fraction
from pathlib import Path

Arcs = dict[tuple[int, int], list[tuple[int, ...]]]


def read_graph(path: Path) -> tuple[int, int, Arcs]:
    n = d = 0
    arcs: Arcs = {}
    for line in path.read_text(encoding="ascii").splitlines():
        tok = line.split()
        if tok[0] == "p":
            n, d = int(tok[2]), int(tok[4])
        elif tok[0] == "a":
            arcs.setdefault((int(tok[1]), int(tok[2])), []).append(tuple(map(int, tok[3:])))
    return n, d, arcs


def read_queries(path: Path) -> list[tuple[int, int]]:
    return [
        (int(t[1]), int(t[2]))
        for t in (line.split() for line in path.read_text(encoding="ascii").splitlines())
        if t and t[0] == "q"
    ]


def read_sets(path: Path) -> list[tuple[int, tuple[Fraction, ...], list]]:
    sets: list = []
    for line in path.read_text(encoding="ascii").splitlines():
        tok = line.split()
        if tok[0] == "r":
            sets.append((int(tok[1]), tuple(Fraction(e) for e in tok[2].split(",")), []))
        elif tok[0] == "x":
            sep = tok.index(":")
            sets[-1][2].append((tuple(map(int, tok[1:sep])), tuple(map(int, tok[sep + 1 :]))))
    return sets


def _add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def achievable(arcs: Arcs, path: tuple[int, ...], cost: tuple[int, ...]) -> bool:
    """Whether some choice of parallel arcs along path sums to cost exactly."""
    fixed = tuple(0 for _ in cost)
    choices = []
    for hop in zip(path, path[1:]):
        opts = arcs.get(hop)
        if not opts:
            return False
        if len(opts) == 1:
            fixed = _add(fixed, opts[0])
        else:
            choices.append(opts)
    want = tuple(c - f for c, f in zip(cost, fixed))
    rest = [tuple(0 for _ in cost)]  # rest[i]: componentwise lower bound of choices i..
    for opts in reversed(choices):
        rest.append(_add(rest[-1], tuple(map(min, zip(*opts)))))
    rest.reverse()
    sums = {tuple(0 for _ in cost)}
    for i, opts in enumerate(choices):
        sums = {
            s
            for acc in sums
            for o in opts
            for s in (_add(acc, o),)
            if all(a + b <= c for a, b, c in zip(s, rest[i + 1], want))
        }
    return want in sums


def weighted_adjacency(n: int, arcs: Arcs, weight) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (u, v), opts in arcs.items():
        adj[u].append((v, min(map(weight, opts))))
    return adj


def shortest(adj: list[list[tuple[int, int]]], src: int, dst: int) -> int | None:
    dist = {src: 0}
    heap = [(0, src)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == dst:
            return du
        if du > dist[u]:
            continue
        for v, c in adj[u]:
            if du + c < dist.get(v, du + c + 1):
                dist[v] = du + c
                heapq.heappush(heap, (du + c, v))
    return None


def _covers(a: tuple[int, ...], c: tuple[int, ...], ratios: list[tuple[int, int]]) -> bool:
    """a == c, or a_i <= (1 + eps_i) c_i for all i and strictly for some i."""
    if a == c:
        return True
    sides = [(x * den, num * y) for x, y, (num, den) in zip(a, c, ratios)]
    return all(lhs <= rhs for lhs, rhs in sides) and any(lhs < rhs for lhs, rhs in sides)


def check_instance(gr: Path, qf: Path, sol: Path) -> int:
    """Number of solution sets of one instance that fail a check."""
    n, d, arcs = read_graph(gr)
    queries = read_queries(qf)
    weights = [itemgetter(k) for k in range(d)] + [sum]
    adjacency = [weighted_adjacency(n, arcs, w) for w in weights]
    sets = read_sets(sol)
    zero = {q: entries for q, eps, entries in sets if not any(eps)}
    bad = 0
    for q, eps, entries in sets:
        src, dst = queries[q]
        costs = sorted(c for c, _ in entries)
        ok = all(
            p[0] == src and p[-1] == dst and achievable(arcs, p, c) for c, p in entries
        ) and not any(
            all(a <= b for a, b in zip(costs[j], costs[i]))
            for i in range(len(costs))
            for j in range(i)
        )
        if ok and not any(eps):
            best = [min(map(w, costs)) if costs else None for w in weights]
            ok = best == [shortest(adj, src, dst) for adj in adjacency]
        elif ok:
            ratios = [((1 + e).numerator, (1 + e).denominator) for e in eps]
            ok = q in zero and all(
                any(_covers(a, c, ratios) for a in costs) for c, _ in zero[q]
            )
        bad += not ok
    return bad
