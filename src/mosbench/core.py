"""Core model for multi-objective shortest-path benchmarks.

Cost vectors are tuples of non-negative integers.  Real-valued objectives are
carried in fixed point: each objective has a scale factor s, and a stored
component c represents the real value c / s.  All comparisons, dominance
checks and front computations happen on the stored integers, so they are
exact and independent of float rounding.
"""
from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, ge, itemgetter, le, lt, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    EmptyGraph,
    LengthMismatch,
    NegativeCost,
    NonEdge,
)

Cost = tuple[int, ...]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Switch the cyclic garbage collector off while acyclic bulk data is built.

    Edge tuples, cost tuples and lists of them cannot form reference cycles,
    yet every 700 new containers set off a collection that walks the young
    ones again.  The collector is switched back on at exit only if it was on
    at entry, so nested pauses and callers that turned it off keep their
    state.

    At that exit the pause also hands what it built to the oldest
    generation: gc.freeze() then gc.unfreeze() move every tracked object
    there and reset the young count, two O(1) list splices.  So no young
    collection walks the build again; reference counting still frees it and
    full collections still see it.  Every young object of the caller moves
    with it.  The promotion is skipped when the caller has frozen objects
    (gc.get_freeze_count() is non-zero), which stay frozen, and when the
    collector was off at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


@dataclass(frozen=True)
class Objective:
    """One cost axis: a name and the fixed-point scale of its stored integers."""

    name: str
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"objective {self.name!r}: scale must be >= 1")


@dataclass(frozen=True, eq=True)
class MosGraph:
    """A directed graph with d-dimensional additive integer edge costs.

    Vertices are 1..num_vertices.  Edges are (u, v, cost) triples; parallel
    edges are allowed and kept distinct.  The edge tuple order is the
    construction order and is preserved by conversions; file writers apply
    their own canonical sort without mutating the in-memory graph.
    """

    num_vertices: int
    edges: tuple[tuple[int, int, Cost], ...]
    objectives: tuple[Objective, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise EmptyGraph("graph must have at least one vertex")
        d = len(self.objectives)
        if d < 1:
            raise DimensionMismatch("graph needs at least one objective")
        n = self.num_vertices
        for u, v, cost in self.edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise NonEdge(f"edge ({u}, {v}) endpoint out of range 1..{n}")
            if len(cost) != d:
                raise DimensionMismatch(
                    f"edge ({u}, {v}) has {len(cost)} cost components, expected {d}"
                )
            for c in cost:
                if c < 0:
                    raise NegativeCost(f"edge ({u}, {v}) has negative cost {cost}")

    @property
    def d(self) -> int:
        return len(self.objectives)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _min_edge_cost(self) -> list[dict[int, Cost]]:
        # Row u maps each head v of an arc u -> v to its lexicographically
        # smallest cost (row 0 is unused): parallel edges collapse here for
        # path_cost, while solvers see every parallel edge separately.
        with collector_paused():
            rows: list[dict[int, Cost]] = [{} for _ in range(self.num_vertices + 1)]
            for u, v, cost in self.edges:
                row = rows[u]
                if v not in row or cost < row[v]:
                    row[v] = cost
        return rows

    @cached_property
    def _parallel_arcs(self) -> dict[tuple[int, int], tuple[tuple[Cost, ...], Cost, Cost]]:
        # (u, v) pairs with more than one distinct arc cost: each distinct cost
        # minus the lexicographic minimum (the zero delta first), then the
        # componentwise min and max of those deltas.  Built on first use.
        best = self._min_edge_cost
        with collector_paused():
            deltas: dict[tuple[int, int], set[Cost]] = {}
            for u, v, cost in self.edges:
                base = best[u][v]
                if cost != base:
                    deltas.setdefault((u, v), {(0,) * self.d}).add(tuple(map(sub, cost, base)))
            return {
                hop: (tuple(sorted(ds)), tuple(map(min, zip(*ds))), tuple(map(max, zip(*ds))))
                for hop, ds in deltas.items()
            }

    @cached_property
    def _columns(self) -> tuple[itemgetter, ...]:
        # One getter per objective, so that cost vectors sum column by
        # column: zip(*costs) would allocate an iterator per vector and set
        # off garbage collections mid-search.
        return tuple(itemgetter(k) for k in range(self.d))

    @cached_property
    def cost_sums(self) -> Cost:
        """Each objective summed over every edge: no simple path costs more."""
        costs = list(map(itemgetter(2), self.edges))
        return tuple(sum(map(column, costs)) for column in self._columns)

    @cached_property
    def out_arcs(self) -> list[list[tuple[int, int, Cost]]]:
        """out_arcs[v]: the edge tuples leaving v, in edge-tuple order."""
        return self._csr(forward=True)

    @cached_property
    def in_arcs(self) -> list[list[tuple[int, int, Cost]]]:
        """in_arcs[v]: the edge tuples entering v, in edge-tuple order."""
        return self._csr(forward=False)

    def _csr(self, forward: bool) -> list[list[tuple[int, int, Cost]]]:
        # Rows hold the graph's own edge tuples, so nothing is copied.  Edge
        # order within a row is the searches' tie order and fixes their
        # witness paths.  Index 0 is an empty row.  The name is the one
        # perfbench/pipeline.py traces as the core.csr span.
        with collector_paused():
            rows: list[list[tuple[int, int, Cost]]] = [[] for _ in range(self.num_vertices + 1)]
            for v, e in zip(map(itemgetter(0 if forward else 1), self.edges), self.edges):
                rows[v].append(e)
        return rows


@dataclass(frozen=True, order=True)
class Query:
    """A source/target pair plus its position in the query file."""

    source: int
    target: int
    index: int = 0


def _fraction_text(value: Fraction) -> str:
    """Render a non-negative fraction; decimals stay decimals, others are n/d."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    j = 0
    while den % 5 == 0:
        den //= 5
        j += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    places = max(k, j)
    scaled = value.numerator * 10**places // value.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True)
class Epsilon:
    """Per-objective relative slack, held exactly as fractions.

    With (num_k, den_k) the fraction form of 1 + eps_k, a vector p
    epsilon-dominates q when den_k * p_k <= num_k * q_k for every k and the
    two scaled vectors differ.  solve._eps_front and protocol.verify_coverage
    apply this rule; it is all integer arithmetic, so no floats are ever
    involved.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise DimensionMismatch("epsilon needs at least one component")
        for v in self.values:
            if v < 0:
                raise ValueError(f"epsilon component {v} is negative")

    @classmethod
    def zero(cls, d: int) -> "Epsilon":
        return cls((Fraction(0),) * d)

    @classmethod
    def broadcast(cls, value: Fraction | str | int, d: int) -> "Epsilon":
        return cls((Fraction(value),) * d)

    @classmethod
    def from_text(cls, text: str, d: int) -> "Epsilon":
        """Parse '0.1', '1/20' or a comma list with exactly d entries."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) == 1:
            return cls.broadcast(Fraction(parts[0]), d)
        if len(parts) != d:
            raise DimensionMismatch(
                f"epsilon list has {len(parts)} entries, graph has {d} objectives"
            )
        return cls(tuple(Fraction(p) for p in parts))

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def ratios(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of 1 + eps_i per objective."""
        return self._ratios

    @cached_property
    def _ratios(self) -> tuple[tuple[int, int], ...]:
        return tuple(((1 + v).numerator, (1 + v).denominator) for v in self.values)

    def display(self) -> str:
        """Canonical text: a single scalar when uniform, else a comma list."""
        if all(v == self.values[0] for v in self.values):
            return _fraction_text(self.values[0])
        return ",".join(_fraction_text(v) for v in self.values)


@dataclass(frozen=True)
class SolutionEntry:
    """One Pareto point: its cost vector and an optional witness path."""

    cost: Cost
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SolutionSet:
    """The solution front for one (query, epsilon) pair, sorted by cost."""

    query: Query
    epsilon: Epsilon
    entries: tuple[SolutionEntry, ...]

    @property
    def cardinality(self) -> int:
        return len(self.entries)

    def costs(self) -> list[Cost]:
        return [e.cost for e in self.entries]


def path_cost(graph: MosGraph, path: Sequence[int]) -> Cost:
    """Sum edge costs along a vertex path; a single vertex costs zero.

    Parallel edges resolve to the lexicographically smallest cost: hop
    (u, v) is one lookup of v in row u of the graph's per-tail table.
    Raises NonEdge for an empty path, naming the first out-of-range vertex,
    or naming the first consecutive pair that is not an arc.  Those checks
    run only when a lookup fails.  A row holds only heads in 1..n, so when
    every hop is found each vertex after the first is in range.  The first
    is checked before any row is read, since the table is a list and an
    index below 0 would read one of its last rows; a later tail beyond n
    raises IndexError, which counts as a failed lookup.
    """
    n = graph.num_vertices
    if path and 1 <= path[0] <= n:
        rows = graph._min_edge_cost
        try:
            arcs = list(map(dict.get, map(rows.__getitem__, path[:-1]), path[1:]))
        except IndexError:
            arcs = [None]
        if None not in arcs:
            return tuple([sum(map(column, arcs)) for column in graph._columns])
    if not path:
        raise NonEdge("empty path")
    for v in path:
        if not 1 <= v <= n:
            raise NonEdge(f"path vertex {v} out of range 1..{n}")
    i = arcs.index(None)
    raise NonEdge(f"({path[i]}, {path[i + 1]}) is not an arc of the graph")


def _path_costs(
    graph: MosGraph, path: Sequence[int], costs: Iterable[Cost], base: Cost
) -> set[Cost]:
    """The costs that some choice among parallel edges gives this path.

    Every hop of path is an arc of the graph, and base is path_cost(graph,
    path), which takes the lexicographically smallest arc of every hop, so
    what is left to cover for a cost is cost - base.  Only the hops with
    more than one distinct arc cost can change that; their alternatives come
    from the graph's cached table of deltas over the smallest arc.  Those
    hops, and the componentwise [min, max] delta sums of the hops after
    each of them, are listed once per path.  The hops are taken in
    decreasing order of their largest delta component (sums commute, so
    the order changes no result): when each hop's deltas outweigh those of
    all hops after it, as powers of two do, the bounds of the hops left
    admit one choice per hop, where path order could keep every partial
    sum.  Each cost is then walked on its own, hop by hop, over the set of
    remainders still to be covered, each kept only while it lies within
    the bounds of the hops after the current one.  The cost is reachable
    when the zero vector is left; since every hop has the zero delta, a
    zero remainder stays within every later bound and ends that cost's
    walk.  Equal remainders merge, so one walk grows with the number of
    distinct partial sums, not of arc choices.  For d=2 the walks run on
    (r1, r2) pairs against scalar bounds.
    """
    multi = [h for h in map(graph._parallel_arcs.get, zip(path, path[1:])) if h]
    multi.sort(key=lambda h: max(h[2]), reverse=True)
    reached: set[Cost] = set()
    if graph.d == 2:
        bounds = []
        lo1 = lo2 = hi1 = hi2 = 0
        for deltas, (l1, l2), (u1, u2) in reversed(multi):
            bounds.append((deltas, lo1, lo2, hi1, hi2))
            lo1 += l1
            lo2 += l2
            hi1 += u1
            hi2 += u2
        bounds.reverse()
        b1, b2 = base
        for cost in costs:
            pairs = {(cost[0] - b1, cost[1] - b2)}
            for deltas, lo1, lo2, hi1, hi2 in bounds:
                pairs = {
                    (r1, r2)
                    for x1, x2 in pairs
                    for o1, o2 in deltas
                    if lo1 <= (r1 := x1 - o1) <= hi1 and lo2 <= (r2 := x2 - o2) <= hi2
                }
                if not pairs or (0, 0) in pairs:
                    break
            if (0, 0) in pairs:
                reached.add(cost)
        return reached
    zero = (0,) * graph.d
    lo = hi = zero
    bounds = []
    for deltas, dlo, dhi in reversed(multi):
        bounds.append((deltas, lo, hi))
        lo = tuple(map(add, lo, dlo))
        hi = tuple(map(add, hi, dhi))
    bounds.reverse()
    for cost in costs:
        level = {tuple(map(sub, cost, base))}
        for deltas, lo, hi in bounds:
            level = {
                r
                for acc in level
                for o in deltas
                for r in (tuple(map(sub, acc, o)),)
                if all(map(le, lo, r)) and all(map(le, r, hi))
            }
            if not level or zero in level:
                break
        if zero in level:
            reached.add(cost)
    return reached


def dominates(p: Sequence[int], q: Sequence[int]) -> bool:
    """True when p <= q componentwise and p != q (Pareto dominance)."""
    if len(p) != len(q):
        raise DimensionMismatch(f"cost vectors of length {len(p)} and {len(q)}")
    return all(map(le, p, q)) and any(map(lt, p, q))


def _suffix_fronts(d: int, count: int) -> tuple[Callable[..., bool], Callable[..., None]]:
    """count stores of non-dominated (d-1)-suffixes, in one of three forms
    chosen by d.

    Among costs met in lexicographic order, one is dominated exactly when an
    earlier one's suffix c[1:] is <= its own.  dominated(v, s) asks whether
    a suffix in store v is <= s; insert(v, s), for an s it rejected, adds s
    and drops the suffixes s dominates.  The forms:

    - d=2: the running minimum of the second cost, inf until used (BOA*'s
      scalar bound, which _search_bi inlines as g2min and tbound);
    - d=3: a staircase, g2 ascending and g3 strictly descending, None until
      used; a check is one bisect (EMOA*'s truncated dominance);
    - other d: a pool of suffixes, None until used, scanned at C level.
    """
    if d == 2:
        low: list[float] = [float("inf")] * count

        def dominated(v: int, s: Cost) -> bool:
            return low[v] <= s[0]

        def insert(v: int, s: Cost) -> None:
            # s was rejected, so s[0] is below the store's minimum.
            low[v] = s[0]

    elif d == 3:
        g2s: list[list[int] | None] = [None] * count
        g3s: list[list[int] | None] = [None] * count

        def dominated(v: int, s: Cost) -> bool:
            a = g2s[v]
            if a is None:
                return False
            i = bisect_right(a, s[0])
            return i > 0 and g3s[v][i - 1] <= s[1]

        def insert(v: int, s: Cost) -> None:
            # s is not dominated at v; it replaces the run it dominates.
            a = g2s[v]
            if a is None:
                a = g2s[v] = []
                g3s[v] = []
            b = g3s[v]
            pos = j = bisect_left(a, s[0])
            while j < len(b) and b[j] >= s[1]:
                j += 1
            a[pos:j] = (s[0],)
            b[pos:j] = (s[1],)

    else:
        pools: list[list[Cost] | None] = [None] * count

        def dominated(v: int, s: Cost) -> bool:
            pool = pools[v]
            return pool is not None and any(all(map(le, p, s)) for p in pool)

        def insert(v: int, s: Cost) -> None:
            keep = [p for p in pools[v] or () if not all(map(ge, p, s))]
            keep.append(s)
            pools[v] = keep

    return dominated, insert


def pareto_filter(costs: Iterable[Cost]) -> list[Cost]:
    """The non-dominated subset, deduplicated, sorted lexicographically.

    After a lexicographic sort a vector is dominated exactly when an earlier
    one has a suffix c[1:] no larger.  Every d asks one _suffix_fronts
    store (a running minimum at d=2), inserting the suffix of each vector
    it keeps.
    """
    pool = sorted(set(map(tuple, costs)))
    if not pool:
        return []
    d = len(pool[0])
    for c in pool:
        if len(c) != d:
            raise DimensionMismatch("mixed cost vector lengths")
    front: list[Cost] = []
    dominated, insert = _suffix_fronts(d, 1)
    for c in pool:
        s = c[1:]
        if not dominated(0, s):
            front.append(c)
            insert(0, s)
    return front


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples.

    Raises LengthMismatch on unequal lengths and DegenerateInput when either
    sample is constant or shorter than two.
    """
    if len(xs) != len(ys):
        raise LengthMismatch(f"samples of length {len(xs)} and {len(ys)}")
    if len(xs) < 2:
        raise DegenerateInput("need at least two observations")
    try:
        r = statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        raise DegenerateInput("constant sample has no correlation") from None
    return max(-1.0, min(1.0, r))


def correlation_matrix_from_costs(
    costs: Sequence[Cost],
) -> list[list[float | None]]:
    """Pairwise Pearson matrix of cost components; None marks undefined cells."""
    if len(costs) < 2:
        raise EmptyGraph("need at least two cost vectors")
    d = len(costs[0])
    cols = [[c[k] for c in costs] for k in range(d)]
    out: list[list[float | None]] = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            try:
                r = pearson(cols[i], cols[j])
            except DegenerateInput:
                r = None
            out[i][j] = r
            out[j][i] = r
    return out


def objective_correlation_matrix(graph: MosGraph) -> list[list[float | None]]:
    """Pearson correlation between objectives over all edge costs.

    Computed on the stored fixed-point integers; Pearson is scale invariant
    so the result equals the real-valued correlation.
    """
    if graph.num_edges < 2:
        raise EmptyGraph("correlation needs at least two edges")
    return correlation_matrix_from_costs([cost for _, _, cost in graph.edges])
