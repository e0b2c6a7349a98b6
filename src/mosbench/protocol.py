"""The standardized evaluation protocol.

run_benchmark sweeps a query set across an epsilon grid, producing solution
sets plus one benchmark record per (query, epsilon) task: one exact search
per query, with each epsilon front filtered from its result.  Verification
checks solver output feasibility and the epsilon-coverage contract, and the
statistics operations reproduce the reported descriptive tables:
cardinalities, reductions versus the exact baseline, per-axis spreads, and
objective correlation matrices.
"""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from time import monotonic
from typing import Callable, Iterable, Sequence

from .core import (
    Cost,
    Epsilon,
    MosGraph,
    Query,
    SolutionSet,
    _fraction_text,
    _path_costs,
    _suffix_fronts,
    correlation_matrix_from_costs,
    dominates,
    objective_correlation_matrix,
    pareto_filter,
    path_cost,
)
from .errors import (
    AllExcluded,
    DimensionMismatch,
    Malformed,
    MissingBaseline,
    NoRecords,
    NonEdge,
    QueryMismatch,
    SearchTimeout,
)
from .generate import netmaker_edge_kinds
from .solve import HeuristicTable, _check_eps, _check_time_limit, _eps_front

# Module attributes that traced benchmark runs (perfbench/pipeline.py) wrap by name.
from .solve import ideal_point_heuristic, solve_approx, solve_exact  # noqa: F401

SOLVER_ID = "labelset-dr"
RECORDS_HEADER = ("benchmark", "query", "epsilon", "cardinality", "ms", "solver", "status")

STATUS_SOLVED = "solved"
STATUS_EMPTY = "empty"
STATUS_TIMEOUT = "timeout"
_STATUSES = (STATUS_SOLVED, STATUS_EMPTY, STATUS_TIMEOUT)


@dataclass(frozen=True)
class BenchmarkRecord:
    """One (query, epsilon) measurement row of the records CSV."""

    benchmark: str
    query_index: int
    epsilon: str
    cardinality: int
    ms: float
    solver: str = SOLVER_ID
    status: str = STATUS_SOLVED


@dataclass(frozen=True)
class EpsilonGrid:
    """The protocol's ordered scalar epsilon values, broadcast per graph."""

    values: tuple[Fraction, ...] = (
        Fraction(0),
        Fraction(1, 100),
        Fraction(1, 20),
        Fraction(1, 10),
    )

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("epsilon grid must not be empty")
        for v in self.values:
            if v < 0:
                raise ValueError(f"negative epsilon {v}")
        for a, b in zip(self.values, self.values[1:]):
            if a >= b:
                raise ValueError("epsilon grid must be strictly increasing")

    def epsilons(self, d: int) -> list[Epsilon]:
        return [Epsilon.broadcast(v, d) for v in self.values]


def run_benchmark(
    graph: MosGraph,
    queries: Sequence[Query],
    grid: EpsilonGrid | Sequence[Epsilon] | None = None,
    *,
    timeout_ms: float | None = 300_000.0,
    benchmark_name: str | None = None,
    progress: Callable[[BenchmarkRecord], None] | None = None,
) -> tuple[list[SolutionSet], list[BenchmarkRecord]]:
    """Solve every (query, epsilon) pair; order is query-major, epsilon-minor.

    One heuristic is built per distinct target and shared.  Each query runs
    one exact search; its epsilon fronts are filtered from the exact front.
    A query whose (source, target) repeats an earlier one reuses that
    query's front, bound to its own Query, or its timeout: only endpoints
    that occur more than once keep their front.  A record's ms is the
    query's search time (the first search's, for a repeat) plus the time of
    that row's own filter, so it is the time to produce that front from the
    shared heuristic.  A search that exceeds the timeout yields a timeout
    record and no solution set for every epsilon of its query; the batch
    always continues.  A timeout_ms of None or inf means no limit; NaN or <= 0
    raises ValueError before any work.  So does an epsilon listed twice,
    and one whose width is not graph.d raises DimensionMismatch.
    """
    _check_time_limit(timeout_ms, "timeout_ms")
    if grid is None:
        grid = EpsilonGrid()
    eps_list = grid.epsilons(graph.d) if isinstance(grid, EpsilonGrid) else list(grid)
    for i, eps in enumerate(eps_list):
        _check_eps(eps, graph.d)
        if eps in eps_list[:i]:
            raise ValueError(f"epsilon {eps.display()} is listed twice")
    name = benchmark_name or graph.metadata.get("family", "graph")
    # The heuristics build in_arcs; out_arcs is built here so that the
    # first query's ms does not count building the graph's rows.
    graph.out_arcs
    heuristics: dict[int, HeuristicTable] = {}
    for q in queries:
        if q.target not in heuristics:
            heuristics[q.target] = ideal_point_heuristic(graph, q.target)

    ends = Counter((q.source, q.target) for q in queries)
    kept: dict[tuple[int, int], tuple[SolutionSet | None, float]] = {}
    sets: list[SolutionSet] = []
    records: list[BenchmarkRecord] = []
    for query in queries:
        pair = (query.source, query.target)
        if pair in kept:
            exact, search_ms = kept[pair]
            if exact is not None:
                exact = SolutionSet(query, exact.epsilon, exact.entries)
        else:
            t0 = monotonic()
            try:
                exact = solve_exact(
                    graph, query, heuristics[query.target], time_limit_ms=timeout_ms
                )
            except SearchTimeout:
                exact = None
            search_ms = (monotonic() - t0) * 1000.0
            if ends[pair] > 1:
                kept[pair] = exact, search_ms
        for eps in eps_list:
            if exact is None:
                rec = BenchmarkRecord(
                    name, query.index, eps.display(), 0, search_ms, SOLVER_ID, STATUS_TIMEOUT
                )
            else:
                t0 = monotonic()
                ss = _eps_front(exact, eps)
                ms = search_ms + (monotonic() - t0) * 1000.0
                status = STATUS_SOLVED if ss.entries else STATUS_EMPTY
                rec = BenchmarkRecord(
                    name, query.index, eps.display(), ss.cardinality, ms, SOLVER_ID, status
                )
                sets.append(ss)
            records.append(rec)
            if progress is not None:
                progress(rec)
    return sets, records


@dataclass
class VerificationReport:
    """Violations found in one solution set; empty means clean."""

    violations: list[str]

    @property
    def clean(self) -> bool:
        return not self.violations


def verify_solutions(
    graph: MosGraph, query: Query, solset: SolutionSet
) -> VerificationReport:
    """Check witness feasibility, cost recomputation, dedup, non-dominance.

    Entries without witness paths only get the set-level checks.  A cost
    with a different number of components than the graph has objectives
    raises DimensionMismatch.  Dominance is checked against the set's
    sort-and-sweep Pareto front; only an entry off that front is compared
    pairwise, in entry order, to name the first entry that dominates it.

    Witnesses are checked in two passes.  The first, in entry order, checks
    each path's endpoints and groups the witnesses left by path.  The
    second costs each distinct path once (_witness_faults): the entries of
    a front that differ only in which parallel arcs they take share one
    path_cost and one walk setup.  Violations are reported in entry order
    all the same.
    """
    v: list[str] = []
    d = graph.d
    costs = solset.costs()
    seen: dict[Cost, int] = {}
    for i, c in enumerate(costs):
        if len(c) != d:
            raise DimensionMismatch(
                f"entry {i} has {len(c)} cost components, graph has {d} objectives"
            )
        if c in seen:
            v.append(f"Duplicate: entry {i} repeats the cost of entry {seen[c]}")
        else:
            seen[c] = i
    front = set(pareto_filter(costs))
    for i, ci in enumerate(costs):
        if ci in front:
            continue
        for j, cj in enumerate(costs):
            if i != j and dominates(cj, ci):
                v.append(f"DominanceViolation: entry {i} is dominated by entry {j}")
                break
    source, target = query.source, query.target
    entries = solset.entries
    found: dict[int, tuple[str, str]] = {}
    by_path: dict[tuple[int, ...], list[int]] = {}
    for i, entry in enumerate(entries):
        p = entry.path
        if p is None:
            continue
        if p and p[0] != source:
            found[i] = ("PathStart", f" starts at {p[0]}, query source is {source}")
        elif p and p[-1] != target:
            found[i] = ("PathEnd", f" ends at {p[-1]}, query target is {target}")
        else:
            by_path.setdefault(p, []).append(i)
    for p, group in by_path.items():
        faults = _witness_faults(graph, p, {entries[i].cost for i in group})
        if faults:
            for i in group:
                fault = faults.get(entries[i].cost)
                if fault:
                    found[i] = fault
    v += [f"{kind}: entry {i}{text}" for i, (kind, text) in sorted(found.items())]
    return VerificationReport(v)


def _witness_faults(
    graph: MosGraph, path: Sequence[int], costs: set[Cost]
) -> dict[Cost, tuple[str, str]]:
    """Each of costs that no choice of arcs along path sums to, mapped to
    its violation's kind and its text after the entry index.

    path_cost runs once; a path it cannot cost faults every cost alike.  A
    cost equal to its sum passes, and the others share one _path_costs call.
    """
    try:
        rc = path_cost(graph, path)
    except NonEdge as exc:
        return dict.fromkeys(costs, ("PathBroken", f": {exc}"))
    unreached = costs - {rc}
    if unreached:
        unreached -= _path_costs(graph, path, unreached, rc)
    return {c: ("CostMismatch", f" stores {c}, path recomputes to {rc}") for c in unreached}


def verify_coverage(
    exact: SolutionSet, approx: SolutionSet, eps: Epsilon
) -> tuple[bool, list[Cost]]:
    """True when every exact cost is epsilon-dominated by (or equal to) an
    approximate cost; otherwise the uncovered exact costs come back, in the
    exact set's entry order.

    With (num_k, den_k) the fraction form of 1 + eps_k, an approximate cost
    a covers an exact cost c when a == c, or when its scaled form
    a' = (a_k * den_k) is <= t = (num_k * c_k) in every component and
    a' != t.  Equality is one set lookup.  Such an a' sorts below t, and an
    a' below t has a'[0] <= t[0], so one sweep over both sorted lists
    (linear on canonical blocks) decides the rest: the suffix of each a'
    strictly below t, popped lowest first, goes into a _suffix_fronts store,
    then c is covered when the store holds a suffix <= t[1:].  A cost whose
    width differs from eps.d, in either set, raises DimensionMismatch naming
    the query.
    """
    if exact.query != approx.query:
        raise QueryMismatch(
            f"exact set is for query {exact.query}, approximate for {approx.query}"
        )
    d = eps.d
    exact_costs = exact.costs()
    approx_costs = approx.costs()
    widths = set(map(len, exact_costs)) | set(map(len, approx_costs))
    if widths - {d}:
        raise DimensionMismatch(
            f"query {exact.query.index}: cost vectors of widths {sorted(widths)}, "
            f"epsilon has {d} components"
        )
    nums, dens = zip(*eps.ratios())
    present = set(approx_costs)
    scaled = sorted((tuple(map(mul, a, dens)) for a in approx_costs), reverse=True)
    targets = sorted((tuple(map(mul, nums, c)), c) for c in exact_costs if c not in present)
    dominated, insert = _suffix_fronts(d, 1)
    missed = set()
    for t, c in targets:
        while scaled and scaled[-1] < t:
            s = scaled.pop()[1:]
            if not dominated(0, s):
                insert(0, s)
        if not dominated(0, t[1:]):
            missed.add(c)
    uncovered = [c for c in exact_costs if c in missed]
    return (not uncovered, uncovered)


@dataclass(frozen=True)
class CardinalityStats:
    """Front-size summary at one epsilon; mean is kept raw and rounded."""

    count: int
    minimum: int
    maximum: int
    median: int
    mean: float
    mean_rounded: int
    excluded_timeouts: int


def _lower_median(sorted_values: Sequence) -> object:
    return sorted_values[(len(sorted_values) - 1) // 2]


def cardinality_stats(
    records: Sequence[BenchmarkRecord], at_eps: Epsilon | str
) -> CardinalityStats:
    """Min/max/median/mean cardinality over non-timeout records at one epsilon.

    The median is the lower middle element for even counts; the rounded mean
    rounds half up.
    """
    eps_text = at_eps.display() if isinstance(at_eps, Epsilon) else at_eps
    matching = [r for r in records if r.epsilon == eps_text]
    timeouts = sum(1 for r in matching if r.status == STATUS_TIMEOUT)
    cards = sorted(r.cardinality for r in matching if r.status != STATUS_TIMEOUT)
    if not cards:
        raise NoRecords(f"no usable records at epsilon {eps_text!r}")
    mean = sum(cards) / len(cards)
    return CardinalityStats(
        count=len(cards),
        minimum=cards[0],
        maximum=cards[-1],
        median=_lower_median(cards),
        mean=mean,
        mean_rounded=math.floor(mean + 0.5),
        excluded_timeouts=timeouts,
    )


@dataclass(frozen=True)
class ReductionStats:
    """Cardinality reduction against the epsilon-zero baseline, in percent.

    Both aggregations are reported: pooled over every counted query, and
    the average of per-benchmark-family values.
    """

    epsilon: str
    queries: int
    excluded_empty: int
    pooled_median_pct: float
    pooled_mean_pct: float
    family_median_avg_pct: float
    family_mean_avg_pct: float


def reduction_stats(records: Sequence[BenchmarkRecord]) -> list[ReductionStats]:
    """Per-epsilon reduction r = 1 - |front_eps| / |front_0| per query.

    Queries with an empty exact front are excluded (and counted); a query
    lacking a usable epsilon-zero record raises MissingBaseline.
    """
    zero_text = _fraction_text(Fraction(0))
    baseline: dict[tuple[str, int], int] = {}
    for r in records:
        if r.epsilon == zero_text and r.status != STATUS_TIMEOUT:
            baseline[(r.benchmark, r.query_index)] = r.cardinality
    per_eps: dict[str, list[BenchmarkRecord]] = {}
    for r in records:
        per_eps.setdefault(r.epsilon, []).append(r)
    out: list[ReductionStats] = []
    for eps_text, rows in per_eps.items():
        reductions: list[float] = []
        by_family: dict[str, list[float]] = {}
        excluded = 0
        for r in rows:
            if r.status == STATUS_TIMEOUT:
                continue
            key = (r.benchmark, r.query_index)
            if key not in baseline:
                raise MissingBaseline(
                    f"query {r.query_index} of {r.benchmark} has no epsilon-zero record"
                )
            base = baseline[key]
            if base == 0:
                excluded += 1
                continue
            red = (1.0 - r.cardinality / base) * 100.0
            reductions.append(red)
            by_family.setdefault(r.benchmark, []).append(red)
        if not reductions:
            continue
        reductions.sort()
        fam_medians = [_lower_median(sorted(v)) for v in by_family.values()]
        fam_means = [sum(v) / len(v) for v in by_family.values()]
        out.append(
            ReductionStats(
                epsilon=eps_text,
                queries=len(reductions),
                excluded_empty=excluded,
                pooled_median_pct=_lower_median(reductions),
                pooled_mean_pct=sum(reductions) / len(reductions),
                family_median_avg_pct=sum(fam_medians) / len(fam_medians),
                family_mean_avg_pct=sum(fam_means) / len(fam_means),
            )
        )
    return out


@dataclass(frozen=True)
class AxisSpread:
    """Average max/min cost ratio along one objective axis."""

    objective: int
    average: float
    included: int
    excluded: int


def spread_stats(sets: Sequence[SolutionSet]) -> list[AxisSpread]:
    """Per-axis spread (front max / front min) averaged over queries.

    Empty fronts are excluded everywhere; a query whose front minimum is 0
    on an axis is excluded from that axis only.  An axis with no included
    queries raises AllExcluded; costs of different widths raise
    DimensionMismatch.
    """
    if not sets:
        raise AllExcluded("no solution sets given")
    widths = {len(e.cost) for ss in sets for e in ss.entries}
    if not widths:
        raise AllExcluded("every solution set is empty")
    if len(widths) > 1:
        raise DimensionMismatch(f"cost vectors of widths {sorted(widths)}")
    (d,) = widths
    out: list[AxisSpread] = []
    for k in range(d):
        ratios: list[float] = []
        excluded = 0
        for ss in sets:
            if not ss.entries:
                excluded += 1
                continue
            values = [e.cost[k] for e in ss.entries]
            lo, hi = min(values), max(values)
            if lo == 0:
                excluded += 1
                continue
            ratios.append(hi / lo)
        if not ratios:
            raise AllExcluded(f"axis {k}: every query excluded")
        out.append(AxisSpread(k, sum(ratios) / len(ratios), len(ratios), excluded))
    return out


def _csv(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """The header and the rows as CSV text, each line ending in a newline."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def correlation_csv(graph: MosGraph, edge_filter: str | None = None) -> str:
    """Labeled CSV of the pairwise objective correlation matrix.

    edge_filter 'cycle'/'local' restricts to the matching NetMaker edge
    class; None uses every edge.  Undefined cells print NA.
    """
    names = [o.name for o in graph.objectives]
    if edge_filter is None:
        matrix = objective_correlation_matrix(graph)
    else:
        if edge_filter not in ("cycle", "local"):
            raise ValueError(f"edge_filter must be 'cycle' or 'local', got {edge_filter!r}")
        cycle_idx, local_idx = netmaker_edge_kinds(graph)
        chosen = cycle_idx if edge_filter == "cycle" else local_idx
        matrix = correlation_matrix_from_costs(
            [graph.edges[i][2] for i in chosen]
        )
    rows = [
        [name] + ["NA" if r is None else f"{r:.6f}" for r in row] for name, row in zip(names, matrix)
    ]
    return _csv(["objective"] + names, rows)


def records_to_csv(records: Sequence[BenchmarkRecord]) -> str:
    rows = [
        [r.benchmark, r.query_index, r.epsilon, r.cardinality, f"{r.ms:.3f}", r.solver, r.status]
        for r in records
    ]
    return _csv(RECORDS_HEADER, rows)


def read_records(path: str | Path) -> list[BenchmarkRecord]:
    """Parse a records CSV written by records_to_csv.

    A row with the wrong field count, a query index or cardinality that is
    not a non-negative integer, an ms that is not a finite non-negative
    number, or an unknown status raises Malformed with its line number.
    """
    out: list[BenchmarkRecord] = []
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RECORDS_HEADER):
            raise NoRecords(f"unrecognized records header {header!r}")
        for row in reader:
            line = reader.line_num
            if len(row) != len(RECORDS_HEADER):
                raise Malformed(line, f"expected {len(RECORDS_HEADER)} fields, got {len(row)}")
            bench, query, eps_text, card, ms, solver, status = row
            try:
                query_index, cardinality = int(query), int(card)
            except ValueError:
                raise Malformed(
                    line, f"query {query!r} or cardinality {card!r} is not an integer"
                ) from None
            try:
                ms_value = float(ms)
            except ValueError:
                raise Malformed(line, f"ms {ms!r} is not a number") from None
            if query_index < 0 or cardinality < 0:
                raise Malformed(line, "negative query index or cardinality")
            if not 0 <= ms_value < math.inf:
                raise Malformed(line, f"ms {ms!r} is not a finite non-negative number")
            if status not in _STATUSES:
                raise Malformed(line, f"unknown status {status!r}")
            out.append(
                BenchmarkRecord(bench, query_index, eps_text, cardinality, ms_value, solver, status)
            )
    return out


def cardinality_csv(stats: CardinalityStats, eps_text: str) -> str:
    header = ["epsilon", "count", "min", "max", "median", "mean", "mean_rounded", "excluded_timeouts"]
    row = [
        eps_text,
        stats.count,
        stats.minimum,
        stats.maximum,
        stats.median,
        f"{stats.mean:.6f}",
        stats.mean_rounded,
        stats.excluded_timeouts,
    ]
    return _csv(header, [row])


def reduction_csv(stats: Sequence[ReductionStats]) -> str:
    header = [
        "epsilon",
        "queries",
        "excluded_empty",
        "pooled_median_pct",
        "pooled_mean_pct",
        "family_median_avg_pct",
        "family_mean_avg_pct",
    ]
    rows = [
        [
            s.epsilon,
            s.queries,
            s.excluded_empty,
            f"{s.pooled_median_pct:.3f}",
            f"{s.pooled_mean_pct:.3f}",
            f"{s.family_median_avg_pct:.3f}",
            f"{s.family_mean_avg_pct:.3f}",
        ]
        for s in stats
    ]
    return _csv(header, rows)


def spread_csv(spreads: Sequence[AxisSpread], names: Sequence[str] | None = None) -> str:
    """One row per axis, labelled by names (one per axis) or by 1-based index."""
    if names is not None and len(names) != len(spreads):
        raise DimensionMismatch(f"{len(names)} objective names for {len(spreads)} cost axes")
    rows = []
    for s in spreads:
        label = str(s.objective + 1) if names is None else names[s.objective]
        rows.append([label, f"{s.average:.6f}", s.included, s.excluded])
    return _csv(["objective", "average_spread", "included", "excluded"], rows)
