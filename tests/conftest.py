"""Shared builders for the test suite."""
from __future__ import annotations

import random
import sys

from mosbench.core import MosGraph, Objective, Query


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance suite's one-line-per-check summary, when it ran."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)


def random_graph(
    rng: random.Random,
    n: int,
    density: float,
    d: int,
    cost_low: int = 1,
    cost_high: int = 9,
) -> MosGraph:
    """Erdos-Renyi-style directed graph with uniform integer costs."""
    edges = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u != v and rng.random() < density:
                edges.append(
                    (u, v, tuple(rng.randint(cost_low, cost_high) for _ in range(d)))
                )
    return MosGraph(
        num_vertices=n,
        edges=tuple(edges),
        objectives=tuple(Objective(f"c{i + 1}") for i in range(d)),
    )


def diamond_graph() -> tuple[MosGraph, Query]:
    """Two incomparable s->t routes, (1,4) and (4,1), plus a dominated s->t edge."""
    g = MosGraph(
        num_vertices=4,
        edges=(
            (1, 2, (1, 1)),
            (2, 4, (0, 3)),
            (1, 3, (3, 0)),
            (3, 4, (1, 1)),
            (1, 4, (5, 5)),
        ),
        objectives=(Objective("c1"), Objective("c2")),
    )
    return g, Query(1, 4, 0)


def line_graph(costs: list[tuple[int, ...]]) -> MosGraph:
    """A simple path 1 -> 2 -> ... with the given edge costs."""
    d = len(costs[0])
    edges = tuple((i + 1, i + 2, c) for i, c in enumerate(costs))
    return MosGraph(
        num_vertices=len(costs) + 1,
        edges=edges,
        objectives=tuple(Objective(f"c{i + 1}") for i in range(d)),
    )


def twin_arc_chain(hops: int) -> MosGraph:
    """Path 1 -> 2 -> ... -> hops + 1 with arcs (1, 2) and (2, 1) on every hop."""
    edges = tuple(
        e for u in range(1, hops + 1) for e in ((u, u + 1, (1, 2)), (u, u + 1, (2, 1)))
    )
    return MosGraph(hops + 1, edges, (Objective("a"), Objective("b")))
