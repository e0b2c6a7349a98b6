"""Workload definitions and the benchmark's own road-like input generator.

Every input is a pure function of the workload seed.  Nothing here imports
mosbench: the program only ever sees the files these parameters lead to.
"""
from __future__ import annotations

import random
from pathlib import Path

# Why each workload exists and which layer it stresses; BENCHMARK.json
# carries the same one-line reasons.
WORKLOADS: dict[str, dict] = {
    # The d=2 search is the largest share of the pipeline, and three of every
    # four tasks re-run the exact search; the heuristic runs once per grid.
    # Many small grids per seed keep the per-seed difficulty spread small.
    "grid-bi-sweep": {"family": "grid", "graphs": 40, "k": 48, "eps": ("0", "0.01", "0.05", "0.1")},
    # Nearly idle search; verify's parallel-arc fallback scans every edge
    # per hop.  Also drives the DIMACS converter and the formats layer.
    # Front sizes of single corner-to-corner queries vary a lot, so many
    # small lattices with a dozen queries each keep the per-seed total steady.
    "road-multigraph-verify": {
        "family": "road", "graphs": 40, "k": 14, "queries": 12, "parallel": 0.15, "eps": ("0",),
    },
}

# Smallest sizes that still exercise every step; used by the smoke tests.
TINY: dict[str, dict] = {
    "grid-bi-sweep": {"graphs": 2, "k": 8},
    "road-multigraph-verify": {"graphs": 2, "k": 8, "queries": 2},
}


def params(workload: str, tiny: bool = False) -> dict:
    p = dict(WORKLOADS[workload])
    if tiny:
        p.update(TINY[workload])
    return p


def instance_seeds(family: str, seed: int, count: int) -> list[int]:
    """Seeds of the workload's instances, derived from the workload seed."""
    rng = random.Random(f"{family}-{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def road_files(work: Path, i: int) -> tuple[Path, Path]:
    return work / f"road{i}.dist.gr", work / f"road{i}.time.gr"


def _vid(k: int, r: int, c: int) -> int:
    return r * k + c + 1


def write_road_pair(k: int, parallel: float, seed: int, dist_path: Path, time_path: Path) -> None:
    """A k x k road-like lattice as a DIMACS distance/time arc-file pair.

    Every street segment is two opposite arcs; every sixth row and column
    is an arterial with faster travel.  With probability `parallel` an arc
    gets a parallel bypass that is longer but faster.  The bypass is the
    lexicographically larger of the two costs and incomparable to the
    direct arc, so front costs that use it are reachable only through it:
    exactly the case where a path's lexicographic-minimum recomputation
    differs from its stored cost.
    """
    rng = random.Random(f"road-{seed}")
    arcs: list[tuple[int, int, int, int]] = []
    for r in range(k):
        for c in range(k):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 >= k or c2 >= k:
                    continue
                u, v = _vid(k, r, c), _vid(k, r2, c2)
                arterial = (r if dr == 0 else c) % 6 == 0
                dist = rng.randint(40, 160)
                slowness = 6 if arterial else 10
                for a, b in ((u, v), (v, u)):
                    t = dist * slowness * rng.randint(50, 150) // 100
                    arcs.append((a, b, dist, t))
                    if rng.random() < parallel:
                        d2 = dist + rng.randint(dist // 10 + 1, dist // 3 + 1)
                        t2 = t * rng.randint(55, 85) // 100
                        arcs.append((a, b, d2, t2))
    n = k * k
    for path, col, what in ((dist_path, 2, "distance"), (time_path, 3, "travel time")):
        lines = [f"c road-like lattice {k}x{k} seed {seed}, {what}", f"p sp {n} {len(arcs)}"]
        lines += [f"a {a[0]} {a[1]} {a[col]}" for a in arcs]
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def road_queries(k: int, count: int, seed: int) -> list[tuple[int, int]]:
    """Far-apart pairs: opposite corner blocks, alternating diagonals and directions."""
    rng = random.Random(f"road-queries-{seed}")
    band = max(1, k // 4)
    out = []
    for i in range(count):
        r0, c0 = rng.randrange(band), rng.randrange(band)
        r1, c1 = k - 1 - rng.randrange(band), k - 1 - rng.randrange(band)
        if i % 2:
            c0, c1 = k - 1 - c0, k - 1 - c1
        s, t = _vid(k, r0, c0), _vid(k, r1, c1)
        out.append((t, s) if i % 4 >= 2 else (s, t))
    return out
