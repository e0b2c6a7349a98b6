"""Reference kernel that calibrates the benchmark's times to a fixed host speed.

On a shared host the speed of a core drifts by 20-40% over seconds to
minutes (other tenants on the sibling hyperthread, in the caches, in the
memory bus), and the CPU time of the same code drifts with it.  The
pipeline therefore runs this kernel right before and right after every
timed block, and scales the block's CPU time by REF_S / (mean of the two
kernel times).  A reported time is thus "seconds on a core where one kernel
pass takes REF_S seconds"; it moves with the program's own work and hardly
with the host's load.

The kernel is a small mix of the kinds of work the pipeline does, in pure
Python and independent of mosbench: parse arc lines into a dict of cost
tuples, sort the costs and sweep a 2-d front, sum Fractions, format lines,
and run Dijkstra with heapq.  Under load, the log of a grid search's CPU
time moved 1.1-1.3 times as far as that of a plain Dijkstra kernel, and
0.99 times as far as that of such a mix.  No change to the program
changes the kernel.  It runs with the garbage collector off, so
that the objects the program keeps alive do not slow it down.
"""
from __future__ import annotations

import gc
import heapq
import random
from fractions import Fraction
from time import process_time

# Nominal CPU time of one kernel pass: about its time on an idle core of
# the 2-vCPU Xeon host the bounds were set on.  It only scales the times.
REF_S = 0.0035

_N = 3000
_rng = random.Random(20260601)
_ADJ = [[(_rng.randrange(_N), _rng.randint(1, 100)) for _ in range(4)] for _ in range(_N)]
_LINES = [
    f"a {_rng.randrange(_N)} {_rng.randrange(_N)} {_rng.randrange(100)} {_rng.randrange(100)}"
    for _ in range(1000)
]


def _dijkstra(limit: int) -> int:
    dist = {0: 0}
    heap = [(0, 0)]
    done: set[int] = set()
    while heap and len(done) < limit:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, 1 << 60):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


def _kernel() -> int:
    arcs: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for line in _LINES:
        tok = line.split()
        arcs.setdefault((int(tok[1]), int(tok[2])), []).append(tuple(map(int, tok[3:])))
    costs = sorted(c for opts in arcs.values() for c in opts)
    front = []
    for c in costs:
        if not front or c[1] < front[-1][1]:
            front.append(c)
    total = sum(Fraction(1, i) for i in range(1, 120))
    text = "".join(f"x {a} {b}\n" for a, b in costs)
    return _dijkstra(1000) + len(front) + len(text) + total.denominator % 7


def reference_s() -> float:
    """CPU seconds of one kernel pass."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        _kernel()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()
