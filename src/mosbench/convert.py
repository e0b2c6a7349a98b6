"""Converters for the real-data benchmark families.

Road networks arrive as paired single-objective DIMACS arc files and can be
extended with elevation / degree / hop objectives.  Guard-patrol grids come
from a small text map format and expand into 8-connected move graphs.
Manipulator roadmaps carry per-link clearances that turn into penalty
objectives in fixed point.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

from .core import Cost, MosGraph, Objective, collector_paused
from .errors import (
    ArcSetMismatch,
    BadToken,
    DimensionMismatch,
    ElevationSizeMismatch,
    EmptyGraph,
    Malformed,
    MissingElevation,
    NegativeCost,
    NonPositiveClearance,
    RootOutOfRange,
)
from .formats import _arc_fields, _int

# Fixed-point scale for real-valued roadmap objectives.
FIXED_SCALE = 10**6

_DECIMAL_RE = re.compile(r"^[+-]?\d+(\.(\d+))?$")
_MAX_DECIMALS = 6


def _decimal(token: str, lineno: int, what: str) -> Fraction:
    m = _DECIMAL_RE.match(token)
    if not m:
        raise Malformed(lineno, f"{what}: expected a decimal number, got {token!r}")
    places = len(m.group(2)) if m.group(2) else 0
    if places > _MAX_DECIMALS:
        raise Malformed(
            lineno, f"{what}: more than {_MAX_DECIMALS} decimal places in {token!r}"
        )
    return Fraction(token)


def _parse_gr(path: str | Path) -> tuple[int, int, list[int]]:
    """One 9th-DIMACS-Challenge arc file: header `p sp n m`, arcs `a u v w`.

    Returns n, m and the arcs' fields flat: u_1, v_1, w_1, u_2, ...
    """
    n = m = -1
    arcs: list[int] = []
    name = Path(path).name
    lineno = 0

    def scan(lines: list[str]) -> None:
        nonlocal n, m, lineno
        for lineno, raw in enumerate(lines, start=lineno + 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            tokens = line.split()
            if tokens[0] == "p":
                if n >= 0:
                    raise Malformed(lineno, f"{name}: duplicate problem line")
                if len(tokens) != 4 or tokens[1] != "sp":
                    raise Malformed(lineno, f"{name}: expected 'p sp n m', got {raw!r}")
                try:
                    n, m = int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise Malformed(lineno, f"{name}: non-integer problem sizes") from None
                if n < 1:
                    raise Malformed(lineno, f"{name}: vertex count must be >= 1")
                if m < 0:
                    raise Malformed(lineno, f"{name}: arc count must be >= 0")
                continue
            if tokens[0] == "a":
                if n < 0:
                    raise Malformed(lineno, f"{name}: arc before problem line")
                if len(tokens) != 4:
                    raise Malformed(lineno, f"{name}: expected 'a u v w', got {raw!r}")
                try:
                    u, v, w = int(tokens[1]), int(tokens[2]), int(tokens[3])
                except ValueError:
                    raise Malformed(lineno, f"{name}: non-integer arc field") from None
                if w < 0:
                    raise NegativeCost(f"{name} line {lineno}: arc weight {w} < 0")
                if not (1 <= u <= n) or not (1 <= v <= n):
                    raise Malformed(lineno, f"{name}: arc endpoint outside 1..{n}")
                arcs.extend((u, v, w))
                continue
            raise Malformed(lineno, f"{name}: unknown line keyword {tokens[0]!r}")

    # As in formats.read_graph: header by lines, a canonical arc block in
    # bulk, its endpoints checked here (scan names the line of a bad one).
    text = Path(path).read_text(encoding="ascii")
    start = text.find("\na ") + 1
    scan(text[: start or len(text)].splitlines())
    if start:
        fields = _arc_fields(text, start, 1, m) if n >= 0 and not arcs else None
        ends = fields and fields[0::3] + fields[1::3]
        if ends and min(ends) >= 1 and max(ends) <= n:
            arcs = fields
        else:
            scan(text[start:].splitlines())
    if n < 0:
        raise Malformed(lineno, f"{name}: missing problem line")
    if len(arcs) != 3 * m:
        raise Malformed(
            lineno, f"{name}: problem line declares {m} arcs, file has {len(arcs) // 3}"
        )
    return n, m, arcs


def parse_dimacs(distance_file: str | Path, time_file: str | Path) -> MosGraph:
    """Merge paired distance/time arc files into one bi-objective graph.

    The two files must describe the same arc list positionally: arc i of the
    time file supplies the second cost component of arc i of the distance
    file.  Any disagreement in sizes or endpoints raises ArcSetMismatch.
    """
    dn, dm, darcs = _parse_gr(distance_file)
    tn, tm, tarcs = _parse_gr(time_file)
    if dn != tn or dm != tm:
        raise ArcSetMismatch(
            f"size mismatch: {dn} vertices/{dm} arcs vs {tn} vertices/{tm} arcs"
        )
    us, vs = darcs[0::3], darcs[1::3]
    if us != tarcs[0::3] or vs != tarcs[1::3]:
        for i, (du, dv, tu, tv) in enumerate(zip(us, vs, tarcs[0::3], tarcs[1::3])):
            if du != tu or dv != tv:
                raise ArcSetMismatch(f"arc {i + 1}: endpoints ({du},{dv}) vs ({tu},{tv})")
    with collector_paused():
        return MosGraph(
            num_vertices=dn,
            edges=tuple(zip(us, vs, zip(darcs[2::3], tarcs[2::3]))),
            objectives=(Objective("distance"), Objective("time")),
            metadata={
                "family": "dimacs",
                "distance_file": Path(distance_file).name,
                "time_file": Path(time_file).name,
            },
        )


@dataclass(frozen=True)
class ElevationTable:
    """Per-vertex elevations in fixed point: entry i is values[i] / scale meters."""

    values: tuple[int, ...]
    scale: int

    def __len__(self) -> int:
        return len(self.values)


def read_elevation(path: str | Path) -> ElevationTable:
    """Read one decimal elevation per line; the scale is 10^(max decimals)."""
    raw_values: list[Fraction] = []
    places = 0
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        m = _DECIMAL_RE.match(line)
        if not m:
            raise Malformed(lineno, f"expected a decimal elevation, got {raw!r}")
        p = len(m.group(2)) if m.group(2) else 0
        if p > _MAX_DECIMALS:
            raise Malformed(lineno, f"more than {_MAX_DECIMALS} decimal places in {raw!r}")
        places = max(places, p)
        raw_values.append(Fraction(line))
    scale = 10**places
    return ElevationTable(tuple(int(v * scale) for v in raw_values), scale)


def extend_dimacs(
    graph: MosGraph, elevation: ElevationTable | None, target_d: int
) -> MosGraph:
    """Append extra objectives to a bi-objective road graph.

    In order: absolute elevation difference of the endpoints (objective 3),
    endpoint degree sum deg(u)+deg(v) at scale 2 so the average degree stays
    integer (objective 4), and a constant hop count of 1 (objective 5).
    Degree means total degree, in plus out.  Base costs are untouched.
    """
    if graph.d != 2:
        raise DimensionMismatch(f"extension starts from d=2, graph has d={graph.d}")
    if target_d not in (3, 4, 5):
        raise ValueError(f"target_d must be 3, 4 or 5, got {target_d}")
    if elevation is None:
        raise MissingElevation("elevation table required for the third objective")
    if len(elevation) != graph.num_vertices:
        raise ElevationSizeMismatch(
            f"{len(elevation)} elevation entries for {graph.num_vertices} vertices"
        )
    degree = [0] * (graph.num_vertices + 1)
    for u, v, _ in graph.edges:
        degree[u] += 1
        degree[v] += 1
    elev = elevation.values
    extras = (
        (Objective("elevation", elevation.scale), lambda u, v: abs(elev[v - 1] - elev[u - 1])),
        (Objective("degree", 2), lambda u, v: degree[u] + degree[v]),
        (Objective("hops", 1), lambda u, v: 1),
    )[: target_d - 2]
    edges = tuple(
        (u, v, cost + tuple(extra(u, v) for _, extra in extras)) for u, v, cost in graph.edges
    )
    objectives = graph.objectives + tuple(objective for objective, _ in extras)
    metadata = dict(graph.metadata)
    metadata["extended_to_d"] = str(target_d)
    return MosGraph(graph.num_vertices, edges, objectives, metadata)


def extract_connected_subgraph(
    graph: MosGraph, root: int, limit: int | None = None
) -> tuple[MosGraph, tuple[int, ...]]:
    """Induced subgraph over the first `limit` vertices in BFS order from root.

    BFS follows outgoing edges in edge-list order.  Vertex ids are remapped
    to 1..n in visitation order; the returned table maps new id i+1 to the
    original id at position i.
    """
    n = graph.num_vertices
    if not (1 <= root <= n):
        raise RootOutOfRange(f"root {root} outside 1..{n}")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    cap = n if limit is None else min(limit, n)
    arcs = graph.out_arcs
    order: list[int] = [root]
    new_id = {root: 1}
    queue = deque((root,))
    while queue and len(order) < cap:
        u = queue.popleft()
        for _, w, _ in arcs[u]:
            if w not in new_id:
                new_id[w] = len(order) + 1
                order.append(w)
                queue.append(w)
                if len(order) == cap:
                    break
    keep = new_id
    edges = tuple(
        (keep[u], keep[v], cost)
        for u, v, cost in graph.edges
        if u in keep and v in keep
    )
    metadata = dict(graph.metadata)
    metadata["subgraph_root"] = str(root)
    metadata["subgraph_limit"] = str(limit) if limit is not None else "none"
    sub = MosGraph(len(order), edges, graph.objectives, metadata)
    return sub, tuple(order)


@dataclass(frozen=True)
class GuardGrid:
    """A rectangular patrol map: impassable cells and per-cell guard counts."""

    width: int
    height: int
    passable: tuple[bool, ...]
    guards: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise DimensionMismatch("grid dimensions must be positive")
        cells = self.width * self.height
        if len(self.passable) != cells or len(self.guards) != cells:
            raise DimensionMismatch(
                f"{cells} cells declared, {len(self.passable)} passable flags "
                f"and {len(self.guards)} guard values given"
            )
        for i, (p, g) in enumerate(zip(self.passable, self.guards)):
            if g < 0:
                raise BadToken(i // self.width, i % self.width, str(g))
            if not p and g != 0:
                raise BadToken(i // self.width, i % self.width, str(g))

    def cell(self, row: int, col: int) -> int:
        return row * self.width + col


def parse_guards_map(path: str | Path) -> GuardGrid:
    """Parse a map file: `height H` / `width W` headers, `map`, then H rows
    of W whitespace-separated tokens ('@' or a guard count)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    height = width = -1
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "height" and len(tokens) == 2:
            height = _int(tokens[1], i, "height")
        elif tokens[0] == "width" and len(tokens) == 2:
            width = _int(tokens[1], i, "width")
        elif tokens[0] == "map" and len(tokens) == 1:
            break
        else:
            raise Malformed(i, f"unexpected header line {line!r}")
    else:
        raise Malformed(i, "missing 'map' line")
    if height < 1 or width < 1:
        raise DimensionMismatch(f"bad dimensions height={height} width={width}")
    passable: list[bool] = []
    guards: list[int] = []
    rows = 0
    for raw in lines[i:]:
        line = raw.strip()
        if not line:
            continue
        if rows >= height:
            raise DimensionMismatch(f"more than {height} map rows")
        tokens = line.split()
        if len(tokens) != width:
            raise DimensionMismatch(
                f"row {rows}: {len(tokens)} cells, expected {width}"
            )
        for col, tok in enumerate(tokens):
            if tok == "@":
                passable.append(False)
                guards.append(0)
            else:
                try:
                    g = int(tok)
                except ValueError:
                    raise BadToken(rows, col, tok) from None
                if g < 0:
                    raise BadToken(rows, col, tok)
                passable.append(True)
                guards.append(g)
        rows += 1
    if rows != height:
        raise DimensionMismatch(f"{rows} map rows, expected {height}")
    return GuardGrid(width, height, tuple(passable), tuple(guards))


def write_guards_map(grid: GuardGrid, path: str | Path) -> None:
    """Inverse of parse_guards_map."""
    out = [f"height {grid.height}", f"width {grid.width}", "map"]
    for r in range(grid.height):
        row = []
        for c in range(grid.width):
            i = grid.cell(r, c)
            row.append(str(grid.guards[i]) if grid.passable[i] else "@")
        out.append(" ".join(row))
    Path(path).write_bytes(("\n".join(out) + "\n").encode("ascii"))


# Move order per source cell: lexicographic (row delta, column delta).
_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def guards_to_graph(grid: GuardGrid) -> MosGraph:
    """Expand a patrol map into its 8-connected move graph.

    One vertex per passable cell, numbered row-major.  An orthogonal move
    costs (10, guards at the destination).  A diagonal move needs the
    destination and both orthogonal side cells passable and costs
    (14, max guard value over destination and the two side cells).
    """
    ids: dict[int, int] = {}
    for idx, p in enumerate(grid.passable):
        if p:
            ids[idx] = len(ids) + 1
    edges: list[tuple[int, int, Cost]] = []
    for r in range(grid.height):
        for c in range(grid.width):
            src = grid.cell(r, c)
            if not grid.passable[src]:
                continue
            for dr, dc in _MOVES:
                nr, nc = r + dr, c + dc
                if not (0 <= nr < grid.height and 0 <= nc < grid.width):
                    continue
                dst = grid.cell(nr, nc)
                if not grid.passable[dst]:
                    continue
                if dr == 0 or dc == 0:
                    cost = (10, grid.guards[dst])
                else:
                    side_a = grid.cell(nr, c)
                    side_b = grid.cell(r, nc)
                    if not (grid.passable[side_a] and grid.passable[side_b]):
                        continue
                    cost = (
                        14,
                        max(grid.guards[dst], grid.guards[side_a], grid.guards[side_b]),
                    )
                edges.append((ids[src], ids[dst], cost))
    if not ids:
        raise EmptyGraph("map has no passable cells")
    return MosGraph(
        num_vertices=len(ids),
        edges=tuple(edges),
        objectives=(Objective("length"), Objective("exposure")),
        metadata={
            "family": "guards",
            "width": str(grid.width),
            "height": str(grid.height),
        },
    )


@dataclass(frozen=True)
class ClearanceRoadmap:
    """A 7-DOF manipulator roadmap with per-link obstacle clearances.

    Edges hold (u, v, joint-space distance, clearances for links 1..7); the
    minimum clearance over links is derived, not stored.  All clearances are
    strictly positive because colliding edges never enter a roadmap.
    """

    configurations: tuple[tuple[Fraction, ...], ...]
    edges: tuple[tuple[int, int, Fraction, tuple[Fraction, ...]], ...]

    def __post_init__(self) -> None:
        n = len(self.configurations)
        for q in self.configurations:
            if len(q) != 7:
                raise DimensionMismatch("configurations must have 7 joint values")
        for u, v, jd, cls in self.edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise Malformed(0, f"roadmap edge ({u}, {v}) endpoint outside 1..{n}")
            if jd < 0:
                raise Malformed(0, f"negative joint distance on edge ({u}, {v})")
            if len(cls) != 7:
                raise DimensionMismatch("edges must carry 7 link clearances")
            if any(d <= 0 for d in cls):
                raise NonPositiveClearance(f"edge ({u}, {v}) has a clearance <= 0")


def read_roadmap(path: str | Path) -> ClearanceRoadmap:
    """Parse `p panda V E`, V `v` configuration lines, E `e` edge lines."""
    nv = ne = -1
    configs: list[tuple[Fraction, ...]] = []
    edges: list[tuple[int, int, Fraction, tuple[Fraction, ...]]] = []
    lineno = 0
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if nv >= 0:
                raise Malformed(lineno, "duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "panda":
                raise Malformed(lineno, f"expected 'p panda V E', got {raw!r}")
            nv = _int(tokens[2], lineno, "configuration count")
            ne = _int(tokens[3], lineno, "edge count")
            if nv < 0:
                raise Malformed(lineno, "configuration count must be >= 0")
            if ne < 0:
                raise Malformed(lineno, "edge count must be >= 0")
            continue
        if tokens[0] == "v":
            if nv < 0:
                raise Malformed(lineno, "configuration before problem line")
            if len(tokens) != 8:
                raise Malformed(lineno, f"expected 7 joint values, got {len(tokens) - 1}")
            configs.append(
                tuple(_decimal(t, lineno, "joint value") for t in tokens[1:])
            )
            continue
        if tokens[0] == "e":
            if nv < 0:
                raise Malformed(lineno, "edge before problem line")
            if len(tokens) != 11:
                raise Malformed(
                    lineno, f"expected 'e u v dist' plus 7 clearances, got {len(tokens)} fields"
                )
            u = _int(tokens[1], lineno, "edge tail")
            v = _int(tokens[2], lineno, "edge head")
            if not (1 <= u <= nv) or not (1 <= v <= nv):
                raise Malformed(lineno, f"roadmap edge ({u}, {v}) endpoint outside 1..{nv}")
            jd = _decimal(tokens[3], lineno, "joint distance")
            if jd < 0:
                raise Malformed(lineno, f"negative joint distance on edge ({u}, {v})")
            cls = tuple(_decimal(t, lineno, "clearance") for t in tokens[4:])
            if any(d <= 0 for d in cls):
                raise NonPositiveClearance(f"line {lineno}: clearance <= 0")
            edges.append((u, v, jd, cls))
            continue
        raise Malformed(lineno, f"unknown line keyword {tokens[0]!r}")
    if nv < 0:
        raise Malformed(lineno, "missing problem line")
    if len(configs) != nv:
        raise Malformed(lineno, f"{len(configs)} configurations, problem line says {nv}")
    if len(edges) != ne:
        raise Malformed(lineno, f"{len(edges)} edges, problem line says {ne}")
    return ClearanceRoadmap(tuple(configs), tuple(edges))


def clearance_penalty(d: Fraction, delta: Fraction) -> Fraction:
    """Quadratic near-obstacle penalty: 0 at or beyond the safety band delta,
    (d - delta)^2 / (2 delta) inside it.  Continuous at d = delta."""
    if d >= delta:
        return Fraction(0)
    return (d - delta) ** 2 / (2 * delta)


def _fixed(x: Fraction) -> int:
    """Fixed-point encoding at FIXED_SCALE, ties to even."""
    return round(x * FIXED_SCALE)


def panda_apply_clearance(
    roadmap: ClearanceRoadmap, delta: Fraction | str, mode: str
) -> MosGraph:
    """Turn a roadmap into a cost graph at fixed-point scale 10^6.

    Objective 1 is the joint-space distance.  Mode 'bi' adds one penalty
    objective from the minimum clearance over the 7 links; mode 'many' adds
    one penalty objective per link.  Roadmap edges are undirected, so each
    becomes a forward/backward pair of directed arcs.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    # Each penalty objective: its name and the clearance it penalizes.
    bands = {
        "bi": (("clearance", min),),
        "many": tuple((f"link{i}", itemgetter(i - 1)) for i in range(1, 8)),
    }.get(mode)
    if bands is None:
        raise ValueError(f"mode must be 'bi' or 'many', got {mode!r}")
    edges: list[tuple[int, int, Cost]] = []
    for u, v, jd, cls in roadmap.edges:
        cost = (_fixed(jd),) + tuple(
            _fixed(clearance_penalty(pick(cls), delta)) for _, pick in bands
        )
        edges.append((u, v, cost))
        edges.append((v, u, cost))
    return MosGraph(
        num_vertices=len(roadmap.configurations),
        edges=tuple(edges),
        objectives=(Objective("length", FIXED_SCALE),)
        + tuple(Objective(name, FIXED_SCALE) for name, _ in bands),
        metadata={
            "family": "panda",
            "mode": mode,
            "delta": str(delta),
        },
    )
