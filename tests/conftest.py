"""Shared builders for the test suite."""
from __future__ import annotations

import random
import sys

from hypothesis import strategies as st

from mosbench.convert import GuardGrid
from mosbench.core import MosGraph, Objective, Query
from mosbench.errors import MosbenchError, RootOutOfRange


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


def guards_cell_vertex(grid: GuardGrid, row: int, col: int) -> int:
    """Vertex id of a passable cell (row-major rank); raises on impassable."""
    if not (0 <= row < grid.height and 0 <= col < grid.width):
        raise RootOutOfRange(f"cell ({row}, {col}) outside the grid")
    target = grid.cell(row, col)
    if not grid.passable[target]:
        raise RootOutOfRange(f"cell ({row}, {col}) is impassable")
    rank = 0
    for idx in range(target + 1):
        if grid.passable[idx]:
            rank += 1
    return rank


def read_outcome(read, path):
    """What a reader makes of a file: its result, or the type and text of its error."""
    try:
        return read(path)
    except (MosbenchError, ValueError) as exc:
        return type(exc), str(exc)


# Non-canonical arc blocks that json.loads alone would accept or misread,
# made by bent_arc_block.
ARC_BENDS = (
    "1.5", "1e5", "1E5", "-1", "true", "null", "NaN", "Infinity",
    "a5", "5a", "space", "last space", "trade",
)


def bent_arc_block(bend: str | None, d: int) -> str:
    """Arc lines (1, 2), (2, 3), (3, 1) with d costs each, bent by `bend`.

    None leaves the block canonical.  An ARC_BENDS number or literal
    replaces the middle line's last cost; `a5` and `5a` put a digit after or
    before its `a`; `space` and `last space` drop the last cost of the
    middle or last line and keep its space; `trade` gives the middle line
    d + 1 costs and the last d - 1.
    """
    lines = [
        f"a {u} {v} " + " ".join(str(10 * u + k) for k in range(d))
        for u, v in ((1, 2), (2, 3), (3, 1))
    ]
    mid, last = lines[1], lines[2]
    if bend == "a5":
        lines[1] = "a5" + mid[1:]
    elif bend == "5a":
        lines[1] = "5" + mid
    elif bend == "space":
        lines[1] = mid[: mid.rindex(" ") + 1]
    elif bend == "last space":
        lines[2] = last[: last.rindex(" ") + 1]
    elif bend == "trade":
        lines[1], lines[2] = mid + " 7", last[: last.rindex(" ")]
    elif bend is not None:
        lines[1] = mid[: mid.rindex(" ") + 1] + bend
    return "".join(line + "\n" for line in lines)


def _relaid(draw, line: str, keys: tuple[str, ...]) -> str:
    if not line.startswith(keys):
        return line
    tokens = line.split(" ")
    how = draw(st.sampled_from(("same", "tabs", "spaces", "zero", "blanks")))
    if how == "tabs":
        return tokens[0] + " " + "\t".join(tokens[1:])
    if how == "spaces":
        return "   ".join(tokens)
    if how == "zero":
        i = draw(st.integers(1, len(tokens) - 1))
        tokens[i] = "0" + tokens[i]
    if how == "blanks":
        return f" {line}\t"
    return " ".join(tokens)


@st.composite
def file_texts(draw, text: str, keys: tuple[str, ...] = ("a ",), count_key: str = "p ") -> str:
    """`text`, a canonical file, as written or in another layout, maybe mutated.

    Other layouts put tabs, runs of spaces or a leading zero into the lines
    that start with one of `keys` (arc lines by default), blanks around them
    and blank or `c` lines between them, end lines in CRLF, or drop the
    final newline.  A mutation deletes, inserts or replaces one character,
    or moves a declared count by one: the fourth field of a line that
    starts with `count_key` (the problem line's arc count by default).
    """
    lines = text.splitlines()
    if draw(st.booleans()):
        out = []
        for line in lines:
            out.append(_relaid(draw, line, keys))
            out += draw(st.lists(st.sampled_from(("", "  ", "c note")), max_size=1))
        end = draw(st.sampled_from(("\n", "\r\n")))
        text = end.join(out) + draw(st.sampled_from((end, "")))
    how = draw(st.sampled_from(("none", "none", "delete", "insert", "replace", "count")))
    counted = [i for i, line in enumerate(lines) if line.startswith(count_key)]
    if how == "count" and counted:
        i = draw(st.sampled_from(counted))
        tokens = lines[i].split(" ")
        tokens[3] = str(int(tokens[3]) + draw(st.sampled_from((-1, 1))))
        lines[i] = " ".join(tokens)
        return "\n".join(lines) + "\n"
    if how not in ("none", "count") and text:
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from(" \t\r\n0123456789-+acxr:,./eEnt"))
        keep = i + (how != "insert")
        text = text[:i] + ("" if how == "delete" else c) + text[keep:]
    return text
