"""Canonical text formats for graphs, query sets, and solution sets.

The graph format is a small extension of the familiar DIMACS arc layout:

    c objectives distance,time
    c meta family grid
    p mosp <V> <E> <d>
    s <scale_1> ... <scale_d>          (only when a scale differs from 1)
    a <u> <v> <c_1> ... <c_d>

A line is its keyword, one space, then fields split on any whitespace.
read_graph reads an arc block in write_graph's own layout in bulk (layout
and integers by two bytes.translate passes and one json.loads, values by
MosGraph alone) and any other layout, or a bulk block either rejects, line
by line; both give the same graph and errors.
write_graph raises ValueError for an objective name or metadata key that
_NAME_RE does not match, and for a metadata value with a line break, with
leading or trailing whitespace or with a non-ASCII character: those would
not read back as written.

Query files hold `q <source> <target>` lines whose file order defines the
query index.  Solution files hold one block per (query, epsilon) pair:

    r <query_index> <eps_1,...,eps_d> <count>
    x <c_1> ... <c_d> : <v_1> <v_2> ... <v_k>

An `x` line without a witness path ends after its costs.  read_solutions
reads a file in write_solutions' own layout in bulk and any other layout
line by line; both give the same sets and the same errors.

Writers emit a canonical order (arcs sorted by (u, v, cost), solution
entries sorted lexicographically by cost), so equal inputs produce byte
identical files.
"""
from __future__ import annotations

import json
import re
from contextlib import suppress
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import (
    Cost,
    Epsilon,
    MosGraph,
    Objective,
    Query,
    SolutionEntry,
    SolutionSet,
    _fraction_text,
    collector_paused,
)
from .errors import Malformed, NonEdge

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise Malformed(lineno, f"{what}: expected integer, got {token!r}") from None


def _ints(tokens: Sequence[str], lineno: int, what: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, tokens))
    except ValueError:  # redo field by field: the first bad one raises, named
        for t in tokens:
            _int(t, lineno, what)
        raise


# Arc-block bytes to json, with `a` deleted: a space separates fields and a
# newline only spaces them, so each line's `a ` becomes the comma before it.
_ARC_JSON = bytes.maketrans(b" \n", b", ")


def _arc_fields(text: str, start: int, d: int, num_arcs: int) -> list[int] | None:
    """The integers of the arc block text[start:], flat, when it is canonical.

    A canonical block is the layout write_graph emits: `num_arcs` lines
    `a u v c_1 ... c_d` with single spaces, each ending in a newline;
    text[start:] starts with `a `.  The checks that copy nothing come
    first: the first line holds 2 + d spaces (so a huge d builds nothing),
    no two spaces meet, and `num_arcs` lines fit in the text.  Then the
    layout: the block with its digits deleted must be `num_arcs` copies of
    `a`, 2 + d spaces and a newline.  That leaves only the digit runs free,
    and one json.loads of the block translated to `u,v,c_1,..,c_d ,u,..`
    rejects a run that is empty or out of place (`a5`, `5a`, a space
    before the newline: an empty element, or two numbers with only a space
    between them), a leading zero and an integer too long for int().  The
    values are the caller's to check.  None sends the caller to its line
    loop, which reads any other layout and names the line of every error.
    """
    if text.count(" ", start, text.find("\n", start)) != 2 + d:
        return None
    line = b"a" + b" " * (2 + d) + b"\n"
    if text.find("  ", start) >= 0 or len(line) * num_arcs > len(text) - start:
        return None
    block = text[start:].encode("ascii")
    if block.translate(None, b"0123456789") != line * num_arcs:
        return None
    # Each step drops the copy before it, so at most two are alive; the
    # view skips the first line's comma without another copy.
    block = block.translate(_ARC_JSON, b"a")
    block = b"[%b]" % memoryview(block)[1:]
    try:
        fields = json.loads(block)
    except ValueError:  # an empty or misplaced digit run, a leading zero, a huge integer
        return None
    return fields if len(fields) == (2 + d) * num_arcs else None


def write_graph(graph: MosGraph, path: str | Path) -> None:
    """Write a graph in canonical form (sorted arcs, sorted metadata).

    Each arc line formats (u, v) + cost, so the costs must be tuples, the
    core.Cost that every reader, converter and generator builds.
    """
    out: list[str] = []
    names = [o.name for o in graph.objectives]
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"objective name {name!r} is not writable")
    out.append(f"c objectives {','.join(names)}")
    for key in sorted(graph.metadata):
        value = str(graph.metadata[key])
        if not _NAME_RE.fullmatch(key):
            raise ValueError(f"metadata key {key!r} is not writable")
        if "".join(value.splitlines()) != value or value != value.strip() or not value.isascii():
            raise ValueError(f"metadata value {value!r} of {key!r} is not writable")
        out.append(f"c meta {key} {value}")
    out.append(f"p mosp {graph.num_vertices} {graph.num_edges} {graph.d}")
    if any(o.scale != 1 for o in graph.objectives):
        out.append("s " + " ".join(str(o.scale) for o in graph.objectives))
    arc = "a %s %s" + " %s" * graph.d
    out += [arc % ((u, v) + cost) for u, v, cost in sorted(graph.edges)]
    Path(path).write_bytes(("\n".join(out) + "\n").encode("ascii"))


class _Header:
    """The c, p and s lines of a graph file, taken one at a time."""

    def __init__(self) -> None:
        self.num_vertices = 0
        self.num_edges = -1
        self.d = 0
        self.scales: list[int] | None = None
        self.names: list[str] | None = None
        self.metadata: dict[str, str] = {}

    def take(self, lineno: int, kind: str, rest: str, raw: str) -> None:
        """Apply one stripped non-arc line split as `kind rest`; raw names it."""
        if kind == "c":
            words = rest.split()
            if len(words) >= 2 and words[0] == "objectives":
                self.names = words[1].split(",")
            elif len(words) >= 2 and words[0] == "meta":
                self.metadata[words[1]] = rest.split(None, 2)[2] if len(words) > 2 else ""
            return
        if kind == "p":
            if self.num_edges >= 0:
                raise Malformed(lineno, "duplicate problem line")
            tokens = rest.split()
            if len(tokens) != 4 or tokens[0] != "mosp":
                raise Malformed(lineno, f"expected 'p mosp V E d', got {raw!r}")
            self.num_vertices = _int(tokens[1], lineno, "vertex count")
            self.num_edges = _int(tokens[2], lineno, "edge count")
            self.d = _int(tokens[3], lineno, "objective count")
            if self.num_vertices < 1:
                raise Malformed(lineno, "vertex count must be >= 1")
            if self.num_edges < 0:
                raise Malformed(lineno, "edge count must be >= 0")
            if self.d < 1:
                raise Malformed(lineno, "objective count must be >= 1")
            return
        if kind == "s":
            if self.num_edges < 0:
                raise Malformed(lineno, "scale line before problem line")
            if self.scales is not None:
                raise Malformed(lineno, "duplicate scale line")
            tokens = rest.split()
            if len(tokens) != self.d:
                raise Malformed(lineno, f"expected {self.d} scales, got {len(tokens)}")
            self.scales = [_int(t, lineno, "scale") for t in tokens]
            if any(s < 1 for s in self.scales):
                raise Malformed(lineno, "scales must be >= 1")
            return
        raise Malformed(lineno, f"unknown line keyword {kind!r}")

    def objectives(self, lineno: int) -> tuple[Objective, ...]:
        """The named, scaled objectives; names default to c1..cd."""
        d = self.d
        names = self.names
        if names is not None and len(names) != d:
            raise Malformed(lineno, f"objective comment names {len(names)} of {d} objectives")
        if names is None:
            names = [f"c{i + 1}" for i in range(d)]
        return tuple(Objective(n, s) for n, s in zip(names, self.scales or [1] * d))

    def graph(self, edges: tuple[tuple[int, int, Cost], ...], lineno: int) -> MosGraph:
        """The graph with these edges; an error found here names line lineno."""
        if self.num_edges < 0:
            raise Malformed(lineno, "missing problem line")
        if len(edges) != self.num_edges:
            raise Malformed(
                lineno, f"problem line declares {self.num_edges} arcs, file has {len(edges)}"
            )
        return MosGraph(self.num_vertices, edges, self.objectives(lineno), self.metadata)


def _scan(
    header: _Header, edges: list[tuple[int, int, Cost]], lines: list[str], lineno: int
) -> int:
    """The line loop: take lines numbered from lineno + 1, return the last number.

    Arc lines are checked and appended to edges; the others go to header.
    """
    for lineno, raw in enumerate(lines, start=lineno + 1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind != "a":
            header.take(lineno, kind, rest, raw)
            continue
        if header.num_edges < 0:
            raise Malformed(lineno, "arc before problem line")
        tokens = rest.split()
        if len(tokens) != 2 + header.d:
            raise Malformed(
                lineno, f"expected 'a u v' plus {header.d} costs, got {len(tokens)} fields"
            )
        try:
            u, v, *cost = map(int, tokens)
        except ValueError:  # redo field by field: the first bad one raises, named
            _int(tokens[0], lineno, "arc tail")
            _int(tokens[1], lineno, "arc head")
            for t in tokens[2:]:
                _int(t, lineno, "arc cost")
            raise
        n = header.num_vertices
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise Malformed(lineno, f"arc endpoint out of range 1..{n}")
        if min(cost) < 0:
            raise Malformed(lineno, "negative arc cost")
        edges.append((u, v, tuple(cost)))
    return lineno


def read_graph(path: str | Path) -> MosGraph:
    """Parse the canonical graph format; inverse of write_graph."""
    header = _Header()
    edges: list[tuple[int, int, Cost]] = []
    # The header goes through the line loop, then a canonical arc block (see
    # _arc_fields) in bulk; any other, or one the header or MosGraph rejects,
    # through the line loop, which raises the first error on its own line.
    # The pause ends after the MosGraph is built, so the promotion at its end
    # takes the graph's edge tuple too (see collector_paused).
    text = Path(path).read_text(encoding="ascii")
    start = text.find("\na ") + 1
    with collector_paused():
        lineno = _scan(header, edges, text[: start or len(text)].splitlines(), 0)
        if start and header.num_edges >= 0 and not edges:
            fields = _arc_fields(text, start, header.d, header.num_edges)
            if fields is not None:
                it = iter(fields)
                with suppress(Malformed, NonEdge):
                    return header.graph(tuple(zip(it, it, zip(*[it] * header.d))), lineno)
        if start:
            lineno = _scan(header, edges, text[start:].splitlines(), lineno)
        return header.graph(tuple(edges), lineno)


def read_objectives(path: str | Path) -> tuple[Objective, ...]:
    """A graph file's objectives, read from the lines before its first arc.

    Those are the lines before the first `\na `, which read_graph's line
    loop takes before its arc block; they go through that loop here too and
    get its checks and errors.  The arc block is not parsed, so this costs
    the header, not the graph; a `c objectives` line inside it, which
    write_graph never emits, is not seen.  An error found after those lines
    names the block's first line.
    """
    text = ""
    with open(path, encoding="ascii") as fh:
        while not (start := text.find("\na ") + 1) and (chunk := fh.read(1 << 16)):
            text += chunk
    header = _Header()
    lineno = _scan(header, [], text[: start or len(text)].splitlines(), 0) + bool(start)
    if header.num_edges < 0:
        raise Malformed(lineno, "arc before problem line" if start else "missing problem line")
    return header.objectives(lineno)


def write_queries(queries: Sequence[Query], path: str | Path) -> None:
    """Write query pairs in list order (file order defines the index)."""
    out = [f"q {q.source} {q.target}" for q in queries]
    Path(path).write_bytes(("\n".join(out) + ("\n" if out else "")).encode("ascii"))


def read_queries(path: str | Path, *, num_vertices: int | None = None) -> list[Query]:
    """Parse `q source target` lines; indices follow file order.

    With `num_vertices`, an endpoint beyond it is reported on its line.
    """
    out: list[Query] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] != "q" or len(tokens) != 3:
            raise Malformed(lineno, f"expected 'q source target', got {raw!r}")
        s = _int(tokens[1], lineno, "source")
        t = _int(tokens[2], lineno, "target")
        if s < 1 or t < 1:
            raise Malformed(lineno, "query endpoints must be >= 1")
        if num_vertices is not None:
            for what, x in (("source", s), ("target", t)):
                if x > num_vertices:
                    raise Malformed(lineno, f"{what} {x} outside 1..{num_vertices}")
        out.append(Query(s, t, len(out)))
    return out


def write_solutions(
    sets: Sequence[SolutionSet],
    path: str | Path,
    *,
    objectives: Sequence[Objective] | None = None,
    include_paths: bool = True,
) -> None:
    """Write solution blocks; entries are sorted lexicographically by cost."""
    out: list[str] = []
    if objectives is not None:
        out.append(f"c objectives {','.join(o.name for o in objectives)}")
    for ss in sets:
        eps_text = ",".join(_fraction_text(v) for v in ss.epsilon.values)
        out.append(f"r {ss.query.index} {eps_text} {len(ss.entries)}")
        for entry in sorted(ss.entries, key=lambda e: e.cost):
            fields = tuple(entry.cost)
            line = "x" + " %s" * len(fields)
            if include_paths and entry.path is not None:
                fields += tuple(entry.path)
                line += " :" + " %s" * len(entry.path)
            out.append(line % fields)
    Path(path).write_bytes(("\n".join(out) + ("\n" if out else "")).encode("ascii"))


# Where a `.sol` text leaves write_solutions' layout: at its start, anything
# but an optional comment line and then an `r` line or the end; after that, a
# newline that does not start an `r idx eps count` or `x ...` line or end the
# text.  The `x` pattern admits runs of spaces; json.loads rejects the empty
# fields they leave.  They are compiled on first use (re's cache), not at
# import.
_SOL_HEAD = r"(?:c[ -~]*\n)?(?:r [0-9]+ [0-9./,]+ [0-9]+\n|\Z)"
_SOL_STRAY = r"\n(?!r [0-9]+ [0-9./,]+ [0-9]+\n|x [0-9 ]+(?: : [0-9 ]+)?\n|\Z)"


def _solution_blocks(text: str, queries: Sequence[Query] | None) -> list[SolutionSet] | None:
    """The solution sets of `text` when it is in write_solutions' layout.

    That layout is an optional `c` line, then `r idx eps count` lines each
    followed by its `x c_1 .. c_d : v_1 .. v_k` or `x c_1 .. c_d` lines,
    single spaces, every line ending in a newline.  It is checked with two
    regexes, and each block's `x` lines are converted with one json.loads,
    which also rejects leading zeros and integers too long for int().  None
    (any other layout, or a block the line loop would reject) sends the
    caller to its line loop, which reports every error with its line.
    """
    if not re.match(_SOL_HEAD, text) or re.search(_SOL_STRAY, text):
        return None
    start = text.find("\n") + 1 if text[:1] == "c" else 0
    sets: list[SolutionSet] = []
    try:
        for block in ("\n" + text[start:-1]).split("\nr ")[1:]:
            head, _, lines = block.partition("\n")
            index, eps_text, count = head.split(" ")
            epsilon = Epsilon(tuple(map(Fraction, eps_text.split(","))))
            qidx = int(index)
            if queries is None:
                query = Query(0, 0, qidx)
            elif qidx < len(queries):
                query = queries[qidx]
            else:
                return None
            rows = []
            if lines:
                body = lines[2:].replace("\nx ", "]],[[").replace(" : ", "],[").replace(" ", ",")
                rows = json.loads(f"[[[{body}]]]")
            d = epsilon.d
            if len(rows) != int(count) or any(len(row[0]) != d for row in rows):
                return None
            entries = tuple(
                SolutionEntry(tuple(row[0]), tuple(row[1]) if len(row) > 1 else None)
                for row in rows
            )
            sets.append(SolutionSet(query, epsilon, entries))
    except (ValueError, ZeroDivisionError):  # bad epsilon text, leading zero, digit limit
        return None
    return sets


def read_solutions(
    path: str | Path, queries: Sequence[Query] | None = None
) -> list[SolutionSet]:
    """Parse solution blocks.

    When `queries` is given, each block's query index binds to the matching
    Query; otherwise placeholder endpoints (0, 0) are used and only the
    index is meaningful.  A file in write_solutions' layout is read in bulk
    (see _solution_blocks), any other line by line; both give the same sets
    and the same errors.
    """
    text = Path(path).read_text(encoding="ascii")
    sets = _solution_blocks(text, queries)
    return _solution_lines(text.splitlines(), queries) if sets is None else sets


def _solution_lines(lines: list[str], queries: Sequence[Query] | None) -> list[SolutionSet]:
    sets: list[SolutionSet] = []
    pending: int = 0
    query: Query | None = None
    epsilon: Epsilon | None = None
    entries: list[SolutionEntry] = []
    d = 0

    def flush(lineno: int) -> None:
        nonlocal query, epsilon
        if query is None:
            return
        if pending != 0:
            raise Malformed(lineno, f"block for query {query.index} is {pending} entries short")
        sets.append(SolutionSet(query, epsilon, tuple(entries)))
        query = None
        epsilon = None
        entries.clear()

    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "r":
            flush(lineno)
            if len(tokens) != 4:
                raise Malformed(lineno, f"expected 'r index eps count', got {raw!r}")
            qidx = _int(tokens[1], lineno, "query index")
            try:
                eps_values = tuple(Fraction(p) for p in tokens[2].split(","))
            except (ValueError, ZeroDivisionError):
                raise Malformed(lineno, f"bad epsilon list {tokens[2]!r}") from None
            if any(v < 0 for v in eps_values):
                raise Malformed(lineno, "negative epsilon")
            pending = _int(tokens[3], lineno, "entry count")
            if pending < 0:
                raise Malformed(lineno, "negative entry count")
            d = len(eps_values)
            if queries is not None:
                if not (0 <= qidx < len(queries)):
                    raise Malformed(lineno, f"query index {qidx} outside the query set")
                query = queries[qidx]
            else:
                query = Query(0, 0, qidx)
            epsilon = Epsilon(eps_values)
            continue
        if tokens[0] == "x":
            if query is None:
                raise Malformed(lineno, "entry before any 'r' line")
            if pending == 0:
                raise Malformed(lineno, "more entries than the block declared")
            body = tokens[1:]
            path_part: tuple[int, ...] | None = None
            if ":" in body:
                sep = body.index(":")
                cost_tokens, path_tokens = body[:sep], body[sep + 1 :]
                path_part = _ints(path_tokens, lineno, "path vertex")
                if not path_part:
                    raise Malformed(lineno, "empty witness path")
            else:
                cost_tokens = body
            if len(cost_tokens) != d:
                raise Malformed(lineno, f"expected {d} cost components, got {len(cost_tokens)}")
            cost = _ints(cost_tokens, lineno, "cost")
            if any(c < 0 for c in cost):
                raise Malformed(lineno, "negative cost")
            entries.append(SolutionEntry(cost, path_part))
            pending -= 1
            continue
        raise Malformed(lineno, f"unknown line keyword {tokens[0]!r}")
    flush(lineno)
    return sets
