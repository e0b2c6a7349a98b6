"""Text format round-trips and malformed-input diagnostics."""
from __future__ import annotations

import gc
import random
import string
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosbench import formats
from mosbench.core import (
    Cost,
    Epsilon,
    MosGraph,
    Objective,
    Query,
    SolutionEntry,
    SolutionSet,
)
from mosbench.errors import Malformed
from mosbench.generate import NetMakerSpec, generate_netmaker
from mosbench.formats import (
    _int,
    read_graph,
    read_objectives,
    read_queries,
    read_solutions,
    write_graph,
    write_queries,
    write_solutions,
)

from conftest import ARC_BENDS, bent_arc_block, file_texts, random_graph, read_outcome
from oracles import graph_text


class TestGraphFormat:
    def test_round_trip_random(self, tmp_path):
        rng = random.Random(41)
        for trial in range(20):
            g = random_graph(rng, rng.randint(2, 12), 0.4, rng.choice((2, 3, 4)))
            p = tmp_path / f"g{trial}.gr"
            write_graph(g, p)
            back = read_graph(p)
            assert back.num_vertices == g.num_vertices
            assert back.objectives == g.objectives
            assert back.metadata == g.metadata
            assert sorted(back.edges) == sorted(g.edges)
            # canonical form is a fixed point
            p2 = tmp_path / f"g{trial}b.gr"
            write_graph(back, p2)
            assert p.read_bytes() == p2.read_bytes()

    def test_scale_line_only_when_needed(self, tmp_path):
        plain = MosGraph(2, ((1, 2, (3, 4)),), (Objective("a"), Objective("b")), {})
        p = tmp_path / "plain.gr"
        write_graph(plain, p)
        assert not any(line.startswith("s ") for line in p.read_text().splitlines())

        scaled = MosGraph(
            2, ((1, 2, (3, 4)),), (Objective("a", 1000000), Objective("b")), {}
        )
        p = tmp_path / "scaled.gr"
        write_graph(scaled, p)
        assert "s 1000000 1" in p.read_text().splitlines()
        assert read_graph(p).objectives == scaled.objectives

    def test_metadata_value_may_contain_spaces(self, tmp_path):
        g = MosGraph(
            1, (), (Objective("x"),), {"note": "two words", "k": "3"}
        )
        p = tmp_path / "m.gr"
        write_graph(g, p)
        assert read_graph(p).metadata == {"note": "two words", "k": "3"}

    def test_default_objective_names(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p mosp 2 1 3\na 1 2 5 6 7\n")
        g = read_graph(p)
        assert [o.name for o in g.objectives] == ["c1", "c2", "c3"]
        assert all(o.scale == 1 for o in g.objectives)

    @pytest.mark.parametrize(
        "text,frag",
        [
            ("a 1 2 5\n", "arc before problem"),
            ("p mosp 2 1 1\na 1 2 x\n", "expected integer"),
            ("p mosp 2 1 1\na 1 3 5\n", "out of range"),
            ("p mosp 2 1 1\na 1 2 -5\n", "negative arc cost"),
            ("p mosp 2 1 2\na 1 2 5\n", "fields"),
            ("p mosp 2 0 1\np mosp 2 0 1\n", "duplicate problem"),
            ("p mosp 2 0 1\nz 1 2\n", "unknown line keyword"),
            ("", "missing problem line"),
            ("p mosp 2 2 1\na 1 2 5\n", "declares 2 arcs"),
            ("s 2\np mosp 2 0 1\n", "before problem line"),
            ("p mosp 2 0 2\ns 1 2\ns 1 2\n", "duplicate scale"),
            ("p mosp 2 0 2\ns 7\n", "expected 2 scales"),
            ("p mosp 2 0 1\ns 0\n", "scales must be >= 1"),
            ("c objectives a,b\np mosp 2 0 1\n", "names"),
            ("p mosp 2 0 0\n", "must be >= 1"),
        ],
    )
    def test_malformed(self, tmp_path, text, frag):
        p = tmp_path / "bad.gr"
        p.write_text(text)
        with pytest.raises(Malformed) as err:
            read_graph(p)
        assert frag in str(err.value)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("p mosp 2 -1 2\n", 1, "edge count must be >= 0"),
            ("p mosp 2 -5 2\na 1 2 3 4\n", 1, "edge count must be >= 0"),
            ("p mosp 0 0 2\n", 1, "vertex count must be >= 1"),
            ("c x\np mosp -3 1 2\na 1 2 3 4\n", 2, "vertex count must be >= 1"),
        ],
    )
    def test_problem_line_counts_are_checked(self, tmp_path, text, line, message):
        p = tmp_path / "bad.gr"
        p.write_text(text)
        with pytest.raises(Malformed) as err:
            read_graph(p)
        assert err.value.reason == message
        assert err.value.line_number == line

    def test_collector_state_survives_a_malformed_file(self, tmp_path):
        # The bulk read pauses the cyclic collector; a raise mid-read must
        # not leave it off, nor switch it on for a caller that turned it off.
        # Such a caller's young objects are not promoted either.
        p = tmp_path / "bad.gr"
        p.write_text("p mosp 2 1 1\na 1 2 oops\n")
        assert gc.isenabled()
        with pytest.raises(Malformed):
            read_graph(p)
        assert gc.isenabled()
        gc.disable()
        try:
            young = []
            with pytest.raises(Malformed):
                read_graph(p)
            assert not gc.isenabled()
            assert any(o is young for o in gc.get_objects(0))
        finally:
            gc.enable()

    def test_malformed_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.gr"
        p.write_text("p mosp 2 1 1\n\na 1 2 oops\n")
        with pytest.raises(Malformed) as err:
            read_graph(p)
        assert err.value.line_number == 3

    @pytest.mark.parametrize(
        "line,message",
        [
            ("a x 2 3 4 5", "arc tail: expected integer, got 'x'"),
            ("a 1 y 3 4 5", "arc head: expected integer, got 'y'"),
            ("a 1 2 3 z 5", "arc cost: expected integer, got 'z'"),
            ("a 1 2 3 4 w", "arc cost: expected integer, got 'w'"),
            ("a x 2 3 4 w", "arc tail: expected integer, got 'x'"),
            ("a 1 2 3.0 4 5", "arc cost: expected integer, got '3.0'"),
            ("a 1 4 3 4 5", "arc endpoint out of range 1..3"),
            ("a 0 2 3 4 5", "arc endpoint out of range 1..3"),
            ("a 1 2 3 -4 5", "negative arc cost"),
            ("a 1 2 3 4 -5", "negative arc cost"),
            ("a\t1 2 3 4 5", "unknown line keyword 'a\\t1'"),
        ],
    )
    def test_malformed_arc_line(self, tmp_path, line, message):
        p = tmp_path / "bad.gr"
        p.write_text(f"c objectives a,b,c\np mosp 3 2 3\na 1 2 0 0 0\n\n{line}\n")
        with pytest.raises(Malformed) as err:
            read_graph(p)
        assert err.value.reason == message
        assert err.value.line_number == 5

    def test_arc_fields_may_be_separated_by_any_whitespace(self, tmp_path):
        p = tmp_path / "tabs.gr"
        p.write_text("p mosp 3 2 2\na 1\t2\t3 4\na  2 \t 3   0\t7  \n")
        assert read_graph(p).edges == ((1, 2, (3, 4)), (2, 3, (0, 7)))

    @pytest.mark.parametrize(
        "metadata",
        [
            {"k y": "v"},
            {"": "v"},
            {"k\n": "v"},
            {"k": " v "},
            {"k": "v "},
            {"k": "\tv"},
            {"k": "a\nb"},
            {"k": "a\rb"},
            {"k": "v\n"},
            {"k": "a\x0bb"},
            {"k": "a\x1cb"},
            {"k": "a\x85b"},
        ],
        ids=lambda m: repr(m),
    )
    def test_unwritable_metadata_is_rejected(self, tmp_path, metadata):
        g = MosGraph(1, (), (Objective("x"),), metadata)
        p = tmp_path / "m.gr"
        with pytest.raises(ValueError, match="metadata"):
            write_graph(g, p)
        assert not p.exists()

    @pytest.mark.parametrize("name", ["a b", "a,b", "", "a\n"])
    def test_unwritable_objective_name_is_rejected(self, tmp_path, name):
        g = MosGraph(1, (), (Objective(name),), {})
        with pytest.raises(ValueError, match="objective name"):
            write_graph(g, tmp_path / "o.gr")

    def test_refused_text_keeps_existing_file(self, tmp_path):
        p = tmp_path / "out"
        p.write_bytes(b"previous\n")
        with pytest.raises(ValueError, match="metadata value 'café' of 'k' is not writable"):
            write_graph(MosGraph(1, (), (Objective("x"),), {"k": "café"}), p)
        empty = SolutionSet(Query(1, 1, 0), Epsilon.zero(1), ())
        with pytest.raises(UnicodeEncodeError):
            write_solutions([empty], p, objectives=[Objective("café")])
        assert p.read_bytes() == b"previous\n"

    def test_metadata_edge_cases_round_trip(self, tmp_path):
        metadata = {"empty": "", "gap": "a  b", "tab": "a\tb", "A-b_c.9": "x,y=z"}
        g = MosGraph(1, (), (Objective("x"),), metadata)
        p = tmp_path / "m.gr"
        write_graph(g, p)
        assert read_graph(p).metadata == metadata


_META_KEY = st.text(string.ascii_letters + string.digits + "_.-", min_size=1, max_size=6)
_META_VALUE = st.text(string.printable, max_size=8).filter(
    lambda v: "".join(v.splitlines()) == v == v.strip()
)


@st.composite
def writable_graphs(draw) -> MosGraph:
    """Graphs write_graph accepts: parallel arcs, zero costs, scales, metadata."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    cost = st.tuples(*[st.integers(0, 3) | st.integers(0, 2**70)] * d)
    arc = st.tuples(st.integers(1, n), st.integers(1, n), cost)
    arcs = draw(st.lists(arc, max_size=12))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=4)) if arcs else []
    scales = draw(st.lists(st.sampled_from((1, 1, 10, 1000000)), min_size=d, max_size=d))
    return MosGraph(
        num_vertices=n,
        edges=tuple(arcs),
        objectives=tuple(Objective(f"o{i}", s) for i, s in enumerate(scales)),
        metadata=draw(st.dictionaries(_META_KEY, _META_VALUE, max_size=3)),
    )


@settings(max_examples=200, deadline=None)
@given(writable_graphs())
def test_graph_write_read_write_is_byte_identical(tmp_path_factory, g):
    p = tmp_path_factory.mktemp("rt") / "g.gr"
    write_graph(g, p)
    first = p.read_bytes()
    back = read_graph(p)
    assert sorted(back.edges) == sorted(g.edges)
    assert back.objectives == g.objectives
    assert back.metadata == g.metadata
    write_graph(back, p)
    assert p.read_bytes() == first


@settings(max_examples=200, deadline=None)
@given(writable_graphs())
def test_graph_bytes_match_line_by_line_oracle(tmp_path_factory, g):
    p = tmp_path_factory.mktemp("oracle") / "g.gr"
    write_graph(g, p)
    assert p.read_bytes() == graph_text(g).encode("ascii")


class TestReadObjectives:
    @settings(max_examples=100, deadline=None)
    @given(writable_graphs())
    def test_matches_read_graph(self, tmp_path_factory, g):
        p = tmp_path_factory.mktemp("obj") / "g.gr"
        write_graph(g, p)
        assert read_objectives(p) == read_graph(p).objectives == g.objectives

    def test_generated_graph(self, tmp_path):
        p = tmp_path / "g.gr"
        write_graph(generate_netmaker(NetMakerSpec(n=200, seed=3)), p)
        assert read_objectives(p) == read_graph(p).objectives

    def test_names_default_without_objectives_comment(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("c meta family x\np mosp 2 1 3\ns 1 10 1\na 1 2 1 2 3\n")
        want = (Objective("c1"), Objective("c2", 10), Objective("c3"))
        assert read_objectives(p) == read_graph(p).objectives == want

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("c objectives a,b\np mosp x 1 2\na 1 2 3 4\n", 2,
             "vertex count: expected integer, got 'x'"),
            ("c objectives a,b\na 1 2 3 4\np mosp 2 1 2\n", 2, "arc before problem line"),
            ("\n\np mosp 2 1 2\ns 1\n", 4, "expected 2 scales, got 1"),
            ("c objectives a\np mosp 2 1 2\na 1 2 3 4\n", 3,
             "objective comment names 1 of 2 objectives"),
            ("c objectives a,b\n", 1, "missing problem line"),
        ],
    )
    def test_header_errors_name_their_line(self, tmp_path, text, line, reason):
        p = tmp_path / "g.gr"
        p.write_text(text)
        with pytest.raises(Malformed) as err:
            read_objectives(p)
        assert (err.value.line_number, err.value.reason) == (line, reason)

    @pytest.mark.parametrize("shift", [-3, -2, -1, 0, 1])
    def test_header_longer_than_a_read(self, tmp_path, shift):
        # The file is read 64 KiB at a time; the first "\na " falls across
        # that boundary, and a bad line after it is never read.
        head = "c objectives a,b\np mosp 2 1 2\nc meta note "
        p = tmp_path / "g.gr"
        p.write_text(head + "x" * ((1 << 16) + shift - len(head)) + "\na 1 2 3 4\nbogus\n")
        assert read_objectives(p) == (Objective("a"), Objective("b"))

    @pytest.mark.parametrize(
        "sep",
        ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\r", "\r\n"],
        ids=["VT", "FF", "FS", "GS", "RS", "CR", "CRLF"],
    )
    @pytest.mark.parametrize(
        "template",
        [
            "p mosp 2 1 2{sep}s 5 1\na 1 2 3 4\n",
            "c objectives a,b{sep}s 1 1\np mosp 2 1 2\na 1 2 3 4\n",
            "c objectives a,b\np mosp 2 1 2{sep}a 1 2 3 4\n",
            "c objectives a,b{sep}a 1 2 3 4\np mosp 2 1 2\n",
            "p mosp 2 1 2{sep} a 1 2 3 4\nc objectives x,y\n",
        ],
        ids=["scale-after-p", "scale-before-p", "arc-after-p", "arc-before-p", "indented-arc"],
    )
    def test_splits_lines_as_read_graph(self, tmp_path, sep, template):
        p = tmp_path / "g.gr"
        p.write_bytes(template.format(sep=sep).encode("ascii"))
        want = read_outcome(lambda p: read_graph(p).objectives, p)
        assert read_outcome(read_objectives, p) == want


def line_by_line_read_graph(path: str | Path) -> MosGraph:
    """read_graph with every line through the line loop: the bulk path's reference."""
    num_vertices = 0
    num_edges = -1
    d = 0
    scales: list[int] | None = None
    names: list[str] | None = None
    metadata: dict[str, str] = {}
    edges: list[tuple[int, int, Cost]] = []
    lineno = 0
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "a":
            if num_edges < 0:
                raise Malformed(lineno, "arc before problem line")
            tokens = rest.split()
            if len(tokens) != 2 + d:
                raise Malformed(
                    lineno, f"expected 'a u v' plus {d} costs, got {len(tokens)} fields"
                )
            try:
                u, v, *cost = map(int, tokens)
            except ValueError:  # redo field by field: the first bad one raises, named
                _int(tokens[0], lineno, "arc tail")
                _int(tokens[1], lineno, "arc head")
                for t in tokens[2:]:
                    _int(t, lineno, "arc cost")
                raise
            if not (1 <= u <= num_vertices) or not (1 <= v <= num_vertices):
                raise Malformed(lineno, f"arc endpoint out of range 1..{num_vertices}")
            if min(cost) < 0:
                raise Malformed(lineno, "negative arc cost")
            edges.append((u, v, tuple(cost)))
            continue
        if kind == "c":
            words = rest.split()
            if len(words) >= 2 and words[0] == "objectives":
                names = words[1].split(",")
            elif len(words) >= 2 and words[0] == "meta":
                metadata[words[1]] = rest.split(None, 2)[2] if len(words) > 2 else ""
            continue
        if kind == "p":
            if num_edges >= 0:
                raise Malformed(lineno, "duplicate problem line")
            tokens = rest.split()
            if len(tokens) != 4 or tokens[0] != "mosp":
                raise Malformed(lineno, f"expected 'p mosp V E d', got {raw!r}")
            num_vertices = _int(tokens[1], lineno, "vertex count")
            num_edges = _int(tokens[2], lineno, "edge count")
            d = _int(tokens[3], lineno, "objective count")
            if num_vertices < 1:
                raise Malformed(lineno, "vertex count must be >= 1")
            if num_edges < 0:
                raise Malformed(lineno, "edge count must be >= 0")
            if d < 1:
                raise Malformed(lineno, "objective count must be >= 1")
            continue
        if kind == "s":
            if num_edges < 0:
                raise Malformed(lineno, "scale line before problem line")
            if scales is not None:
                raise Malformed(lineno, "duplicate scale line")
            tokens = rest.split()
            if len(tokens) != d:
                raise Malformed(lineno, f"expected {d} scales, got {len(tokens)}")
            scales = [_int(t, lineno, "scale") for t in tokens]
            if any(s < 1 for s in scales):
                raise Malformed(lineno, "scales must be >= 1")
            continue
        raise Malformed(lineno, f"unknown line keyword {kind!r}")
    if num_edges < 0:
        raise Malformed(lineno, "missing problem line")
    if len(edges) != num_edges:
        raise Malformed(lineno, f"problem line declares {num_edges} arcs, file has {len(edges)}")
    if names is not None and len(names) != d:
        raise Malformed(lineno, f"objective comment names {len(names)} of {d} objectives")
    if names is None:
        names = [f"c{i + 1}" for i in range(d)]
    if scales is None:
        scales = [1] * d
    return MosGraph(
        num_vertices=num_vertices,
        edges=tuple(edges),
        objectives=tuple(Objective(n, s) for n, s in zip(names, scales)),
        metadata=metadata,
    )


def _graph_outcome(read, path):
    out = read_outcome(read, path)
    if isinstance(out, MosGraph):
        return out.num_vertices, out.edges, out.objectives, out.metadata
    return out


class TestBulkArcBlock:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_line_by_line_reader(self, tmp_path_factory, data):
        g = data.draw(writable_graphs())
        p = tmp_path_factory.mktemp("bulk") / "g.gr"
        write_graph(g, p)
        p.write_bytes(data.draw(file_texts(p.read_text())).encode())
        assert _graph_outcome(read_graph, p) == _graph_outcome(line_by_line_read_graph, p)

    def test_canonical_block_is_read_in_bulk(self, tmp_path, monkeypatch):
        seen = []
        bulk = formats._arc_fields
        monkeypatch.setattr(formats, "_arc_fields", lambda *a: seen.append(bulk(*a)) or seen[-1])
        edges = ((1, 2, (0, 2**70)), (1, 2, (5, 1)), (3, 1, (7, 0)))
        g = MosGraph(3, edges, (Objective("a"), Objective("b")))
        p = tmp_path / "g.gr"
        write_graph(g, p)
        assert read_graph(p).edges == g.edges
        p.write_text(p.read_text().replace("a 3 1 7 0", "a 3 1 7\t0"))
        assert read_graph(p).edges == g.edges
        assert seen == [[1, 2, 0, 2**70, 1, 2, 5, 1, 3, 1, 7, 0], None]

    @pytest.mark.parametrize(
        "head,reason",
        [
            ("c objectives a\np mosp 2 3 1", "problem line declares 3 arcs, file has 2"),
            ("c objectives a,b\np mosp 2 2 1", "objective comment names 2 of 1 objectives"),
        ],
    )
    def test_canonical_file_errors_name_last_line(self, tmp_path, head, reason):
        p = tmp_path / "g.gr"
        p.write_text(head + "\na 1 2 4\na 2 1 5\n")
        for read in (read_graph, line_by_line_read_graph):
            with pytest.raises(Malformed) as err:
                read(p)
            assert (err.value.line_number, err.value.reason) == (4, reason)

    @pytest.mark.parametrize("bad", ["a 0 2 4", "a 2 0 4", "a 3 1 4", "a 1 3 4"])
    @pytest.mark.parametrize(
        "head",
        [
            "c objectives a\np mosp 2 3 1",
            "c objectives a,b\np mosp 2 3 1",
            "c objectives a\np mosp 2 2 1",
            "c objectives a\np mosp 2 4 1",
        ],
    )
    def test_endpoint_error_comes_before_errors_found_at_the_end(
        self, tmp_path, monkeypatch, head, bad
    ):
        # With the declared count right, the block is parsed in bulk and
        # rejected by MosGraph or by the objective names; the line loop then
        # names the bad endpoint, the first error in file order.
        seen = []
        bulk = formats._arc_fields
        monkeypatch.setattr(formats, "_arc_fields", lambda *a: seen.append(bulk(*a)) or seen[-1])
        p = tmp_path / "g.gr"
        p.write_text(f"{head}\na 1 2 4\n{bad}\na 2 1 5\n")
        for read in (read_graph, line_by_line_read_graph):
            with pytest.raises(Malformed) as err:
                read(p)
            assert (err.value.line_number, err.value.reason) == (
                4,
                "arc endpoint out of range 1..2",
            )
        assert (seen[0] is not None) == ("p mosp 2 3 1" in head)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bend", ARC_BENDS)
    def test_bent_block_goes_to_line_loop(self, tmp_path, bend, d):
        def text(bend):
            return f"p mosp 3 3 {d}\n" + bent_arc_block(bend, d)

        start = text(None).find("\na ") + 1
        assert formats._arc_fields(text(None), start, d, 3) is not None
        assert formats._arc_fields(text(bend), start, d, 3) is None
        p = tmp_path / "g.gr"
        p.write_text(text(bend))
        assert _graph_outcome(read_graph, p) == _graph_outcome(line_by_line_read_graph, p)

    def test_huge_arc_count_builds_no_skeleton(self):
        text = "p mosp 2 1 2\na 1 2 3 4\n"
        assert formats._arc_fields(text, text.find("\na ") + 1, 2, 10**18) is None

    def test_huge_objective_count_builds_no_pattern(self, tmp_path):
        p = tmp_path / "g.gr"
        p.write_text("p mosp 2 1 4000000000\na 1 2 3 4\n")
        tracemalloc.start()
        try:
            with pytest.raises(Malformed) as err:
                read_graph(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.line_number, err.value.reason) == (
            2,
            "expected 'a u v' plus 4000000000 costs, got 4 fields",
        )
        assert peak < 1 << 20

    def test_layout_check_memory_does_not_grow_with_lines(self):
        # The last line has a double space, so the check runs over the whole
        # block and returns None before any integer is parsed.
        def peak(lines: int) -> int:
            text = f"p mosp 2 {lines} 2\n" + "a 1 2 3 4\n" * (lines - 1) + "a 1 2  3\n"
            start = text.find("\na ") + 1
            assert formats._arc_fields(text, start, 2, lines) is None  # compiles the pattern
            tracemalloc.start()
            try:
                assert formats._arc_fields(text, start, 2, lines) is None
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1140), peak(9120)
        assert large < small + 4096, (small, large)


class TestQueryFormat:
    def test_round_trip_and_indices(self, tmp_path):
        qs = [Query(3, 9, 0), Query(1, 2, 1), Query(3, 9, 2)]
        p = tmp_path / "q.txt"
        write_queries(qs, p)
        assert read_queries(p) == qs

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("c header\n\nq 4 7\n\nc tail\nq 2 2\n")
        assert read_queries(p) == [Query(4, 7, 0), Query(2, 2, 1)]

    def test_malformed(self, tmp_path):
        p = tmp_path / "q.txt"
        p.write_text("q 1\n")
        with pytest.raises(Malformed):
            read_queries(p)
        p.write_text("q 0 5\n")
        with pytest.raises(Malformed):
            read_queries(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "q.txt"
        write_queries([], p)
        assert read_queries(p) == []


class TestSolutionFormat:
    def sample_sets(self):
        q0 = Query(1, 4, 0)
        q1 = Query(2, 4, 1)
        zero = Epsilon.zero(2)
        tenth = Epsilon.broadcast(Fraction(1, 10), 2)
        return [
            SolutionSet(
                q0,
                zero,
                (
                    SolutionEntry((1, 9), (1, 2, 4)),
                    SolutionEntry((5, 5), (1, 3, 4)),
                ),
            ),
            SolutionSet(q0, tenth, (SolutionEntry((1, 9), (1, 2, 4)),)),
            SolutionSet(q1, zero, ()),
        ]

    def test_round_trip_with_paths(self, tmp_path):
        sets = self.sample_sets()
        p = tmp_path / "s.sol"
        write_solutions(sets, p)
        back = read_solutions(p, [Query(1, 4, 0), Query(2, 4, 1)])
        assert back == sets

    def test_round_trip_without_queries_uses_placeholders(self, tmp_path):
        sets = self.sample_sets()
        p = tmp_path / "s.sol"
        write_solutions(sets, p)
        back = read_solutions(p)
        assert [ss.query.index for ss in back] == [0, 0, 1]
        assert all(ss.query.source == 0 for ss in back)
        assert [ss.epsilon for ss in back] == [ss.epsilon for ss in sets]
        assert [ss.entries for ss in back] == [ss.entries for ss in sets]

    def test_paths_can_be_omitted(self, tmp_path):
        sets = self.sample_sets()
        p = tmp_path / "s.sol"
        write_solutions(sets, p, include_paths=False)
        assert ":" not in p.read_text()
        back = read_solutions(p)
        assert all(e.path is None for ss in back for e in ss.entries)
        assert [e.cost for e in back[0].entries] == [(1, 9), (5, 5)]

    def test_entries_written_in_cost_order(self, tmp_path):
        ss = SolutionSet(
            Query(1, 2, 0),
            Epsilon.zero(2),
            (SolutionEntry((9, 1), None), SolutionEntry((2, 7), None)),
        )
        p = tmp_path / "s.sol"
        write_solutions([ss], p)
        lines = [l for l in p.read_text().splitlines() if l.startswith("x")]
        assert lines == ["x 2 7", "x 9 1"]

    def test_objectives_header(self, tmp_path):
        p = tmp_path / "s.sol"
        write_solutions(
            self.sample_sets(), p, objectives=(Objective("dist"), Objective("time"))
        )
        assert p.read_text().splitlines()[0] == "c objectives dist,time"
        # comments are ignored on read
        assert len(read_solutions(p)) == 3

    def test_epsilon_text_forms(self, tmp_path):
        q = Query(1, 2, 0)
        sets = [
            SolutionSet(q, Epsilon.zero(3), ()),
            SolutionSet(q, Epsilon.broadcast(Fraction(1, 20), 3), ()),
            SolutionSet(
                q, Epsilon((Fraction(0), Fraction(1, 3), Fraction(1, 10))), ()
            ),
        ]
        p = tmp_path / "s.sol"
        write_solutions(sets, p)
        heads = [l.split()[2] for l in p.read_text().splitlines()]
        assert heads == ["0,0,0", "0.05,0.05,0.05", "0,1/3,0.1"]
        back = read_solutions(p)
        assert [ss.epsilon for ss in back] == [ss.epsilon for ss in sets]

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.sol", tmp_path / "b.sol"
        write_solutions(self.sample_sets(), a)
        write_solutions(self.sample_sets(), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "text,frag",
        [
            ("x 1 2\n", "before any 'r'"),
            ("r 0 0,0 1\n", "1 entries short"),
            ("r 0 0,0 0\nx 1 2\n", "more entries"),
            ("r 0 bad 0\n", "bad epsilon"),
            ("r 0 -0.1,0 0\n", "negative epsilon"),
            ("r 0 0,0 1\nx 1\n", "expected 2 cost"),
            ("r 0 0,0 1\nx 1 -2\n", "negative cost"),
            ("r 0 0,0 1\nx 1 2 :\n", "empty witness"),
            ("r 0 0,0\n", "expected 'r index eps count'"),
        ],
    )
    def test_malformed(self, tmp_path, text, frag):
        p = tmp_path / "bad.sol"
        p.write_text(text)
        with pytest.raises(Malformed) as err:
            read_solutions(p)
        assert frag in str(err.value)

    @pytest.mark.parametrize(
        "entry,message",
        [
            ("x 1 2 : 1 v 3", "path vertex: expected integer, got 'v'"),
            ("x 1 2 : 1 2.0 x", "path vertex: expected integer, got '2.0'"),
            ("x 1 y 3 : 1 3", "cost: expected integer, got 'y'"),
            ("x 1 2 z : 1 3", "cost: expected integer, got 'z'"),
            ("x 1 2 z", "cost: expected integer, got 'z'"),
        ],
    )
    def test_malformed_entry_field(self, tmp_path, entry, message):
        p = tmp_path / "bad.sol"
        p.write_text(f"r 0 0,0,0 2\nx 0 0 9 : 1 3\n\n{entry}\n")
        with pytest.raises(Malformed) as err:
            read_solutions(p)
        assert err.value.reason == message
        assert err.value.line_number == 4

    def test_query_index_bound_checked(self, tmp_path):
        p = tmp_path / "s.sol"
        p.write_text("r 5 0,0 0\n")
        with pytest.raises(Malformed):
            read_solutions(p, [Query(1, 2, 0)])
        assert read_solutions(p)[0].query.index == 5


_EPS_VALUE = st.sampled_from(
    (Fraction(0), Fraction(1, 3), Fraction(1, 20), Fraction(1, 10), Fraction(7, 2))
)


@st.composite
def writable_solutions(draw) -> tuple[list[SolutionSet], list[Objective] | None, bool]:
    """Sets write_solutions accepts, its objectives argument and include_paths.

    d is 1..4; blocks may be empty, entries may lack a path, and query
    indices may repeat across blocks (one per epsilon).
    """
    d = draw(st.integers(1, 4))
    cost = st.tuples(*[st.integers(0, 3) | st.integers(0, 2**70)] * d)
    path = st.none() | st.lists(st.integers(0, 9), min_size=1, max_size=5).map(tuple)
    entry = st.builds(SolutionEntry, cost, path)
    block = st.builds(
        SolutionSet,
        st.integers(0, 2).map(lambda i: Query(0, 0, i)),
        st.tuples(*[_EPS_VALUE] * d).map(Epsilon),
        st.lists(entry, max_size=4).map(tuple),
    )
    sets = draw(st.lists(block, max_size=4))
    objectives = draw(st.none() | st.just([Objective(f"o{k}") for k in range(d)]))
    return sets, objectives, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(writable_solutions())
def test_solution_write_read_write_is_byte_identical(tmp_path_factory, case):
    sets, objectives, include_paths = case
    p = tmp_path_factory.mktemp("rt") / "s.sol"
    write_solutions(sets, p, objectives=objectives, include_paths=include_paths)
    first = p.read_bytes()
    back = read_solutions(p)
    assert [(ss.query, ss.epsilon, len(ss.entries)) for ss in back] == [
        (ss.query, ss.epsilon, len(ss.entries)) for ss in sets
    ]
    write_solutions(back, p, objectives=objectives, include_paths=include_paths)
    assert p.read_bytes() == first


def line_by_line_read_solutions(
    path: str | Path, queries: list[Query] | None = None
) -> list[SolutionSet]:
    """read_solutions with every line through the line loop: the bulk path's reference."""
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
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), start=1):
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
                path_part = tuple(_int(t, lineno, "path vertex") for t in path_tokens)
                if not path_part:
                    raise Malformed(lineno, "empty witness path")
            else:
                cost_tokens = body
            if len(cost_tokens) != d:
                raise Malformed(lineno, f"expected {d} cost components, got {len(cost_tokens)}")
            cost = tuple(_int(t, lineno, "cost") for t in cost_tokens)
            if any(c < 0 for c in cost):
                raise Malformed(lineno, "negative cost")
            entries.append(SolutionEntry(cost, path_part))
            pending -= 1
            continue
        raise Malformed(lineno, f"unknown line keyword {tokens[0]!r}")
    flush(lineno)
    return sets


class TestBulkSolutionBlocks:
    @settings(max_examples=500, deadline=None)
    @given(writable_solutions(), st.data())
    def test_matches_line_by_line_reader(self, tmp_path_factory, case, data):
        sets, objectives, include_paths = case
        p = tmp_path_factory.mktemp("bulk") / "s.sol"
        write_solutions(sets, p, objectives=objectives, include_paths=include_paths)
        text = p.read_text()
        p.write_bytes(data.draw(file_texts(text, ("r ", "x "), "r ")).encode())
        queries = data.draw(st.none() | st.lists(st.just(Query(1, 2)), max_size=3))
        queries = queries and [Query(1, 2, i) for i in range(len(queries))]
        assert read_outcome(lambda f: read_solutions(f, queries), p) == read_outcome(
            lambda f: line_by_line_read_solutions(f, queries), p
        )

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "c only a comment\n",
            "r 0 0,0 1\nx 12 : 3\n",
            "r 0 0,0 1\nx 1 2 3\n",
            "r 0 0,0 1\nx 1 2 : 3 : 4\n",
            "r 0 0,0 1\nx 1 2 :  3\n",
            "r 0 0,0 1\nx 1  2\n",
            "r 0 0,0 1\nx 01 2\n",
            "r 0 0,0 1\nx " + "9" * 5000 + " 2\n",
            "r 0 0,0 2\nx 1 2\n",
            "r 0 0,0 0\nx 1 2\n",
            "r 0 0,0 1\nx 1 2",
            "r 3 0,0 0\n",
            "r 00 0,0 0\n",
            "r 0 1/0,0 0\n",
            "r 0 0..1,0 0\n",
            "r 0 0,,0 0\n",
            "c a\x0bx 1 2\nr 0 0,0 0\n",
            "c a\nc b\nr 0 0,0 0\n",
            "x 1 2\nr 0 0,0 0\n",
        ],
    )
    def test_layout_edge_cases_match_line_by_line_reader(self, tmp_path, text):
        p = tmp_path / "s.sol"
        p.write_bytes(text.encode())
        queries = [Query(1, 2, 0)]
        assert read_outcome(lambda f: read_solutions(f, queries), p) == read_outcome(
            lambda f: line_by_line_read_solutions(f, queries), p
        )

    def test_canonical_file_is_read_in_bulk(self, tmp_path, monkeypatch):
        seen = []
        bulk = formats._solution_blocks
        monkeypatch.setattr(
            formats, "_solution_blocks", lambda *a: seen.append(bulk(*a)) or seen[-1]
        )
        q = Query(1, 3, 0)
        sets = [
            SolutionSet(
                q,
                Epsilon((Fraction(0), Fraction(1, 3))),
                (SolutionEntry((0, 2**70), (1, 3)), SolutionEntry((5, 1), None)),
            ),
            SolutionSet(q, Epsilon.zero(2), ()),
        ]
        p = tmp_path / "s.sol"
        write_solutions(sets, p, objectives=(Objective("a"), Objective("b")))
        assert read_solutions(p, [q]) == sets
        p.write_text(p.read_text().replace("x 5 1", "x 5\t1"))
        assert read_solutions(p, [q]) == sets
        assert seen == [sets, None]
