"""Converters: DIMACS pairs, elevation extension, guard maps, roadmaps."""
from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosbench import convert
from mosbench.convert import (
    FIXED_SCALE,
    ClearanceRoadmap,
    GuardGrid,
    clearance_penalty,
    extend_dimacs,
    extract_connected_subgraph,
    guards_to_graph,
    panda_apply_clearance,
    parse_dimacs,
    parse_guards_map,
    read_elevation,
    read_roadmap,
    write_guards_map,
)
from mosbench.core import Cost, MosGraph, Objective
from mosbench.errors import (
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

from conftest import ARC_BENDS, bent_arc_block, file_texts, guards_cell_vertex, read_outcome


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDimacsPair:
    DIST = "c a comment\np sp 3 3\na 1 2 40\na 2 3 7\na 3 1 12\n"
    TIME = "p sp 3 3\na 1 2 5\na 2 3 9\na 3 1 2\n"

    def test_merge(self, tmp_path):
        g = parse_dimacs(
            write(tmp_path, "d.gr", self.DIST), write(tmp_path, "t.gr", self.TIME)
        )
        assert g.num_vertices == 3
        assert g.edges == ((1, 2, (40, 5)), (2, 3, (7, 9)), (3, 1, (12, 2)))
        assert [o.name for o in g.objectives] == ["distance", "time"]
        assert g.metadata["family"] == "dimacs"

    def test_size_mismatch(self, tmp_path):
        other = "p sp 3 2\na 1 2 5\na 2 3 9\n"
        with pytest.raises(ArcSetMismatch):
            parse_dimacs(
                write(tmp_path, "d.gr", self.DIST), write(tmp_path, "t.gr", other)
            )

    def test_endpoint_mismatch(self, tmp_path):
        other = "p sp 3 3\na 1 2 5\na 3 2 9\na 3 1 2\n"
        with pytest.raises(ArcSetMismatch) as err:
            parse_dimacs(
                write(tmp_path, "d.gr", self.DIST), write(tmp_path, "t.gr", other)
            )
        assert "arc 2" in str(err.value)

    def test_head_mismatch_names_first_arc(self, tmp_path):
        other = "p sp 3 3\na 1 2 5\na 2 1 9\na 3 2 2\n"
        with pytest.raises(ArcSetMismatch) as err:
            parse_dimacs(
                write(tmp_path, "d.gr", self.DIST), write(tmp_path, "t.gr", other)
            )
        assert str(err.value) == "arc 2: endpoints (2,3) vs (2,1)"

    def test_negative_weight(self, tmp_path):
        bad = "p sp 2 1\na 1 2 -3\n"
        with pytest.raises(NegativeCost):
            parse_dimacs(
                write(tmp_path, "d.gr", bad), write(tmp_path, "t.gr", bad)
            )

    @pytest.mark.parametrize(
        "text",
        [
            "a 1 2 3\n",
            "p sp 2 1\np sp 2 1\na 1 2 3\n",
            "p sp 2 1\nq 1 2\n",
            "p sp 2 2\na 1 2 3\n",
            "",
            "p sp 2 1\na 1 9 3\n",
        ],
    )
    def test_malformed(self, tmp_path, text):
        p = write(tmp_path, "bad.gr", text)
        with pytest.raises(Malformed):
            parse_dimacs(p, p)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("p sp 2 -1\n", 1, "bad.gr: arc count must be >= 0"),
            ("p sp 2 -5\na 1 2 3\n", 1, "bad.gr: arc count must be >= 0"),
            ("p sp 0 0\n", 1, "bad.gr: vertex count must be >= 1"),
            ("c x\np sp -3 1\na 1 2 3\n", 2, "bad.gr: vertex count must be >= 1"),
        ],
    )
    def test_problem_line_counts_are_checked(self, tmp_path, text, line, message):
        p = write(tmp_path, "bad.gr", text)
        with pytest.raises(Malformed) as err:
            parse_dimacs(p, p)
        assert err.value.reason == message
        assert err.value.line_number == line



def line_by_line_parse_gr(path: str | Path) -> tuple[int, int, list[tuple[int, int, int]]]:
    """_parse_gr with every line through the line loop, arcs as triples: the reference."""
    n = m = -1
    arcs: list[tuple[int, int, int]] = []
    name = Path(path).name
    lineno = 0
    for lineno, raw in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
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
            arcs.append((u, v, w))
            continue
        raise Malformed(lineno, f"{name}: unknown line keyword {tokens[0]!r}")
    if n < 0:
        raise Malformed(lineno, f"{name}: missing problem line")
    if len(arcs) != m:
        raise Malformed(lineno, f"{name}: problem line declares {m} arcs, file has {len(arcs)}")
    return n, m, arcs


def line_by_line_parse_dimacs(distance_file: Path, time_file: Path) -> MosGraph:
    """parse_dimacs over the reference reader, comparing endpoints arc by arc."""
    dn, dm, darcs = line_by_line_parse_gr(distance_file)
    tn, tm, tarcs = line_by_line_parse_gr(time_file)
    if dn != tn or dm != tm:
        raise ArcSetMismatch(
            f"size mismatch: {dn} vertices/{dm} arcs vs {tn} vertices/{tm} arcs"
        )
    edges: list[tuple[int, int, Cost]] = []
    for i, ((du, dv, dw), (tu, tv, tw)) in enumerate(zip(darcs, tarcs)):
        if du != tu or dv != tv:
            raise ArcSetMismatch(f"arc {i + 1}: endpoints ({du},{dv}) vs ({tu},{tv})")
        edges.append((du, dv, (dw, tw)))
    return MosGraph(dn, tuple(edges), (Objective("distance"), Objective("time")))


@st.composite
def dimacs_texts(draw) -> tuple[str, str]:
    """A canonical distance/time file pair over one arc list, parallel arcs included."""
    n = draw(st.integers(1, 6))
    weight = st.integers(0, 3) | st.integers(0, 2**70)
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=4)) if arcs else []
    head = draw(st.sampled_from(("", "c 9th DIMACS\n"))) + f"p sp {n} {len(arcs)}\n"
    moved = list(arcs)
    if arcs and draw(st.booleans()):  # one endpoint of one time-file arc differs
        i = draw(st.integers(0, len(arcs) - 1))
        w = draw(st.integers(1, n))
        moved[i] = (w, arcs[i][1]) if draw(st.booleans()) else (arcs[i][0], w)
    return tuple(
        head + "".join(f"a {u} {v} {draw(weight)}\n" for u, v in side) for side in (arcs, moved)
    )


def _flat_reference(path: Path) -> tuple[int, int, list[int]]:
    n, m, arcs = line_by_line_parse_gr(path)
    return n, m, [x for arc in arcs for x in arc]


def _gr_outcome(read, path):
    out = read_outcome(read, path)
    if isinstance(out, MosGraph):
        return out.num_vertices, out.edges
    return out


class TestDimacsBulkArcBlock:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_line_by_line_reader(self, tmp_path_factory, data):
        dist, time = data.draw(dimacs_texts())
        work = tmp_path_factory.mktemp("gr")
        d, t = work / "d.gr", work / "t.gr"
        d.write_bytes(data.draw(file_texts(dist)).encode())
        t.write_bytes(data.draw(file_texts(time)).encode())
        assert read_outcome(convert._parse_gr, d) == read_outcome(_flat_reference, d)
        merged = _gr_outcome(lambda p: parse_dimacs(p, t), d)
        assert merged == _gr_outcome(lambda p: line_by_line_parse_dimacs(p, t), d)

    def test_canonical_block_is_read_in_bulk(self, tmp_path, monkeypatch):
        seen = []
        bulk = convert._arc_fields
        monkeypatch.setattr(convert, "_arc_fields", lambda *a: seen.append(bulk(*a)) or seen[-1])
        d = write(tmp_path, "d.gr", TestDimacsPair.DIST)
        t = write(tmp_path, "t.gr", TestDimacsPair.TIME.replace("a 3 1 2", "a 3 1  2"))
        assert parse_dimacs(d, t).edges == ((1, 2, (40, 5)), (2, 3, (7, 9)), (3, 1, (12, 2)))
        assert seen == [[1, 2, 40, 2, 3, 7, 3, 1, 12], None]

    @pytest.mark.parametrize("bend", ARC_BENDS)
    def test_bent_block_goes_to_line_loop(self, tmp_path, bend):
        def text(bend):
            return "p sp 3 3\n" + bent_arc_block(bend, 1)

        start = text(None).find("\na ") + 1
        assert convert._arc_fields(text(None), start, 1, 3) is not None
        assert convert._arc_fields(text(bend), start, 1, 3) is None
        p = write(tmp_path, "d.gr", text(bend))
        assert read_outcome(convert._parse_gr, p) == read_outcome(_flat_reference, p)
        merged = _gr_outcome(lambda f: parse_dimacs(f, f), p)
        assert merged == _gr_outcome(lambda f: line_by_line_parse_dimacs(f, f), p)

    @pytest.mark.parametrize("bad", ["a 0 2 4", "a 2 0 4", "a 3 1 4", "a 1 3 4"])
    @pytest.mark.parametrize("declared", [2, 3, 4])
    def test_endpoint_error_names_file_and_line(self, tmp_path, declared, bad):
        # An arc count off by one is found only at the end; the endpoint on
        # line 4 comes first in file order and is the error.
        p = write(tmp_path, "bad.gr", f"c x\np sp 2 {declared}\na 1 2 4\n{bad}\na 2 1 5\n")
        for read in (convert._parse_gr, line_by_line_parse_gr, lambda f: parse_dimacs(f, f)):
            with pytest.raises(Malformed) as err:
                read(p)
            assert (err.value.line_number, err.value.reason) == (
                4,
                "bad.gr: arc endpoint outside 1..2",
            )


class TestElevation:
    def test_scale_from_max_decimals(self, tmp_path):
        t = read_elevation(write(tmp_path, "e.txt", "12.5\n7\n0.25\n"))
        assert t.scale == 100
        assert t.values == (1250, 700, 25)

    def test_integers_only(self, tmp_path):
        t = read_elevation(write(tmp_path, "e.txt", "3\n-1\n"))
        assert t.scale == 1
        assert t.values == (3, -1)

    def test_comments_skipped(self, tmp_path):
        t = read_elevation(write(tmp_path, "e.txt", "c meters\n1.5\n"))
        assert len(t) == 1

    def test_too_many_decimals(self, tmp_path):
        with pytest.raises(Malformed):
            read_elevation(write(tmp_path, "e.txt", "0.1234567\n"))

    def test_not_a_number(self, tmp_path):
        with pytest.raises(Malformed):
            read_elevation(write(tmp_path, "e.txt", "1.5e3\n"))


def road_graph():
    edges = (
        (1, 2, (40, 5)),
        (2, 3, (7, 9)),
        (3, 1, (12, 2)),
        (1, 3, (80, 6)),
    )
    return MosGraph(3, edges, (Objective("distance"), Objective("time")), {})


class TestExtendDimacs:
    def elevation(self):
        from mosbench.convert import ElevationTable

        return ElevationTable((100, 250, 40), 10)

    def test_third_objective_abs_difference(self):
        g = extend_dimacs(road_graph(), self.elevation(), 3)
        assert g.d == 3
        assert [c[2] for c in (e[2] for e in g.edges)] == [150, 210, 60, 60]
        assert [e[2][:2] for e in g.edges] == [
            (40, 5),
            (7, 9),
            (12, 2),
            (80, 6),
        ]
        assert g.objectives[2] == Objective("elevation", 10)

    def test_degree_objective_total_degree(self):
        g = extend_dimacs(road_graph(), self.elevation(), 4)
        # total degrees: v1 in 1 out 2 -> 3, v2 in 1 out 1 -> 2, v3 in 2 out 1 -> 3
        assert [e[2][3] for e in g.edges] == [3 + 2, 2 + 3, 3 + 3, 3 + 3]
        assert g.objectives[3] == Objective("degree", 2)

    def test_hop_objective(self):
        g = extend_dimacs(road_graph(), self.elevation(), 5)
        assert all(e[2][4] == 1 for e in g.edges)
        assert g.objectives[4] == Objective("hops", 1)
        assert [o.name for o in g.objectives] == [
            "distance",
            "time",
            "elevation",
            "degree",
            "hops",
        ]

    def test_flat_elevation_gives_zeros(self):
        from mosbench.convert import ElevationTable

        g = extend_dimacs(road_graph(), ElevationTable((7, 7, 7), 1), 3)
        assert all(e[2][2] == 0 for e in g.edges)

    def test_rejections(self):
        with pytest.raises(MissingElevation):
            extend_dimacs(road_graph(), None, 3)
        with pytest.raises(ElevationSizeMismatch):
            from mosbench.convert import ElevationTable

            extend_dimacs(road_graph(), ElevationTable((1, 2), 1), 3)
        with pytest.raises(ValueError):
            extend_dimacs(road_graph(), self.elevation(), 6)
        extended = extend_dimacs(road_graph(), self.elevation(), 3)
        with pytest.raises(DimensionMismatch):
            extend_dimacs(extended, self.elevation(), 4)


class TestSubgraph:
    def chain(self):
        edges = (
            (1, 2, (1, 1)),
            (2, 3, (1, 1)),
            (3, 4, (1, 1)),
            (4, 5, (1, 1)),
            (5, 1, (1, 1)),
            (2, 5, (9, 9)),
        )
        return MosGraph(5, edges, (Objective("a"), Objective("b")), {})

    def test_full_reachable_set_identity(self):
        sub, remap = extract_connected_subgraph(self.chain(), 1)
        assert sub.num_vertices == 5
        # 1 -> 2 -> {3, 5 in edge-list order} -> 4
        assert remap == (1, 2, 3, 5, 4)

    def test_bfs_order_defines_ids(self):
        # From 2: visit 2, then its out-neighbors 3 and 5, then 4, then 1.
        sub, remap = extract_connected_subgraph(self.chain(), 2)
        assert remap == (2, 3, 5, 4, 1)
        # edge (2,3) becomes (1,2); edge (2,5) becomes (1,3)
        assert (1, 2, (1, 1)) in sub.edges
        assert (1, 3, (9, 9)) in sub.edges

    def test_limit_truncates(self):
        sub, remap = extract_connected_subgraph(self.chain(), 1, limit=3)
        assert sub.num_vertices == 3
        assert remap == (1, 2, 3)
        # induced: only edges with both endpoints among {1, 2, 3} survive
        assert set(sub.edges) == {(1, 2, (1, 1)), (2, 3, (1, 1))}

    def test_induced_property_random(self):
        from conftest import random_graph

        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng, rng.randint(3, 15), 0.3, 2)
            root = rng.randint(1, g.num_vertices)
            limit = rng.randint(1, g.num_vertices)
            sub, remap = extract_connected_subgraph(g, root, limit=limit)
            assert len(remap) == sub.num_vertices <= limit
            back = {new + 1: old for new, old in enumerate(remap)}
            kept = set(remap)
            expect = [
                (u, v, c)
                for u, v, c in g.edges
                if u in kept and v in kept
            ]
            got = [(back[u], back[v], c) for u, v, c in sub.edges]
            assert got == expect

    def test_root_out_of_range(self):
        with pytest.raises(RootOutOfRange):
            extract_connected_subgraph(self.chain(), 9)
        with pytest.raises(ValueError):
            extract_connected_subgraph(self.chain(), 1, limit=0)


GUARD_MAP = "height 2\nwidth 3\nmap\n0 @ 2\n1 2 0\n"


class TestGuardMap:
    def test_parse(self, tmp_path):
        g = parse_guards_map(write(tmp_path, "m.map", GUARD_MAP))
        assert (g.width, g.height) == (3, 2)
        assert g.passable == (True, False, True, True, True, True)
        assert g.guards == (0, 0, 2, 1, 2, 0)

    def test_round_trip(self, tmp_path):
        g = parse_guards_map(write(tmp_path, "m.map", GUARD_MAP))
        p = tmp_path / "back.map"
        write_guards_map(g, p)
        assert parse_guards_map(p) == g
        assert p.read_text() == GUARD_MAP

    def test_bad_token_position(self, tmp_path):
        p = write(tmp_path, "m.map", "height 2\nwidth 2\nmap\n0 0\n0 x\n")
        with pytest.raises(BadToken) as err:
            parse_guards_map(p)
        assert (err.value.row, err.value.col) == (1, 1)

    @pytest.mark.parametrize(
        "text,exc",
        [
            ("height 2\nwidth 2\nmap\n0 0\n", DimensionMismatch),
            ("height 1\nwidth 2\nmap\n0 0\n0 0\n", DimensionMismatch),
            ("height 1\nwidth 2\nmap\n0\n", DimensionMismatch),
            ("height 1\nwidth 2\n0 0\n", Malformed),
            ("width 2\nmap\n0 0\n", DimensionMismatch),
            ("height 1\nwidth 2\nmap\n0 -3\n", BadToken),
            ("height x\n", Malformed),
            ("height 1\nwidth 2x\n", Malformed),
        ],
    )
    def test_malformed(self, tmp_path, text, exc):
        with pytest.raises(exc) as err:
            parse_guards_map(write(tmp_path, "m.map", text))
        if exc is Malformed:
            # each malformed header case breaks on its last line
            assert err.value.line_number == text.count("\n")

    def test_missing_map_line_names_the_end(self, tmp_path):
        with pytest.raises(Malformed) as err:
            parse_guards_map(write(tmp_path, "m.map", "height 1\nwidth 2\n"))
        assert (err.value.line_number, err.value.reason) == (2, "missing 'map' line")

    def test_blank_lines_skipped(self, tmp_path):
        spaced = "\nheight 2\n\nwidth 3\nmap\n0 @ 2\n  \n1 2 0\n\n"
        assert parse_guards_map(write(tmp_path, "m.map", spaced)) == parse_guards_map(
            write(tmp_path, "plain.map", GUARD_MAP)
        )

    @pytest.mark.parametrize(
        "args,exc",
        [
            ((2, 1, (True, False), (0, 3)), BadToken),
            ((2, 1, (True, True), (0, -1)), BadToken),
            ((0, 1, (), ()), DimensionMismatch),
            ((2, 1, (True,), (0,)), DimensionMismatch),
        ],
    )
    def test_grid_invariant_enforced(self, args, exc):
        with pytest.raises(exc):
            GuardGrid(*args)


def brute_guard_edges(grid: GuardGrid):
    """Independent expansion: enumerate passable cell pairs by rule."""
    ids = {}
    for r in range(grid.height):
        for c in range(grid.width):
            if grid.passable[grid.cell(r, c)]:
                ids[(r, c)] = len(ids) + 1
    found = set()
    for (r, c), u in ids.items():
        for (nr, nc), v in ids.items():
            dr, dc = nr - r, nc - c
            if (dr, dc) == (0, 0) or abs(dr) > 1 or abs(dc) > 1:
                continue
            if dr == 0 or dc == 0:
                found.add((u, v, (10, grid.guards[grid.cell(nr, nc)])))
            elif (nr, c) in ids and (r, nc) in ids:
                exposure = max(
                    grid.guards[grid.cell(nr, nc)],
                    grid.guards[grid.cell(nr, c)],
                    grid.guards[grid.cell(r, nc)],
                )
                found.add((u, v, (14, exposure)))
    return ids, found


class TestGuardGraph:
    def test_two_by_two_semantics(self):
        grid = GuardGrid(2, 2, (True,) * 4, (1, 2, 3, 4))
        g = guards_to_graph(grid)
        assert g.num_vertices == 4
        edges = set(g.edges)
        assert (1, 2, (10, 2)) in edges
        assert (1, 3, (10, 3)) in edges
        assert (1, 4, (14, 4)) in edges
        assert (4, 1, (14, 3)) in edges  # max over dest 1, sides 2 and 3
        assert len(edges) == 12

    def test_blocked_diagonal_needs_both_sides(self):
        # upper-right cell impassable: no diagonal between 1=(0,0) and
        # the cell below it at (1,1), in either direction
        grid = GuardGrid(2, 2, (True, False, True, True), (5, 0, 1, 2))
        g = guards_to_graph(grid)
        pairs = {(u, v) for u, v, _ in g.edges}
        assert pairs == {(1, 2), (2, 1), (2, 3), (3, 2)}

    def test_move_order_lexicographic(self):
        grid = GuardGrid(3, 3, (True,) * 9, tuple(range(9)))
        g = guards_to_graph(grid)
        from_center = [(u, v) for u, v, _ in g.edges if u == 5]
        assert from_center == [
            (5, 1),
            (5, 2),
            (5, 3),
            (5, 4),
            (5, 6),
            (5, 7),
            (5, 8),
            (5, 9),
        ]

    def test_against_brute_enumeration(self):
        rng = random.Random(23)
        for _ in range(25):
            w, h = rng.randint(1, 7), rng.randint(1, 7)
            passable = tuple(rng.random() > 0.3 for _ in range(w * h))
            guards = tuple(
                rng.randint(0, 9) if p else 0 for p in passable
            )
            if not any(passable):
                continue
            grid = GuardGrid(w, h, passable, guards)
            _, expect = brute_guard_edges(grid)
            assert set(guards_to_graph(grid).edges) == expect

    def test_all_walls(self):
        grid = GuardGrid(2, 2, (False,) * 4, (0,) * 4)
        with pytest.raises(EmptyGraph):
            guards_to_graph(grid)

    def test_cell_vertex_lookup(self):
        grid = GuardGrid(3, 2, (True, False, True, True, True, True), (0,) * 6)
        assert guards_cell_vertex(grid, 0, 0) == 1
        assert guards_cell_vertex(grid, 0, 2) == 2
        assert guards_cell_vertex(grid, 1, 1) == 4
        with pytest.raises(RootOutOfRange):
            guards_cell_vertex(grid, 0, 1)
        with pytest.raises(RootOutOfRange):
            guards_cell_vertex(grid, 2, 0)


ROADMAP = (
    "c toy arm roadmap\n"
    "p panda 3 2\n"
    "v 0 0 0 0 0 0 0\n"
    "v 0.5 0 0 0 0 0 0\n"
    "v 1 1 1 1 1 1 1\n"
    "e 1 2 1.25 0.5 0.03 0.2 1 1 1 1\n"
    "e 2 3 2 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"
)


class TestClearancePenalty:
    def test_zero_at_and_beyond_band(self):
        d = Fraction(1, 10)
        assert clearance_penalty(d, d) == 0
        assert clearance_penalty(2 * d, d) == 0

    def test_hand_value(self):
        # (0.05 - 0.1)^2 / (2 * 0.1) = 0.0025 / 0.2 = 0.0125
        got = clearance_penalty(Fraction(1, 20), Fraction(1, 10))
        assert got == Fraction(1, 80)

    def test_value_at_contact(self):
        delta = Fraction(1, 10)
        assert clearance_penalty(Fraction(0), delta) == delta / 2

    def test_continuity_at_band_edge(self):
        delta = Fraction(1, 10)
        for k in range(1, 6):
            inside = delta - Fraction(1, 10**k)
            assert clearance_penalty(inside, delta) < Fraction(1, 10 ** (2 * k - 1))


class TestRoadmap:
    def test_read(self, tmp_path):
        rm = read_roadmap(write(tmp_path, "r.pan", ROADMAP))
        assert len(rm.configurations) == 3
        assert rm.configurations[1][0] == Fraction(1, 2)
        assert rm.edges[0][:3] == (1, 2, Fraction(5, 4))
        assert rm.edges[0][3][1] == Fraction(3, 100)

    @pytest.mark.parametrize(
        "text",
        [
            "v 0 0 0 0 0 0 0\n",
            "p panda 1 0\nv 1 2 3\n",
            "p panda 2 0\nv 0 0 0 0 0 0 0\n",
            "p panda 1 1\nv 0 0 0 0 0 0 0\n",
            "p panda 1 0\nz\n",
            "",
            "p panda x 0\n",
            "p panda 1 1\nv 0 0 0 0 0 0 0\ne 1 q 1 1 1 1 1 1 1 1\n",
            "p panda 1 1\nv 0 0 0 0 0 0 0\ne 1 2 1 1 1 1 1 1 1 1\n",
            "p panda 1 1\nv 0 0 0 0 0 0 0\ne 1 1 -1 1 1 1 1 1 1 1\n",
        ],
    )
    def test_malformed(self, tmp_path, text):
        with pytest.raises(Malformed) as err:
            read_roadmap(write(tmp_path, "r.pan", text))
        # each case breaks on its last line (line 0 for the empty file)
        assert err.value.line_number == text.count("\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("p panda -1 0\nv 0 0 0 0 0 0 0\n", "configuration count must be >= 0"),
            ("p panda 1 -1\nv 0 0 0 0 0 0 0\n", "edge count must be >= 0"),
        ],
    )
    def test_problem_line_counts_are_checked(self, tmp_path, text, message):
        with pytest.raises(Malformed) as err:
            read_roadmap(write(tmp_path, "r.pan", text))
        assert (err.value.line_number, err.value.reason) == (1, message)

    @pytest.mark.parametrize(
        "text,line,message",
        [
            ("p panda 1 0\np panda 1 0\n", 2, "duplicate problem line"),
            ("p panda 2\n", 1, "expected 'p panda V E', got 'p panda 2'"),
            ("e 1 1 1 1 1 1 1 1 1 1\n", 1, "edge before problem line"),
            (
                "p panda 1 1\nv 0 0 0 0 0 0 0\ne 1 1 1 1 1 1 1 1 1\n",
                3,
                "expected 'e u v dist' plus 7 clearances, got 10 fields",
            ),
            (
                "p panda 1 0\nv 0 0 0 1e5 0 0 0\n",
                2,
                "joint value: expected a decimal number, got '1e5'",
            ),
            (
                "p panda 1 1\nv 0 0 0 0 0 0 0\ne 1 1 1 1 1 0.0000001 1 1 1 1\n",
                3,
                "clearance: more than 6 decimal places in '0.0000001'",
            ),
        ],
    )
    def test_line_errors_are_named(self, tmp_path, text, line, message):
        with pytest.raises(Malformed) as err:
            read_roadmap(write(tmp_path, "r.pan", text))
        assert (err.value.line_number, err.value.reason) == (line, message)

    @pytest.mark.parametrize(
        "configs,edge,exc",
        [
            ((0,) * 6, (1, 2, 1, (1,) * 7), DimensionMismatch),
            ((0,) * 7, (1, 3, 1, (1,) * 7), Malformed),
            ((0,) * 7, (1, 2, -1, (1,) * 7), Malformed),
            ((0,) * 7, (1, 2, 1, (1,) * 6), DimensionMismatch),
        ],
    )
    def test_constructor_rejects(self, configs, edge, exc):
        with pytest.raises(exc):
            ClearanceRoadmap((configs, configs), (edge,))

    def test_nonpositive_clearance_rejected(self, tmp_path):
        bad = (
            "p panda 2 1\n"
            "v 0 0 0 0 0 0 0\n"
            "v 1 0 0 0 0 0 0\n"
            "e 1 2 1 0.5 0 0.5 0.5 0.5 0.5 0.5\n"
        )
        with pytest.raises(NonPositiveClearance):
            read_roadmap(write(tmp_path, "r.pan", bad))
        with pytest.raises(NonPositiveClearance):
            ClearanceRoadmap(
                ((Fraction(0),) * 7,) * 2,
                ((1, 2, Fraction(1), (Fraction(-1),) * 7),),
            )


class TestPandaGraph:
    def roadmap(self, tmp_path):
        return read_roadmap(write(tmp_path, "r.pan", ROADMAP))

    def test_bi_mode(self, tmp_path):
        g = panda_apply_clearance(self.roadmap(tmp_path), Fraction(1, 10), "bi")
        assert g.d == 2
        assert g.num_vertices == 3
        # min clearance on edge 1 is 0.03: (0.03-0.1)^2/0.2 = 0.0245
        assert g.edges[0] == (1, 2, (1_250_000, 24_500))
        assert g.edges[1] == (2, 1, (1_250_000, 24_500))
        # edge 2: all links at 0.5 >= delta, zero penalty
        assert g.edges[2] == (2, 3, (2_000_000, 0))
        assert all(o.scale == FIXED_SCALE for o in g.objectives)
        assert [o.name for o in g.objectives] == ["length", "clearance"]

    def test_many_mode(self, tmp_path):
        g = panda_apply_clearance(self.roadmap(tmp_path), "0.1", "many")
        assert g.d == 8
        link_costs = g.edges[0][2][1:]
        # links 1 and 3..7 are clear; link 2 at 0.03 pays 0.0245
        assert link_costs == (0, 24_500, 0, 0, 0, 0, 0)
        assert [o.name for o in g.objectives[1:]] == [
            f"link{i}" for i in range(1, 8)
        ]

    def test_bidirectional_pairing(self, tmp_path):
        g = panda_apply_clearance(self.roadmap(tmp_path), "0.1", "bi")
        assert g.num_edges == 4
        for i in range(0, 4, 2):
            u, v, c = g.edges[i]
            assert g.edges[i + 1] == (v, u, c)

    def test_parameter_validation(self, tmp_path):
        rm = self.roadmap(tmp_path)
        with pytest.raises(ValueError):
            panda_apply_clearance(rm, Fraction(0), "bi")
        with pytest.raises(ValueError):
            panda_apply_clearance(rm, Fraction(1, 10), "tri")

    def test_metadata(self, tmp_path):
        g = panda_apply_clearance(self.roadmap(tmp_path), "0.1", "many")
        assert g.metadata["mode"] == "many"
        assert g.metadata["delta"] == "1/10"
