"""End-to-end command-line flows and exit codes."""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mosbench
from mosbench.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from mosbench.core import Epsilon, MosGraph, Objective, Query, SolutionEntry, SolutionSet
from mosbench.formats import (
    read_graph,
    read_solutions,
    write_graph,
    write_queries,
    write_solutions,
)
from mosbench.protocol import STATUS_TIMEOUT, BenchmarkRecord, read_records, records_to_csv

from conftest import twin_arc_chain

DIST = "p sp 3 3\na 1 2 40\na 2 3 7\na 3 1 12\n"
TIME = "p sp 3 3\na 1 2 5\na 2 3 9\na 3 1 2\n"
GUARD_MAP = "height 2\nwidth 3\nmap\n0 1 2\n1 2 0\n"
ROADMAP = (
    "p panda 3 2\n"
    "v 0 0 0 0 0 0 0\n"
    "v 0.5 0 0 0 0 0 0\n"
    "v 1 1 1 1 1 1 1\n"
    "e 1 2 1.25 0.5 0.03 0.2 1 1 1 1\n"
    "e 2 3 2 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"
)


def run_main(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_grid_files(self, tmp_path, capsys):
        code = run_main(
            [
                "generate", "grid", "--k", 4, "--m", 3, "--seed", 7,
                "--out-graph", tmp_path / "g.gr",
                "--out-queries", tmp_path / "q.txt",
            ]
        )
        assert code == EXIT_OK
        assert "14 vertices" in capsys.readouterr().out
        g = read_graph(tmp_path / "g.gr")
        assert g.num_vertices == 14
        assert g.metadata["family"] == "grid"

    def test_netmaker_files(self, tmp_path, capsys):
        code = run_main(
            [
                "generate", "netmaker", "--n", 100, "--seed", 3, "--queries", 10,
                "--out-graph", tmp_path / "g.gr",
                "--out-queries", tmp_path / "q.txt",
            ]
        )
        assert code == EXIT_OK
        assert "10 queries" in capsys.readouterr().out
        assert read_graph(tmp_path / "g.gr").num_vertices == 100

    def test_byte_determinism(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            run_main(
                [
                    "generate", "grid", "--k", 5, "--m", 5, "--seed", 11,
                    "--out-graph", tmp_path / sub / "g.gr",
                    "--out-queries", tmp_path / sub / "q.txt",
                ]
            )
        assert (tmp_path / "a/g.gr").read_bytes() == (tmp_path / "b/g.gr").read_bytes()
        assert (tmp_path / "a/q.txt").read_bytes() == (tmp_path / "b/q.txt").read_bytes()

    def test_bad_parameters_exit_usage(self, tmp_path, capsys):
        code = run_main(
            [
                "generate", "grid", "--k", 0, "--m", 3,
                "--out-graph", tmp_path / "g.gr",
                "--out-queries", tmp_path / "q.txt",
            ]
        )
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err


class TestConvert:
    def test_dimacs(self, tmp_path, capsys):
        (tmp_path / "d.gr").write_text(DIST)
        (tmp_path / "t.gr").write_text(TIME)
        code = run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "d.gr",
                "--time", tmp_path / "t.gr", "--out", tmp_path / "out.gr",
            ]
        )
        assert code == EXIT_OK
        g = read_graph(tmp_path / "out.gr")
        assert sorted(g.edges) == [
            (1, 2, (40, 5)),
            (2, 3, (7, 9)),
            (3, 1, (12, 2)),
        ]

    def test_dimacs_empty_problem_line_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "d.gr").write_text("p sp 0 0\n")
        (tmp_path / "t.gr").write_text(TIME)
        code = run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "d.gr",
                "--time", tmp_path / "t.gr", "--out", tmp_path / "out.gr",
            ]
        )
        assert code == EXIT_USAGE
        assert "line 1: d.gr: vertex count must be >= 1" in capsys.readouterr().err

    def test_unwritable_file_name_keeps_existing_output(self, tmp_path, capsys):
        # The file names go into the graph's metadata, which is ASCII.
        (tmp_path / "straße.dist.gr").write_text(DIST)
        (tmp_path / "straße.time.gr").write_text(TIME)
        (tmp_path / "out.gr").write_bytes(b"previous\n")
        code = run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "straße.dist.gr",
                "--time", tmp_path / "straße.time.gr", "--out", tmp_path / "out.gr",
            ]
        )
        assert code == EXIT_USAGE
        assert "'straße.dist.gr' of 'distance_file' is not writable" in capsys.readouterr().err
        assert (tmp_path / "out.gr").read_bytes() == b"previous\n"

    def test_dimacs_extend(self, tmp_path):
        (tmp_path / "d.gr").write_text(DIST)
        (tmp_path / "t.gr").write_text(TIME)
        run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "d.gr",
                "--time", tmp_path / "t.gr", "--out", tmp_path / "base.gr",
            ]
        )
        (tmp_path / "elev.txt").write_text("10.0\n25.0\n4.0\n")
        code = run_main(
            [
                "convert", "dimacs-extend", "--graph", tmp_path / "base.gr",
                "--elevation", tmp_path / "elev.txt", "--target-d", 4,
                "--out", tmp_path / "ext.gr",
            ]
        )
        assert code == EXIT_OK
        g = read_graph(tmp_path / "ext.gr")
        assert g.d == 4
        assert [o.name for o in g.objectives] == [
            "distance", "time", "elevation", "degree",
        ]

    def test_missing_elevation_exit_usage(self, tmp_path, capsys):
        (tmp_path / "d.gr").write_text(DIST)
        (tmp_path / "t.gr").write_text(TIME)
        run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "d.gr",
                "--time", tmp_path / "t.gr", "--out", tmp_path / "base.gr",
            ]
        )
        code = run_main(
            [
                "convert", "dimacs-extend", "--graph", tmp_path / "base.gr",
                "--target-d", 3, "--out", tmp_path / "ext.gr",
            ]
        )
        assert code == EXIT_USAGE
        assert "elevation" in capsys.readouterr().err

    def test_guards(self, tmp_path):
        (tmp_path / "m.map").write_text(GUARD_MAP)
        code = run_main(
            ["convert", "guards", "--map", tmp_path / "m.map", "--out", tmp_path / "g.gr"]
        )
        assert code == EXIT_OK
        g = read_graph(tmp_path / "g.gr")
        assert g.num_vertices == 6
        assert [o.name for o in g.objectives] == ["length", "exposure"]

    def test_panda(self, tmp_path):
        (tmp_path / "r.pan").write_text(ROADMAP)
        code = run_main(
            [
                "convert", "panda", "--roadmap", tmp_path / "r.pan",
                "--mode", "bi", "--out", tmp_path / "g.gr",
            ]
        )
        assert code == EXIT_OK
        g = read_graph(tmp_path / "g.gr")
        assert g.num_edges == 4
        assert all(o.scale == 10**6 for o in g.objectives)

    def test_subgraph_with_remap(self, tmp_path):
        (tmp_path / "d.gr").write_text(DIST)
        (tmp_path / "t.gr").write_text(TIME)
        run_main(
            [
                "convert", "dimacs", "--distance", tmp_path / "d.gr",
                "--time", tmp_path / "t.gr", "--out", tmp_path / "base.gr",
            ]
        )
        code = run_main(
            [
                "convert", "subgraph", "--graph", tmp_path / "base.gr",
                "--root", 2, "--limit", 2, "--out", tmp_path / "sub.gr",
                "--out-remap", tmp_path / "remap.txt",
            ]
        )
        assert code == EXIT_OK
        assert read_graph(tmp_path / "sub.gr").num_vertices == 2
        assert (tmp_path / "remap.txt").read_text() == "1 2\n2 3\n"


def solve_small(tmp_path, extra=(), eps="0,0.01,0.05,0.1"):
    run_main(
        [
            "generate", "grid", "--k", 5, "--m", 4, "--seed", 13,
            "--out-graph", tmp_path / "g.gr",
            "--out-queries", tmp_path / "q.txt",
        ]
    )
    return run_main(
        [
            "solve", "--graph", tmp_path / "g.gr", "--queries", tmp_path / "q.txt",
            "--eps", eps,
            "--out-solutions", tmp_path / "s.sol",
            "--out-records", tmp_path / "r.csv",
            *extra,
        ]
    )


class TestSolve:
    def test_produces_solutions_and_records(self, tmp_path, capsys):
        assert solve_small(tmp_path) == EXIT_OK
        out = capsys.readouterr().out
        assert "eps=0:" in out and "eps=0.1:" in out
        sets = read_solutions(tmp_path / "s.sol")
        assert len(sets) == 4
        records = read_records(tmp_path / "r.csv")
        assert [r.epsilon for r in records] == ["0", "0.01", "0.05", "0.1"]
        assert all(r.status == "solved" for r in records)
        # approximate fronts never outgrow the exact one
        cards = [r.cardinality for r in records]
        assert all(c <= cards[0] for c in cards)

    def test_solution_bytes_deterministic(self, tmp_path):
        solve_small(tmp_path)
        first = (tmp_path / "s.sol").read_bytes()
        solve_small(tmp_path)
        assert (tmp_path / "s.sol").read_bytes() == first

    def test_no_paths_flag(self, tmp_path):
        solve_small(tmp_path, extra=["--no-paths"])
        assert ":" not in (tmp_path / "s.sol").read_text()

    def test_eps_vector_point(self, tmp_path):
        solve_small(tmp_path, extra=["--eps-vec", "0.1,0"], eps="0")
        records = read_records(tmp_path / "r.csv")
        assert [r.epsilon for r in records] == ["0", "0.1,0"]

    def test_repeated_epsilon_rejected(self, tmp_path, capsys):
        # Two identical blocks and records once made stats reduction report
        # two queries for one.
        code = solve_small(tmp_path, extra=["--eps-vec", "0.1,0.1"], eps="0,0.1")
        assert code == EXIT_USAGE
        assert "epsilon 0.1 is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "s.sol").exists()

    def test_non_ascii_name_keeps_existing_outputs(self, tmp_path, capsys):
        solve_small(tmp_path)
        outputs = [tmp_path / "s.sol", tmp_path / "r.csv"]
        before = [p.read_bytes() for p in outputs]
        code = solve_small(tmp_path, extra=["--name", "café"])
        assert code == EXIT_USAGE
        assert "--name 'café' is not ASCII" in capsys.readouterr().err
        assert [p.read_bytes() for p in outputs] == before

    @pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
    def test_bad_timeout_rejected(self, tmp_path, capsys, timeout):
        # NaN once disabled the limit and 0 or -1 recorded timeouts, all
        # with exit 0.
        code = solve_small(tmp_path, extra=["--timeout", timeout])
        assert code == EXIT_USAGE
        assert "must be a positive number" in capsys.readouterr().err
        assert not (tmp_path / "s.sol").exists()

    def test_unsorted_eps_grid_rejected(self, tmp_path, capsys):
        code = solve_small(tmp_path, eps="0.1,0.01")
        assert code == EXIT_USAGE
        assert "increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["1/0", "abc"])
    @pytest.mark.parametrize(
        "argv,option,text",
        [
            (["solve", "--eps", "0,{}"], "--eps", "0,{}"),
            (["solve", "--eps", "0", "--eps-vec", "{},0"], "--eps-vec", "{},0"),
            (["stats", "cardinality", "--records", "r.csv", "--eps", "{}", "--out", "out.csv"],
             "--eps", "{}"),
            (["verify", "--exact", "s.sol", "--approx", "s.sol", "--eps", "{}"], "--eps", "{}"),
            (["convert", "panda", "--roadmap", "m.txt", "--delta", "{}", "--mode", "bi",
              "--out", "out.gr"], "--delta", "{}"),
        ],
    )
    def test_bad_fraction_names_option_and_text(
        self, tmp_path, capsys, monkeypatch, argv, option, text, bad
    ):
        # A zero denominator once escaped as a ZeroDivisionError traceback,
        # then printed Python's own message, `error: Fraction(1, 0)`.
        solve_small(tmp_path, eps="0")
        (tmp_path / "m.txt").write_text(ROADMAP)
        monkeypatch.chdir(tmp_path)
        argv = [a.format(bad) for a in argv]
        if argv[0] == "solve":
            argv = argv + ["--graph", "g.gr", "--queries", "q.txt",
                           "--out-solutions", "out.sol", "--out-records", "out.csv"]
        capsys.readouterr()
        assert run_main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} {text.format(bad)!r}: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize(
        "problem,message",
        [
            ("p mosp 0 0 2", "line 1: vertex count must be >= 1"),
            ("p mosp 2 -1 2", "line 1: edge count must be >= 0"),
        ],
    )
    def test_bad_problem_line_counts(self, tmp_path, capsys, problem, message):
        (tmp_path / "g.gr").write_text(problem + "\n")
        (tmp_path / "q.txt").write_text("q 1 1\n")
        code = run_main(
            [
                "solve", "--graph", tmp_path / "g.gr",
                "--queries", tmp_path / "q.txt",
                "--out-solutions", tmp_path / "s.sol",
                "--out-records", tmp_path / "r.csv",
            ]
        )
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--out-solutions", "s.sol", "--out-records", "r.csv"],
            ["verify", "--solutions", "s.sol"],
        ],
    )
    def test_query_beyond_vertex_count_names_its_line(self, tmp_path, capsys, command):
        (tmp_path / "g.gr").write_text("p mosp 3 1 2\na 1 2 1 1\n")
        (tmp_path / "q.txt").write_text("q 1 2\nc next\nq 1 99\n")
        (tmp_path / "s.sol").write_text("")
        argv = [tmp_path / a if a.endswith((".sol", ".csv")) else a for a in command]
        code = run_main(
            [*argv, "--graph", tmp_path / "g.gr", "--queries", tmp_path / "q.txt"]
        )
        assert code == EXIT_USAGE
        assert "line 3: target 99 outside 1..3" in capsys.readouterr().err

    def test_missing_graph_file(self, tmp_path, capsys):
        code = run_main(
            [
                "solve", "--graph", tmp_path / "absent.gr",
                "--queries", tmp_path / "q.txt",
                "--out-solutions", tmp_path / "s.sol",
                "--out-records", tmp_path / "r.csv",
            ]
        )
        assert code == EXIT_USAGE


class TestVerify:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        solve_small(tmp_path)
        code = run_main(
            [
                "verify", "--graph", tmp_path / "g.gr",
                "--queries", tmp_path / "q.txt",
                "--solutions", tmp_path / "s.sol",
            ]
        )
        assert code == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_corrupted_solutions_exit_verification(self, tmp_path, capsys):
        solve_small(tmp_path)
        sets = read_solutions(tmp_path / "s.sol")
        graph = read_graph(tmp_path / "g.gr")
        first = sets[0]
        dom = tuple(c + 1 for c in first.entries[0].cost)
        bad = SolutionSet(
            first.query, first.epsilon, first.entries + (SolutionEntry(dom, None),)
        )
        write_solutions([bad], tmp_path / "bad.sol", objectives=graph.objectives)
        code = run_main(
            [
                "verify", "--graph", tmp_path / "g.gr",
                "--queries", tmp_path / "q.txt",
                "--solutions", tmp_path / "bad.sol",
            ]
        )
        assert code == EXIT_VERIFICATION
        assert "DominanceViolation" in capsys.readouterr().out

    def test_solutions_eps_block_must_cover_eps0_block(self, tmp_path, capsys):
        # Dropping a kept entry from the eps=0.1 block once left the file
        # at "0 violations" and exit 0.
        run_main(
            [
                "generate", "grid", "--k", 12, "--m", 12, "--seed", 3,
                "--out-graph", tmp_path / "g.gr", "--out-queries", tmp_path / "q.txt",
            ]
        )
        run_main(
            [
                "solve", "--graph", tmp_path / "g.gr", "--queries", tmp_path / "q.txt",
                "--eps", "0,0.1",
                "--out-solutions", tmp_path / "s.sol", "--out-records", tmp_path / "r.csv",
            ]
        )
        exact, approx = read_solutions(tmp_path / "s.sol")
        cut = SolutionSet(approx.query, approx.epsilon, approx.entries[1:])
        objectives = read_graph(tmp_path / "g.gr").objectives

        def verify(sets):
            write_solutions(sets, tmp_path / "bad.sol", objectives=objectives)
            capsys.readouterr()
            code = run_main(
                [
                    "verify", "--graph", tmp_path / "g.gr",
                    "--queries", tmp_path / "q.txt",
                    "--solutions", tmp_path / "bad.sol",
                ]
            )
            return code, capsys.readouterr().out.splitlines()

        code, out = verify([exact, cut])
        assert code == EXIT_VERIFICATION
        # The dropped cost and the exact costs that only it covered.
        prefix = f"query {approx.query.index} eps=0.1: uncovered exact cost "
        assert out[0] == prefix + str(approx.entries[0].cost)
        assert all(line.startswith(prefix) for line in out[:-1])
        assert out[-1] == "feasibility: 2 solution sets, 0 violations"
        # A query with no eps=0 block in the file has nothing to cover.
        assert verify([cut]) == (EXIT_OK, ["feasibility: 1 solution sets, 0 violations"])

    def test_coverage_pass_and_fail(self, tmp_path, capsys):
        q = Query(1, 2, 0)
        exact = SolutionSet(
            q,
            Epsilon.zero(2),
            (SolutionEntry((100, 110), None), SolutionEntry((110, 100), None)),
        )
        approx = SolutionSet(
            q, Epsilon.zero(2), (SolutionEntry((100, 110), None),)
        )
        write_solutions([exact], tmp_path / "e.sol")
        write_solutions([approx], tmp_path / "a.sol")
        good = run_main(
            [
                "verify", "--exact", tmp_path / "e.sol",
                "--approx", tmp_path / "a.sol", "--eps", "0.1",
            ]
        )
        assert good == EXIT_OK
        bad = run_main(
            [
                "verify", "--exact", tmp_path / "e.sol",
                "--approx", tmp_path / "a.sol", "--eps", "0.01",
            ]
        )
        assert bad == EXIT_VERIFICATION
        assert "uncovered exact cost" in capsys.readouterr().out

    def test_feasibility_violations_are_not_coverage_failures(self, tmp_path, capsys):
        solve_small(tmp_path)
        first = read_solutions(tmp_path / "s.sol")[0]
        cost = list(first.entries[0].cost)
        cost[0] += 1
        bad = SolutionSet(
            first.query,
            first.epsilon,
            (SolutionEntry(tuple(cost), first.entries[0].path),) + first.entries[1:],
        )
        graph = read_graph(tmp_path / "g.gr")
        write_solutions([bad], tmp_path / "bad.sol", objectives=graph.objectives)
        capsys.readouterr()
        sol = tmp_path / "s.sol"
        code = run_main(
            [
                "verify", "--graph", tmp_path / "g.gr", "--queries", tmp_path / "q.txt",
                "--solutions", tmp_path / "bad.sol",
                "--exact", sol, "--approx", sol, "--eps", "0.1",
            ]
        )
        assert code == EXIT_VERIFICATION
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "feasibility: 1 solution sets, 1 violations"
        assert out[-1] == "coverage at eps=0.1: 1 pairs, 0 failures"

    def test_coverage_pairs_eps0_exact_with_approx_at_eps(self, tmp_path, capsys):
        # One file, four blocks per query: the exact side is its eps=0 block
        # and the approximate side the block at --eps, not the last one.
        run_main(
            [
                "generate", "grid", "--k", 20, "--m", 20, "--seed", 0,
                "--out-graph", tmp_path / "g.gr", "--out-queries", tmp_path / "q.txt",
            ]
        )
        run_main(
            [
                "solve", "--graph", tmp_path / "g.gr", "--queries", tmp_path / "q.txt",
                "--eps", "0,0.01,0.05,0.1",
                "--out-solutions", tmp_path / "s.sol", "--out-records", tmp_path / "r.csv",
            ]
        )
        capsys.readouterr()
        sol = tmp_path / "s.sol"
        assert run_main(["verify", "--exact", sol, "--approx", sol, "--eps", "0.05"]) == EXIT_OK
        assert capsys.readouterr().out == "coverage at eps=0.05: 1 pairs, 0 failures\n"
        code = run_main(["verify", "--exact", sol, "--approx", sol, "--eps", "0.2"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr().out == (
            "query 0: no matching approximate set\ncoverage at eps=0.2: 0 pairs, 1 failures\n"
        )

    @pytest.mark.parametrize(
        "exact_costs,approx_costs,widths",
        [
            # The approximate costs are wider than --eps.
            ({0: [(100, 110)]}, {0: [(100, 110, 1)]}, "[2, 3]"),
            # Query 1's exact costs are wider than --eps, taken from query
            # 0's block, and its approximate set is empty.
            ({0: [(100, 110)], 1: [(1, 2, 3)]}, {0: [(100, 110)], 1: []}, "[3]"),
        ],
    )
    def test_coverage_width_other_than_eps_exits_usage(
        self, tmp_path, capsys, exact_costs, approx_costs, widths
    ):
        query = max(exact_costs)  # the last query is the one of the wrong width
        for name, by_query in (("e.sol", exact_costs), ("a.sol", approx_costs)):
            sets = [
                SolutionSet(
                    Query(1, 2, idx),
                    Epsilon.zero(len((costs or exact_costs[idx])[0])),
                    tuple(SolutionEntry(c, None) for c in costs),
                )
                for idx, costs in by_query.items()
            ]
            write_solutions(sets, tmp_path / name)
        argv = ["verify", "--exact", tmp_path / "e.sol", "--approx", tmp_path / "a.sol"]
        assert run_main(argv + ["--eps", "0.1"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: query {query}: cost vectors of widths {widths}, epsilon has 2 components\n"
        )

    def test_solver_output_satisfies_coverage(self, tmp_path):
        solve_small(tmp_path, eps="0")
        (tmp_path / "s.sol").rename(tmp_path / "e.sol")
        solve_small(tmp_path, eps="0.1")
        (tmp_path / "s.sol").rename(tmp_path / "a.sol")
        code = run_main(
            [
                "verify", "--exact", tmp_path / "e.sol",
                "--approx", tmp_path / "a.sol", "--eps", "0.1",
                "--queries", tmp_path / "q.txt",
            ]
        )
        assert code == EXIT_OK

    def test_multigraph_witness_costs(self, tmp_path, capsys):
        hops = 1200
        graph = twin_arc_chain(hops)
        query = Query(1, hops + 1, 0)
        write_graph(graph, tmp_path / "g.gr")
        write_queries([query], tmp_path / "q.txt")
        path = tuple(range(1, hops + 2))

        def verify(cost):
            ss = SolutionSet(query, Epsilon.zero(2), (SolutionEntry(cost, path),))
            write_solutions([ss], tmp_path / "s.sol", objectives=graph.objectives)
            code = run_main(
                [
                    "verify", "--graph", tmp_path / "g.gr",
                    "--queries", tmp_path / "q.txt",
                    "--solutions", tmp_path / "s.sol",
                ]
            )
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err
            return code, out

        # (2, 1) on one hop, the lexicographic minimum (1, 2) on the others
        code, out = verify((hops + 1, 2 * hops - 1))
        assert code == EXIT_OK, out
        assert "0 violations" in out
        # no choice of arcs sums to a cost whose components add up to 3 * hops + 1
        code, out = verify((hops + 1, 2 * hops))
        assert code == EXIT_VERIFICATION
        assert "CostMismatch" in out

    def test_cost_with_wrong_dimension_is_an_error(self, tmp_path, capsys):
        # a d=2 graph whose path 1-2-3 costs (3, 3), and a d=3 front for it
        (tmp_path / "g.gr").write_text("p mosp 3 2 2\na 1 2 1 2\na 2 3 2 1\n")
        (tmp_path / "q.txt").write_text("q 1 3\n")
        (tmp_path / "s.sol").write_text("r 0 0,0,0 1\nx 3 3 999 : 1 2 3\n")
        code = run_main(
            [
                "verify", "--graph", tmp_path / "g.gr",
                "--queries", tmp_path / "q.txt",
                "--solutions", tmp_path / "s.sol",
            ]
        )
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "violations" not in out
        assert err.startswith("error: ") and "3 cost components" in err

    def test_usage_errors(self, tmp_path, capsys):
        assert run_main(["verify"]) == EXIT_USAGE
        assert run_main(["verify", "--solutions", tmp_path / "s.sol"]) == EXIT_USAGE
        assert run_main(["verify", "--exact", tmp_path / "e.sol"]) == EXIT_USAGE
        capsys.readouterr()

    def test_exact_file_without_blocks_exits_usage(self, tmp_path, capsys):
        write_solutions([], tmp_path / "e.sol")
        write_solutions([], tmp_path / "a.sol")
        argv = ["verify", "--exact", tmp_path / "e.sol", "--approx", tmp_path / "a.sol"]
        assert run_main(argv + ["--eps", "0.1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no solution sets in the exact file\n"

    def test_exact_file_without_eps0_block_fails_its_query(self, tmp_path, capsys):
        # Two blocks for query 0, neither at eps 0: nothing to cover from.
        entries = (SolutionEntry((3, 4), None),)
        sets = [
            SolutionSet(Query(1, 2, 0), Epsilon.broadcast(value, 2), entries)
            for value in ("0.05", "0.1")
        ]
        write_solutions(sets, tmp_path / "e.sol")
        argv = ["verify", "--exact", tmp_path / "e.sol", "--approx", tmp_path / "e.sol"]
        assert run_main(argv + ["--eps", "0.1"]) == EXIT_VERIFICATION
        assert capsys.readouterr().out.splitlines() == [
            "query 0: no eps=0 set in the exact file",
            "coverage at eps=0.1: 0 pairs, 1 failures",
        ]


class TestStats:
    def test_cardinality_and_reduction(self, tmp_path, capsys):
        solve_small(tmp_path)
        capsys.readouterr()
        code = run_main(
            ["stats", "cardinality", "--records", tmp_path / "r.csv", "--eps", "0"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("epsilon,count,min,max")
        code = run_main(
            [
                "stats", "reduction", "--records", tmp_path / "r.csv",
                "--out", tmp_path / "red.csv",
            ]
        )
        assert code == EXIT_OK
        text = (tmp_path / "red.csv").read_text()
        assert text.splitlines()[1].startswith("0,1,0,0.000")

    def test_spread_with_names(self, tmp_path, capsys):
        solve_small(tmp_path)
        capsys.readouterr()
        code = run_main(
            [
                "stats", "spread", "--solutions", tmp_path / "s.sol",
                "--graph", tmp_path / "g.gr",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "objective,average_spread,included,excluded"
        assert out.splitlines()[1].startswith("c1,")

    def test_spread_reads_only_the_graph_header(self, tmp_path, capsys, monkeypatch):
        solve_small(tmp_path)
        text = (tmp_path / "g.gr").read_text().replace("c objectives c1,c2", "c objectives x,y")
        # A broken arc line would stop read_graph; the header is all spread reads.
        (tmp_path / "g.gr").write_text(text + "a 1 oops\n")
        capsys.readouterr()
        code = run_main(
            ["stats", "spread", "--solutions", tmp_path / "s.sol", "--graph", tmp_path / "g.gr"]
        )
        assert code == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["x", "y"]

    def test_spread_bad_problem_line_exits_usage_with_its_line(self, tmp_path, capsys):
        solve_small(tmp_path)
        (tmp_path / "g.gr").write_text("c objectives a,b\np mosp x 1 2\na 1 2 3 4\n")
        capsys.readouterr()
        code = run_main(
            ["stats", "spread", "--solutions", tmp_path / "s.sol", "--graph", tmp_path / "g.gr"]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: vertex count: expected integer, got 'x'\n"

    @pytest.mark.parametrize("report", ["cardinality", "reduction"])
    @pytest.mark.parametrize(
        "row",
        [
            "grid,x,0,5,1.0,labelset-dr,solved",
            "grid,0,0,-3,1.0,labelset-dr,solved",
            "grid,0,0,5,1.0,labelset-dr,bogus",
            "grid,0,0",
        ],
    )
    def test_bad_records_row_exits_usage_with_its_line(self, tmp_path, capsys, report, row):
        solve_small(tmp_path)
        with open(tmp_path / "r.csv", "a", encoding="ascii") as fh:
            fh.write(row + "\n")
        capsys.readouterr()
        argv = ["stats", report, "--records", tmp_path / "r.csv"]
        assert run_main(argv + (["--eps", "0"] if report == "cardinality" else [])) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 6: ")

    @pytest.mark.parametrize("d", [1, 3])
    def test_spread_graph_of_other_dimension_exits_usage(self, tmp_path, capsys, d):
        solve_small(tmp_path)
        objectives = tuple(Objective(f"o{k}") for k in range(d))
        write_graph(MosGraph(2, ((1, 2, (1,) * d),), objectives), tmp_path / "other.gr")
        capsys.readouterr()
        code = run_main(
            ["stats", "spread", "--solutions", tmp_path / "s.sol", "--graph", tmp_path / "other.gr"]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {d} objective names for 2 cost axes\n"

    def test_spread_mixed_widths_exits_usage(self, tmp_path, capsys):
        sets = [
            SolutionSet(Query(1, 2, 0), Epsilon.zero(2), (SolutionEntry((1, 2), None),)),
            SolutionSet(Query(1, 2, 1), Epsilon.zero(3), (SolutionEntry((1, 2, 3), None),)),
        ]
        write_solutions(sets, tmp_path / "s.sol")
        code = run_main(["stats", "spread", "--solutions", tmp_path / "s.sol"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: cost vectors of widths [2, 3]\n"

    def test_correlation(self, tmp_path, capsys):
        run_main(
            [
                "generate", "netmaker", "--n", 120, "--seed", 5, "--queries", 5,
                "--out-graph", tmp_path / "g.gr",
                "--out-queries", tmp_path / "q.txt",
            ]
        )
        capsys.readouterr()
        code = run_main(
            ["stats", "correlation", "--graph", tmp_path / "g.gr", "--edges", "cycle"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "objective,c1,c2,c3"
        assert float(lines[1].split(",")[2]) < 0

    def test_normalized_eps_lookup(self, tmp_path, capsys):
        solve_small(tmp_path)
        # 0.10 and 1/10 both normalize to the stored text "0.1"
        for spelling in ("0.10", "1/10"):
            code = run_main(
                [
                    "stats", "cardinality", "--records", tmp_path / "r.csv",
                    "--eps", spelling,
                ]
            )
            assert code == EXIT_OK
        capsys.readouterr()

    def test_cardinality_reports_excluded_timeouts(self, tmp_path, capsys):
        records = [
            BenchmarkRecord("b", 0, "0", 4, 1.0),
            BenchmarkRecord("b", 1, "0", 0, 9.0, status=STATUS_TIMEOUT),
        ]
        (tmp_path / "r.csv").write_text(records_to_csv(records))
        argv = ["stats", "cardinality", "--records", tmp_path / "r.csv", "--eps", "0"]
        assert run_main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "excluded 1 timed-out records\n"
        assert out.splitlines()[1].startswith("0,1,4,4,")

    def test_spread_reports_excluded_axes(self, tmp_path, capsys):
        # Query 0's front touches 0 on the first axis, which drops it there.
        fronts = {Query(1, 2, 0): [(0, 5), (3, 1)], Query(1, 3, 1): [(2, 4)]}
        sets = [
            SolutionSet(q, Epsilon.zero(2), tuple(map(SolutionEntry, costs)))
            for q, costs in fronts.items()
        ]
        write_solutions(sets, tmp_path / "s.sol")
        assert run_main(["stats", "spread", "--solutions", tmp_path / "s.sol"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "excluded 1 query/axis pairs\n"
        assert [row.split(",")[2:] for row in out.splitlines()[1:]] == [["1", "1"], ["2", "0"]]

    @pytest.mark.parametrize("spelling", ["0.1,0.1", "1/10,0.10"])
    def test_uniform_eps_list_matches_its_scalar(self, tmp_path, capsys, spelling):
        solve_small(tmp_path)
        capsys.readouterr()
        argv = ["stats", "cardinality", "--records", tmp_path / "r.csv", "--eps"]
        assert run_main(argv + ["0.1"]) == EXIT_OK
        want = capsys.readouterr().out
        assert want.splitlines()[1].startswith("0.1,1,")
        assert run_main(argv + [spelling]) == EXIT_OK
        assert capsys.readouterr().out == want


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_script(name):
    """The ``module:function`` target of ``name`` in ``[project.scripts]``."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one table by hand
        table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
        assert table, "pyproject.toml declares no [project.scripts]"
        entry = re.search(rf'^{re.escape(name)}\s*=\s*"([^"]+)"', table.group(1), re.M)
        assert entry, f"[project.scripts] declares no {name!r}"
        return entry.group(1)
    return tomllib.loads(text)["project"]["scripts"][name]


def test_console_script(tmp_path):
    args = [
        "generate", "grid", "--k", "3", "--m", "3",
        "--out-graph", str(tmp_path / "g.gr"),
        "--out-queries", str(tmp_path / "q.txt"),
    ]
    # The child imports the same mosbench as this process, whatever the
    # launching shell's PYTHONPATH or an older install would provide.
    src = str(Path(mosbench.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(cmd):
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "11 vertices" in proc.stdout, proc.stderr
        return proc.stdout

    # Run the declared target the way the generated console script does.
    module, function = declared_script("mosbench").split(":")
    wrapper = (
        f"import sys; from {module} import {function}; "
        f"sys.argv[0] = 'mosbench'; sys.exit({function}())"
    )
    out = run([sys.executable, "-c", wrapper, *args])

    # Where the package is installed, the real script must agree.
    script = shutil.which("mosbench")
    if script is not None:
        assert run([script, *args]) == out
