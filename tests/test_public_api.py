"""The package's public names: what __init__ imports is what __all__ lists,
and the test oracles are not among them."""
from __future__ import annotations

import ast
from pathlib import Path

import mosbench
import mosbench.core
import mosbench.errors
import mosbench.solve

ORACLES = (
    "arc_choice_sums",
    "brute_force_pareto",
    "eps_dominates",
    "eps_covers",
    "weakly_dominates",
    "InstanceTooLarge",
)


def test_all_matches_imports_and_leaves_out_oracles():
    namespace: dict = {}
    exec("from mosbench import *", namespace)
    assert set(mosbench.__all__) <= namespace.keys()
    tree = ast.parse(Path(mosbench.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(mosbench.__all__) == imported
    for module in (mosbench, mosbench.core, mosbench.solve, mosbench.errors):
        assert not [name for name in ORACLES if hasattr(module, name)], module.__name__
