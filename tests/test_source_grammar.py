"""Every package module parses with the grammar of the oldest Python that
pyproject.toml declares, so syntax newer than requires-python fails here
even when the suite runs on a newer interpreter."""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_with_oldest_declared_grammar():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    assert m, "pyproject.toml declares no requires-python lower bound"
    version = (int(m[1]), int(m[2]))
    sources = sorted((ROOT / "src" / "mosbench").glob("*.py"))
    assert sources
    for path in sources:
        # A SyntaxError names the file and line.
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)
