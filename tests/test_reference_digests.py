"""Reference fronts as committed digests.

The eight reference instances of the acceptance suite plus one parallel-arc
multigraph are solved by `run_benchmark` on the default epsilon grid.  Four
sha256 digests per instance are compared with `reference_digests.json`:

- `graph`: the `write_graph` text (pins the generators and converters);
- `costs`: the `.sol` text without witness paths (the fronts alone);
- `sol`: the `.sol` text with witness paths (paths and tie order);
- `records`: the records CSV with every `ms` set to 0.

A change that moves a front fails `costs` and `sol`; one that only changes
a witness path or a tie fails `sol` alone.  After a deliberate change to the
instances or fronts, rewrite the file with
`PYTHONPATH=src python3 tests/test_reference_digests.py` and say in
CHANGES.md which digests moved and why.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from mosbench.core import Query
from mosbench.formats import write_graph, write_solutions
from mosbench.protocol import records_to_csv, run_benchmark

from conftest import twin_arc_chain
from test_acceptance import _desk_instances

DIGEST_FILE = Path(__file__).with_name("reference_digests.json")


def _instances():
    out = list(_desk_instances())
    out.append(("twin-arc-chain-8", twin_arc_chain(8), [Query(1, 9, 0)]))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def instance_digests(name, graph, queries, tmp: Path) -> dict[str, str]:
    sets, records = run_benchmark(graph, queries, benchmark_name=name)
    files = {}
    for key, write in (
        ("graph", lambda p: write_graph(graph, p)),
        ("costs", lambda p: write_solutions(sets, p, include_paths=False)),
        ("sol", lambda p: write_solutions(sets, p, objectives=graph.objectives)),
    ):
        path = tmp / f"{name}.{key}"
        write(path)
        files[key] = _sha(path.read_text(encoding="ascii"))
    files["records"] = _sha(records_to_csv([dataclasses.replace(r, ms=0.0) for r in records]))
    return files


def _reference() -> dict[str, dict[str, str]]:
    return json.loads(DIGEST_FILE.read_text(encoding="ascii"))


@pytest.mark.parametrize(
    "name, graph, queries", [pytest.param(*case, id=case[0]) for case in _instances()]
)
def test_reference_digests(name, graph, queries, tmp_path):
    got = instance_digests(name, graph, queries, tmp_path)
    want = _reference()[name]
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{name}: {', '.join(moved)} digest(s) changed"


def test_digest_file_covers_every_instance():
    assert sorted(_reference()) == sorted(name for name, _, _ in _instances())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: instance_digests(name, g, qs, Path(tmp)) for name, g, qs in _instances()}
    DIGEST_FILE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="ascii")
