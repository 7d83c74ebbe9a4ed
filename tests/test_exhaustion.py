"""Exit codes that hold when memory really runs out: a command that
exhausts its address space exits 2 with one line on stderr, never 1
(infeasibility) and never a traceback."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphplan import cli
from morphplan.fixtures import fixture_path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``morphplan.cli.main`` on the arguments after it, with the
# address space of this child process capped at the first argument's MB.
PRELUDE = """\
import resource, sys
limit = int(sys.argv.pop(1)) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from morphplan.cli import main
sys.exit(main())
"""


def table_less_document(leaves: int) -> dict:
    """A root without a table over ``leaves`` leaves with two
    priority-1 alternatives each: every one of the 2**leaves selections
    has the same quality, so ``synth --format json`` lists them all
    (about 46 MB of output at 16 leaves)."""
    comps = [
        {
            "id": f"L{i}",
            "kind": "leaf",
            "das": [{"id": f"L{i}a", "priority": 1}, {"id": f"L{i}b", "priority": 1}],
        }
        for i in range(leaves)
    ]
    root = {"id": "R", "kind": "composite", "children": [c["id"] for c in comps]}
    return {"morph_schema": 1, "scale": {"l": 3, "nu": 4}, "root": "R", "components": comps + [root]}


@pytest.mark.parametrize("leaves, limit_mb", [(16, 300), (18, 200)])
def test_exhausted_synth_exits_2_with_one_line(tmp_path, leaves, limit_mb):
    path = tmp_path / f"table-less-{leaves}.json"
    path.write_text(json.dumps(table_less_document(leaves)))
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, "-c", PRELUDE, str(limit_mb), "synth", str(path), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (run.returncode, run.stderr, run.stdout) == (2, "error: out of memory\n", "")


def region_document(fields: int) -> dict:
    """A root without a table over ``fields`` fields. Each field pairs
    two leaves with alternatives at priorities 1 and 2 under the table
    1, 3, 3, 4, so it offers four plans that no other strictly beats:
    (1;2,0,0), (3;1,1,0) twice and (4;0,2,0). All 4**fields root
    selections then tie."""
    comps = []
    for i in range(fields):
        a, b = f"F{i}a", f"F{i}b"
        for leaf in (a, b):
            das = [{"id": f"{leaf}1", "priority": 1}, {"id": f"{leaf}2", "priority": 2}]
            comps.append({"id": leaf, "kind": "leaf", "das": das})
        pairs = [[f"{a}{x}", f"{b}{y}", w] for x, y, w in [(1, 1, 1), (1, 2, 3), (2, 1, 3), (2, 2, 4)]]
        compat = {"default": 0, "pairs": pairs}
        comps.append({"id": f"F{i}", "kind": "composite", "children": [a, b], "compat": compat})
    root = {"id": "R", "kind": "composite", "children": [f"F{i}" for i in range(fields)]}
    return {"morph_schema": 1, "scale": {"l": 3, "nu": 4}, "root": "R", "components": comps + [root]}


def test_bottlenecks_of_a_region_compose_only_its_fields(tmp_path):
    # The region root's 4**10 tied selections are never composed: only
    # the fields that bottlenecks reports are.
    path = tmp_path / "region-10.json"
    path.write_text(json.dumps(region_document(10)))
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, "-c", PRELUDE, "300", "bottlenecks", str(path), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (run.returncode, run.stderr) == (0, "")
    per_node = json.loads(run.stdout)["bottlenecks"]
    assert {node: len(labels) for node, labels in per_node.items()} == {f"F{i}": 4 for i in range(10)}


class ExhaustedStream:
    """A stream that has no memory left to write anything."""

    def write(self, text):
        raise MemoryError


def test_running_out_of_memory_while_writing_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ExhaustedStream())
    code = cli.main(["synth", str(fixture_path("arkticheskoe")), "--format", "json"])
    streams = capsys.readouterr()
    assert (code, streams.out, streams.err) == (2, "", "error: out of memory\n")
