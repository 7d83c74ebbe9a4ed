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


class ExhaustedStream:
    """A stream that has no memory left to write anything."""

    def write(self, text):
        raise MemoryError


def test_running_out_of_memory_while_writing_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ExhaustedStream())
    code = cli.main(["synth", str(fixture_path("arkticheskoe")), "--format", "json"])
    streams = capsys.readouterr()
    assert (code, streams.out, streams.err) == (2, "", "error: out of memory\n")
