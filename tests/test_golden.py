"""The CLI's golden table: every recorded argv gives the same exit code
and the same output bytes. ``tests/golden/record.py`` writes the table."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from morphplan.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "cli.json"


def test_cli_outputs_match_the_golden_table(monkeypatch):
    # Reports echo the model path, and the table's paths are relative
    # to the repository root.
    monkeypatch.chdir(ROOT)
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    assert len(rows) > 400
    moved = []
    for row in rows:
        result = run_command(row["argv"])
        digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
        if (result.code, digest) != (row["code"], row["sha256"]):
            moved.append(" ".join(row["argv"]))
    assert moved == []
