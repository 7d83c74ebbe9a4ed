"""The CLI's golden table: every recorded argv gives the same exit code
and the same output bytes. ``tests/golden/record.py`` writes the table."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from morphplan import cli
from morphplan.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "golden" / "cli.json"


def golden_rows() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def refuse_constant(name: str):
    raise ValueError(f"not strict JSON: {name}")


def test_cli_outputs_match_the_golden_table(monkeypatch):
    # Reports echo the model path, and the table's paths are relative
    # to the repository root.
    monkeypatch.chdir(ROOT)
    rows = golden_rows()
    assert len(rows) > 400
    moved = []
    for row in rows:
        result = run_command(row["argv"])
        digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
        if (result.code, digest) != (row["code"], row["sha256"]):
            moved.append(" ".join(row["argv"]))
    assert moved == []


def test_a_drawing_writes_no_report_header(monkeypatch):
    # --format dot prints only the drawing: nothing computes the model
    # digest or the arguments echo that a report's header would hold.
    def refuse(*args):
        raise AssertionError("a drawing computes no report header")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "model_digest", refuse)
    monkeypatch.setattr(cli, "_echo_args", refuse)
    rows = [row for row in golden_rows() if row["argv"][-2:] == ["--format", "dot"]]
    assert {row["argv"][0] for row in rows} == {"synth", "median"}
    assert {"dp", "brute"} <= {row["argv"][3] for row in rows if row["argv"][0] == "synth"}
    moved = []
    for row in rows:
        result = run_command(row["argv"])
        digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
        if (result.code, digest) != (row["code"], row["sha256"]):
            moved.append(" ".join(row["argv"]))
    assert moved == []


def test_every_json_row_is_strict_json(monkeypatch):
    # NaN and Infinity are json's extensions; no row may print them.
    monkeypatch.chdir(ROOT)
    rows = [
        row["argv"]
        for row in golden_rows()
        if row["argv"][0] == "gen" or (row["argv"][-2:] == ["--format", "json"] and row["code"] != 2)
    ]
    assert len(rows) >= 200
    refused = []
    for argv in rows:
        try:
            json.loads(run_command(argv).output, parse_constant=refuse_constant)
        except ValueError as exc:
            refused.append(f"{' '.join(argv)}: {exc}")
    assert refused == []


def test_bottlenecks_reads_the_same_under_either_algorithm(monkeypatch):
    # bottlenecks reads layer 1 of nodes whose children are all leaves,
    # where the fold and enumeration agree: --algorithm changes only its
    # own echo.
    monkeypatch.chdir(ROOT)
    documents = sorted({row["argv"][1] for row in golden_rows() if row["argv"][0] == "bottlenecks"})
    assert len(documents) == 7
    for path in documents:
        runs = {}
        for algorithm in ("dp", "brute"):
            text = run_command(["bottlenecks", path, "--algorithm", algorithm])
            result = run_command(["bottlenecks", path, "--algorithm", algorithm, "--format", "json"])
            report = json.loads(result.output)
            assert report["arguments"].pop("algorithm") == algorithm
            runs[algorithm] = (text, result.code, report)
        assert runs["dp"] == runs["brute"]
