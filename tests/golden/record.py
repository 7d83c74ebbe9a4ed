"""Record the CLI's golden table: each argv of the matrix below, run
in-process, with its exit code and the sha256 of its output.

    python tests/golden/record.py

The argv name documents by paths relative to the repository root, and
reports echo those paths, so the commands run from that root. The table is
written to ``tests/golden/cli.json``; ``tests/test_golden.py`` replays
it. It is test data: a change that moves a row names the rows and the
reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from morphplan.cli import run_command  # noqa: E402

TABLE = ROOT / "tests" / "golden" / "cli.json"

FIXTURES = [
    "src/morphplan/fixtures/arkticheskoe.json",
    "src/morphplan/fixtures/arkticheskoe_multiset.json",
    "src/morphplan/fixtures/kruzensternskoe.json",
    "src/morphplan/fixtures/yamal_region.json",
]
# A model whose root is a leaf, a tree with one infeasible branch, and a
# tree whose sibling leaves share alternative ids.
DOCUMENTS = [
    "tests/golden/leaf_root.json",
    "tests/golden/infeasible_branch.json",
    "tests/golden/shared_ids.json",
]
ALGORITHMS = ("dp", "brute")
FORMATS = ("text", "json")
LAYERS = ((), ("--layers", "1"))
BUDGETS = (("--budget", "1"), ("--budget", "9"), ("--budget", "21/2"))


def model_argv(path: str, document: dict) -> list[list[str]]:
    """Every model command on one document. ``aggregate`` and ``median``
    get their full grids only on a document with a knapsack section or
    with estimates; elsewhere one row keeps their error. ``bottlenecks
    --node`` runs on each composite whose children are all leaves;
    ``median --node`` names the root, a leaf and an unknown id."""
    leaves = [c for c in document["components"] if c["kind"] == "leaf"]
    leaf_ids = {leaf["id"] for leaf in leaves}
    leaf_parents = [
        c["id"]
        for c in document["components"]
        if c["kind"] == "composite" and leaf_ids.issuperset(c["children"])
    ]
    if "knapsack" in document:
        aggregate = list(product(("greedy", "exact"), ((), *BUDGETS)))
    else:
        aggregate = [("greedy", ())]
    if any("estimate" in da for leaf in leaves for da in leaf["das"]):
        median = list(product((*FORMATS, "dot"), ("max", "sum"), ("true", "false")))
        median_nodes = list(product((document["root"], leaves[0]["id"], "NOPE"), FORMATS))
    else:
        median = [("text", "max", "true")]
        median_nodes = []
    rows: list[list[str]] = []
    for fmt in FORMATS:
        rows.append(["validate", path, "--format", fmt])
        for algorithm in ALGORITHMS:
            algo = ["--algorithm", algorithm]
            rows.append(["bottlenecks", path, *algo, "--format", fmt])
            for layers in LAYERS:
                rows.append(["synth", path, *algo, *layers, "--format", fmt])
                rows.append(["report", path, *algo, *layers, "--format", fmt])
                rows.append(["report", path, *algo, *layers, "--method", "exact", "--format", fmt])
                for threshold in ((), ("--threshold", "0.5")):
                    rows.append(["kernel", path, *algo, *layers, *threshold, "--format", fmt])
        for node in leaf_parents:
            rows.append(["bottlenecks", path, "--node", node, "--format", fmt])
        for method, budget in aggregate:
            rows.append(["aggregate", path, "--method", method, *budget, "--format", fmt])
    for fmt, metric, gap in median:
        rows.append(["median", path, "--metric", metric, "--enforce-condition2", gap, "--format", fmt])
    for node, fmt in median_nodes:
        rows.append(["median", path, "--node", node, "--format", fmt])
    for algorithm in ALGORITHMS:
        rows.append(["synth", path, "--algorithm", algorithm, "--format", "dot"])
        for component in document["components"]:
            rows.append(
                ["synth", path, "--algorithm", algorithm, "--node", component["id"], "--format", "dot"]
            )
    return rows


def golden_argv() -> list[list[str]]:
    rows: list[list[str]] = []
    for path in FIXTURES + DOCUMENTS:
        rows += model_argv(path, json.loads((ROOT / path).read_text(encoding="utf-8")))
    for seed in range(10):
        rows.append(["gen", "--seed", str(seed)])
        rows.append(
            ["gen", "--seed", str(seed), "--children", "6", "--das", "4", "--levels", "4", "--nu", "3"]
        )
    return rows


def golden_row(argv: list[str]) -> dict:
    result = run_command(argv)
    digest = hashlib.sha256(result.output.encode("utf-8")).hexdigest()
    return {"argv": argv, "code": result.code, "sha256": digest}


def main() -> int:
    os.chdir(ROOT)
    rows = [golden_row(argv) for argv in golden_argv()]
    TABLE.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n]\n",
        encoding="utf-8",
    )
    print(f"{len(rows)} rows -> {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
