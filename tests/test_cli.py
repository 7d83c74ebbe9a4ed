"""End-to-end command runs, exit codes, and rendered outputs."""

from __future__ import annotations

import argparse
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from morphplan import cli
from morphplan.cli import _parse_budget, build_parser, main, run_command
from morphplan.fixtures import fixture_path, fixture_text
from morphplan.model import QualityVector
from morphplan.reporting import estimate_scale_dot, frontier_dot
from morphplan.synthesis import pareto_filter
from morphplan.model import CompositeSolution
from morphplan.modeldoc import parse_model
from tests.test_knapsack import brute_optima
from tests.test_modeldoc import BROKEN_KNAPSACKS, knapsack_doc_text

ARK = str(fixture_path("arkticheskoe"))
KRU = str(fixture_path("kruzensternskoe"))
REGION = str(fixture_path("yamal_region"))
MULTI = str(fixture_path("arkticheskoe_multiset"))
LEAF_ROOT = str(Path(__file__).parent / "golden" / "leaf_root.json")


def solution_index(report, node):
    return {
        s["label"]: (s["w"], tuple(s["e"]), s["layer"])
        for s in report["frontiers"][node]["solutions"]
    }


def run_main(capsys, argv):
    """Exit code, stdout and stderr of ``morph argv``."""
    code = main(argv)
    streams = capsys.readouterr()
    return code, streams.out, streams.err


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_reports_reference_frontier_values():
    result = run_command(["synth", ARK, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    d = solution_index(report, "D")
    assert d["P3*Q5"] == (4, (1, 1, 0), 1)
    assert d["P3*Q2"] == (3, (2, 0, 0), 1)
    w = solution_index(report, "W")
    assert w["E3*F6*G3*J6*I3"] == (2, (5, 0, 0), 1)
    assert w["E6*F6*G3*J6*I3"] == (3, (4, 1, 0), 1)
    assert any("W1" in msg and "(1;2,3,0)" in msg for msg in report["warnings"])


def test_synth_kruzensternskoe_values_and_flag():
    result = run_command(["synth", KRU, "--format", "json", "--algorithm", "brute"])
    assert result.code == 0
    report = json.loads(result.output)
    h = solution_index(report, "H")
    assert h["K6*L6*V5*O3*P6"] == (4, (4, 1, 0), 1)
    assert h["K6*L6*V5*O3*P2"] == (3, (5, 0, 0), 1)
    b = solution_index(report, "B")
    assert b["E3*F3*G3*J6"][0:2] == (1, (4, 0, 0))
    assert any("B1" in msg for msg in report["warnings"])
    assert any("J3" in msg for msg in report["warnings"])


def test_synth_json_is_byte_identical_across_runs():
    first = run_command(["synth", ARK, "--format", "json"])
    second = run_command(["synth", ARK, "--format", "json"])
    assert first.output == second.output


def test_synth_dot_output_groups_by_w():
    result = run_command(["synth", ARK, "--format", "dot", "--node", "W"])
    assert result.code == 0
    assert result.output.startswith("digraph")
    assert "rank=same" in result.output


def zero_model(tmp_path, notes=()):
    """A root whose only selection pairs at compatibility 0."""
    doc = {
        "morph_schema": 1,
        "scale": {"l": 3, "nu": 4},
        "root": "N",
        "components": [
            {"id": "A", "kind": "leaf", "das": [{"id": "a1", "priority": 1}]},
            {"id": "B", "kind": "leaf", "das": [{"id": "b1", "priority": 1}]},
            {"id": "N", "kind": "composite", "children": ["A", "B"],
             "compat": {"default": 0, "pairs": [["a1", "b1", 0]]}},
        ],
    }
    if notes:
        doc["options"] = {"notes": list(notes)}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_synth_infeasible_model_exits_one(tmp_path):
    result = run_command(["synth", zero_model(tmp_path), "--format", "json"])
    assert result.code == 1
    report = json.loads(result.output)
    assert report["frontiers"]["N"]["infeasible"] is True


def test_synth_dot_unknown_node_is_a_usage_error():
    result = run_command(["synth", ARK, "--format", "dot", "--node", "NOPE"])
    assert result.code == 2
    assert result.output == "error: unknown component 'NOPE'\n"


def test_synth_text_names_an_infeasible_node_and_exits_one(tmp_path):
    result = run_command(["synth", zero_model(tmp_path)])
    assert result.code == 1
    assert "\nnode N: infeasible (no admissible selection)\n" in result.output


def test_synth_dot_infeasible_node_exits_one_with_reason(tmp_path):
    result = run_command(["synth", zero_model(tmp_path), "--format", "dot", "--node", "N"])
    assert result.code == 1
    assert result.output == "node N: infeasible (no admissible selection)\n"


def test_synth_dot_draws_one_node_per_distinct_quality():
    argv = ["synth", KRU, "--algorithm", "brute"]
    report = json.loads(run_command(argv + ["--format", "json"]).output)
    labels = [s["label"] for s in report["frontiers"]["A4"]["solutions"]]
    assert len(labels) == 1152
    result = run_command(argv + ["--format", "dot", "--node", "A4"])
    assert result.code == 0
    nodes = dict(re.findall(r'^  (n\d+) \[label="(.*)"\];$', result.output, re.M))
    assert len(nodes) == 6
    quality = {}
    drawn = []
    for node, label in nodes.items():
        *members, head = label.split("\\n")
        w, e = re.fullmatch(r"\((\d+);([\d,]+)\)", head).groups()
        quality[node] = QualityVector(int(w), tuple(int(c) for c in e.split(",")))
        drawn += members
    assert sorted(drawn) == sorted(labels)
    edges = re.findall(r"^  (n\d+) -> (n\d+);$", result.output, re.M)
    assert edges
    for a, b in edges:
        assert quality[a].strictly_dominates(quality[b])


def test_synth_dot_escapes_quotes_and_backslashes_in_labels(tmp_path):
    doc = {
        "morph_schema": 1,
        "scale": {"l": 3, "nu": 4},
        "root": "N",
        "components": [
            {"id": "A", "kind": "leaf",
             "das": [{"id": 'a"1', "priority": 1}, {"id": "a\\2", "priority": 1}]},
            {"id": "B", "kind": "leaf", "das": [{"id": "b1", "priority": 1}]},
            {"id": "N", "kind": "composite", "children": ["A", "B"],
             "compat": {"default": 3, "pairs": []}},
        ],
    }
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(doc))
    result = run_command(["synth", str(path), "--algorithm", "brute", "--format", "dot"])
    assert result.code == 0
    assert '  n0 [label="a\\"1*b1\\na\\\\2*b1\\n(3;2,0,0)"];\n' in result.output


@pytest.mark.parametrize("algorithm", ["dp", "brute"])
def test_synth_dot_draws_a_leaf_from_its_alternatives(algorithm):
    result = run_command(["synth", ARK, "--algorithm", algorithm, "--node", "E", "--format", "dot"])
    assert result.code == 0
    assert result.output == (
        "digraph quality {\n"
        "  rankdir=TB;\n"
        "  node [shape=box, fontsize=10];\n"
        '  n0 [label="E3\\n(4;1,0,0)"];\n'
        '  n1 [label="E2\\nE6\\n(4;0,1,0)"];\n'
        "  { rank=same; n0; n1; }\n"
        "  n0 -> n1;\n"
        "}\n"
    )


@pytest.mark.parametrize("command", ["synth", "kernel", "report"])
def test_a_leaf_root_synthesizes_to_its_best_alternative(command):
    # C offers c2 at priority 1, c1 and c3 at 2, c4 at 3.
    result = run_command([command, LEAF_ROOT, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    assert report.get("frontiers", {}) == {}
    if command != "synth":
        assert report["kernel"] == {
            "count": 1,
            "kernel": {"C": "c2"},
            "node": "C",
            "superstructure": {"C": ["c2"]},
            "threshold": 1.0,
        }


@pytest.mark.parametrize("command", ["synth", "kernel", "report"])
@pytest.mark.parametrize("layers", ["0", "-3"])
def test_layers_below_one_is_a_usage_error(command, layers):
    assert run_command([command, KRU, "--layers", layers]).code == 2


PARSER_SEQUENCE = [
    ["synth", ARK, "--layers", "0", "--format", "json"],
    ["synth", ARK, "--layers", "2", "--format", "json"],
    ["synth", ARK, "--format", "json"],
]


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()


def test_shared_parser_runs_like_fresh_parsers(capsys):
    shared = []
    for argv in PARSER_SEQUENCE:
        result = run_command(argv)
        shared.append((result.code, result.output, capsys.readouterr()))
    fresh = []
    for argv in PARSER_SEQUENCE:
        build_parser.cache_clear()
        result = run_command(argv)
        fresh.append((result.code, result.output, capsys.readouterr()))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "--layers" in shared[0][2].err
    assert json.loads(shared[1][1])["arguments"]["layers"] == 2
    assert '"layers": null' in shared[2][1]


# Every subcommand's options as (option strings, dest, default, choices,
# type name), in declaration order: the command line's contract.
MODEL = ((), "model", None, None, None)
ALGORITHM = (("--algorithm",), "algorithm", "dp", ("dp", "brute"), None)
LAYERS = (("--layers",), "layers", None, None, "_layer_count")
NODE = (("--node",), "node", None, None, None)
BUDGET = (("--budget",), "budget", None, None, "_parse_budget")
METHOD = (("--method",), "method", "greedy", ("greedy", "exact"), None)
ENFORCE = (("--enforce-condition2",), "enforce_condition2", "true", ("true", "false"), None)
METRIC = (("--metric",), "metric", "max", ("max", "sum"), None)
THRESHOLD = (("--threshold",), "threshold", 1.0, None, "_threshold")
TEXT_JSON = (("--format",), "format", "text", ("text", "json"), None)
TEXT_JSON_DOT = (("--format",), "format", "text", ("text", "json", "dot"), None)
FLAG_CONTRACT = {
    "validate": [MODEL, TEXT_JSON],
    "synth": [MODEL, ALGORITHM, LAYERS, NODE, TEXT_JSON_DOT],
    "bottlenecks": [MODEL, NODE, ALGORITHM, TEXT_JSON],
    "median": [MODEL, NODE, ENFORCE, METRIC, TEXT_JSON_DOT],
    "aggregate": [MODEL, BUDGET, METHOD, TEXT_JSON],
    "kernel": [MODEL, THRESHOLD, ALGORITHM, LAYERS, TEXT_JSON],
    "gen": [
        (("--seed",), "seed", 0, None, "int"),
        (("--children",), "children", 4, None, "int"),
        (("--das",), "das", 3, None, "int"),
        (("--levels",), "levels", 3, None, "int"),
        (("--nu",), "nu", 4, None, "int"),
    ],
    "report": [MODEL, ALGORITHM, LAYERS, BUDGET, METHOD, ENFORCE, METRIC, THRESHOLD, TEXT_JSON],
}


def test_every_subcommand_keeps_its_flag_contract():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    observed = {
        name: [
            (
                tuple(a.option_strings),
                a.dest,
                a.default,
                None if a.choices is None else tuple(a.choices),
                None if a.type is None else a.type.__name__,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, parser in subparsers.choices.items()
    }
    assert list(observed) == list(FLAG_CONTRACT)
    assert observed == FLAG_CONTRACT


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok_fixture():
    result = run_command(["validate", ARK])
    assert result.code == 0


def test_validate_json_of_a_broken_document_is_exact(tmp_path, capsys):
    edit, diagnostic = BROKEN_KNAPSACKS["negative-cost"]
    path = tmp_path / "broken.json"
    path.write_text(knapsack_doc_text(edit))
    expected = (
        "{\n"
        '  "arguments": {\n'
        '    "format": "json",\n'
        f'    "model": {json.dumps(str(path))}\n'
        "  },\n"
        '  "command": "validate",\n'
        '  "validation": [\n'
        f"    {json.dumps(diagnostic)}\n"
        "  ]\n"
        "}\n"
    )
    assert run_main(capsys, ["validate", str(path), "--format", "json"]) == (2, "", expected)


def test_validate_json_of_undecodable_bytes_is_a_report(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(fixture_text("arkticheskoe").replace("appraisal", "\u00e9tude").encode("latin-1"))
    code, out, err = run_main(capsys, ["validate", str(path), "--format", "json"])
    offset = fixture_text("arkticheskoe").index("appraisal")
    assert (code, out) == (2, "")
    assert json.loads(err)["validation"] == [f"malformed UTF-8 at byte {offset}: invalid continuation byte"]


def test_lone_surrogate_in_the_name_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(fixture_text("arkticheskoe"))
    doc["options"]["name"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    message = "error: $.options.name: lone surrogate in '\\ud800'\n"
    assert run_main(capsys, ["synth", str(path)]) == (2, "", message)


def test_validate_json_of_a_surrogate_key_encodes(tmp_path):
    doc = json.loads(fixture_text("arkticheskoe"))
    doc["components"][8]["priority_overrides"] = {"\ud800": "x"}
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    result = run_command(["validate", str(path), "--format", "json"])
    assert result.code == 2
    result.output.encode("utf-8")
    assert json.loads(result.output)["validation"] == [
        "$.components[8].priority_overrides: lone surrogate in '\\ud800'"
    ]


def test_validate_json_of_an_overlong_integer_is_a_report(tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"morph_schema": ' + "1" * 5000 + "}")
    result = run_command(["validate", str(path), "--format", "json"])
    assert result.code == 2
    [diagnostic] = json.loads(result.output)["validation"]
    assert diagnostic.startswith("malformed JSON: Exceeds the limit (4300")


def test_validate_reports_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    result = run_command(["validate", str(path)])
    assert result.code == 2
    assert "missing keys" in result.output


def test_unknown_flag_is_a_usage_error():
    result = run_command(["synth", ARK, "--no-such-flag"])
    assert result.code == 2


def test_missing_subcommand_is_a_usage_error():
    assert run_command([]).code == 2


def test_unknown_node_is_a_usage_error():
    result = run_command(["median", MULTI, "--node", "NOPE"])
    assert result.code == 2
    assert "NOPE" in result.output


def test_missing_model_file_is_a_usage_error():
    assert run_command(["synth", "/no/such/file.json"]).code == 2


def broken_expected(change):
    """arkticheskoe with its first expected entry (D1 @ D, picks P and
    Q) edited by ``change``."""
    doc = json.loads(fixture_text("arkticheskoe"))
    change(doc["options"]["expected"][0])
    return doc


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda e: e.update(node="NOPE"), "'NOPE' is not a composite component"),
        (lambda e: e.update(node="P"), "'P' is not a composite component"),
        (lambda e: e["picks"].pop("Q"), "expected picks for ['P', 'Q'], got ['P']"),
        (lambda e: e["picks"].update(P="NOPE"), "component P has no alternative 'NOPE'"),
    ],
    ids=["unknown-node", "leaf-node", "missing-child", "unknown-alternative"],
)
@pytest.mark.parametrize("command", ["validate", "kernel", "synth"])
def test_expected_entries_are_checked_at_parse_time(tmp_path, change, message, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(broken_expected(change)))
    result = run_command([command, str(path)])
    assert result.code == 2
    assert "$.options.expected[0]" in result.output
    assert message in result.output


def test_deeply_nested_document_is_a_usage_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    result = run_command(["validate", str(path)])
    assert result.code == 2
    assert "nest too deeply" in result.output


def test_deep_chain_of_composites_validates_and_synthesizes(tmp_path):
    depth = 3000
    components = [{"id": "L", "kind": "leaf", "das": [{"id": "x", "priority": 1}]}]
    components += [
        {"id": f"K{k}", "kind": "composite", "children": [f"K{k - 1}" if k else "L"]}
        for k in range(depth)
    ]
    doc = {"morph_schema": 1, "scale": {"l": 3, "nu": 4}, "root": f"K{depth - 1}", "components": components}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]).code == 0
    result = run_command(["synth", str(path), "--format", "json"])
    assert result.code == 0
    frontiers = json.loads(result.output)["frontiers"]
    assert len(frontiers) == depth
    assert [s["label"] for s in frontiers[f"K{depth - 1}"]["solutions"]] == ["x"]


# ---------------------------------------------------------------------------
# bottlenecks
# ---------------------------------------------------------------------------


def test_bottlenecks_cover_reference_rows():
    result = run_command(["bottlenecks", ARK, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    d_actions = report["bottlenecks"]["D"]
    assert [a["describe"] for a in d_actions["P3*Q5"]] == ["Q5: 2 => 1"]
    assert [a["describe"] for a in d_actions["P3*Q2"]] == ["(P3,Q2): 3 => 4"]
    w_actions = report["bottlenecks"]["W"]
    w1 = {a["describe"] for a in w_actions["E6*F6*G6*J6*I6"] if a["kind"] == "da-upgrade"}
    assert w1 == {"E6: 2 => 1", "G6: 2 => 1", "I6: 2 => 1"}


@pytest.mark.parametrize("node", ["A2", "E"], ids=["composite-children", "leaf"])
def test_bottlenecks_node_must_have_only_leaf_children(capsys, node):
    # A2's children are composites and E is a leaf: neither is a node
    # whose selections pick design alternatives.
    message = f"error: bottlenecks --node {node}: not a composite whose children are all leaves\n"
    assert run_main(capsys, ["bottlenecks", ARK, "--node", node]) == (2, "", message)


def test_bottlenecks_node_reports_that_node_as_the_full_run_does():
    full = json.loads(run_command(["bottlenecks", ARK, "--format", "json"]).output)
    result = run_command(["bottlenecks", ARK, "--node", "W", "--format", "json"])
    assert result.code == 0
    assert json.loads(result.output)["bottlenecks"] == {"W": full["bottlenecks"]["W"]}


# ---------------------------------------------------------------------------
# median
# ---------------------------------------------------------------------------


def test_median_command_reports_consensus_and_flags():
    result = run_command(["median", MULTI, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    named = {entry["name"]: entry for entry in report["named"]}
    assert named["WM2"]["match"] is True
    assert named["WM1"]["match"] is False
    assert named["WM1"]["computed"] == {"w": 1, "e": [1, 3, 0]}
    assert named["WM1"]["deviation"] == 5
    assert named["WM2"]["deviation"] == 3
    assert any("WM1" in msg for msg in report["warnings"])


def test_median_names_only_median_entries(tmp_path):
    # An ordinal entry at the scanned node is not a median: it gets no
    # consensus and no warning.
    doc = json.loads(fixture_text("arkticheskoe_multiset"))
    picks = {"E": "E3", "F": "F6", "G": "G3", "J": "J6", "I": "I3"}
    ordinal = {"name": "WO", "node": "W", "picks": picks, "quality": {"w": 4, "e": [5, 0, 0]}}
    doc["options"]["expected"].append({**ordinal, "kind": "ordinal"})
    path = tmp_path / "ordinal.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]).code == 0
    result = run_command(["median", str(path), "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    shipped = json.loads(run_command(["median", MULTI, "--format", "json"]).output)
    assert [entry["name"] for entry in report["named"]] == ["WM1", "WM2"]
    assert report["warnings"] == shipped["warnings"]


def test_median_dot_is_the_twelve_node_scale():
    result = run_command(["median", MULTI, "--format", "dot"])
    labels = re.findall(r'label="\(([0-9,]+)\)"', result.output)
    assert len(labels) == 12
    edges = re.findall(r"e(\d+) -> e(\d+);", result.output)
    assert len(edges) == 14


def test_median_without_estimates_is_a_usage_error(capsys):
    message = "error: node W has no estimate-carrying alternatives\n"
    assert run_main(capsys, ["median", ARK, "--node", "W"]) == (2, "", message)


def test_median_checks_the_node_shape_before_its_estimates(capsys):
    # arkticheskoe carries no estimates, but its root A2 could not be
    # composed even with them: its children W and D are composites.
    message = "error: node A2 is not a composite whose children are all leaves\n"
    assert run_main(capsys, ["median", ARK]) == (2, "", message)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_median_on_a_leaf_is_a_usage_error(capsys, fmt):
    message = "error: component E is a leaf; nothing to compose\n"
    argv = ["median", MULTI, "--node", "E", "--format", fmt]
    assert run_main(capsys, argv) == (2, "", message)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_median_over_a_composite_child_is_a_usage_error(capsys, tmp_path, fmt):
    # S over a leaf X with estimates and the composite W.
    doc = json.loads(fixture_text("arkticheskoe_multiset"))
    doc["root"] = "S"
    doc["components"] += [
        {"id": "X", "kind": "leaf", "das": [{"id": "X1", "priority": 1, "estimate": [4, 0, 0]}]},
        {"id": "S", "kind": "composite", "children": ["X", "W"], "compat": {"default": 1, "pairs": []}},
    ]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]).code == 0
    message = "error: node S is not a composite whose children are all leaves\n"
    assert run_main(capsys, ["median", str(path), "--format", fmt]) == (2, "", message)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_median_over_composite_children_only_is_a_usage_error(capsys, fmt):
    message = "error: node A4 is not a composite whose children are all leaves\n"
    assert run_main(capsys, ["median", KRU, "--format", fmt]) == (2, "", message)


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_median_of_all_zero_estimates_is_a_usage_error(tmp_path, fmt):
    doc = json.loads(fixture_text("arkticheskoe_multiset"))
    for comp in doc["components"]:
        for da in comp.get("das", []):
            da["estimate"] = [0, 0, 0]
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]).code == 0
    result = run_command(["median", str(path), "--format", fmt])
    assert result.code == 2
    assert result.output == "error: eta must be >= 1: 0\n"


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_median_with_no_admissible_selection_exits_one(tmp_path, fmt):
    # Every pair of W's children is incompatible, so no selection is admissible.
    doc = json.loads(fixture_text("arkticheskoe_multiset"))
    for comp in doc["components"]:
        if comp["id"] == "W":
            comp["compat"] = {"default": 0, "pairs": []}
    path = tmp_path / "incompatible.json"
    path.write_text(json.dumps(doc))
    result = run_command(["median", str(path), "--format", fmt])
    assert result.code == 1
    if fmt == "text":
        assert "\nmedian scan @ W: 0 solution(s), scale P^{3,4}\n" in result.output
    elif fmt == "json":
        assert json.loads(result.output)["medians"]["solutions"] == []
    else:
        assert result.output == run_command(["median", MULTI, "--format", "dot"]).output


# ---------------------------------------------------------------------------
# aggregate / kernel
# ---------------------------------------------------------------------------


def test_aggregate_greedy_budget_nine():
    result = run_command(["aggregate", REGION, "--budget", "9", "--method", "greedy", "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    entry = report["aggregation"][0]
    assert entry["plan"] == "A1_1*A2_4*A3_1*A4_1*A5_1"
    assert entry["total_profit"] == 10
    assert any("anomaly" in msg for msg in report["warnings"])


def test_aggregate_all_catalogue_budgets_exact():
    result = run_command(["aggregate", REGION, "--method", "exact", "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    profits = {entry["budget"]: entry["total_profit"] for entry in report["aggregation"]}
    assert profits == {9: 10, 10: 11, 11: 12, 12: 13}


def test_aggregate_without_knapsack_section_is_a_usage_error(capsys):
    message = "error: model has no knapsack section\n"
    assert run_main(capsys, ["aggregate", ARK, "--format", "json"]) == (2, "", message)


def test_aggregate_without_any_budget_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(fixture_text("yamal_region"))
    del doc["knapsack"]["budgets"]
    path = tmp_path / "nobudget.json"
    path.write_text(json.dumps(doc))
    message = "error: no budget given and none in the model\n"
    assert run_main(capsys, ["aggregate", str(path)]) == (2, "", message)


def test_aggregate_infeasible_budget_exits_one():
    result = run_command(["aggregate", REGION, "--budget", "2"])
    assert result.code == 1


@pytest.mark.parametrize("command", ["aggregate", "report"])
def test_zero_denominator_budget_is_a_usage_error(capsys, command):
    code, out, err = run_main(capsys, [command, REGION, "--budget", "1/0"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --budget: zero denominator: '1/0'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["aggregate", REGION, "--budget", "abc"], "argument --budget: invalid number value: 'abc'"),
        (["report", REGION, "--budget", "abc"], "argument --budget: invalid number value: 'abc'"),
        (["synth", ARK, "--layers", "abc"], "argument --layers: invalid int value: 'abc'"),
        (["kernel", ARK, "--threshold", "abc"], "argument --threshold: invalid float value: 'abc'"),
    ],
    ids=["aggregate-budget", "report-budget", "synth-layers", "kernel-threshold"],
)
def test_a_flag_value_that_is_not_a_number_is_a_usage_error(capsys, argv, message):
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_aggregate_exact_walks_back_many_groups(tmp_path):
    groups = 1500
    doc = json.loads(fixture_text("yamal_region"))
    doc["knapsack"] = {
        "groups": [
            {
                "id": f"G{g}",
                "items": [
                    {"id": f"G{g}a", "cost": 0, "profit": 1},
                    {"id": f"G{g}b", "cost": 0, "profit": 2},
                ],
            }
            for g in range(groups)
        ],
        "budgets": [0],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    result = run_command(["aggregate", str(path), "--method", "exact", "--format", "json"])
    assert result.code == 0
    entry = json.loads(result.output)["aggregation"][0]
    assert entry["total_profit"] == 2 * groups
    assert entry["alternatives"] == []
    assert all(entry["picks"][f"G{g}"] == f"G{g}b" for g in range(groups))


def test_aggregate_exact_with_a_nanocent_cost(tmp_path):
    doc = json.loads(fixture_text("yamal_region"))
    doc["knapsack"]["groups"][0]["items"][0]["cost"] = 1e-9
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(doc))
    result = run_command(["aggregate", str(path), "--method", "exact", "--format", "json"])
    assert result.code == 0
    knapsack = parse_model(path.read_text()).knapsack
    for entry, budget in zip(json.loads(result.output)["aggregation"], knapsack.budgets):
        profit, combos = brute_optima(knapsack.instance(budget))
        assert entry["total_profit"] == profit
        assert len(entry["alternatives"]) == len(combos) - 1


HUGE_NON_WHOLE = "1" + "0" * 400 + ".5"
FLOAT_RANGE_ERROR = "error: non-whole number too large to write as a float\n"


@pytest.mark.parametrize("command", ["aggregate", "report"])
@pytest.mark.parametrize("method", ["exact", "greedy"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_non_whole_budget_is_a_usage_error(command, method, fmt):
    argv = [command, REGION, "--budget", HUGE_NON_WHOLE, "--method", method, "--format", fmt]
    result = run_command(argv)
    assert (result.code, result.output) == (2, FLOAT_RANGE_ERROR)


@pytest.mark.parametrize("command", ["aggregate", "report"])
@pytest.mark.parametrize("budget", ["1e100000000", "1e-100000000"])
def test_a_budget_exponent_beyond_the_int_digit_limit_is_a_usage_error(capsys, command, budget):
    # Fraction would expand 10**100000000 first; the parser refuses the
    # exponent before that.
    start = time.perf_counter()
    code, out, err = run_main(capsys, [command, REGION, "--budget", budget])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --budget: exponent must be between -4300 and 4300: '{budget}'\n"
    )


@pytest.mark.parametrize(
    "text, value",
    [("1e4299", 10**4299), ("-1E-4_299", Fraction(-1, 10**4299)), ("2.5e0004299", 25 * 10**4298)],
    ids=["whole", "negative", "leading-zeros"],
)
def test_a_budget_exponent_up_to_the_int_digit_limit_parses(text, value):
    # 4,300 digits in the numerator or the denominator, and no more.
    assert _parse_budget(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "1e4300",
        "-1E-4_300",
        "2.5e0004300",
        "123e4299",
        "0.1e-4299",
        pytest.param("1" * 4301, id="4301-digit-integer"),
        pytest.param("1/1" + "0" * 4300, id="1/1-then-4300-zeros"),
    ],
)
def test_a_budget_with_more_digits_than_an_int_prints_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="must have at most 4300 digits"):
        _parse_budget(text)


@pytest.mark.parametrize("command", ["aggregate", "report"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("budget", ["1e4300", "1e-4300", "123e4299"])
def test_a_budget_too_long_to_print_exits_2_when_parsed(capsys, command, fmt, budget):
    code, out, err = run_main(capsys, [command, REGION, "--budget", budget, "--format", fmt])
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: argument --budget: numerator and denominator must have at most 4300 digits: "
        f"'{budget}'\n"
    )


@pytest.mark.parametrize("text", ["1e4301", "1E+4_301", "-2.5e-00004301", " .5e99999 "])
def test_a_budget_exponent_past_the_int_digit_limit_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="exponent must be between"):
        _parse_budget(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_running_out_of_memory_in_a_handler_exits_2_with_one_line(monkeypatch, capsys, fmt):
    # Every model command's handler reads its document first; raising
    # there stands in for an exhausted run, with nothing allocated.
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_model_file", exhausted)
    code, out, err = run_main(capsys, ["synth", ARK, "--format", fmt])
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["aggregate", "report"])
@pytest.mark.parametrize("method", ["exact", "greedy"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_huge_non_whole_total_is_a_usage_error(tmp_path, command, method, fmt):
    doc = json.loads(fixture_text("yamal_region"))
    doc["knapsack"]["groups"][0]["items"] = [
        {"id": "huge", "cost": 10**400, "profit": 1},
        {"id": "huger", "cost": 2 * 10**400, "profit": 1},
    ]
    doc["knapsack"]["groups"][1]["items"][0]["cost"] = 0.5
    doc["knapsack"]["budgets"] = [10**401]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]).code == 0
    result = run_command([command, str(path), "--method", method, "--format", fmt])
    assert (result.code, result.output) == (2, FLOAT_RANGE_ERROR)


@pytest.mark.parametrize("case", sorted(BROKEN_KNAPSACKS))
def test_broken_knapsack_fails_validate_and_aggregate(case, tmp_path):
    edit, diagnostic = BROKEN_KNAPSACKS[case]
    path = tmp_path / "broken.json"
    path.write_text(knapsack_doc_text(edit))
    result = run_command(["validate", str(path), "--format", "json"])
    assert result.code == 2
    assert json.loads(result.output)["validation"] == [diagnostic]
    assert run_command(["aggregate", str(path)]).code == 2


def test_kernel_command_reports_agreement():
    result = run_command(["kernel", REGION, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    assert report["kernel"]["kernel"] == {"A1": "A1_1", "A5": "A5_1"}
    assert report["kernel"]["count"] == 24
    supers = report["kernel"]["superstructure"]
    assert supers["A2"] == [f"A2_{j}" for j in range(1, 7)]


def test_kernel_on_an_infeasible_root_text(tmp_path, capsys):
    path = zero_model(tmp_path, notes=["a document note"])
    expected = (
        "model N (root N, digest 38834002e847439a)\n"
        "warning: root infeasible: no admissible selection\n"
    )
    assert run_main(capsys, ["kernel", path]) == (1, expected, "")


def test_kernel_on_an_infeasible_root_json(tmp_path, capsys):
    path = zero_model(tmp_path, notes=["a document note"])
    expected = (
        "{\n"
        '  "arguments": {\n'
        '    "algorithm": "dp",\n'
        '    "format": "json",\n'
        '    "layers": null,\n'
        f'    "model": {json.dumps(path)},\n'
        '    "threshold": 1.0\n'
        "  },\n"
        '  "command": "kernel",\n'
        '  "model": {\n'
        '    "digest": "38834002e847439a",\n'
        '    "name": null,\n'
        '    "root": "N",\n'
        '    "scale": {\n'
        '      "l": 3,\n'
        '      "nu": 4\n'
        "    }\n"
        "  },\n"
        '  "warnings": [\n'
        '    "root infeasible: no admissible selection"\n'
        "  ]\n"
        "}\n"
    )
    assert run_main(capsys, ["kernel", path, "--format", "json"]) == (1, expected, "")


INFEASIBLE_BRANCH = str(Path(__file__).parent / "golden" / "infeasible_branch.json")


@pytest.mark.parametrize("command", ["kernel", "report"])
@pytest.mark.parametrize("model", [ARK, INFEASIBLE_BRANCH], ids=["feasible", "infeasible-root"])
@pytest.mark.parametrize("threshold", ["inf", "nan", "0", "-3", "1.5"])
def test_a_threshold_outside_zero_to_one_is_a_usage_error(capsys, command, model, threshold):
    # Checked when the flag is parsed, so an infeasible root, which
    # never reaches the kernel, refuses it too.
    argv = [command, model, f"--threshold={threshold}", "--format", "json"]
    code, out, err = run_main(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --threshold: must be a number in (0, 1]: {threshold!r}\n")


# ---------------------------------------------------------------------------
# gen / report
# ---------------------------------------------------------------------------


def test_gen_is_deterministic_and_valid(tmp_path):
    first = run_command(["gen", "--seed", "7", "--children", "4", "--das", "3"])
    second = run_command(["gen", "--seed", "7", "--children", "4", "--das", "3"])
    assert first.output == second.output
    path = tmp_path / "gen.json"
    path.write_text(first.output)
    assert run_command(["validate", str(path)]).code == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gen_takes_no_format(capsys, fmt):
    code, out, err = run_main(capsys, ["gen", "--format", fmt])
    assert (code, out) == (2, "")
    assert err.endswith(f"morph: error: unrecognized arguments: --format {fmt}\n")


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--levels", "0", "levels must be in [1, 16]: 0"),
        ("--levels", "17", "levels must be in [1, 16]: 17"),
        ("--nu", "0", "max_compat must be in [1, 16]: 0"),
        ("--nu", "17", "max_compat must be in [1, 16]: 17"),
    ],
    ids=["levels-0", "levels-17", "nu-0", "nu-17"],
)
def test_gen_scale_out_of_range_is_a_usage_error(capsys, flag, value, message):
    assert run_main(capsys, ["gen", flag, value]) == (2, "", f"error: {message}\n")


def test_gen_at_the_largest_scale_validates(tmp_path):
    result = run_command(["gen", "--levels", "16", "--nu", "16"])
    assert result.code == 0
    path = tmp_path / "gen.json"
    path.write_text(result.output)
    assert run_command(["validate", str(path)]).code == 0


def test_report_command_runs_everything():
    result = run_command(["report", REGION, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    assert report["frontiers"]["S"]["count"] == 24
    assert "kernel" in report and "aggregation" in report


def json_of(*argv):
    return json.loads(run_command([*argv, "--format", "json"]).output)


@pytest.mark.parametrize("fixture", [ARK, KRU, REGION, MULTI])
def test_report_sections_are_projections_of_the_single_commands(fixture):
    report = json_of("report", fixture)
    frontiers = report["frontiers"]
    # bottlenecks: the nodes with a frontier, their layer-1 labels only,
    # and four fields per action
    fields = ("kind", "describe", "new_w", "new_e")
    assert report["bottlenecks"] == {
        node: {
            label: [{key: act[key] for key in fields} for act in actions]
            for label, actions in per_label.items()
            if any(s["label"] == label and s["layer"] == 1 for s in frontiers[node]["solutions"])
        }
        for node, per_label in json_of("bottlenecks", fixture)["bottlenecks"].items()
        if not frontiers[node]["infeasible"]
    }
    assert report.get("kernel") == json_of("kernel", fixture).get("kernel")
    aggregate = run_command(["aggregate", fixture, "--format", "json"])
    if aggregate.code == 2:
        assert "aggregation" not in report
    else:
        assert report["aggregation"] == [
            {key: value for key, value in entry.items() if key != "alternatives"}
            for entry in json.loads(aggregate.output)["aggregation"]
        ]


# ---------------------------------------------------------------------------
# dot helpers
# ---------------------------------------------------------------------------


def _sol(label, w, e):
    return CompositeSolution(
        node="W", picks=(("W", label),), quality=QualityVector(w, e)
    )


def test_single_solution_dot_has_one_node_no_edges():
    frontier = pareto_filter([_sol("only", 3, (1, 0, 0))])
    dot = frontier_dot(frontier)
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_reference_quality_triple_draws_incomparable_levels():
    # three reference qualities are pairwise incomparable: three nodes on
    # three w-ranks with no edges
    frontier = pareto_filter(
        [
            _sol("W1", 4, (2, 3, 0)),
            _sol("W2", 2, (5, 0, 0)),
            _sol("W3", 3, (4, 1, 0)),
        ]
    )
    assert frontier.layers == (1, 1, 1)
    dot = frontier_dot(frontier)
    assert dot.count("rank=same") == 3
    assert "->" not in dot


def test_estimate_scale_dot_matches_expected_cover():
    from morphplan.estimates import enumerate_estimates

    ests = enumerate_estimates(3, 4, enforce_gap_rule=True)
    dot = estimate_scale_dot(ests)
    edges = {
        (int(a), int(b)) for a, b in re.findall(r"e(\d+) -> e(\d+);", dot)
    }
    by_label = {est: i for i, est in enumerate(ests)}
    expected = {
        ((4, 0, 0), (3, 1, 0)), ((3, 1, 0), (2, 2, 0)), ((2, 2, 0), (1, 3, 0)),
        ((2, 2, 0), (2, 1, 1)), ((1, 3, 0), (0, 4, 0)), ((1, 3, 0), (1, 2, 1)),
        ((2, 1, 1), (1, 2, 1)), ((0, 4, 0), (0, 3, 1)), ((1, 2, 1), (0, 3, 1)),
        ((1, 2, 1), (1, 1, 2)), ((0, 3, 1), (0, 2, 2)), ((1, 1, 2), (0, 2, 2)),
        ((0, 2, 2), (0, 1, 3)), ((0, 1, 3), (0, 0, 4)),
    }
    assert edges == {(by_label[a], by_label[b]) for a, b in expected}
