"""End-to-end command runs, exit codes, and rendered outputs."""

from __future__ import annotations

import json
import re

from morphplan.cli import run_command
from morphplan.fixtures import fixture_path
from morphplan.model import QualityVector
from morphplan.reporting import estimate_scale_dot, frontier_dot
from morphplan.synthesis import pareto_filter
from morphplan.model import CompositeSolution

ARK = str(fixture_path("arkticheskoe"))
KRU = str(fixture_path("kruzensternskoe"))
REGION = str(fixture_path("yamal_region"))
MULTI = str(fixture_path("arkticheskoe_multiset"))


def solution_index(report, node):
    return {
        s["label"]: (s["w"], tuple(s["e"]), s["layer"])
        for s in report["frontiers"][node]["solutions"]
    }


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


def zero_model(tmp_path):
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


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok_fixture():
    result = run_command(["validate", ARK])
    assert result.code == 0


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


def test_median_dot_is_the_twelve_node_scale():
    result = run_command(["median", MULTI, "--format", "dot"])
    labels = re.findall(r'label="\(([0-9,]+)\)"', result.output)
    assert len(labels) == 12
    edges = re.findall(r"e(\d+) -> e(\d+);", result.output)
    assert len(edges) == 14


def test_median_without_estimates_is_a_usage_error():
    result = run_command(["median", ARK])
    assert result.code == 2


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


def test_aggregate_infeasible_budget_exits_one():
    result = run_command(["aggregate", REGION, "--budget", "2"])
    assert result.code == 1


def test_kernel_command_reports_agreement():
    result = run_command(["kernel", REGION, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    assert report["kernel"]["kernel"] == {"A1": "A1_1", "A5": "A5_1"}
    assert report["kernel"]["count"] == 24
    supers = report["kernel"]["superstructure"]
    assert supers["A2"] == [f"A2_{j}" for j in range(1, 7)]


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


def test_report_command_runs_everything():
    result = run_command(["report", REGION, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    assert report["frontiers"]["S"]["count"] == 24
    assert "kernel" in report and "aggregation" in report


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
