"""Acceptance gate: one test per release criterion, each printing a
pass line with the checked values. Tolerances are exact integer
equality throughout; the two runtime budgets are asserted in-line."""

from __future__ import annotations

import itertools
import json
import random
import re
import time

from morphplan.cli import run_command
from morphplan.estimates import enumerate_estimates, generalized_median, multiset_number, proximity
from morphplan.fixtures import fixture_path, fixture_text
from morphplan.generator import generate_document
from morphplan.knapsack import exact_mckp, greedy_mckp
from morphplan.model import e_dominates
from morphplan.modeldoc import parse_model
from morphplan.synthesis import enumerate_admissible, pareto_filter, synthesize_dp
from morphplan.analysis import kernel as solution_kernel
from tests.conftest import random_node_model
from tests.test_estimates import bfs_distance
from tests.test_knapsack import brute_optima, random_instance
from tests.test_model import vectors

ARK = str(fixture_path("arkticheskoe"))
KRU = str(fixture_path("kruzensternskoe"))
REGION = str(fixture_path("yamal_region"))
MULTI = str(fixture_path("arkticheskoe_multiset"))


def frontier_values(report, node):
    return {
        s["label"]: (s["w"], tuple(s["e"]))
        for s in report["frontiers"][node]["solutions"]
    }


def test_criterion_1_arkticheskoe_frontier_reproduction():
    started = time.perf_counter()
    result = run_command(["synth", ARK, "--format", "json"])
    elapsed = time.perf_counter() - started
    assert result.code == 0
    report = json.loads(result.output)

    d = frontier_values(report, "D")
    w = frontier_values(report, "W")
    assert d["P3*Q5"] == (4, (1, 1, 0))        # D1
    assert d["P3*Q2"] == (3, (2, 0, 0))        # D2
    assert w["E3*F6*G3*J6*I3"] == (2, (5, 0, 0))  # W2
    assert w["E6*F6*G3*J6*I3"] == (3, (4, 1, 0))  # W3

    named = {entry["name"]: entry for entry in report["named"]}
    assert named["W1"]["computed"] == {"w": 1, "e": [2, 3, 0]}
    assert named["W1"]["reference"] == {"w": 4, "e": [2, 3, 0]}
    assert named["W1"]["match"] is False
    assert any("W1" in msg and "differs" in msg for msg in report["warnings"])
    assert elapsed < 1.0, f"synth took {elapsed:.3f}s"
    print(f"\n[criterion 1] PASS: frontier values reproduced in {elapsed * 1000:.0f} ms, "
          "W1 bottleneck discrepancy flagged")


def test_criterion_2_kruzensternskoe_frontier_reproduction():
    result = run_command(["synth", KRU, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    h = frontier_values(report, "H")
    assert h["K6*L6*V5*O3*P6"] == (4, (4, 1, 0))  # H1
    assert h["K6*L6*V5*O3*P2"] == (3, (5, 0, 0))  # H2
    b = frontier_values(report, "B")
    assert b["E3*F3*G3*J6"] == (1, (4, 0, 0))     # B1 composed with J6
    named = {entry["name"]: entry for entry in report["named"]}
    assert named["B1"]["match"] is False
    assert any("J3" in note for note in report["warnings"])
    print("\n[criterion 2] PASS: H1/H2 exact, B composed from J6 with the J3 note")


def test_criterion_3_region_strategy_counts():
    doc = parse_model(fixture_text("yamal_region"))
    m = doc.model
    sols = enumerate_admissible(m.component("S"), m)
    assert len(sols) == 24

    raw = json.loads(fixture_text("yamal_region"))
    for comp in raw["components"]:
        if comp["id"] == "A5":
            comp["das"].append({"id": "A5_2", "priority": 1})
    widened = parse_model(json.dumps(raw)).model
    assert len(enumerate_admissible(widened.component("S"), widened)) == 48
    print("\n[criterion 3] PASS: region composes 24 strategies, 48 when the fifth "
          "field offers two")


def test_criterion_4_bottleneck_rows():
    result = run_command(["bottlenecks", ARK, "--format", "json"])
    assert result.code == 0
    report = json.loads(result.output)
    d_rows = report["bottlenecks"]["D"]
    w_rows = report["bottlenecks"]["W"]

    def act(rows, label, describe):
        match = [a for a in rows[label] if a["describe"] == describe]
        assert match, (label, describe)
        return match[0]

    row1 = act(d_rows, "P3*Q5", "Q5: 2 => 1")
    assert (row1["new_w"], row1["new_e"]) == (4, [2, 0, 0])
    row2 = act(d_rows, "P3*Q2", "(P3,Q2): 3 => 4")
    assert (row2["new_w"], row2["new_e"]) == (4, [2, 0, 0])
    for target in ("E6", "G6", "I6"):
        row = act(w_rows, "E6*F6*G6*J6*I6", f"{target}: 2 => 1")
        assert row["new_w"] == 1 and sum(row["new_e"]) == 5
    row6 = act(w_rows, "E6*F6*G3*J6*I3", "E6: 2 => 1")
    assert (row6["new_w"], row6["new_e"]) == (3, [5, 0, 0])
    print("\n[criterion 4] PASS: all six improvement rows reproduced with "
          "recomputed qualities")


def test_criterion_5_choice_knapsack():
    doc = parse_model(fixture_text("yamal_region"))
    ks = doc.knapsack
    for budget, profit in ((9, 10), (10, 11), (11, 12)):
        (greedy,) = greedy_mckp(ks.instance(budget))
        optima = exact_mckp(ks.instance(budget))
        assert greedy.total_profit == profit, budget
        assert optima[0].total_profit == profit, budget
    both = {sel.item_ids() for sel in exact_mckp(ks.instance(10))}
    assert both == {("A2_1", "A4_1", "A5_1"), ("A2_4", "A4_1", "A5_2")}
    assert exact_mckp(ks.instance(12))[0].total_profit == 13

    result = run_command(["aggregate", REGION, "--format", "json"])
    report = json.loads(result.output)
    assert any("anomaly" in msg for msg in report["warnings"])
    profits = {e["budget"]: e["total_profit"] for e in report["aggregation"]}
    assert profits[11] == 12  # the anomalous trace is never reproduced

    mismatches = 0
    for seed in range(200):
        inst = random_instance(seed)
        profit, combos = brute_optima(inst)
        optima = exact_mckp(inst)
        if profit is None:
            assert optima == ()
            continue
        if sorted(sel.item_ids() for sel in optima) != combos:
            mismatches += 1
    assert mismatches == 0
    print("\n[criterion 5] PASS: profits 10/11/12/13 at budgets 9/10/11/12, both "
          "budget-10 optima enumerated, anomaly warned, exact = brute force on "
          "200 random instances")


def test_criterion_6_estimate_scale():
    assert multiset_number(3, 4) == 15
    scale = enumerate_estimates(3, 4, enforce_gap_rule=True)
    assert len(scale) == 12
    assert set(scale) == {
        (4, 0, 0), (3, 1, 0), (2, 2, 0), (1, 3, 0), (0, 4, 0), (0, 3, 1),
        (0, 2, 2), (0, 1, 3), (0, 0, 4), (2, 1, 1), (1, 2, 1), (1, 1, 2),
    }

    result = run_command(["median", MULTI, "--format", "dot"])
    edges = [
        (int(a), int(b)) for a, b in re.findall(r"e(\d+) -> e(\d+);", result.output)
    ]
    n = len(scale)
    assert edges
    # acyclic with unique top and bottom
    indeg = {i: 0 for i in range(n)}
    outdeg = {i: 0 for i in range(n)}
    adjacency = {i: set() for i in range(n)}
    for a, b in edges:
        indeg[b] += 1
        outdeg[a] += 1
        adjacency[a].add(b)
        adjacency[b].add(a)
    tops = [i for i in range(n) if indeg[i] == 0]
    bottoms = [i for i in range(n) if outdeg[i] == 0]
    assert [scale[i] for i in tops] == [(4, 0, 0)]
    assert [scale[i] for i in bottoms] == [(0, 0, 4)]
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    assert seen == set(range(n))
    order = list(range(n))  # descending-lex enumeration is a linear extension
    position = {i: k for k, i in enumerate(order)}
    assert all(position[a] < position[b] for a, b in edges)
    print("\n[criterion 6] PASS: 15 unrestricted estimates, the 12-node scale "
          "matches, cover edges form a connected single-top single-bottom DAG")


def test_criterion_7_consensus_medians():
    first = generalized_median([(1, 3, 0), (3, 1, 0), (1, 3, 0), (3, 1, 0), (1, 2, 1)])
    assert (1, 3, 0) in first.estimates
    assert first.deviation == 5
    second = generalized_median([(1, 3, 0), (3, 1, 0), (2, 2, 0), (3, 1, 0), (3, 1, 0)])
    assert (3, 1, 0) in second.estimates
    assert second.deviation == 3
    print("\n[criterion 7] PASS: consensus (1,3,0) at deviation 5 and (3,1,0) at "
          "deviation 3, by exhaustive scan")


def test_criterion_8_property_suites():
    started = time.perf_counter()
    for seed in range(500):
        model = random_node_model(seed)
        node = model.component("N")
        admissible = enumerate_admissible(node, model)
        dp = synthesize_dp(node, model)
        if not admissible:
            assert not dp.solutions, seed
            continue
        brute = pareto_filter(admissible)
        assert {s.picks for s in dp.layer(1)} == {s.picks for s in brute.layer(1)}, seed
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"frontier equivalence suite took {elapsed:.1f}s"

    # dominance laws, exhaustively for 3 levels and up to 5 picks
    for total in range(0, 6):
        vs = vectors(3, total)
        for a in vs:
            assert e_dominates(a, a)
            for b in vs:
                if e_dominates(a, b) and e_dominates(b, a):
                    assert a == b
                for c in vs:
                    if e_dominates(a, b) and e_dominates(b, c):
                        assert e_dominates(a, c)

    # proximity symmetry and agreement with the move-graph oracle
    for levels in (2, 3, 4):
        for eta in (2, 4, 5):
            ests = enumerate_estimates(levels, eta, enforce_gap_rule=False)
            for a, b in itertools.combinations(ests, 2):
                ab, ba = proximity(a, b), proximity(b, a)
                assert ab.improvements == ba.degradations
                assert ab.magnitude == ba.magnitude
                assert ab.total == bfs_distance(a, b)

    # kernel and superstructure bound every sampled solution
    rng = random.Random(99)
    checked = 0
    for seed in range(40):
        model = random_node_model(seed, max_children=4, max_das=4)
        admissible = enumerate_admissible(model.component("N"), model)
        if len(admissible) < 2:
            continue
        sample = rng.sample(admissible, k=min(len(admissible), 6))
        report = solution_kernel(sample)
        for sol in sample:
            picks = sol.picks_map()
            assert all(picks[c] == p for c, p in report.kernel.items())
            assert all(p in report.superstructure[c] for c, p in picks.items())
        checked += 1
    assert checked >= 20
    print(f"\n[criterion 8] PASS: 500 frontier equivalences in {elapsed:.1f}s, "
          "dominance laws exhaustive, proximity oracle agreement, kernel bounds hold")


def test_dense_ladder_frontier_and_fold_time():
    # A 16-child one-node model with every pair listed: the fold's
    # frontier as recorded before the branch and bound, in report
    # order. Every solution is (1; 11,2,3) on layer 1, and they differ
    # only at C3, C10, C12 and C13.
    model = parse_model(
        json.dumps(generate_document(seed=1, children=16, das=5, zero_rate=0))
    ).model
    node = model.component(model.root)
    started = time.perf_counter()
    frontier = synthesize_dp(node, model)
    elapsed = time.perf_counter() - started
    expected = [
        (
            f"C1x2*C2x1*C3x{c3}*C4x1*C5x1*C6x3*C7x1*C8x1*C9x1*C10x{c10}*C11x1"
            f"*C12x{c12}*C13x{c13}*C14x2*C15x1*C16x1",
            1,
            (11, 2, 3),
            1,
        )
        for c3, c10, c12, c13 in itertools.product((3, 4), (1, 4), (1, 2), (1, 3, 5))
    ]
    got = [
        (s.label, s.quality.w, s.quality.e, layer)
        for s, layer in zip(frontier.solutions, frontier.layers)
    ]
    assert got == expected
    assert elapsed < 1.0, f"the 16-child fold took {elapsed:.2f}s"
    print(f"\n[dense ladder] PASS: 24 pinned solutions in {elapsed * 1000:.1f} ms")
