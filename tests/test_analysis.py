"""Improvement actions, what-if edits, and kernel/superstructure."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphplan.analysis import (
    ImprovementAction,
    ImprovementError,
    apply_improvement,
    bottlenecks,
    kernel,
)
from morphplan.model import (
    CompatibilityTable,
    Component,
    CompositeSolution,
    DesignAlternative,
    MorphModel,
    OrdinalScale,
    QualityVector,
    SolutionError,
    n_dominates,
    system_quality,
)
from morphplan.synthesis import enumerate_admissible, hierarchical_synthesize
from tests.conftest import (
    bottlenecks_by_rebuild,
    kernel_by_dicts,
    node_model,
    random_node_model,
)

oracle_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def leaf_parent_solutions(draw, count=1):
    """A root over one or two leaf-parent nodes, and ``count`` random
    pick sets of one of them. Sibling leaves draw ids from one small
    pool, so they may share an id; a table may be absent, list few
    pairs (the rest take the default) or hold only the top grade, and
    a node may have a single child."""
    levels, nu = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    comps: dict[str, Component] = {}
    parts = []
    for part in ("A", "B")[: draw(st.integers(1, 2))]:
        children = []
        for i in range(draw(st.integers(1, 4))):
            ids = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
            cid = f"{part}{i}"
            comps[cid] = Component(
                id=cid,
                das=tuple(DesignAlternative(d, draw(st.integers(1, levels))) for d in ids),
            )
            children.append(cid)
        table = None
        if draw(st.booleans()):
            ids = sorted({da.id for cid in children for da in comps[cid].das})
            pairs = [
                (a, b, draw(st.integers(0, nu)))
                for i, a in enumerate(ids)
                for b in ids[i:]
                if draw(st.booleans())
            ]
            table = CompatibilityTable.from_pairs(pairs, default=draw(st.integers(0, nu)))
        comps[part] = Component(id=part, children=tuple(children), compat=table)
        parts.append(part)
    comps["R"] = Component(id="R", children=tuple(parts))
    model = MorphModel(OrdinalScale(levels, nu), "R", comps)
    node = comps[draw(st.sampled_from(parts))]
    solutions = []
    for _ in range(count):
        picks = {c: draw(st.sampled_from([da.id for da in comps[c].das])) for c in node.children}
        solutions.append(make_solution(model, node.id, picks))
    return model, solutions


def make_solution(model, node_id, picks):
    node = model.component(node_id)
    quality = system_quality(picks, node, model)
    return CompositeSolution(
        node=node_id,
        picks=tuple((c, picks[c]) for c in node.children),
        quality=quality,
    )


# ---------------------------------------------------------------------------
# bottlenecks
# ---------------------------------------------------------------------------


def test_second_rank_pick_yields_priority_upgrade(arkticheskoe):
    m = arkticheskoe.model
    d1 = make_solution(m, "D", {"P": "P3", "Q": "Q5"})
    actions = bottlenecks(d1, m)
    assert [a.describe() for a in actions] == ["Q5: 2 => 1"]
    assert actions[0].kind == "da-upgrade"
    assert (actions[0].new_quality.w, actions[0].new_quality.e) == (4, (2, 0, 0))


def test_bottleneck_edge_yields_compat_upgrade(arkticheskoe):
    m = arkticheskoe.model
    d2 = make_solution(m, "D", {"P": "P3", "Q": "Q2"})
    actions = bottlenecks(d2, m)
    assert [a.describe() for a in actions] == ["(P3,Q2): 3 => 4"]
    assert actions[0].kind == "edge-upgrade"
    assert (actions[0].new_quality.w, actions[0].new_quality.e) == (4, (2, 0, 0))


def test_full_selection_upgrades_every_second_rank_pick(arkticheskoe):
    m = arkticheskoe.model
    w1 = make_solution(m, "W", {"E": "E6", "F": "F6", "G": "G6", "J": "J6", "I": "I6"})
    actions = bottlenecks(w1, m)
    upgrades = {a.describe() for a in actions if a.kind == "da-upgrade"}
    assert upgrades == {"E6: 2 => 1", "G6: 2 => 1", "I6: 2 => 1"}
    # the two bottleneck pairs of this selection are also actionable
    edges = {a.describe() for a in actions if a.kind == "edge-upgrade"}
    assert edges == {"(F6,I6): 1 => 2", "(G6,I6): 1 => 2"}
    # two table pairs attain w = 1, so raising either one keeps w, and
    # both rank after the three da-upgrades
    assert [a.kind for a in actions] == ["da-upgrade"] * 3 + ["edge-upgrade"] * 2
    assert [a.new_quality.w for a in actions[3:]] == [1, 1]


def test_w3_upgrade_list_names_its_ranked_pick(arkticheskoe):
    m = arkticheskoe.model
    w3 = make_solution(m, "W", {"E": "E6", "F": "F6", "G": "G3", "J": "J6", "I": "I3"})
    actions = bottlenecks(w3, m)
    upgrades = [a for a in actions if a.kind == "da-upgrade"]
    assert [a.describe() for a in upgrades] == ["E6: 2 => 1"]
    assert (upgrades[0].new_quality.w, upgrades[0].new_quality.e) == (3, (5, 0, 0))


def test_nothing_to_improve_yields_no_actions():
    model = node_model(
        {"A": [("a1", 1)], "B": [("b1", 1)]},
        [("a1", "b1", 4)],
    )
    best = make_solution(model, "N", {"A": "a1", "B": "b1"})
    assert bottlenecks(best, model) == []


def test_sibling_leaves_sharing_an_id_give_one_action_per_table_pair():
    model = node_model(
        {"A": [("a", 1)], "A2": [("a", 1)], "B": [("b", 1)]},
        [("a", "b", 1)],
        default=3,
    )
    solution = make_solution(model, "N", {"A": "a", "A2": "a", "B": "b"})
    actions = bottlenecks(solution, model)
    assert [a.describe() for a in actions] == ["(a,b): 1 => 2"]
    assert actions[0].new_quality == QualityVector(2, (3, 0, 0))


def test_strictly_improving_actions_sort_first(arkticheskoe):
    m = arkticheskoe.model
    w1 = make_solution(m, "W", {"E": "E6", "F": "F6", "G": "G6", "J": "J6", "I": "I6"})
    actions = bottlenecks(w1, m)
    strict = [a.new_quality.strictly_dominates(w1.quality) for a in actions]
    # once a non-improving action appears, no improving one may follow
    assert strict == sorted(strict, reverse=True)


@pytest.mark.parametrize(
    "node_id, picks, w, lookups",
    [
        # five picks below the scale top: each of the 10 pairs once
        ("W", {"E": "E6", "F": "F6", "G": "G6", "J": "J6", "I": "I6"}, 1, 10),
        # at w = nu no pair can be raised, so none is looked up
        ("D", {"P": "P3", "Q": "Q5"}, 4, 0),
    ],
    ids=["W-below-top", "D-at-top"],
)
def test_bottlenecks_read_the_stored_quality_and_scan_each_pair_once(
    arkticheskoe, monkeypatch, node_id, picks, w, lookups
):
    m = arkticheskoe.model
    solution = make_solution(m, node_id, picks)
    assert solution.quality.w == w
    calls = []
    compat_value = MorphModel.compat_value

    def counted(self, node, a, b):
        calls.append((a, b))
        return compat_value(self, node, a, b)

    monkeypatch.setattr(MorphModel, "compat_value", counted)
    bottlenecks(solution, m)
    assert len(calls) == lookups


@oracle_settings
@given(leaf_parent_solutions())
def test_action_quality_matches_the_rebuilt_model(case):
    model, (solution,) = case
    node = model.component(solution.node)
    actions = bottlenecks(solution, model)
    for action in actions:
        changed = apply_improvement(model, action)
        rescored = system_quality(solution.picks_map(), changed.component(node.id), changed)
        assert action.new_quality == rescored, action
    assert actions == bottlenecks_by_rebuild(solution, model)


# ---------------------------------------------------------------------------
# apply_improvement
# ---------------------------------------------------------------------------


def test_apply_priority_upgrade_recomputes(arkticheskoe):
    m = arkticheskoe.model
    d1 = make_solution(m, "D", {"P": "P3", "Q": "Q5"})
    action = bottlenecks(d1, m)[0]
    changed = apply_improvement(m, action)
    q = system_quality({"P": "P3", "Q": "Q5"}, changed.component("D"), changed)
    assert (q.w, q.e) == (4, (2, 0, 0))
    # original untouched
    assert m.component("Q").da("Q5").priority == 2


def test_apply_edge_upgrade_recomputes(arkticheskoe):
    m = arkticheskoe.model
    d2 = make_solution(m, "D", {"P": "P3", "Q": "Q2"})
    action = bottlenecks(d2, m)[0]
    changed = apply_improvement(m, action)
    q = system_quality({"P": "P3", "Q": "Q2"}, changed.component("D"), changed)
    assert (q.w, q.e) == (4, (2, 0, 0))
    assert m.component("D").compat.value("P3", "Q2") == 3


def test_noop_action_is_rejected(arkticheskoe):
    m = arkticheskoe.model
    action = ImprovementAction(
        kind="da-upgrade", component="Q", target="Q5", before=2, after=2, new_quality=None
    )
    with pytest.raises(ImprovementError):
        apply_improvement(m, action)


def test_out_of_range_upgrades_are_rejected(arkticheskoe):
    m = arkticheskoe.model
    with pytest.raises(ImprovementError):
        apply_improvement(
            m,
            ImprovementAction(
                kind="da-upgrade", component="Q", target="Q2", before=1, after=0, new_quality=None
            ),
        )
    with pytest.raises(ImprovementError):
        apply_improvement(
            m,
            ImprovementAction(
                kind="edge-upgrade", component="D", target=("P3", "Q5"), before=4, after=5, new_quality=None
            ),
        )


@pytest.mark.parametrize(
    "kind,component,target,before,after,message",
    [
        ("swap", "A", "a1", 2, 1, "unknown action kind 'swap'"),
        ("da-upgrade", "A", "a1", 3, 1, "priority upgrades move one step up: 3 => 1"),
        ("da-upgrade", "A", ("a1", "b1"), 2, 1, "da-upgrade targets a single alternative id"),
        ("da-upgrade", "A", "a1", 3, 2, "a1 has priority 2, action expects 3"),
        ("edge-upgrade", "N", ("a1", "b1"), 2, 4, "edge upgrades move one step up: 2 => 4"),
        ("edge-upgrade", "N", "a1", 2, 3, "edge-upgrade targets an alternative pair"),
        ("edge-upgrade", "A", ("a1", "b1"), 2, 3, "component A has no compatibility table"),
        ("edge-upgrade", "N", ("a1", "b1"), 1, 2, "pair ('a1', 'b1') has value 2, action expects 1"),
    ],
    ids=[
        "unknown-kind", "priority-step", "priority-pair-target", "priority-mismatch",
        "edge-step", "edge-single-target", "edge-no-table", "edge-value-mismatch",
    ],
)
def test_malformed_actions_are_rejected(kind, component, target, before, after, message):
    model = node_model({"A": [("a1", 2)], "B": [("b1", 1)]}, [("a1", "b1", 2)])
    action = ImprovementAction(kind, component, target, before, after, new_quality=None)
    with pytest.raises(ImprovementError) as raised:
        apply_improvement(model, action)
    assert str(raised.value) == message


@pytest.mark.parametrize("seed", range(15))
def test_actions_never_worsen_the_solution(seed):
    model = random_node_model(seed, max_children=4, max_das=4)
    node = model.component("N")
    admissible = enumerate_admissible(node, model)
    if not admissible:
        return
    rng = random.Random(seed)
    solution = admissible[rng.randrange(len(admissible))]
    for action in bottlenecks(solution, model):
        assert n_dominates(action.new_quality, solution.quality), (seed, action)


def test_every_edge_action_targets_a_bottleneck_pair(arkticheskoe):
    m = arkticheskoe.model
    w2 = make_solution(m, "W", {"E": "E3", "F": "F6", "G": "G3", "J": "J6", "I": "I3"})
    node = m.component("W")
    for action in bottlenecks(w2, m):
        if action.kind == "edge-upgrade":
            a, b = action.target
            assert m.compat_value(node, a, b) == w2.quality.w


# ---------------------------------------------------------------------------
# kernel / superstructure
# ---------------------------------------------------------------------------


def test_region_agreement_structure(yamal_region):
    m = yamal_region.model
    outcome = hierarchical_synthesize(m)
    solutions = outcome.frontiers["S"].layer(1)
    assert len(solutions) == 24
    report = kernel(solutions)
    assert dict(report.kernel) == {"A1": "A1_1", "A5": "A5_1"}
    assert report.superstructure["A2"] == tuple(f"A2_{j}" for j in range(1, 7))
    assert report.superstructure["A4"] == ("A4_1", "A4_2")
    assert report.superstructure["A3"] == ("A3_1", "A3_2")


def test_identical_solutions_agree_everywhere(arkticheskoe):
    m = arkticheskoe.model
    d1 = make_solution(m, "D", {"P": "P3", "Q": "Q5"})
    report = kernel([d1, d1, d1])
    assert dict(report.kernel) == {"P": "P3", "Q": "Q5"}
    assert dict(report.superstructure) == {"P": ("P3",), "Q": ("Q5",)}


def test_fully_disagreeing_solutions_have_empty_kernel(arkticheskoe):
    m = arkticheskoe.model
    a = make_solution(m, "D", {"P": "P3", "Q": "Q5"})
    b = make_solution(m, "D", {"P": "P2", "Q": "Q2"})
    report = kernel([a, b])
    assert dict(report.kernel) == {}
    assert dict(report.superstructure) == {"P": ("P2", "P3"), "Q": ("Q2", "Q5")}


def test_threshold_relaxes_agreement(arkticheskoe):
    m = arkticheskoe.model
    a = make_solution(m, "D", {"P": "P3", "Q": "Q5"})
    b = make_solution(m, "D", {"P": "P3", "Q": "Q2"})
    c = make_solution(m, "D", {"P": "P2", "Q": "Q5"})
    strict = kernel([a, b, c])
    assert dict(strict.kernel) == {}
    relaxed = kernel([a, b, c], threshold=0.6)
    assert dict(relaxed.kernel) == {"P": "P3", "Q": "Q5"}


@pytest.mark.parametrize(
    "agree, total, threshold, joins",
    [(7, 25, 0.28, True), (7, 100, 0.07, True), (28, 50, 0.56, True), (6, 25, 0.28, False)],
)
def test_a_pick_held_by_exactly_the_threshold_joins(agree, total, threshold, joins):
    # threshold * total rounds above agree for the three that join
    # (0.28 * 25 == 7.000000000000001).
    def pick(p):
        return CompositeSolution(node="N", picks=(("P", p),), quality=QualityVector(1, (1,)))

    solutions = [pick("p1")] * agree + [pick(f"q{i}") for i in range(total - agree)]
    report = kernel(solutions, threshold=threshold)
    assert dict(report.kernel) == ({"P": "p1"} if joins else {})


def test_kernel_of_empty_set_errors():
    with pytest.raises(Exception):
        kernel([])


@pytest.mark.parametrize("seed", range(10))
def test_kernel_bounds_every_solution(seed):
    model = random_node_model(seed, max_children=4, max_das=4)
    node = model.component("N")
    admissible = enumerate_admissible(node, model)
    if len(admissible) < 2:
        return
    rng = random.Random(seed)
    sample = rng.sample(admissible, k=min(len(admissible), 5))
    report = kernel(sample)
    for sol in sample:
        picks = sol.picks_map()
        for child, agreed_pick in report.kernel.items():
            assert picks[child] == agreed_pick
        for child, pick in picks.items():
            assert pick in report.superstructure[child]


@oracle_settings
@given(leaf_parent_solutions(count=5), st.floats(0.01, 1.0))
def test_kernel_matches_a_lookup_by_child(case, threshold):
    _, solutions = case
    report = kernel(solutions, threshold=threshold)
    assert (report.kernel, report.superstructure) == kernel_by_dicts(solutions, threshold)


def _picked(node, *picks):
    return CompositeSolution(node=node, picks=picks, quality=QualityVector(1, (1,)))


@pytest.mark.parametrize(
    "solutions, threshold, error, message",
    [
        ([_picked("N", ("P", "p1"))], 0.0, ValueError, "threshold must be in (0, 1]: 0.0"),
        ([_picked("N", ("P", "p1"))], 1.5, ValueError, "threshold must be in (0, 1]: 1.5"),
        (
            [_picked("N", ("P", "p1")), _picked("M", ("P", "p1"))],
            1.0,
            SolutionError,
            "solutions score different nodes: ['M', 'N']",
        ),
        (
            [_picked("N", ("P", "p1")), _picked("N", ("Q", "q1"))],
            1.0,
            SolutionError,
            "solutions cover different child sets",
        ),
    ],
    ids=["threshold-zero", "threshold-above-one", "mixed-nodes", "mixed-children"],
)
def test_kernel_refuses_a_malformed_call(solutions, threshold, error, message):
    with pytest.raises(error, match=re.escape(message)):
        kernel(solutions, threshold=threshold)
