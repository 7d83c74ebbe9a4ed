"""Admissible enumeration, Pareto layering, fold-vs-enumeration
equivalence, and whole-tree runs."""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan import synthesis
from morphplan.fixtures import fixture_text
from morphplan.generator import generate_document
from morphplan.model import (
    CompatibilityTable,
    Component,
    CompositeSolution,
    DesignAlternative,
    InfeasibleNodeError,
    MorphModel,
    OrdinalScale,
    PICK_SEPARATOR,
    QualityVector,
    SolutionError,
    n_dominates,
)
from morphplan.modeldoc import parse_model
from morphplan.synthesis import (
    admissible_states,
    child_candidates,
    enumerate_admissible,
    hierarchical_synthesize,
    pareto_filter,
    synthesize_dp,
)
from tests.conftest import (
    admissible_by_product,
    node_model,
    random_node_model,
    unbeaten_by_pairs,
)


def sol(w, e, label="s", node="N"):
    picks = tuple((f"c{i}", f"{label}{i}") for i in range(1))
    return CompositeSolution(node=node, picks=picks, quality=QualityVector(w, tuple(e)))


def picks_set(solutions):
    return {s.picks for s in solutions}


# ---------------------------------------------------------------------------
# enumerate_admissible
# ---------------------------------------------------------------------------


def test_two_child_enumeration_keeps_all_compatible_pairs(arkticheskoe):
    m = arkticheskoe.model
    sols = enumerate_admissible(m.component("D"), m)
    # oracle: every one of the four pairs is listed with value >= 2
    table = m.component("D").compat
    assert all(v >= 2 for v in table.entries.values())
    assert len(sols) == 4
    assert all(s.quality.w >= 1 for s in sols)


def test_all_zero_table_yields_nothing():
    model = node_model(
        {"A": [("a1", 1), ("a2", 2)], "B": [("b1", 1)]},
        [("a1", "b1", 0), ("a2", "b1", 0)],
    )
    assert enumerate_admissible(model.component("N"), model) == []


def test_empty_child_is_infeasible():
    model = node_model({"A": [("a1", 1)], "B": [("b1", 1)]}, None)
    comps = dict(model.components)
    comps["B"] = comps["B"].__class__(id="B")
    broken = model.__class__(scale=model.scale, root="N", components=comps)
    with pytest.raises(InfeasibleNodeError):
        enumerate_admissible(broken.component("N"), broken)


def assert_enumeration_matches_product_oracle(node, model):
    sols = enumerate_admissible(node, model)
    got = [(s.picks, s.quality) for s in sols]
    assert len(got) == len(set(got))
    assert set(got) == {(picks, q) for picks, q, _ in admissible_by_product(node, model)}


@pytest.mark.parametrize("seed", range(60))
def test_enumeration_matches_product_oracle_on_random_instances(seed):
    model = random_node_model(seed)
    assert_enumeration_matches_product_oracle(model.component("N"), model)


@pytest.mark.parametrize("node", ["W", "D"])
def test_enumeration_matches_product_oracle_on_arkticheskoe(arkticheskoe, node):
    m = arkticheskoe.model
    assert_enumeration_matches_product_oracle(m.component(node), m)


def test_region_selection_counts(yamal_region):
    m = yamal_region.model
    sols = enumerate_admissible(m.component("S"), m)
    assert len(sols) == 24

    raw = json.loads(fixture_text("yamal_region"))
    for comp in raw["components"]:
        if comp["id"] == "A5":
            comp["das"].append({"id": "A5_2", "priority": 1})
    widened = parse_model(json.dumps(raw)).model
    sols48 = enumerate_admissible(widened.component("S"), widened)
    assert len(sols48) == 48


# ---------------------------------------------------------------------------
# admissible_states: the one walk
# ---------------------------------------------------------------------------


def walk_fixture():
    """Three children; a2 with b1 scores zero and a1 with c1 two."""
    model = node_model(
        {"A": [("a1", 1), ("a2", 2)], "B": [("b1", 1), ("b2", 3)], "C": [("c1", 2), ("c2", 1)]},
        [("a2", "b1", 0), ("a1", "c1", 2)],
        default=3,
    )
    node = model.component("N")
    return node, model, [model.component(c).das for c in node.children]


def test_the_walk_yields_every_admissible_state_in_walk_order():
    assert list(admissible_states(*walk_fixture())) == [
        ((0, 0, 0), 2, (2, 1, 0)),
        ((0, 0, 1), 3, (3, 0, 0)),
        ((0, 1, 0), 2, (1, 1, 1)),
        ((0, 1, 1), 3, (2, 0, 1)),
        ((1, 1, 0), 3, (0, 2, 1)),
        ((1, 1, 1), 3, (1, 1, 1)),
    ]


def test_a_cut_state_is_dropped_with_all_its_completions():
    asked = []

    def cut(state):
        asked.append(state[0])
        return state[0][:1] == (0,)

    every = list(admissible_states(*walk_fixture()))
    kept = list(admissible_states(*walk_fixture(), cut))
    assert kept == [st for st in every if st[0][0] != 0]
    # The prefix (0,) was cut before it was extended.
    assert (0,) in asked
    assert not [picks for picks in asked if picks[:1] == (0,) and len(picks) > 1]


def test_the_cut_is_asked_of_complete_states_too():
    asked = []

    def cut(state):
        asked.append(state)
        return len(state[0]) == 3

    every = list(admissible_states(*walk_fixture()))
    assert list(admissible_states(*walk_fixture(), cut)) == []
    assert [st for st in asked if len(st[0]) == 3] == every


# ---------------------------------------------------------------------------
# pareto_filter
# ---------------------------------------------------------------------------


def test_three_incomparable_solutions_share_layer_one():
    sols = [sol(3, (1, 1, 1), "a"), sol(2, (2, 1, 0), "b"), sol(1, (3, 0, 0), "c")]
    frontier = pareto_filter(sols)
    assert frontier.layers == (1, 1, 1)


def test_both_part_d_solutions_survive(arkticheskoe):
    m = arkticheskoe.model
    frontier = pareto_filter(enumerate_admissible(m.component("D"), m))
    layer1 = {(s.label, s.quality.w, s.quality.e) for s in frontier.layer(1)}
    assert layer1 == {("P3*Q5", 4, (1, 1, 0)), ("P3*Q2", 3, (2, 0, 0))}


def test_dominated_solution_lands_in_layer_two():
    sols = [sol(3, (2, 0, 0), "a"), sol(3, (1, 1, 0), "b")]
    frontier = pareto_filter(sols)
    assert frontier.layers == (1, 2)


def test_layer_one_is_an_antichain(arkticheskoe):
    m = arkticheskoe.model
    frontier = pareto_filter(enumerate_admissible(m.component("W"), m))
    layer1 = frontier.layer(1)
    for a in layer1:
        for b in layer1:
            if a is not b:
                assert not (
                    n_dominates(a.quality, b.quality)
                    and not n_dominates(b.quality, a.quality)
                )


def test_pareto_filter_rejects_inadmissible():
    with pytest.raises(Exception):
        pareto_filter([sol(0, (1, 0, 0))])


# ---------------------------------------------------------------------------
# fold vs enumeration
# ---------------------------------------------------------------------------


def test_fold_matches_enumeration_on_the_five_group_part(arkticheskoe):
    m = arkticheskoe.model
    node = m.component("W")
    brute = pareto_filter(enumerate_admissible(node, m))
    dp = synthesize_dp(node, m)
    assert picks_set(dp.layer(1)) == picks_set(brute.layer(1))
    # the efficient layer holds exactly the two fully computable picks
    assert {(s.label, s.quality.w, s.quality.e) for s in dp.layer(1)} == {
        ("E6*F6*G3*J6*I3", 3, (4, 1, 0)),
        ("E3*F6*G3*J6*I3", 2, (5, 0, 0)),
    }


def test_fold_degenerates_on_two_children(arkticheskoe):
    m = arkticheskoe.model
    node = m.component("D")
    dp = synthesize_dp(node, m)
    brute = pareto_filter(enumerate_admissible(node, m))
    assert picks_set(dp.layer(1)) == picks_set(brute.layer(1))


@pytest.mark.parametrize("seed", range(60))
def test_fold_matches_enumeration_on_random_instances(seed):
    model = random_node_model(seed)
    node = model.component("N")
    admissible = enumerate_admissible(node, model)
    dp = synthesize_dp(node, model)
    if not admissible:
        assert not dp.solutions
        return
    brute = pareto_filter(admissible)
    assert picks_set(dp.layer(1)) == picks_set(brute.layer(1)), seed
    assert all(s.quality.w >= 1 for s in dp.solutions)


@st.composite
def leaf_parent_models(draw):
    """One node over one to five leaves at 2-4 levels. Sibling leaves
    draw ids from one small pool, so they may share an id. The table
    is absent, or lists a random share of the pairs, zeros included,
    with default 0, 1 or 4."""
    levels = draw(st.integers(2, 4))
    leaves = {}
    for i in range(draw(st.integers(1, 5))):
        ids = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=4, unique=True))
        leaves[f"L{i}"] = [(d, draw(st.integers(1, levels))) for d in ids]
    if draw(st.booleans()):
        return node_model(leaves, None, levels=levels)
    ids = sorted({d for das in leaves.values() for d, _ in das})
    pairs = [
        (a, b, draw(st.integers(0, 4)))
        for i, a in enumerate(ids)
        for b in ids[i:]
        if draw(st.booleans())
    ]
    return node_model(leaves, pairs, default=draw(st.sampled_from((0, 1, 4))), levels=levels)


def rows(frontier):
    return [
        (s.picks, s.quality, layer) for s, layer in zip(frontier.solutions, frontier.layers)
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leaf_parent_models())
# A selection that loses only on w: both stay, on layers 1 and 2.
@example(node_model({"A": [("a1", 1)], "B": [("b1", 1), ("b2", 1)]}, [("a1", "b1", 2), ("a1", "b2", 4)]))
# Two selections with one key: both stay.
@example(node_model({"A": [("a1", 1), ("a2", 1)], "B": [("b1", 2)]}, None))
# a1*b2 is found first and beaten by a2*b1, found later.
@example(
    node_model({"A": [("a1", 1), ("a2", 1)], "B": [("b1", 1), ("b2", 2)]}, [("a1", "b1", 0)], default=4)
)
def test_fold_keeps_what_no_admissible_selection_strictly_beats(model):
    # Oracle at every layer: the pairwise rule over every admissible
    # selection, then layered.
    node = model.component("N")
    expected = pareto_filter(unbeaten_by_pairs(enumerate_admissible(node, model)))
    assert rows(synthesize_dp(node, model)) == rows(expected)


def test_fold_over_more_leaves_than_the_recursion_limit():
    # No table, so no lookups: the all-best selection is found first and
    # bounds away every other branch.
    width = max(1100, sys.getrecursionlimit() + 100)
    leaves = {f"L{i}": [(f"L{i}a", 1), (f"L{i}b", 2)] for i in range(width)}
    model = node_model(leaves, None)
    frontier = synthesize_dp(model.component("N"), model)
    assert [s.label for s in frontier.solutions] == ["*".join(f"L{i}a" for i in range(width))]
    assert frontier.solutions[0].quality == QualityVector(4, (width, 0, 0))
    assert frontier.layers == (1,)


def test_identical_inputs_give_identical_ordering():
    model = random_node_model(123)
    node = model.component("N")
    a = synthesize_dp(node, model)
    b = synthesize_dp(node, model)
    assert [s.label for s in a.solutions] == [s.label for s in b.solutions]
    assert a.layers == b.layers


# ---------------------------------------------------------------------------
# fold: walk order
# ---------------------------------------------------------------------------

LADDER = [(6, 5), (7, 6), (8, 5), (9, 6), (10, 5), (10, 6), (16, 4)]
FIXTURES = ["arkticheskoe", "arkticheskoe_multiset", "kruzensternskoe", "yamal_region"]


def ladder_model(children, das):
    doc = generate_document(seed=1, children=children, das=das, zero_rate=0)
    return parse_model(json.dumps(doc)).model


def seeded_tree(seed):
    """A root without a table over two or three composites, each over
    two to four leaves with a random share of their pairs listed; one
    composite pins a priority for one of its selections."""
    rng = random.Random(seed)
    comps: dict[str, Component] = {}
    parts = []
    for p in range(rng.randint(2, 3)):
        part = f"P{p}"
        ids = []
        for i in range(rng.randint(2, 4)):
            cid = f"{part}L{i}"
            das = tuple(
                DesignAlternative(id=f"{cid}x{j}", priority=rng.randint(1, 3))
                for j in range(rng.randint(1, 4))
            )
            comps[cid] = Component(id=cid, das=das)
            ids.append([da.id for da in das])
        pairs = [
            (a, b, rng.choice((0, 1, 2, 3, 4, 4)))
            for x in range(len(ids))
            for y in range(x + 1, len(ids))
            for a in ids[x]
            for b in ids[y]
            if rng.random() < 0.7
        ]
        table = CompatibilityTable.from_pairs(pairs, default=rng.choice((1, 4)))
        children = tuple(f"{part}L{i}" for i in range(len(ids)))
        comps[part] = Component(id=part, children=children, compat=table)
        parts.append(part)
    pinned = PICK_SEPARATOR.join(rng.choice(comps[c].das).id for c in comps["P0"].children)
    comps["P0"] = replace(comps["P0"], priority_overrides={pinned: 1})
    comps["R"] = Component(id="R", children=tuple(parts))
    return MorphModel(scale=OrdinalScale(3, 4), root="R", components=comps)


def relabel(model, children, cid, label):
    """The label that selection ``label`` of ``cid`` carries once every
    composite walks its children in the order ``children`` gives."""
    comp = model.component(cid)
    if comp.is_leaf:
        return label
    tokens = label.split(PICK_SEPARATOR)
    segments = {}
    for child in comp.children:
        n = label_width(model, child)
        segments[child] = relabel(model, children, child, PICK_SEPARATOR.join(tokens[:n]))
        tokens = tokens[n:]
    return PICK_SEPARATOR.join(segments[child] for child in children[cid])


def label_width(model, cid):
    """Tokens in a label of ``cid``: one per leaf under it."""
    comp = model.component(cid)
    return 1 if comp.is_leaf else sum(label_width(model, child) for child in comp.children)


def permuted(model, children):
    """``model`` with each composite's children in the order
    ``children`` gives, its pinned labels renamed to match. A table
    over composite children would need its ids renamed too; none here
    has one."""
    comps = dict(model.components)
    for cid, comp in model.components.items():
        if comp.is_leaf:
            continue
        assert comp.compat is None or all(model.component(c).is_leaf for c in comp.children)
        overrides = {
            relabel(model, children, cid, label): prio
            for label, prio in comp.priority_overrides.items()
        }
        comps[cid] = replace(comp, children=children[cid], priority_overrides=overrides)
    return replace(model, components=comps)


def order_rows(frontier, name=lambda child, pick: pick, layer_at_most=None):
    """The frontier as sorted rows of (picks map, w, e, deviation,
    layer), each pick renamed by ``name``."""
    return sorted(
        (tuple(sorted((c, name(c, p)) for c, p in s.picks)), s.quality.w, s.quality.e, s.deviation, layer)
        for s, layer in zip(frontier.solutions, frontier.layers)
        if layer_at_most is None or layer <= layer_at_most
    )


def brute_layer_one(model, outcome):
    """Each node's layer 1 by full enumeration over the candidates that
    ``outcome`` offered it."""
    candidates = {
        cid: synthesis._retained_candidates(model.component(cid), model, frontier, None)
        for cid, frontier in outcome.frontiers.items()
    }
    return {
        cid: order_rows(
            pareto_filter(enumerate_admissible(model.component(cid), model, candidates)), layer_at_most=1
        )
        for cid in outcome.frontiers
    }


SHAPES = {
    **{name: lambda name=name: parse_model(fixture_text(name)).model for name in FIXTURES},
    **{f"c{c}-d{d}": lambda c=c, d=d: ladder_model(c, d) for c, d in LADDER},
}
ORDER_CASES = [pytest.param(make, id=name) for name, make in SHAPES.items()] + [
    pytest.param(lambda seed=seed: seeded_tree(seed), id=f"tree-{seed}") for seed in range(6)
]


@pytest.mark.parametrize("how", ["reversed", "most-candidates-first"])
@pytest.mark.parametrize("make", ORDER_CASES)
def test_the_fold_answer_does_not_depend_on_child_order(make, how):
    model = make()
    plain = hierarchical_synthesize(model, "dp")

    def count(child):
        comp = model.component(child)
        return len(comp.das) if comp.is_leaf else len(plain.frontiers[child].solutions)

    children = {
        cid: tuple(reversed(comp.children))
        if how == "reversed"
        else tuple(sorted(comp.children, key=count, reverse=True))
        for cid, comp in model.components.items()
        if not comp.is_leaf
    }
    assert any(children[cid] != model.component(cid).children for cid in children)
    shuffled = permuted(model, children)
    outcome = hierarchical_synthesize(shuffled, "dp")
    assert outcome.infeasible == plain.infeasible
    assert set(outcome.frontiers) == set(plain.frontiers)

    def name(child, pick):
        return relabel(model, children, child, pick)

    for cid, frontier in plain.frontiers.items():
        assert order_rows(outcome.frontiers[cid]) == order_rows(frontier, name), cid
    for cid, rows in brute_layer_one(shuffled, outcome).items():
        assert order_rows(outcome.frontiers[cid], layer_at_most=1) == rows, cid


# States the fold's cut is asked about over the whole tree, at most: the
# counts with the children walked fewest candidates first. Walked in
# declared order, these shapes asked 42-223.
FOLD_STATES = {
    "c6-d5": 55,
    "c7-d6": 28,
    "c8-d5": 33,
    "c9-d6": 30,
    "c10-d5": 40,
    "c10-d6": 40,
    "c16-d4": 114,
    "arkticheskoe": 48,
    "arkticheskoe_multiset": 26,
    "kruzensternskoe": 45,
    "yamal_region": 33,
}


@pytest.mark.parametrize("shape, most", FOLD_STATES.items(), ids=FOLD_STATES)
def test_the_fold_asks_its_cut_about_few_states(shape, most, monkeypatch):
    walk = synthesis.admissible_states
    asked = []

    def counted(node, model, cands, cut=None):
        assert cut is not None
        return walk(node, model, cands, lambda state: asked.append(state) or cut(state))

    monkeypatch.setattr(synthesis, "admissible_states", counted)
    hierarchical_synthesize(SHAPES[shape](), "dp")
    assert len(asked) <= most


# ---------------------------------------------------------------------------
# whole-tree runs
# ---------------------------------------------------------------------------


def test_field_level_composition_reproduces_the_six_plans(arkticheskoe):
    # Full retention (brute) plus the pinned rank of the named selection
    # E6*F6*G6*J6*I6 puts exactly the six all-best-rank combinations in
    # the field's efficient layer.
    outcome = hierarchical_synthesize(arkticheskoe.model, algorithm="brute")
    field = outcome.frontiers["A2"]
    layer1 = {s.label for s in field.layer(1)}
    w_parts = ["E6*F6*G6*J6*I6", "E3*F6*G3*J6*I3", "E6*F6*G3*J6*I3"]
    d_parts = ["P3*Q5", "P3*Q2"]
    expected = {f"{w}*{d}*B3" for w in w_parts for d in d_parts}
    assert layer1 == expected
    assert all(s.quality.w == 4 for s in field.layer(1))


def test_kruzensternskoe_field_contains_the_listed_plans(kruzensternskoe):
    outcome = hierarchical_synthesize(kruzensternskoe.model, algorithm="brute")
    field = outcome.frontiers["A4"]
    labels = {s.label for s in field.solutions}
    b1 = "E3*F3*G3*J6"
    h1 = "K6*L6*V5*O3*P6"
    h2 = "K6*L6*V5*O3*P2"
    assert f"{b1}*{h1}" in labels
    assert f"{b1}*{h2}" in labels


def test_single_leaf_model_passes_alternatives_through():
    model = node_model({"C": [("c1", 1), ("c2", 2)]}, None)
    comps = {"C": model.components["C"]}
    single = model.__class__(scale=model.scale, root="C", components=comps)
    outcome = hierarchical_synthesize(single)
    frontier = outcome.frontiers["C"]
    assert [s.label for s in frontier.solutions] == ["c1", "c2"]
    assert frontier.layers == (1, 2)


def infeasible_branch():
    """R over N (its only pair scores 0) and the feasible M."""
    path = Path(__file__).parent / "golden" / "infeasible_branch.json"
    return parse_model(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("algorithm", ["dp", "brute"])
@pytest.mark.parametrize(
    "name",
    ["arkticheskoe", "arkticheskoe_multiset", "kruzensternskoe", "yamal_region", "infeasible"],
)
def test_outcome_holds_each_composite_once_and_no_leaf(name, algorithm, monkeypatch):
    doc = infeasible_branch() if name == "infeasible" else parse_model(fixture_text(name))
    model = doc.model
    drawn = []
    monkeypatch.setattr(synthesis, "leaf_frontier", lambda comp, m: drawn.append(comp.id))
    outcome = hierarchical_synthesize(model, algorithm=algorithm)
    composites = {c.id for c in model.postorder() if not c.is_leaf}
    assert set(outcome.frontiers) | set(outcome.infeasible) == composites
    assert not set(outcome.frontiers) & set(outcome.infeasible)
    assert drawn == []
    assert bool(outcome.infeasible) == (name == "infeasible")


GOLDEN_DOCUMENTS = ["leaf_root", "infeasible_branch", "shared_ids"]


@pytest.mark.parametrize("layers", [None, 1])
@pytest.mark.parametrize("algorithm", ["dp", "brute"])
@pytest.mark.parametrize(
    "name",
    ["arkticheskoe", "arkticheskoe_multiset", "kruzensternskoe", "yamal_region", *GOLDEN_DOCUMENTS],
)
def test_the_root_offers_no_candidates(name, algorithm, layers, monkeypatch):
    # Retained solutions become a parent's alternatives; the root has
    # no parent, so nothing retains its solutions.
    if name in GOLDEN_DOCUMENTS:
        path = Path(__file__).parent / "golden" / f"{name}.json"
        model = parse_model(path.read_text(encoding="utf-8")).model
    else:
        model = parse_model(fixture_text(name)).model
    retained = []
    original = synthesis._retained_candidates

    def spy(comp, *args):
        retained.append(comp.id)
        return original(comp, *args)

    monkeypatch.setattr(synthesis, "_retained_candidates", spy)
    outcome = hierarchical_synthesize(model, algorithm=algorithm, max_layers=layers)
    assert model.root not in retained
    composites = {c.id for c in model.postorder() if not c.is_leaf}
    assert sorted(retained) == sorted(set(outcome.frontiers) & composites - {model.root})


def test_only_a_leaf_root_gets_a_leaf_frontier():
    model = node_model({"C": [("c1", 2), ("c2", 1)]}, None)
    single = model.__class__(scale=model.scale, root="C", components={"C": model.components["C"]})
    outcome = hierarchical_synthesize(single)
    assert (list(outcome.frontiers), outcome.infeasible) == (["C"], {})


@pytest.mark.parametrize("algorithm", ["dp", "brute"])
def test_empty_leaf_makes_its_parent_infeasible_with_a_reason(algorithm):
    model = node_model({"L": [], "A": [("a1", 1)]})
    outcome = hierarchical_synthesize(model, algorithm=algorithm)
    assert outcome.infeasible == {"N": "child 'L' offers no candidates"}


def test_infeasible_subtree_is_reported_and_propagates():
    model = node_model(
        {"A": [("a1", 1)], "B": [("b1", 1)]},
        [("a1", "b1", 0)],
    )
    comps = dict(model.components)
    comps["R"] = comps["N"].__class__(id="R", children=("N",))
    tree = model.__class__(scale=model.scale, root="R", components=comps)
    outcome = hierarchical_synthesize(tree)
    assert "N" in outcome.infeasible
    assert "R" in outcome.infeasible
    assert "N" in outcome.infeasible["R"] or "children" in outcome.infeasible["R"]


def test_layer_cap_limits_retained_candidates(arkticheskoe):
    outcome = hierarchical_synthesize(arkticheskoe.model, algorithm="brute", max_layers=1)
    field = outcome.frontiers["A2"]
    # With only layer-1 child solutions retained (and the pinned one
    # absent: it sits in a deeper layer), the field sees 2 W x 2 D x 2 B
    # combinations.
    assert len(field.solutions) == 8


@pytest.mark.parametrize("seed", range(20))
def test_tree_layer_one_agrees_across_algorithms_without_overrides(seed):
    # Two-level random tree: two composite parts over random leaves.
    import random as _random

    rng = _random.Random(10_000 + seed)
    comps = {}
    part_ids = []
    for p in range(2):
        leaf_ids = []
        for i in range(rng.randint(2, 3)):
            cid = f"P{p}L{i}"
            das = tuple(
                (f"{cid}x{j}", rng.randint(1, 3)) for j in range(rng.randint(1, 3))
            )
            leaf_ids.append((cid, das))
        pairs = []
        ids = [d for _, das in leaf_ids for d, _ in das]
        for a_i in range(len(ids)):
            for b_i in range(a_i + 1, len(ids)):
                pairs.append((ids[a_i], ids[b_i], rng.randint(0, 4)))
        sub = node_model(dict((cid, list(das)) for cid, das in leaf_ids), pairs, root=f"PART{p}")
        comps.update(sub.components)
        part_ids.append(f"PART{p}")
    root = comps["PART0"].__class__(id="ROOT", children=tuple(part_ids))
    comps["ROOT"] = root
    model = next(iter(comps.values()))  # placeholder for type
    from morphplan.model import MorphModel, OrdinalScale

    tree = MorphModel(scale=OrdinalScale(3, 4), root="ROOT", components=comps)
    brute = hierarchical_synthesize(tree, algorithm="brute")
    dp = hierarchical_synthesize(tree, algorithm="dp")
    assert set(brute.infeasible) == set(dp.infeasible)
    for node_id, frontier in brute.frontiers.items():
        if node_id in dp.frontiers:
            assert picks_set(dp.frontiers[node_id].layer(1)) == picks_set(
                frontier.layer(1)
            ), (seed, node_id)


@st.composite
def two_level_trees(draw):
    """A root over two or three composites, each over one to three
    leaves; every composite lists a random share of its pairs. No
    priority overrides."""
    comps: dict[str, Component] = {}
    parts = []
    for p in range(draw(st.integers(2, 3))):
        part = f"P{p}"
        ids = []
        for i in range(draw(st.integers(1, 3))):
            cid = f"{part}L{i}"
            das = tuple(
                DesignAlternative(id=f"{cid}x{j}", priority=draw(st.integers(1, 3)))
                for j in range(draw(st.integers(1, 3)))
            )
            comps[cid] = Component(id=cid, das=das)
            ids.append([da.id for da in das])
        pairs = [
            (a, b, draw(st.integers(0, 4)))
            for x in range(len(ids))
            for y in range(x + 1, len(ids))
            for a in ids[x]
            for b in ids[y]
            if draw(st.booleans())
        ]
        table = CompatibilityTable.from_pairs(pairs, default=draw(st.integers(0, 4)))
        children = tuple(f"{part}L{i}" for i in range(len(ids)))
        comps[part] = Component(id=part, children=children, compat=table)
        parts.append(part)
    root_default = draw(st.one_of(st.none(), st.integers(0, 4)))
    root_table = None if root_default is None else CompatibilityTable(default=root_default)
    comps["R"] = Component(id="R", children=tuple(parts), compat=root_table)
    return MorphModel(scale=OrdinalScale(3, 4), root="R", components=comps)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(two_level_trees())
def test_root_layer_one_agrees_across_algorithms_on_random_trees(tree):
    for max_layers in (None, 1, 2):
        brute = hierarchical_synthesize(tree, algorithm="brute", max_layers=max_layers)
        dp = hierarchical_synthesize(tree, algorithm="dp", max_layers=max_layers)
        assert ("R" in brute.frontiers) == ("R" in dp.frontiers), max_layers
        if "R" in brute.frontiers:
            assert picks_set(dp.frontiers["R"].layer(1)) == picks_set(
                brute.frontiers["R"].layer(1)
            ), max_layers


def shared_id_document(nested: bool) -> str:
    """S over A, B, C where A and B both offer an alternative ``x`` and
    the table lists only [x, c1]. With ``nested``, B is a single-child
    composite over L1, so B's synthesized label ``x`` collides with A's."""
    second = [{"id": "x", "priority": 2}, {"id": "b2", "priority": 2}]
    if nested:
        middle = [
            {"id": "L1", "kind": "leaf", "das": second},
            {"id": "B", "kind": "composite", "children": ["L1"]},
        ]
    else:
        middle = [{"id": "B", "kind": "leaf", "das": second}]
    return json.dumps(
        {
            "morph_schema": 1,
            "scale": {"l": 3, "nu": 4},
            "root": "S",
            "components": [
                {"id": "A", "kind": "leaf", "das": [{"id": "x", "priority": 1}, {"id": "a2", "priority": 2}]},
                *middle,
                {"id": "C", "kind": "leaf", "das": [{"id": "c1", "priority": 1}]},
                {
                    "id": "S",
                    "kind": "composite",
                    "children": ["A", "B", "C"],
                    "compat": {"default": 4, "pairs": [["x", "c1", 1]]},
                },
            ],
        }
    )


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("max_layers", [None, 1])
def test_fold_links_every_child_that_offers_a_listed_id(nested, max_layers):
    model = parse_model(shared_id_document(nested)).model
    brute = hierarchical_synthesize(model, algorithm="brute", max_layers=max_layers)
    dp = hierarchical_synthesize(model, algorithm="dp", max_layers=max_layers)
    layer_one = {s.label for s in dp.frontiers["S"].layer(1)}
    assert layer_one == {"a2*b2*c1", "x*b2*c1", "x*x*c1"}
    assert picks_set(dp.frontiers["S"].layer(1)) == picks_set(brute.frontiers["S"].layer(1))


def test_find_misses_a_selection_the_frontier_lacks(arkticheskoe):
    frontier = hierarchical_synthesize(arkticheskoe.model).frontiers["D"]
    assert frontier.find({"P": "P3", "Q": "Q5"}) is not None
    assert frontier.find({"P": "P3", "Q": "nope"}) is None


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda m: child_candidates(m.component("P"), m, None),
            SolutionError,
            "component P is a leaf; nothing to compose",
        ),
        (
            lambda m: child_candidates(m.component("A2"), m, {"D": ()}),
            SolutionError,
            "child 'W' of A2 is composite; synthesize it first or pass candidates",
        ),
        (
            lambda m: pareto_filter(
                [
                    CompositeSolution("W", (), QualityVector(1, (1, 0, 0))),
                    CompositeSolution("D", (), QualityVector(1, (1, 0, 0))),
                ]
            ),
            SolutionError,
            "solutions score different nodes: ['D', 'W']",
        ),
        (
            lambda m: hierarchical_synthesize(m, algorithm="greedy"),
            ValueError,
            "unknown algorithm 'greedy'",
        ),
    ],
    ids=["leaf-node", "composite-child", "mixed-nodes", "unknown-algorithm"],
)
def test_synthesis_refuses_a_malformed_call(arkticheskoe, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(arkticheskoe.model)
