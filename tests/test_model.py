"""Quality-order laws and scoring of pick sets."""

from __future__ import annotations

import itertools
import random

import pytest

from morphplan.model import (
    CompatibilityTable,
    Component,
    DesignAlternative,
    InvalidComparisonError,
    MorphModel,
    OrdinalScale,
    QualityVector,
    SolutionError,
    e_dominates,
    n_dominates,
    system_quality,
    validate_model,
)
from tests.conftest import node_model


def vectors(levels: int, total: int):
    """All count vectors of the given shape."""
    if levels == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in vectors(levels - 1, total - first):
            out.append((first,) + rest)
    return out


def degrade_steps(e: tuple[int, ...]):
    """One-step degradations: move one counted pick a level down."""
    for i in range(len(e) - 1):
        if e[i] > 0:
            worse = list(e)
            worse[i] -= 1
            worse[i + 1] += 1
            yield tuple(worse)


def reachable_by_degradation(start: tuple[int, ...]) -> set[tuple[int, ...]]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for worse in degrade_steps(e):
                if worse not in seen:
                    seen.add(worse)
                    nxt.append(worse)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# e-dominance
# ---------------------------------------------------------------------------


def test_e_dominates_edge_and_incomparability():
    assert e_dominates((3, 0, 0), (2, 1, 0))
    assert not e_dominates((2, 0, 1), (1, 2, 0))
    assert not e_dominates((1, 2, 0), (2, 0, 1))
    assert e_dominates((1, 1, 1), (1, 1, 1))


def test_e_dominates_rejects_shape_mismatch():
    with pytest.raises(InvalidComparisonError):
        e_dominates((1, 0), (1, 0, 0))
    with pytest.raises(InvalidComparisonError):
        e_dominates((2, 0, 0), (1, 0, 0))


@pytest.mark.parametrize("levels,total", [(3, 3), (3, 5), (4, 4), (4, 6)])
def test_e_dominates_is_a_partial_order(levels, total):
    vs = vectors(levels, total)
    dom = {(a, b): e_dominates(a, b) for a in vs for b in vs}
    for a in vs:
        assert dom[(a, a)]
    for a in vs:
        for b in vs:
            if dom[(a, b)] and dom[(b, a)]:
                assert a == b
    if len(vs) <= 30:  # cubic check only at the small sizes
        for a in vs:
            for b in vs:
                if not dom[(a, b)]:
                    continue
                for c in vs:
                    if dom[(b, c)]:
                        assert dom[(a, c)]


@pytest.mark.parametrize("levels,total", [(3, 4), (3, 6), (4, 5), (4, 6)])
def test_e_dominates_equals_degradation_reachability(levels, total):
    # Independent oracle: dominance must coincide with reachability via
    # single-pick degradations (which also implies transitivity).
    vs = vectors(levels, total)
    for a in vs:
        reach = reachable_by_degradation(a)
        for b in vs:
            assert e_dominates(a, b) == (b in reach), (a, b)


def test_n_dominates_examples():
    assert n_dominates(QualityVector(3, (1, 1, 1)), QualityVector(2, (1, 1, 1)))
    s1, s2 = QualityVector(3, (1, 1, 1)), QualityVector(1, (3, 0, 0))
    assert not n_dominates(s1, s2)
    assert not n_dominates(s2, s1)
    assert n_dominates(QualityVector(2, (2, 1, 0)), QualityVector(2, (2, 1, 0)))


# ---------------------------------------------------------------------------
# system_quality
# ---------------------------------------------------------------------------


def test_system_quality_reference_selections(arkticheskoe, kruzensternskoe):
    m = arkticheskoe.model
    w3 = system_quality(
        {"E": "E6", "F": "F6", "G": "G3", "J": "J6", "I": "I3"},
        m.component("W"),
        m,
    )
    assert (w3.w, w3.e) == (3, (4, 1, 0))
    d2 = system_quality({"P": "P3", "Q": "Q2"}, m.component("D"), m)
    assert (d2.w, d2.e) == (3, (2, 0, 0))

    k = kruzensternskoe.model
    h1 = system_quality(
        {"K": "K6", "L": "L6", "V": "V5", "O": "O3", "P": "P6"},
        k.component("H"),
        k,
    )
    assert (h1.w, h1.e) == (4, (4, 1, 0))


def test_system_quality_single_child_scores_top_compat():
    model = node_model({"C": [("c1", 2)]})
    q = system_quality({"C": "c1"}, model.component("N"), model)
    assert (q.w, q.e) == (4, (0, 1, 0))


def test_system_quality_errors():
    model = node_model({"A": [("a1", 1)], "B": [("b1", 1)]}, [("a1", "b1", 2)])
    node = model.component("N")
    with pytest.raises(SolutionError):
        system_quality({"A": "a1"}, node, model)
    with pytest.raises(SolutionError):
        system_quality({"A": "a1", "B": "nope"}, node, model)


def test_system_quality_rejects_a_leaf_and_a_non_child_pick():
    model = node_model({"A": [("a1", 1)], "B": [("b1", 1)]}, [("a1", "b1", 2)])
    with pytest.raises(SolutionError, match="component A is a leaf"):
        system_quality({}, model.component("A"), model)
    with pytest.raises(SolutionError, match=r"picks name non-children of N: \['C'\]"):
        system_quality({"A": "a1", "B": "b1", "C": "c1"}, model.component("N"), model)


def test_system_quality_invariant_under_child_order():
    rng = random.Random(5)
    for trial in range(20):
        leaves = {
            f"C{i}": [(f"C{i}x{j}", rng.randint(1, 3)) for j in range(rng.randint(1, 3))]
            for i in range(3)
        }
        ids = [did for das in leaves.values() for did, _ in das]
        pairs = [
            (a, b, rng.randint(1, 4))
            for a, b in itertools.combinations(ids, 2)
        ]
        model = node_model(leaves, pairs)
        picks = {cid: das[rng.randrange(len(das))][0] for cid, das in leaves.items()}
        q1 = system_quality(picks, model.component("N"), model)
        shuffled = Component(
            id="N2", children=tuple(reversed(list(leaves))), compat=model.component("N").compat
        )
        comps = dict(model.components)
        comps["N2"] = shuffled
        model2 = MorphModel(scale=model.scale, root="N", components=comps)
        q2 = system_quality(picks, shuffled, model2)
        assert q1 == q2


def test_w_never_increases_when_a_child_is_added():
    rng = random.Random(11)
    for trial in range(30):
        n_children = rng.randint(2, 4)
        leaves = {
            f"C{i}": [(f"C{i}x{j}", rng.randint(1, 3)) for j in range(rng.randint(1, 3))]
            for i in range(n_children)
        }
        ids = [did for das in leaves.values() for did, _ in das]
        pairs = [(a, b, rng.randint(0, 4)) for a, b in itertools.combinations(ids, 2)]
        full = node_model(leaves, pairs)
        picks = {cid: das[rng.randrange(len(das))][0] for cid, das in leaves.items()}
        w_full = system_quality(picks, full.component("N"), full).w

        smaller = dict(list(leaves.items())[:-1])
        sub = node_model(smaller, pairs)
        sub_picks = {cid: picks[cid] for cid in smaller}
        w_sub = system_quality(sub_picks, sub.component("N"), sub).w
        assert w_full <= w_sub


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_postorder_visits_children_first_in_child_order(arkticheskoe, kruzensternskoe, yamal_region):
    def walk(model, cid):
        for child in model.components[cid].children:
            yield from walk(model, child)
        yield cid

    for doc in (arkticheskoe, kruzensternskoe, yamal_region):
        model = doc.model
        assert [c.id for c in model.postorder()] == list(walk(model, model.root))
    # Deeper than the recursion limit.
    depth = 3000
    comps = {"L": Component(id="L", das=(DesignAlternative(id="x", priority=1),))}
    for k in range(depth):
        comps[f"K{k}"] = Component(id=f"K{k}", children=(f"K{k - 1}" if k else "L",))
    chain = MorphModel(scale=OrdinalScale(3, 4), root=f"K{depth - 1}", components=comps)
    assert [c.id for c in chain.postorder()] == ["L", *(f"K{k}" for k in range(depth))]


def test_bundled_fixtures_validate(arkticheskoe, kruzensternskoe, yamal_region, arkticheskoe_multiset):
    for doc in (arkticheskoe, kruzensternskoe, yamal_region, arkticheskoe_multiset):
        assert validate_model(doc.model).ok


def test_validate_flags_priority_out_of_range():
    scale = OrdinalScale(levels=3, max_compat=4)
    comps = {
        "L": Component(id="L", das=(DesignAlternative(id="x", priority=0),)),
        "N": Component(id="N", children=("L",)),
    }
    report = validate_model(MorphModel(scale=scale, root="N", components=comps))
    assert any(v.code == "priority-range" for v in report.violations)


def test_validate_flags_intra_child_pair():
    scale = OrdinalScale(levels=3, max_compat=4)
    comps = {
        "L": Component(
            id="L",
            das=(DesignAlternative("x", 1), DesignAlternative("y", 1)),
        ),
        "M": Component(id="M", das=(DesignAlternative("z", 1),)),
        "N": Component(
            id="N",
            children=("L", "M"),
            compat=CompatibilityTable.from_pairs([("x", "y", 2)]),
        ),
    }
    report = validate_model(MorphModel(scale=scale, root="N", components=comps))
    assert any(v.code == "compat-intra-child" for v in report.violations)


def shared_id_model(order, pair):
    """A{x, a2, a3} and B{x, b2} under S: both leaves offer the id x."""
    scale = OrdinalScale(levels=3, max_compat=4)
    comps = {
        "A": Component(
            id="A",
            das=(DesignAlternative("x", 1), DesignAlternative("a2", 2), DesignAlternative("a3", 1)),
        ),
        "B": Component(id="B", das=(DesignAlternative("x", 1), DesignAlternative("b2", 2))),
        "S": Component(
            id="S",
            children=order,
            compat=CompatibilityTable.from_pairs([pair], default=4),
        ),
    }
    return MorphModel(scale=scale, root="S", components=comps)


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
def test_validate_pair_on_shared_id_is_independent_of_child_order(order):
    # [x, a2] also joins B's x with A's a2, so it is not intra-child.
    assert validate_model(shared_id_model(order, ("x", "a2", 3))).ok


@pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
@pytest.mark.parametrize(
    "pair, code",
    [(("a2", "a3", 3), "compat-intra-child"), (("a2", "zz", 3), "compat-reference")],
)
def test_validate_flags_pair_one_child_offers_in_either_order(order, pair, code):
    report = validate_model(shared_id_model(order, pair))
    assert [v.code for v in report.violations] == [code]


def test_validate_flags_shape_problems():
    scale = OrdinalScale(levels=3, max_compat=4)
    comps = {
        "L": Component(id="L"),  # leaf with no alternatives
        "N": Component(id="N", children=("L", "ghost")),
        "orphan": Component(id="orphan", das=(DesignAlternative("o", 1),)),
    }
    report = validate_model(MorphModel(scale=scale, root="N", components=comps))
    codes = {v.code for v in report.violations}
    assert {"empty-leaf", "child-missing", "unreachable"} <= codes


def test_validate_flags_compat_value_out_of_range():
    model = node_model({"A": [("a1", 1)], "B": [("b1", 1)]}, [("a1", "b1", 9)])
    report = validate_model(model)
    assert any(v.code == "compat-range" for v in report.violations)
