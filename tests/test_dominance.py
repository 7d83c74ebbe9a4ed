"""The dominance kernel against naive pairwise references: layer peeling,
the DOT cover relation and the shape guard."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan.estimates import generalized_median, multiset_synthesize
from morphplan.model import (
    CompositeSolution,
    InvalidComparisonError,
    QualityVector,
    n_dominates,
)
from morphplan.reporting import cover_edges, frontier_dot
from morphplan.synthesis import pareto_filter, peel_layers
from tests.conftest import node_model

# Fixed examples, so a run is reproducible; no example database on disk.
kernel_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# Strategies: small ranges, so equal qualities and ties are frequent
# ---------------------------------------------------------------------------


def counts(levels: int, total: int):
    """Count vectors of ``levels`` entries summing to ``total``."""
    cuts = st.lists(st.integers(0, total), min_size=levels - 1, max_size=levels - 1)
    return cuts.map(lambda cs: _split(sorted(cs), total))


def _split(cuts: list[int], total: int) -> tuple[int, ...]:
    bounds = [0, *cuts, total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def qualities(draw, min_size: int = 1, max_size: int = 14):
    levels = draw(st.integers(1, 4))
    total = draw(st.integers(1, 4))
    item = st.tuples(st.integers(1, 4), counts(levels, total))
    return draw(st.lists(item, min_size=min_size, max_size=max_size))


def sol(label, w, e, dev=None):
    return CompositeSolution(
        node="N", picks=(("N", label),), quality=QualityVector(w, e), deviation=dev
    )


@st.composite
def solution_sets(draw, deviation: bool = False):
    return [
        sol(f"s{i}", w, e, draw(st.integers(0, 3)) if deviation else None)
        for i, (w, e) in enumerate(draw(qualities()))
    ]


# ---------------------------------------------------------------------------
# Pairwise references
# ---------------------------------------------------------------------------


def pairwise_peel(solutions, dominates):
    """Repeatedly remove the maximal set, comparing every pair."""
    ordered = sorted(solutions, key=lambda s: (
        -s.quality.w, tuple(-c for c in s.quality.e), s.deviation or 0, s.label
    ))
    layer_of = {}
    remaining = list(range(len(ordered)))
    layer = 0
    while remaining:
        layer += 1
        front = [
            i for i in remaining
            if not any(
                dominates(ordered[j], ordered[i]) and not dominates(ordered[i], ordered[j])
                for j in remaining
            )
        ]
        for i in front:
            layer_of[i] = layer
        remaining = [i for i in remaining if i not in front]
    return tuple(ordered), tuple(layer_of[i] for i in range(len(ordered)))


def ordinal_dominates(a, b):
    return n_dominates(a.quality, b.quality)


def median_dominates(a, b):
    return ordinal_dominates(a, b) and a.deviation <= b.deviation


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


# Deeper than the strategies reach: 30 layers of one key, one layer of
# 30 keys, and 5 layers of 6 keys (key (1 + b, 14 - b - 2a) is on layer
# a + 1), so the peel's search over layers lands on the first layer, on
# a middle one and past the last.
def deep_layer_sets(dev=None):
    chain = [sol(f"c{i}", 30 - i, (1, 0), dev) for i in range(30)]
    antichain = [sol(f"a{i}", i + 1, (29 - i, i), dev) for i in range(30)]
    layered = [
        sol(f"l{a}-{b}", 1 + b, (14 - b - 2 * a, b + 2 * a), dev)
        for a in range(5)
        for b in range(6)
    ]
    return chain, antichain, layered


CHAIN, ANTICHAIN, LAYERED = deep_layer_sets()
DEV_CHAIN, DEV_ANTICHAIN, DEV_LAYERED = deep_layer_sets(dev=0)


@kernel_settings
@given(solution_sets())
@example([sol("x", 2, (1, 0))])
@example([sol("x", 2, (1, 0)), sol("y", 2, (1, 0)), sol("z", 3, (0, 1))])
@example(CHAIN)
@example(ANTICHAIN)
@example(LAYERED)
def test_kernel_peel_matches_pairwise_peel(solutions):
    got = peel_layers(solutions)
    assert got == pairwise_peel(solutions, ordinal_dominates)
    assert peel_layers(list(reversed(solutions))) == got


@kernel_settings
@given(solution_sets(deviation=True))
@example([sol("x", 2, (1, 0), 1)])
@example([sol("x", 2, (1, 0), 1), sol("y", 2, (1, 0), 1), sol("z", 2, (1, 0), 0)])
@example([sol(f"d{i}", 2, (1, 0), i) for i in range(30)])
@example(DEV_CHAIN)
@example(DEV_ANTICHAIN)
@example(DEV_LAYERED)
def test_kernel_peel_matches_pairwise_peel_with_deviation(solutions):
    got = peel_layers(solutions)
    assert got == pairwise_peel(solutions, median_dominates)
    assert peel_layers(list(reversed(solutions))) == got


def test_deep_layer_sets_reach_their_depths():
    assert peel_layers(CHAIN)[1] == tuple(range(1, 31))
    assert peel_layers(ANTICHAIN)[1] == (1,) * 30
    assert sorted(peel_layers(LAYERED)[1]) == [a for a in range(1, 6) for _ in range(6)]


def test_peel_orders_one_quality_by_pick_ids():
    q = QualityVector(2, (1, 1))
    az = CompositeSolution(node="N", picks=(("A", "a"), ("B", "z")), quality=q)
    ab = CompositeSolution(node="N", picks=(("A", "a!"), ("B", "b")), quality=q)
    # By label, "a!*b" would come first: "!" sorts before "*".
    assert ab.label < az.label
    for solutions in ([az, ab], [ab, az]):
        assert peel_layers(solutions) == ((az, ab), (1, 1))


@kernel_settings
@given(solution_sets(deviation=True), st.integers(0, 20))
def test_mixed_deviation_and_plain_solutions_raise(solutions, where):
    solutions = list(solutions)
    q = solutions[0].quality
    solutions.insert(where % (len(solutions) + 1), sol("plain", q.w, q.e))
    with pytest.raises(InvalidComparisonError):
        peel_layers(solutions)
    with pytest.raises(InvalidComparisonError):
        pareto_filter(solutions)


def test_frontier_dot_draws_each_deviation_of_one_quality():
    frontier = pareto_filter([sol("x", 2, (1, 0), 0), sol("y", 2, (1, 0), 1)])
    assert frontier.layers == (1, 2)
    dot = frontier_dot(frontier)
    assert '  n0 [label="x\\n(2;1,0) dev=0"];' in dot
    assert '  n1 [label="y\\n(2;1,0) dev=1"];' in dot
    assert [line for line in dot.splitlines() if "->" in line] == ["  n0 -> n1;"]


@kernel_settings
@given(qualities(max_size=10))
def test_cover_edges_is_the_transitive_reduction_of_strict_dominance(items):
    qs = list(dict.fromkeys(QualityVector(w, e) for w, e in items))
    beats = {
        (i, j) for i, a in enumerate(qs) for j, b in enumerate(qs) if a.strictly_dominates(b)
    }
    implied = {(i, j) for i, k in beats for k2, j in beats if k == k2}
    keys = [(q.w, *accumulate(q.e)) for q in qs]
    assert cover_edges(keys) == sorted(beats - implied)


@kernel_settings
@given(
    solution_sets(),
    st.sampled_from(["longer", "heavier"]),
    st.integers(0, 20),
)
def test_mixed_shape_counts_raise(solutions, change, where):
    e = solutions[0].quality.e
    odd = e + (0,) if change == "longer" else (e[0] + 1, *e[1:])
    solutions = list(solutions)
    solutions.insert(where % (len(solutions) + 1), sol("odd", 1, odd))
    with pytest.raises(InvalidComparisonError):
        pareto_filter(solutions)
    estimates = [s.quality.e for s in solutions]
    with pytest.raises(InvalidComparisonError):
        generalized_median(estimates)
    # One child offering every vector as an estimate.
    ids = [f"a{i}" for i in range(len(estimates))]
    model = node_model(
        {"A": [(i, 1) for i in ids]},
        None,
        levels=max(len(e) for e in estimates),
        estimates=dict(zip(ids, estimates)),
    )
    with pytest.raises(InvalidComparisonError):
        multiset_synthesize(model.component("N"), model)

