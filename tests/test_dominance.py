"""The dominance kernel against naive pairwise references: layer peeling,
fold-group pruning, the DOT cover relation and the shape guard."""

from __future__ import annotations

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan.estimates import _median_key
from morphplan.model import (
    CompositeSolution,
    InvalidComparisonError,
    QualityVector,
    e_dominates,
    n_dominates,
)
from morphplan.reporting import cover_edges
from morphplan.synthesis import _prune_group, pareto_filter, peel_layers

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


@kernel_settings
@given(solution_sets())
@example([sol("x", 2, (1, 0))])
@example([sol("x", 2, (1, 0)), sol("y", 2, (1, 0)), sol("z", 3, (0, 1))])
def test_kernel_peel_matches_pairwise_peel(solutions):
    assert peel_layers(solutions) == pairwise_peel(solutions, ordinal_dominates)


@kernel_settings
@given(solution_sets(deviation=True))
@example([sol("x", 2, (1, 0), 1)])
@example([sol("x", 2, (1, 0), 1), sol("y", 2, (1, 0), 1), sol("z", 2, (1, 0), 0)])
def test_kernel_peel_matches_pairwise_peel_with_deviation(solutions):
    got = peel_layers(solutions, key=_median_key)
    assert got == pairwise_peel(solutions, median_dominates)


@kernel_settings
@given(qualities(max_size=20))
def test_prune_group_keeps_what_the_pairwise_rule_keeps(items):
    group = [((f"p{i}",), w, e) for i, (w, e) in enumerate(items)]
    expected = [
        (picks, w, e)
        for picks, w, e in group
        if not any(
            w2 >= w and e2 != e and e_dominates(e2, e) for _, w2, e2 in group
        )
    ]
    assert _prune_group(group) == expected


@kernel_settings
@given(qualities(max_size=10))
def test_cover_edges_is_the_transitive_reduction_of_strict_dominance(items):
    qs = list(dict.fromkeys(QualityVector(w, e) for w, e in items))
    beats = {
        (i, j) for i, a in enumerate(qs) for j, b in enumerate(qs) if a.strictly_dominates(b)
    }
    implied = {(i, j) for i, k in beats for k2, j in beats if k == k2}
    keys = [(q.w, *accumulate(q.e)) for q in qs]
    assert set(cover_edges(keys)) == beats - implied


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

