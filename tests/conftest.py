"""Shared builders: quick single-node models and seeded random instances."""

from __future__ import annotations

import random
from itertools import product
from math import prod
from typing import Sequence

import pytest

from morphplan.analysis import ImprovementAction, apply_improvement
from morphplan.estimates import Estimate, MedianResult, _edits, enumerate_estimates
from morphplan.fixtures import fixture_text
from morphplan.model import (
    CompatibilityTable,
    Component,
    CompositeSolution,
    DesignAlternative,
    MorphModel,
    OrdinalScale,
    check_counts,
    cumulative,
    e_dominates,
    system_quality,
)
from morphplan.modeldoc import parse_model


def node_model(
    leaves: dict[str, list[tuple[str, int]]],
    pairs: list[tuple[str, str, int]] | None = None,
    default: int = 0,
    levels: int = 3,
    max_compat: int = 4,
    root: str = "N",
    estimates: dict[str, tuple[int, ...]] | None = None,
) -> MorphModel:
    """One composite root over the given leaves. ``pairs`` of None means
    no table at all (every pair fully compatible)."""
    comps: dict[str, Component] = {}
    for cid, das in leaves.items():
        comps[cid] = Component(
            id=cid,
            das=tuple(
                DesignAlternative(
                    id=did,
                    priority=prio,
                    estimate=(estimates or {}).get(did),
                )
                for did, prio in das
            ),
        )
    table = None
    if pairs is not None:
        table = CompatibilityTable.from_pairs(pairs, default=default)
    comps[root] = Component(id=root, children=tuple(leaves), compat=table)
    return MorphModel(
        scale=OrdinalScale(levels=levels, max_compat=max_compat),
        root=root,
        components=comps,
    )


def random_node_model(seed: int, max_children: int = 6, max_das: int = 6) -> MorphModel:
    """Seeded random single-node instance, capped so brute force stays fast."""
    rng = random.Random(seed)
    m = rng.randint(2, max_children)
    while True:
        counts = [rng.randint(1, max_das) for _ in range(m)]
        if prod(counts) <= 4000:
            break
    leaves = {
        f"C{i}": [(f"C{i}x{j}", rng.randint(1, 3)) for j in range(counts[i])]
        for i in range(m)
    }
    pairs = []
    ids = {cid: [did for did, _ in das] for cid, das in leaves.items()}
    cids = list(leaves)
    for i in range(m):
        for j in range(i + 1, m):
            for a in ids[cids[i]]:
                for b in ids[cids[j]]:
                    if rng.random() < 0.9:  # leave some pairs to the default
                        value = 0 if rng.random() < 0.15 else rng.randint(1, 4)
                        pairs.append((a, b, value))
    default = rng.choice([0, 1, 4])
    return node_model(leaves, pairs, default=default)


def bottlenecks_by_rebuild(solution: CompositeSolution, model: MorphModel) -> list:
    """Reference for ``bottlenecks``: the same actions, each scored by
    rebuilding the model with ``apply_improvement`` and scoring the
    solution again, in the same rank order."""
    node = model.component(solution.node)
    base = system_quality(solution.picks_map(), node, model)
    drafts = [
        ("da-upgrade", cid, pick, da.priority, da.priority - 1)
        for cid, pick in solution.picks
        if (da := model.component(cid).da(pick)).priority >= 2
    ]
    if base.w < model.scale.max_compat:
        ids = [pick for _, pick in solution.picks]
        keys = dict.fromkeys(
            CompatibilityTable.key(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        )
        drafts += [
            ("edge-upgrade", node.id, key, base.w, base.w + 1)
            for key in keys
            if model.compat_value(node, *key) == base.w
        ]
    actions = []
    for draft in drafts:
        changed = apply_improvement(model, ImprovementAction(*draft, new_quality=None))
        quality = system_quality(solution.picks_map(), changed.component(node.id), changed)
        actions.append(ImprovementAction(*draft, new_quality=quality))

    def rank(action):
        new = action.new_quality
        target = action.target if isinstance(action.target, str) else ",".join(action.target)
        return (
            not new.strictly_dominates(base),
            base.w - new.w,
            sum(cumulative(base.e)) - sum(cumulative(new.e)),
            action.kind,
            target,
        )

    return sorted(actions, key=rank)


def kernel_by_dicts(solutions: Sequence[CompositeSolution], threshold: float) -> tuple:
    """Reference for ``kernel``: (kernel, superstructure) from each
    solution's picks looked up by child id."""
    maps = [sol.picks_map() for sol in solutions]
    agreed, union = {}, {}
    for child in maps[0]:
        picks = [m[child] for m in maps]
        union[child] = tuple(sorted(set(picks)))
        best = max(union[child], key=picks.count)
        if picks.count(best) / len(maps) >= threshold:
            agreed[child] = best
    return agreed, union


def admissible_by_product(node: Component, model: MorphModel) -> list:
    """Reference for the admissible walk: every selection of one
    alternative per leaf child, from ``itertools.product``, scored by
    ``system_quality`` and kept when w >= 1. Each entry is
    (picks, quality, picked alternatives)."""
    children = [model.component(cid) for cid in node.children]
    out = []
    for das in product(*(child.das for child in children)):
        picks = tuple((child.id, da.id) for child, da in zip(children, das))
        quality = system_quality(dict(picks), node, model)
        if quality.w >= 1:
            out.append((picks, quality, das))
    return out


def unbeaten_by_pairs(solutions: Sequence[CompositeSolution]) -> list[CompositeSolution]:
    """Reference for the fold's rule: the solutions whose (w; e) no
    other distinct (w; e) among them strictly beats, compared pairwise.
    A quality beats another when its w is at least as large and its
    counts e-dominate and differ, so a loss on w alone is no loss."""
    qualities = {(s.quality.w, s.quality.e) for s in solutions}
    beaten = {
        (w, e)
        for w, e in qualities
        if any(w2 >= w and e2 != e and e_dominates(e2, e) for w2, e2 in qualities)
    }
    return [s for s in solutions if (s.quality.w, s.quality.e) not in beaten]


def median_by_scan(
    observed: Sequence[Estimate],
    enforce_gap_rule: bool = True,
    metric: str = "max",
) -> MedianResult:
    """Reference for ``generalized_median``: scan every estimate of the
    shape from ``enumerate_estimates``, keeping all co-minimal ones in
    the domain's best-first order."""
    if not observed:
        raise ValueError("median of an empty observation set")
    if metric not in ("max", "sum"):
        raise ValueError(f"unknown metric {metric!r}")
    check_counts(observed)
    levels, eta = len(observed[0]), sum(observed[0])
    observed_sums = [cumulative(est) for est in observed]
    by_max = metric == "max"

    best: list[Estimate] = []
    best_total: int | None = None
    for candidate in enumerate_estimates(levels, eta, enforce_gap_rule):
        sums = cumulative(candidate)
        t = 0
        for other in observed_sums:
            up, down = _edits(sums, other)
            t += max(up, down) if by_max else up + down
        if best_total is None or t < best_total:
            best_total = t
            best = [candidate]
        elif t == best_total:
            best.append(candidate)
    assert best_total is not None
    return MedianResult(estimates=tuple(best), deviation=best_total)


@pytest.fixture(scope="session")
def arkticheskoe():
    return parse_model(fixture_text("arkticheskoe"))


@pytest.fixture(scope="session")
def kruzensternskoe():
    return parse_model(fixture_text("kruzensternskoe"))


@pytest.fixture(scope="session")
def yamal_region():
    return parse_model(fixture_text("yamal_region"))


@pytest.fixture(scope="session")
def arkticheskoe_multiset():
    return parse_model(fixture_text("arkticheskoe_multiset"))
