"""Composition of admissible selections and Pareto-efficient frontiers.

Two interchangeable engines produce a node's frontier: full enumeration
of admissible selections, and a left-to-right fold over the children
that discards partial selections which can no longer reach the
efficient layer. Whole trees are solved bottom-up: the retained
solutions of a composite node become ranked candidates for its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .model import (
    Component,
    CompositeSolution,
    InfeasibleNodeError,
    InvalidComparisonError,
    MorphModel,
    QualityVector,
    SolutionError,
    cumulative,
)


@dataclass(frozen=True)
class Candidate:
    """A pickable option for one child: a leaf alternative or a
    previously synthesized solution offered under a label."""

    id: str
    priority: int
    estimate: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Frontier:
    """Solutions of one node, split into dominance layers.

    Layer 1 holds the non-dominated solutions; layer k+1 holds what
    becomes non-dominated once layers <= k are removed. ``layers`` is
    parallel to ``solutions``.
    """

    node: str
    solutions: tuple[CompositeSolution, ...]
    layers: tuple[int, ...]

    def layer(self, k: int) -> tuple[CompositeSolution, ...]:
        return tuple(s for s, l in zip(self.solutions, self.layers) if l == k)

    def layer_of(self, solution: CompositeSolution) -> int:
        for s, l in zip(self.solutions, self.layers):
            if s == solution:
                return l
        raise KeyError(solution.label)

    @property
    def max_layer(self) -> int:
        return max(self.layers, default=0)

    def find(self, picks: Mapping[str, str]) -> CompositeSolution | None:
        want = dict(picks)
        for s in self.solutions:
            if s.picks_map() == want:
                return s
        return None


def leaf_candidates(component: Component) -> tuple[Candidate, ...]:
    return tuple(
        Candidate(id=da.id, priority=da.priority, estimate=da.estimate)
        for da in component.das
    )


def _child_candidates(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[Candidate]] | None,
) -> list[tuple[str, tuple[Candidate, ...]]]:
    if node.is_leaf:
        raise SolutionError(f"component {node.id} is a leaf; nothing to compose")
    lists: list[tuple[str, tuple[Candidate, ...]]] = []
    for child_id in node.children:
        if candidates is not None and child_id in candidates:
            cands = tuple(candidates[child_id])
        else:
            child = model.component(child_id)
            if not child.is_leaf:
                raise SolutionError(
                    f"child {child_id!r} of {node.id} is composite; "
                    "synthesize it first or pass candidates"
                )
            cands = leaf_candidates(child)
        if not cands:
            raise InfeasibleNodeError(node.id, f"child {child_id!r} offers no candidates")
        lists.append((child_id, cands))
    return lists


def _quality(
    model: MorphModel, picks: Sequence[Candidate], w: int
) -> QualityVector:
    counts = [0] * model.scale.levels
    for cand in picks:
        counts[cand.priority - 1] += 1
    return QualityVector(w=w, e=tuple(counts))


def solution_sort_key(sol: CompositeSolution):
    """Report order: w desc, counts lexicographically desc, then label
    (and deviation asc where present) for reproducible output."""
    dev = sol.deviation if sol.deviation is not None else 0
    return (
        -sol.quality.w,
        tuple(-c for c in sol.quality.e),
        dev,
        tuple(pick for _, pick in sol.picks),
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_admissible(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[Candidate]] | None = None,
) -> list[CompositeSolution]:
    """All selections of one candidate per child with w >= 1.

    Prefixes hitting a zero-compatibility pair are cut immediately,
    so the walk touches only selections that can still be admissible.
    """
    lists = _child_candidates(node, model, candidates)
    nu = model.scale.max_compat
    out: list[CompositeSolution] = []
    chosen: list[Candidate] = []

    def extend(idx: int, w: int) -> None:
        if idx == len(lists):
            picks = tuple((lists[i][0], chosen[i].id) for i in range(len(chosen)))
            out.append(
                CompositeSolution(node=node.id, picks=picks, quality=_quality(model, chosen, w))
            )
            return
        for cand in lists[idx][1]:
            wv = w
            for prev in chosen:
                wv = min(wv, model.compat_value(node, prev.id, cand.id))
                if wv == 0:
                    break
            if wv == 0:
                continue
            chosen.append(cand)
            extend(idx + 1, wv)
            chosen.pop()

    extend(0, nu)
    out.sort(key=solution_sort_key)
    return out


# ---------------------------------------------------------------------------
# Dominance kernel
# ---------------------------------------------------------------------------

# A quality mapped to a tuple where higher is better in every coordinate,
# so dominance is componentwise >= and strict dominance adds "not equal".
QualityKey = tuple[int, ...]


def quality_key(sol: CompositeSolution) -> QualityKey:
    """(w, *prefix sums of e): (w; e) dominance is componentwise >=."""
    return (sol.quality.w, *cumulative(sol.quality.e))


def _dominates(a: QualityKey, b: QualityKey) -> bool:
    return all(x >= y for x, y in zip(a, b))


def _check_counts(counts: Iterable[Sequence[int]]) -> None:
    """Count vectors are comparable only at one length and one total."""
    shape: tuple[int, int] | None = None
    for e in counts:
        cur = (len(e), sum(e))
        if shape is None:
            shape = cur
        elif cur[0] != shape[0]:
            raise InvalidComparisonError(
                f"count vectors differ in length: {shape[0]} vs {cur[0]}"
            )
        elif cur[1] != shape[1]:
            raise InvalidComparisonError(
                f"count vectors differ in total: {shape[1]} vs {cur[1]}"
            )


def _key_layers(keys: Iterable[QualityKey]) -> dict[QualityKey, int]:
    """Dominance layer of each distinct key: one more than the deepest
    layer among the keys that strictly beat it.

    Lexicographically larger keys come first, so every strict
    dominator of a key is layered before it.
    """
    layer_of: dict[QualityKey, int] = {}
    for key in sorted(set(keys), reverse=True):
        layer_of[key] = 1 + max(
            (layer for k, layer in layer_of.items() if _dominates(k, key)), default=0
        )
    return layer_of


# ---------------------------------------------------------------------------
# Pareto layering
# ---------------------------------------------------------------------------


def peel_layers(
    solutions: Sequence[CompositeSolution],
    key: Callable[[CompositeSolution], QualityKey] = quality_key,
) -> tuple[tuple[CompositeSolution, ...], tuple[int, ...]]:
    """Assign dominance layers: layer 1 is the maximal set, layer k+1
    what becomes maximal once layers <= k are removed.

    A layer depends only on the quality, so the distinct qualities are
    peeled and the layers mapped back to the solutions. ``key`` must
    depend only on a solution's quality and deviation, and a key
    dominates another when it is componentwise >=. Raises
    InvalidComparisonError when the count vectors differ in length or
    total.
    """
    ordered = sorted(solutions, key=solution_sort_key)
    keys: dict[tuple[QualityVector, int | None], QualityKey] = {}
    for sol in ordered:
        q = (sol.quality, sol.deviation)
        if q not in keys:
            keys[q] = key(sol)
    _check_counts(q.e for q, _ in keys)
    layer_of = _key_layers(keys.values())
    return tuple(ordered), tuple(
        layer_of[keys[(s.quality, s.deviation)]] for s in ordered
    )


def pareto_filter(
    solutions: Sequence[CompositeSolution],
    key: Callable[[CompositeSolution], QualityKey] = quality_key,
) -> Frontier:
    """Layer a set of solutions of one node; layer 1 is the
    non-dominated set. ``key`` is as in ``peel_layers``."""
    nodes = {s.node for s in solutions}
    if len(nodes) > 1:
        raise SolutionError(f"solutions score different nodes: {sorted(nodes)}")
    for s in solutions:
        if s.quality.w < 1:
            raise SolutionError(f"inadmissible solution (w=0): {s.label}")
    ordered, layers = peel_layers(solutions, key)
    return Frontier(node=nodes.pop() if nodes else "", solutions=ordered, layers=layers)


# ---------------------------------------------------------------------------
# Fold-based synthesis
# ---------------------------------------------------------------------------


def synthesize_dp(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[Candidate]] | None = None,
) -> Frontier:
    """Fold the children left to right, keeping only partial selections
    that can still reach the efficient layer.

    A partial selection is discarded when another one agrees on every
    pick that can still influence a future compatibility lookup, has at
    least the same running w, and strictly better counts: every
    completion of the loser is then strictly dominated by the same
    completion of the winner. The layer-1 set equals full enumeration's;
    deeper layers may come back thinner.
    """
    lists = _child_candidates(node, model, candidates)
    n = len(lists)
    nu = model.scale.max_compat

    # linked[i][j]: the table names some pair between children i and j,
    # so the pick at i matters while j is still open. Default-valued
    # pairs are pick-independent and never pin a position.
    owner: dict[str, int] = {}
    for idx, (_, cands) in enumerate(lists):
        for cand in cands:
            owner[cand.id] = idx
    linked = [[False] * n for _ in range(n)]
    if node.compat is not None:
        for a, b in node.compat.entries:
            ia, ib = owner.get(a), owner.get(b)
            if ia is None or ib is None or ia == ib:
                continue
            linked[ia][ib] = linked[ib][ia] = True

    # state: (picks so far, running w, running counts)
    State = tuple[tuple[Candidate, ...], int, tuple[int, ...]]
    states: list[State] = [((), nu, (0,) * model.scale.levels)]
    for k, (_, cands) in enumerate(lists):
        grown: list[State] = []
        for picks, w, counts in states:
            for cand in cands:
                wv = w
                for prev in picks:
                    wv = min(wv, model.compat_value(node, prev.id, cand.id))
                    if wv == 0:
                        break
                if wv == 0:
                    continue
                cnt = list(counts)
                cnt[cand.priority - 1] += 1
                grown.append((picks + (cand,), wv, tuple(cnt)))
        keep_pos = [i for i in range(k + 1) if any(linked[i][j] for j in range(k + 1, n))]
        groups: dict[tuple[str, ...], list[State]] = {}
        for st in grown:
            key = tuple(st[0][i].id for i in keep_pos)
            groups.setdefault(key, []).append(st)
        states = []
        for group in groups.values():
            states.extend(_prune_group(group))

    solutions = [
        CompositeSolution(
            node=node.id,
            picks=tuple((lists[i][0], picks[i].id) for i in range(n)),
            quality=QualityVector(w=w, e=counts),
        )
        for picks, w, counts in states
    ]
    return pareto_filter(solutions)


def _prune_group(group: list) -> list:
    """Drop the states of an equivalence group whose (w; e) is strictly
    beaten by another distinct (w; e) in the group.

    Only strictly better counts may evict (with w at least as large):
    equal counts with larger w do not, because a later zero-free
    bottleneck can level the w values and leave both selections tied
    on the frontier. Each distinct quality is keyed and compared once.
    """
    if len(group) == 1:
        return group
    keys = {(w, e): (w, *cumulative(e)) for _, w, e in group}
    beaten = {
        q
        for q, a in keys.items()
        if any(b[1:] != a[1:] and _dominates(b, a) for b in keys.values())
    }
    return [st for st in group if (st[1], st[2]) not in beaten]


# ---------------------------------------------------------------------------
# Whole-tree synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesisOutcome:
    """Per-node frontiers plus the subtrees that turned out infeasible."""

    frontiers: dict[str, Frontier] = field(default_factory=dict)
    infeasible: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.infeasible


def leaf_frontier(component: Component, model: MorphModel) -> Frontier:
    """A leaf passes its alternatives through as single-pick solutions."""
    solutions = [
        CompositeSolution(
            node=component.id,
            picks=((component.id, da.id),),
            quality=QualityVector(
                w=model.scale.max_compat,
                e=tuple(
                    1 if i == da.priority - 1 else 0
                    for i in range(model.scale.levels)
                ),
            ),
        )
        for da in component.das
    ]
    return pareto_filter(solutions)


def hierarchical_synthesize(
    model: MorphModel,
    algorithm: str = "dp",
    max_layers: int | None = None,
) -> SynthesisOutcome:
    """Solve the whole tree bottom-up.

    Each composite node is synthesized from its children's retained
    solutions (layers 1..max_layers; all layers when unset). A retained
    solution is offered to the parent at priority = its layer, capped
    at the scale's worst level, unless the component pins a priority
    for that solution label. Leaf alternatives keep their own
    priorities. An infeasible node poisons its ancestors but leaves
    sibling subtrees reported.

    "brute" retains every admissible solution; "dp" retains only what
    the fold keeps, so its deeper layers can be thinner. Efficient
    layers agree under both everywhere, unless a priority override
    pins a dominated solution that only full retention still carries.
    """
    if algorithm not in ("dp", "brute"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    outcome = SynthesisOutcome()
    candidates: dict[str, tuple[Candidate, ...]] = {}

    for comp in model.postorder():
        if comp.is_leaf:
            outcome.frontiers[comp.id] = leaf_frontier(comp, model)
            candidates[comp.id] = leaf_candidates(comp)
            continue
        dead = [c for c in comp.children if c in outcome.infeasible]
        if dead:
            outcome.infeasible[comp.id] = f"infeasible children: {', '.join(dead)}"
            continue
        try:
            if algorithm == "dp":
                frontier = synthesize_dp(comp, model, candidates)
            else:
                frontier = pareto_filter(enumerate_admissible(comp, model, candidates))
        except InfeasibleNodeError as exc:
            outcome.infeasible[comp.id] = exc.reason
            continue
        if not frontier.solutions:
            outcome.infeasible[comp.id] = "no admissible selection"
            continue
        outcome.frontiers[comp.id] = frontier
        candidates[comp.id] = _retained_candidates(comp, model, frontier, max_layers)
    return outcome


def _retained_candidates(
    comp: Component,
    model: MorphModel,
    frontier: Frontier,
    max_layers: int | None,
) -> tuple[Candidate, ...]:
    levels = model.scale.levels
    retained: list[Candidate] = []
    for sol, layer in zip(frontier.solutions, frontier.layers):
        if max_layers is not None and layer > max_layers:
            continue
        priority = comp.priority_overrides.get(sol.label, min(layer, levels))
        retained.append(Candidate(id=sol.label, priority=priority))
    return tuple(retained)
