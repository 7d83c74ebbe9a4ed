"""Bottleneck analysis of composite solutions and agreement structure
of solution sets.

A solution can be improved one step at a time: promote a pick whose
priority is below the best grade, or raise a compatibility entry that
attains the solution's bottleneck w. Each candidate action carries the
quality the solution would have after it, worked out from the
solution's own (w; e); ``apply_improvement`` is the what-if API that
applies an action to a copy of the model. Across a set of solutions,
the kernel is what they all agree on and the superstructure is
everything any of them uses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Literal, Mapping, Sequence

from .model import (
    CompatibilityTable,
    Component,
    CompositeSolution,
    MorphError,
    MorphModel,
    QualityVector,
    SolutionError,
)


class ImprovementError(MorphError, ValueError):
    """An improvement action does not apply to the model."""


@dataclass(frozen=True)
class ImprovementAction:
    """A single one-step change: promote one alternative's priority
    (``da-upgrade``, before -> before-1) or raise one bottleneck
    compatibility entry (``edge-upgrade``, before -> before+1).
    ``component`` owns the edited value: the child for a priority
    change, the composed node for an edge change."""

    kind: Literal["da-upgrade", "edge-upgrade"]
    component: str
    target: str | tuple[str, str]
    before: int
    after: int
    new_quality: QualityVector

    def describe(self) -> str:
        if self.kind == "da-upgrade":
            return f"{self.target}: {self.before} => {self.after}"
        a, b = self.target  # type: ignore[misc]
        return f"({a},{b}): {self.before} => {self.after}"


@dataclass(frozen=True)
class KernelReport:
    """Agreed picks (kernel) and union of picks (superstructure) over a
    solution set, both keyed by child component."""

    node: str
    kernel: Mapping[str, str]
    superstructure: Mapping[str, tuple[str, ...]]


# ---------------------------------------------------------------------------
# Bottlenecks
# ---------------------------------------------------------------------------


def bottlenecks(
    solution: CompositeSolution, model: MorphModel
) -> list[ImprovementAction]:
    """Improvement actions for one solution.

    One da-upgrade per pick ranked 2 or worse, and one edge-upgrade per
    table pair (a sorted pair of pick ids, which sibling leaves offering
    one id share) whose compatibility attains w while w is below the
    scale top. Each action's quality follows from the (w; e) that the
    solution carries, which must be its true quality: a da-upgrade
    moves one count from level p to p-1, an edge-upgrade lifts w to
    w+1 when its table pair is the only one at w (as
    ``apply_improvement`` would). Strictly improving actions come
    first, then w gains, then da-upgrades before edge-upgrades.
    """
    node = model.component(solution.node)
    base = solution.quality
    w, e = base.w, base.e

    actions: list[ImprovementAction] = []
    for child_id, da_id in solution.picks:
        p = model.component(child_id).da(da_id).priority
        if p >= 2:
            counts = list(e)
            counts[p - 1] -= 1
            counts[p - 2] += 1
            new = QualityVector(w, tuple(counts))
            actions.append(ImprovementAction("da-upgrade", child_id, da_id, p, p - 1, new))

    if w < model.scale.max_compat:
        pick_ids = [pick for _, pick in solution.picks]
        at_w = {
            CompatibilityTable.key(a, b)
            for i, a in enumerate(pick_ids)
            for b in pick_ids[i + 1 :]
            if model.compat_value(node, a, b) == w
        }
        new = QualityVector(w + 1 if len(at_w) == 1 else w, e)
        for target in at_w:
            actions.append(ImprovementAction("edge-upgrade", node.id, target, w, w + 1, new))

    def rank(action: ImprovementAction):
        new = action.new_quality
        target = action.target if isinstance(action.target, str) else ",".join(action.target)
        return (not new.strictly_dominates(base), base.w - new.w, action.kind, target)

    actions.sort(key=rank)
    return actions


# ---------------------------------------------------------------------------
# Applying actions
# ---------------------------------------------------------------------------


def apply_improvement(model: MorphModel, action: ImprovementAction) -> MorphModel:
    """The what-if API: a new model with the single ranked or
    compatibility value changed; the input model is untouched."""
    if action.before == action.after:
        raise ImprovementError("no-op action (before == after)")
    if action.kind == "da-upgrade":
        return _apply_da_upgrade(model, action)
    if action.kind == "edge-upgrade":
        return _apply_edge_upgrade(model, action)
    raise ImprovementError(f"unknown action kind {action.kind!r}")


def _apply_da_upgrade(model: MorphModel, action: ImprovementAction) -> MorphModel:
    if action.after != action.before - 1:
        raise ImprovementError(
            f"priority upgrades move one step up: {action.before} => {action.after}"
        )
    if action.after < 1:
        raise ImprovementError("priority is already at the best grade")
    comp = model.component(action.component)
    target = action.target
    if not isinstance(target, str):
        raise ImprovementError("da-upgrade targets a single alternative id")
    da = comp.da(target)
    if da.priority != action.before:
        raise ImprovementError(
            f"{target} has priority {da.priority}, action expects {action.before}"
        )
    new_das = tuple(
        replace(d, priority=action.after) if d.id == target else d for d in comp.das
    )
    return _with_component(model, replace(comp, das=new_das))


def _apply_edge_upgrade(model: MorphModel, action: ImprovementAction) -> MorphModel:
    if action.after != action.before + 1:
        raise ImprovementError(
            f"edge upgrades move one step up: {action.before} => {action.after}"
        )
    if action.after > model.scale.max_compat:
        raise ImprovementError("compatibility is already at the top grade")
    comp = model.component(action.component)
    target = action.target
    if isinstance(target, str) or len(target) != 2:
        raise ImprovementError("edge-upgrade targets an alternative pair")
    table = comp.compat
    if table is None:
        raise ImprovementError(f"component {comp.id} has no compatibility table")
    current = table.value(*target)
    if current != action.before:
        raise ImprovementError(
            f"pair {target} has value {current}, action expects {action.before}"
        )
    entries = dict(table.entries)
    entries[CompatibilityTable.key(*target)] = action.after
    return _with_component(
        model, replace(comp, compat=CompatibilityTable(table.default, entries))
    )


def _with_component(model: MorphModel, comp: Component) -> MorphModel:
    components = dict(model.components)
    components[comp.id] = comp
    return replace(model, components=components)


# ---------------------------------------------------------------------------
# Kernel / superstructure
# ---------------------------------------------------------------------------


def kernel(
    solutions: Sequence[CompositeSolution], threshold: float = 1.0
) -> KernelReport:
    """Agreement structure of a solution set over one node.

    A child enters the kernel when a single pick reaches the agreement
    threshold (fraction of solutions; 1.0 means unanimous). The share is
    compared as a quotient, which is correctly rounded, so a pick held
    by exactly the threshold's fraction joins (7 of 25 at 0.28). The
    superstructure lists every pick used anywhere.
    """
    if not solutions:
        raise SolutionError("kernel of an empty solution set")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1]: {threshold}")
    nodes = {s.node for s in solutions}
    if len(nodes) != 1:
        raise SolutionError(f"solutions score different nodes: {sorted(nodes)}")
    children = [cid for cid, _ in solutions[0].picks]
    if any([cid for cid, _ in s.picks] != children for s in solutions):
        raise SolutionError("solutions cover different child sets")

    agreed: dict[str, str] = {}
    union: dict[str, tuple[str, ...]] = {}
    for child, column in zip(children, zip(*(s.picks for s in solutions))):
        counts = Counter(pick for _, pick in column)
        union[child] = tuple(sorted(counts))
        best = max(union[child], key=counts.__getitem__)
        if counts[best] / len(solutions) >= threshold:
            agreed[child] = best
    return KernelReport(node=nodes.pop(), kernel=agreed, superstructure=union)
