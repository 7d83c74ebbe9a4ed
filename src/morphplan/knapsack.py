"""Budgeted extension of a plan kernel via the multiple choice
knapsack: pick exactly one candidate per open group, maximizing profit
under a cost budget. A ratio-greedy pass gives the quick answer; an
exact list dynamic program over reachable (cost, profit) states
provides the optimum and every selection attaining it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .model import MorphError

Number = int | Fraction


class KnapsackError(MorphError, ValueError):
    """The instance is malformed or incompatible with the kernel."""


@dataclass(frozen=True)
class ChoiceItem:
    """One candidate of one group, with nonnegative cost and profit."""

    id: str
    group: str
    cost: Number
    profit: Number

    def __post_init__(self) -> None:
        if self.cost < 0 or self.profit < 0:
            raise KnapsackError(f"item {self.id!r} has negative cost or profit")


@dataclass(frozen=True)
class KnapsackInstance:
    """Non-empty item groups plus the shared budget."""

    groups: tuple[tuple[ChoiceItem, ...], ...]
    budget: Number

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise KnapsackError(f"budget must be nonnegative: {self.budget}")
        seen: set[str] = set()
        labels: set[str] = set()
        for group in self.groups:
            if not group:
                raise KnapsackError("empty item group")
            label = group[0].group
            if label in labels:
                raise KnapsackError(f"group label {label!r} repeats")
            labels.add(label)
            for item in group:
                if item.group != label:
                    raise KnapsackError(
                        f"item {item.id!r} labeled {item.group!r} inside group {label!r}"
                    )
                if item.id in seen:
                    raise KnapsackError(f"item id {item.id!r} repeats")
                seen.add(item.id)

    @property
    def group_labels(self) -> tuple[str, ...]:
        return tuple(group[0].group for group in self.groups)

    def min_cost_total(self) -> Number:
        return sum(min(item.cost for item in group) for group in self.groups)


@dataclass(frozen=True)
class Selection:
    """One chosen item per group (group order), or an infeasibility
    marker when the budget cannot fill every group."""

    chosen: tuple[ChoiceItem, ...]
    total_cost: Number
    total_profit: Number
    feasible: bool

    @classmethod
    def of(cls, chosen: Sequence[ChoiceItem]) -> "Selection":
        return cls(
            chosen=tuple(chosen),
            total_cost=sum(item.cost for item in chosen),
            total_profit=sum(item.profit for item in chosen),
            feasible=True,
        )

    @classmethod
    def infeasible(cls) -> "Selection":
        return cls(chosen=(), total_cost=0, total_profit=0, feasible=False)

    def item_ids(self) -> tuple[str, ...]:
        return tuple(item.id for item in self.chosen)


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def _ratio_key(item: ChoiceItem):
    # Free profit sorts first; otherwise larger profit/cost first.
    if item.cost == 0:
        return (0, -item.profit)
    return (1, Fraction(-item.profit, item.cost))


def greedy_mckp(instance: KnapsackInstance) -> Selection:
    """Ratio-ordered greedy pass with a feasibility reserve.

    Items are considered by descending profit/cost ratio (ties broken
    by higher profit, then lower cost, then id order). An
    item is taken only if the remaining budget still covers the
    cheapest item of every other unfilled group, so the pass fills
    every group whenever that is possible at all.
    """
    if instance.min_cost_total() > instance.budget:
        return Selection.infeasible()
    order = sorted(
        (item for group in instance.groups for item in group),
        key=lambda it: (_ratio_key(it), -it.profit, it.cost, it.id),
    )
    min_cost = {g[0].group: min(item.cost for item in g) for g in instance.groups}
    unfilled = set(min_cost)
    unfilled_min = sum(min_cost.values())  # exact: costs are int or Fraction
    chosen: dict[str, ChoiceItem] = {}
    remaining = instance.budget
    for item in order:
        if item.group not in unfilled:
            continue
        reserve = unfilled_min - min_cost[item.group]
        if item.cost + reserve <= remaining:
            chosen[item.group] = item
            unfilled.remove(item.group)
            unfilled_min = reserve
            remaining -= item.cost
    if unfilled:
        return Selection.infeasible()
    return Selection.of([chosen[g[0].group] for g in instance.groups])


# ---------------------------------------------------------------------------
# Exact
# ---------------------------------------------------------------------------


def exact_mckp(instance: KnapsackInstance) -> tuple[Selection, ...]:
    """Every profit-maximal feasible selection, via a list dynamic
    program over reachable (cost, profit) states (Nemhauser & Ullmann
    1969, applied to the multiple choice knapsack as in Kellerer,
    Pferschy & Pisinger 2004, ch. 11). Arithmetic stays exact in int or
    Fraction, so the work does not depend on how fine the costs are.
    Returns () when no selection fits the budget."""
    if instance.min_cost_total() > instance.budget:
        return ()
    groups = instance.groups
    # reserve[g]: the least cost of filling the groups after group g
    reserve = [0] * len(groups)
    for g in range(len(groups) - 1, 0, -1):
        reserve[g - 1] = reserve[g] + min(item.cost for item in groups[g])

    # layers[g]: the states after the first g groups, each with its
    # (previous state, item) back-pointers. A state is kept while the
    # groups after it can still be filled within the budget, and dropped
    # only when another state has no more cost and strictly more profit:
    # a state with equal profit at a higher cost can still be co-optimal.
    # So each layer holds at most one state per distinct cost.
    layers: list[dict[tuple[Number, Number], list]] = [{(0, 0): []}]
    for group, room in zip(groups, reserve):
        limit = instance.budget - room
        reached: dict[tuple[Number, Number], list] = {}
        for state in layers[-1]:
            cost, profit = state
            for item in group:
                total = cost + item.cost
                if total <= limit:
                    key = (total, profit + item.profit)
                    reached.setdefault(key, []).append((state, item))
        kept = {}
        best = None
        for key in sorted(reached, key=lambda k: (k[0], -k[1])):
            if best is None or key[1] >= best:
                kept[key] = reached[key]
                best = key[1]
        layers.append(kept)

    # Walk back every path to an optimal final state with an explicit
    # stack, so that many groups cannot exhaust the recursion limit. A
    # path is fixed by its items, so each optimal selection is found once.
    optimum = max(profit for _, profit in layers[-1])
    selections: list[tuple[ChoiceItem, ...]] = []
    stack = [(len(groups), state, ()) for state in layers[-1] if state[1] == optimum]
    while stack:
        g, state, suffix = stack.pop()
        if g == 0:
            selections.append(suffix)
            continue
        for previous, item in layers[g][state]:
            stack.append((g - 1, previous, (item,) + suffix))
    selections.sort(key=lambda sel: tuple(it.id for it in sel))
    return tuple(Selection.of(sel) for sel in selections)


# ---------------------------------------------------------------------------
# Kernel extension
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregatedPlan:
    """Kernel picks merged with a budgeted selection for the open
    groups. ``alternatives`` lists further co-optimal selections when
    the exact solver found several."""

    picks: tuple[tuple[str, str], ...]
    total_cost: Number
    total_profit: Number
    feasible: bool
    alternatives: tuple[Selection, ...] = ()

    def picks_map(self) -> dict[str, str]:
        return dict(self.picks)

    @property
    def label(self) -> str:
        return "*".join(pick for _, pick in self.picks)


def check_kernel(kernel: Mapping[str, str], instance: KnapsackInstance) -> None:
    """Kernel components and instance groups must not overlap."""
    overlap = set(kernel) & set(instance.group_labels)
    if overlap:
        raise KnapsackError(f"kernel already fixes groups: {sorted(overlap)}")


def extend_kernel(
    kernel: Mapping[str, str],
    instance: KnapsackInstance,
    method: str = "greedy",
) -> AggregatedPlan:
    """Complete a kernel by selecting one candidate per open group
    under the instance budget. Kernel components and instance groups
    must not overlap; an empty instance returns the kernel unchanged."""
    if method not in ("greedy", "exact"):
        raise ValueError(f"unknown method {method!r}")
    check_kernel(kernel, instance)
    kernel_picks = tuple(sorted(kernel.items()))
    if not instance.groups:
        return AggregatedPlan(
            picks=kernel_picks, total_cost=0, total_profit=0, feasible=True
        )

    if method == "greedy":
        selection = greedy_mckp(instance)
        alternatives: tuple[Selection, ...] = ()
    else:
        optima = exact_mckp(instance)
        selection = optima[0] if optima else Selection.infeasible()
        alternatives = optima[1:]
    if not selection.feasible:
        return AggregatedPlan(
            picks=kernel_picks,
            total_cost=0,
            total_profit=0,
            feasible=False,
        )
    picks = dict(kernel)
    for item in selection.chosen:
        picks[item.group] = item.id
    return AggregatedPlan(
        picks=tuple(sorted(picks.items())),
        total_cost=selection.total_cost,
        total_profit=selection.total_profit,
        feasible=True,
        alternatives=alternatives,
    )
