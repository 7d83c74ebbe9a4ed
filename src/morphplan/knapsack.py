"""Budgeted extension of a plan kernel via the multiple choice
knapsack: pick exactly one candidate per open group, maximizing profit
under a cost budget. A ratio-greedy pass gives the quick answer; an
exact list dynamic program over reachable (cost, profit) states
provides the optimum and every selection attaining it.

Costs, profits and budgets are ints or Fractions (a float is read at
its exact binary value). Each solve scales them once to exact ints by
the least common denominator of the costs and that of the profits, and
builds no budget grid, so both solvers add and compare ints however
fine the numbers are. Both solvers return a tuple of selections, and
``()`` when no selection fits the budget; ``extend_kernel`` then
returns None.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import attrgetter, itemgetter
from typing import Mapping, Sequence

from .model import PICK_SEPARATOR, MorphError

# Built once: a getter built per call costs more than a generator.
_item_id = attrgetter("id")
_pick_id = itemgetter(1)

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


@dataclass(frozen=True)
class Selection:
    """One chosen item per group, in group order, with its totals."""

    chosen: tuple[ChoiceItem, ...]
    total_cost: Number
    total_profit: Number

    @classmethod
    def of(cls, chosen: Sequence[ChoiceItem]) -> "Selection":
        return cls(
            chosen=tuple(chosen),
            total_cost=sum(item.cost for item in chosen),
            total_profit=sum(item.profit for item in chosen),
        )

    def item_ids(self) -> tuple[str, ...]:
        return tuple(map(_item_id, self.chosen))


# ---------------------------------------------------------------------------
# Exact integers
# ---------------------------------------------------------------------------


def _exact(value) -> Number:
    # A float counts at its exact binary value.
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _integer_view(instance: KnapsackInstance):
    """The instance on exact ints, computed once per solve: each group
    as ``(cost, profit, item)`` triples with every cost multiplied by
    ``cost_scale`` and every profit by ``profit_scale``, the least common
    denominators of the costs and of the profits, and the budget as the
    largest int cost it admits, ``floor(budget * cost_scale)``.
    Multiplying by a positive constant keeps every sum, comparison and
    ratio order, so the solvers decide exactly as on the given numbers.
    An int is its own numerator over 1, so an instance of ints keeps
    scale 1 and builds no Fraction.
    Returns ``(groups, min_cost, budget, cost_scale, profit_scale)``,
    ``min_cost[g]`` the cheapest cost of group g, or None when those
    cheapest costs add up to more than the budget: then no selection
    fits."""
    exact = [
        [(_exact(item.cost), _exact(item.profit), item) for item in group]
        for group in instance.groups
    ]
    cost_scale = lcm(*{cost.denominator for group in exact for cost, _, _ in group})
    profit_scale = lcm(*{profit.denominator for group in exact for _, profit, _ in group})
    groups = [
        [
            (
                cost.numerator * (cost_scale // cost.denominator),
                profit.numerator * (profit_scale // profit.denominator),
                item,
            )
            for cost, profit, item in group
        ]
        for group in exact
    ]
    budget = _exact(instance.budget)
    budget = budget.numerator * cost_scale // budget.denominator
    min_cost = [min(cost for cost, _, _ in group) for group in groups]
    if sum(min_cost) > budget:
        return None
    return groups, min_cost, budget, cost_scale, profit_scale


def _unscaled(total: int, scale: int) -> Number:
    return total if scale == 1 else Fraction(total, scale)


# ---------------------------------------------------------------------------
# Greedy
# ---------------------------------------------------------------------------


def greedy_mckp(instance: KnapsackInstance) -> tuple[Selection, ...]:
    """Ratio-ordered greedy pass with a feasibility reserve: its one
    selection, or () when no selection fits the budget.

    Items are considered by descending profit/cost ratio (free profit
    first; ties broken by higher profit, then lower cost, then id
    order). An item is taken only if the remaining budget still covers
    the cheapest item of every other unfilled group, so the pass fills
    every group whenever that is possible at all. Costs and profits are
    scaled once to exact ints by their least common denominators; no
    budget grid is built.
    """
    view = _integer_view(instance)
    if view is None:
        return ()
    groups, min_cost, budget, cost_scale, profit_scale = view
    unfilled_min = sum(min_cost)
    # With every cost below 2**b, two distinct ratios p/c and p'/c'
    # differ by at least 1/(c*c') > 2**-2b, so at shift 2b their floors
    # differ in the same order, and equal ratios floor alike: the int
    # key orders the ratios exactly.
    shift = 2 * max((cost for group in groups for cost, _, _ in group), default=0).bit_length()

    def ratio_order(entry):
        cost, profit, item, _ = entry
        ratio = -((profit << shift) // cost) if cost else -profit
        return (cost > 0, ratio, -profit, cost, item.id)

    order = sorted(
        ((cost, profit, item, g) for g, group in enumerate(groups) for cost, profit, item in group),
        key=ratio_order,
    )
    chosen: dict[int, tuple[int, int, ChoiceItem]] = {}
    remaining = budget
    for cost, profit, item, g in order:
        if g in chosen:
            continue
        reserve = unfilled_min - min_cost[g]
        if cost + reserve <= remaining:
            chosen[g] = (cost, profit, item)
            unfilled_min = reserve
            remaining -= cost
    # remaining never drops below unfilled_min, so every group is filled.
    picks = [chosen[g] for g in range(len(groups))]
    return (
        Selection(
            chosen=tuple(item for _, _, item in picks),
            total_cost=_unscaled(sum(cost for cost, _, _ in picks), cost_scale),
            total_profit=_unscaled(sum(profit for _, profit, _ in picks), profit_scale),
        ),
    )


# ---------------------------------------------------------------------------
# Exact
# ---------------------------------------------------------------------------


def exact_mckp(instance: KnapsackInstance) -> tuple[Selection, ...]:
    """Every profit-maximal feasible selection, via a list dynamic
    program over reachable (cost, profit) states (Nemhauser & Ullmann
    1969, applied to the multiple choice knapsack as in Kellerer,
    Pferschy & Pisinger 2004, ch. 11). Costs and profits are scaled
    once to exact ints by their least common denominators, so the states
    add and compare ints; only reachable states are kept, never a budget
    grid, so the work does not depend on how fine the costs are. Each
    selection takes its totals from its final state. Returns () when no
    selection fits the budget."""
    view = _integer_view(instance)
    if view is None:
        return ()
    groups, min_cost, budget, cost_scale, profit_scale = view
    # reserve[g]: the least cost of filling the groups after group g
    reserve = [0] * len(groups)
    for g in range(len(groups) - 1, 0, -1):
        reserve[g - 1] = reserve[g] + min_cost[g]

    # layers[g]: the states after the first g groups, each with its
    # (previous state, item) back-pointers. A state is kept while the
    # groups after it can still be filled within the budget, and dropped
    # only when another state has no more cost and strictly more profit:
    # a state with equal profit at a higher cost can still be co-optimal.
    # So each layer holds at most one state per distinct cost.
    layers: list[dict[tuple[int, int], list]] = [{(0, 0): []}]
    for group, room in zip(groups, reserve):
        limit = budget - room
        reached: dict[tuple[int, int], list] = {}
        for state in layers[-1]:
            cost, profit = state
            for item_cost, item_profit, item in group:
                total = cost + item_cost
                if total <= limit:
                    key = (total, profit + item_profit)
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
    total_profit = _unscaled(optimum, profit_scale)
    selections: list[Selection] = []
    stack = [
        (len(groups), state, (), _unscaled(state[0], cost_scale))
        for state in layers[-1]
        if state[1] == optimum
    ]
    while stack:
        g, state, suffix, total_cost = stack.pop()
        if g == 0:
            selections.append(Selection(suffix, total_cost, total_profit))
            continue
        for previous, item in layers[g][state]:
            stack.append((g - 1, previous, (item,) + suffix, total_cost))
    selections.sort(key=Selection.item_ids)
    return tuple(selections)


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
    alternatives: tuple[Selection, ...] = ()

    def picks_map(self) -> dict[str, str]:
        return dict(self.picks)

    @property
    def label(self) -> str:
        return PICK_SEPARATOR.join(map(_pick_id, self.picks))


def check_kernel(kernel: Mapping[str, str], instance: KnapsackInstance) -> None:
    """Kernel components and instance groups must not overlap."""
    overlap = set(kernel) & set(instance.group_labels)
    if overlap:
        raise KnapsackError(f"kernel already fixes groups: {sorted(overlap)}")


def extend_kernel(
    kernel: Mapping[str, str],
    instance: KnapsackInstance,
    method: str = "greedy",
) -> AggregatedPlan | None:
    """Complete a kernel by selecting one candidate per open group
    under the instance budget, or None when no selection fits it.
    Kernel components and instance groups must not overlap; an empty
    instance returns the kernel unchanged."""
    if method not in ("greedy", "exact"):
        raise ValueError(f"unknown method {method!r}")
    check_kernel(kernel, instance)
    found = (greedy_mckp if method == "greedy" else exact_mckp)(instance)
    if not found:
        return None
    selection = found[0]
    picks = dict(kernel)
    for item in selection.chosen:
        picks[item.group] = item.id
    return AggregatedPlan(
        picks=tuple(sorted(picks.items())),
        total_cost=selection.total_cost,
        total_profit=selection.total_profit,
        alternatives=found[1:],
    )
