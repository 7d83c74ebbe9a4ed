"""Greedy and exact one-per-group selection under a budget, checked
against exhaustive enumeration and against the budget-grid DP."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan.knapsack import (
    ChoiceItem,
    KnapsackError,
    KnapsackInstance,
    Selection,
    exact_mckp,
    extend_kernel,
    greedy_mckp,
)


def brute_optima(instance: KnapsackInstance):
    """Oracle: scan the full product of groups."""
    best_profit = None
    best: list[tuple[str, ...]] = []
    for combo in itertools.product(*instance.groups):
        cost = sum(item.cost for item in combo)
        if cost > instance.budget:
            continue
        profit = sum(item.profit for item in combo)
        if best_profit is None or profit > best_profit:
            best_profit = profit
            best = [tuple(item.id for item in combo)]
        elif profit == best_profit:
            best.append(tuple(item.id for item in combo))
    return best_profit, sorted(best)


def grid_optima(instance: KnapsackInstance) -> tuple[Selection, ...]:
    """Oracle: the dynamic program over (group, residual budget) that
    the list DP replaced. Rational costs are scaled to the integer grid
    of their common denominator, so it only suits coarse budgets."""
    scale = lcm(
        *(Fraction(item.cost).denominator for group in instance.groups for item in group),
        Fraction(instance.budget).denominator,
    )
    costs = [[int(Fraction(item.cost) * scale) for item in group] for group in instance.groups]
    budget = int(Fraction(instance.budget) * scale)
    n = len(instance.groups)
    # best[g][c]: max profit for groups < g within cost c, None if unreachable
    best = [[None] * (budget + 1) for _ in range(n + 1)]
    best[0] = [0] * (budget + 1)
    for g in range(n):
        for c in range(budget + 1):
            values = [
                best[g][c - cost] + item.profit
                for item, cost in zip(instance.groups[g], costs[g])
                if cost <= c and best[g][c - cost] is not None
            ]
            best[g + 1][c] = max(values, default=None)
    if best[n][budget] is None:
        return ()
    selections = []
    stack = [(n - 1, budget, ())]
    while stack:
        g, c, suffix = stack.pop()
        if g < 0:
            selections.append(suffix)
            continue
        for item, cost in zip(instance.groups[g], costs[g]):
            prev = best[g][c - cost] if cost <= c else None
            if prev is not None and prev + item.profit == best[g + 1][c]:
                stack.append((g - 1, c - cost, (item,) + suffix))
    selections.sort(key=lambda sel: tuple(it.id for it in sel))
    return tuple(Selection.of(sel) for sel in selections)


def random_instance(seed: int) -> KnapsackInstance:
    rng = random.Random(seed)
    n_groups = rng.randint(1, 5)
    groups = []
    for g in range(n_groups):
        size = rng.randint(1, 8)
        groups.append(
            tuple(
                ChoiceItem(
                    id=f"g{g}i{j}",
                    group=f"g{g}",
                    cost=rng.randint(0, 9),
                    profit=rng.randint(0, 9),
                )
                for j in range(size)
            )
        )
    budget = rng.randint(0, 6 * n_groups)
    return KnapsackInstance(groups=tuple(groups), budget=budget)


@pytest.fixture(scope="module")
def catalogue(yamal_region_doc):
    return yamal_region_doc.knapsack


@pytest.fixture(scope="module")
def yamal_region_doc():
    from morphplan.fixtures import fixture_text
    from morphplan.modeldoc import parse_model

    return parse_model(fixture_text("yamal_region"))


# ---------------------------------------------------------------------------
# catalogue scenarios
# ---------------------------------------------------------------------------


def test_greedy_budget_nine(catalogue):
    (sel,) = greedy_mckp(catalogue.instance(9))
    assert sel.item_ids() == ("A2_4", "A4_1", "A5_1")
    assert (sel.total_cost, sel.total_profit) == (9, 10)


def test_budget_ten_has_two_optima(catalogue):
    inst = catalogue.instance(10)
    (greedy,) = greedy_mckp(inst)
    assert greedy.total_profit == 11
    optima = exact_mckp(inst)
    assert {sel.item_ids() for sel in optima} == {
        ("A2_1", "A4_1", "A5_1"),
        ("A2_4", "A4_1", "A5_2"),
    }
    assert all(sel.total_profit == 11 for sel in optima)
    assert greedy.item_ids() in {sel.item_ids() for sel in optima}


def test_budget_eleven(catalogue):
    inst = catalogue.instance(11)
    (greedy,) = greedy_mckp(inst)
    assert greedy.total_profit == 12
    optima = exact_mckp(inst)
    assert [sel.item_ids() for sel in optima] == [("A2_1", "A4_1", "A5_2")]


def test_exact_budget_nine_unique_brute_force(catalogue):
    inst = catalogue.instance(9)
    profit, combos = brute_optima(inst)
    assert profit == 10 and len(combos) == 1
    optima = exact_mckp(inst)
    assert [sel.item_ids() for sel in optima] == combos


def test_exact_budget_twelve_brute_force(catalogue):
    inst = catalogue.instance(12)
    profit, combos = brute_optima(inst)
    assert profit == 13
    optima = exact_mckp(inst)
    assert sorted(sel.item_ids() for sel in optima) == combos
    assert optima[0].item_ids() == ("A2_2", "A4_1", "A5_1")


def test_budget_below_group_minima_is_infeasible(catalogue):
    inst = catalogue.instance(8)
    assert greedy_mckp(inst) == ()
    assert exact_mckp(inst) == ()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_exact_matches_brute_force(seed):
    inst = random_instance(seed)
    profit, combos = brute_optima(inst)
    optima = exact_mckp(inst)
    if profit is None:
        assert optima == ()
        return
    assert sorted(sel.item_ids() for sel in optima) == combos
    assert all(sel.total_profit == profit for sel in optima)


@pytest.mark.parametrize("seed", range(60))
def test_greedy_is_feasible_and_never_beats_exact(seed):
    inst = random_instance(seed)
    found = greedy_mckp(inst)
    optima = exact_mckp(inst)
    if not optima:
        assert found == ()
        return
    (greedy,) = found
    assert greedy.total_cost <= inst.budget
    assert len(greedy.chosen) == len(inst.groups)
    assert {item.group for item in greedy.chosen} == set(inst.group_labels)
    assert greedy.total_profit <= optima[0].total_profit


def reference_ratio_key(item: ChoiceItem):
    """The ratio order written apart from ``greedy_mckp``'s key: free
    profit first, then larger profit/cost, as a quotient of Fractions."""
    if item.cost == 0:
        return (0, -Fraction(item.profit))
    return (1, -Fraction(item.profit) / Fraction(item.cost))


def greedy_summing_reserve(instance: KnapsackInstance) -> tuple[Selection, ...]:
    """The greedy pass with the reserve summed over the other unfilled
    groups for every item: the quadratic rule that the running total
    of ``greedy_mckp`` replaces."""
    min_cost = {g[0].group: min(item.cost for item in g) for g in instance.groups}
    if sum(min_cost.values()) > instance.budget:
        return ()
    order = sorted(
        (item for group in instance.groups for item in group),
        key=lambda it: (reference_ratio_key(it), -it.profit, it.cost, it.id),
    )
    unfilled = set(min_cost)
    chosen = {}
    remaining = instance.budget
    for item in order:
        if item.group not in unfilled:
            continue
        reserve = sum(min_cost[g] for g in unfilled if g != item.group)
        if item.cost + reserve <= remaining:
            chosen[item.group] = item
            unfilled.remove(item.group)
            remaining -= item.cost
    if unfilled:
        return ()
    return (Selection.of([chosen[g[0].group] for g in instance.groups]),)


def tight_instance(seed: int, rational: bool) -> KnapsackInstance:
    """Up to 12 groups with a budget near the sum of the group minima,
    so some instances are infeasible and the reserve decides the rest."""
    rng = random.Random(seed)

    def number():
        value = rng.randint(0, 12)
        return Fraction(value, rng.choice((1, 2, 3, 6))) if rational else value

    groups = tuple(
        tuple(ChoiceItem(f"g{g}i{j}", f"g{g}", number(), number()) for j in range(rng.randint(1, 4)))
        for g in range(rng.randint(1, 12))
    )
    floor = sum(min(item.cost for item in group) for group in groups)
    slack = rng.randint(-3, 8)
    budget = max(0, floor + (Fraction(slack, rng.choice((1, 2, 3))) if rational else slack))
    return KnapsackInstance(groups=groups, budget=budget)


@pytest.mark.parametrize("rational", [False, True])
def test_greedy_running_reserve_matches_summed_reserve(rational):
    feasible = 0
    for seed in range(300):
        inst = tight_instance(seed, rational)
        ours, reference = greedy_mckp(inst), greedy_summing_reserve(inst)
        assert ours == reference, seed
        feasible += len(ours)
    assert 0 < feasible < 300


def test_greedy_equals_exact_on_catalogue_budgets(catalogue):
    for budget in (9, 10, 11):
        (greedy,) = greedy_mckp(catalogue.instance(budget))
        optima = exact_mckp(catalogue.instance(budget))
        assert greedy.total_profit == optima[0].total_profit


def test_rational_costs_are_scaled_exactly():
    groups = (
        (
            ChoiceItem("a1", "a", Fraction(3, 2), 3),
            ChoiceItem("a2", "a", Fraction(5, 2), 5),
        ),
        (
            ChoiceItem("b1", "b", Fraction(1, 3), 1),
            ChoiceItem("b2", "b", Fraction(7, 3), 4),
        ),
    )
    inst = KnapsackInstance(groups=groups, budget=Fraction(29, 6))
    optima = exact_mckp(inst)
    profit, combos = brute_optima(inst)
    assert [sel.item_ids() for sel in optima] == combos
    assert optima[0].total_profit == profit == 9


def test_rational_costs_are_exact_at_any_fineness():
    tiny = Fraction(1, 10**9)
    groups = (
        (ChoiceItem("a1", "a", tiny, 2), ChoiceItem("a2", "a", 0, 1)),
        (ChoiceItem("b1", "b", 1, 3),),
    )
    for budget, best in ((1, 4), (1 + tiny, 5), (Fraction(1, 2), None)):
        inst = KnapsackInstance(groups=groups, budget=budget)
        profit, combos = brute_optima(inst)
        assert profit == best
        assert [sel.item_ids() for sel in exact_mckp(inst)] == combos


def test_huge_budget_keeps_every_optimum():
    groups = tuple(
        (ChoiceItem(f"g{g}a", f"g{g}", 10**299, 7), ChoiceItem(f"g{g}b", f"g{g}", 1, 7))
        for g in range(3)
    )
    inst = KnapsackInstance(groups=groups, budget=10**300)
    profit, combos = brute_optima(inst)
    optima = exact_mckp(inst)
    assert profit == 21 and len(combos) == 8
    assert [sel.item_ids() for sel in optima] == combos
    assert all(sel.total_profit == 21 for sel in optima)


def test_negative_values_are_rejected():
    with pytest.raises(KnapsackError):
        ChoiceItem("x", "g", -1, 2)
    with pytest.raises(KnapsackError):
        KnapsackInstance(groups=((),), budget=3)


# ---------------------------------------------------------------------------
# list DP against the grid DP
# ---------------------------------------------------------------------------

kernel_settings = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def coarse_instances(draw, max_groups: int = 12, max_product: int = 4096):
    """Up to ``max_groups`` groups on a coarse grid, int or Fraction,
    with tied copies of items and budgets around the sum of the group
    minima. The product of the group sizes stays within
    ``max_product``, which bounds the number of optima."""
    rational = draw(st.booleans())
    values = st.integers(0, 12)
    if rational:
        values = st.builds(Fraction, values, st.sampled_from((1, 2, 3, 6)))
    groups = []
    room = max_product
    for g in range(draw(st.integers(0, max_groups))):
        size = max(1, min(3, room // 2))
        pairs = draw(st.lists(st.tuples(values, values), min_size=1, max_size=size))
        if len(pairs) < room and draw(st.booleans()):
            pairs.append(pairs[-1])  # a tied copy
        room //= len(pairs)
        groups.append(
            tuple(ChoiceItem(f"g{g}i{j}", f"g{g}", c, p) for j, (c, p) in enumerate(pairs))
        )
    floor = sum(min(item.cost for item in group) for group in groups)
    budget = max(0, floor + draw(values) - draw(st.integers(0, 3)))
    return KnapsackInstance(groups=tuple(groups), budget=budget)


def _tied_groups(n: int, items: int) -> tuple:
    return tuple(
        tuple(ChoiceItem(f"g{g}i{j}", f"g{g}", 1, 2) for j in range(items)) for g in range(n)
    )


@kernel_settings
@given(coarse_instances())
@example(KnapsackInstance(groups=_tied_groups(12, 2), budget=12))
@example(KnapsackInstance(groups=_tied_groups(12, 2), budget=11))
@example(KnapsackInstance(groups=(), budget=0))
def test_list_dp_equals_grid_dp(instance):
    assert exact_mckp(instance) == grid_optima(instance)


# ---------------------------------------------------------------------------
# mixed numbers against brute force
# ---------------------------------------------------------------------------

mixed_settings = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Values a model document can carry: ints, Fractions over small and
# very fine denominators, magnitudes up to 10**300, and zero.
_mixed_values = st.one_of(
    st.just(0),
    st.integers(0, 12),
    st.builds(
        lambda n, d: Fraction(n, d),
        st.integers(0, 40),
        st.sampled_from((2, 3, 100, 10**9)),
    ),
    st.builds(
        lambda k, n: k * 10**299 // 7**n,
        st.integers(1, 10),
        st.integers(0, 3),
    ),
)


@st.composite
def mixed_instances(draw, max_groups: int = 5, max_product: int = 256):
    """Up to ``max_groups`` groups mixing the values above in costs,
    profits and the budget, some groups fully tied, with budgets near
    the sum of the group minima."""
    groups = []
    room = max_product
    for g in range(draw(st.integers(0, max_groups))):
        size = max(1, min(4, room))
        if draw(st.booleans()):
            pair = (draw(_mixed_values), draw(_mixed_values))
            pairs = [pair] * draw(st.integers(1, size))  # fully tied
        else:
            pairs = draw(
                st.lists(st.tuples(_mixed_values, _mixed_values), min_size=1, max_size=size)
            )
        room = max(1, room // len(pairs))
        groups.append(
            tuple(ChoiceItem(f"g{g}i{j}", f"g{g}", c, p) for j, (c, p) in enumerate(pairs))
        )
    floor = sum(min(item.cost for item in group) for group in groups)
    budget = draw(
        st.one_of(
            _mixed_values,
            st.builds(lambda slack: floor + slack, _mixed_values),
            st.builds(lambda slack: max(0, floor - slack), _mixed_values),
        )
    )
    return KnapsackInstance(groups=tuple(groups), budget=budget)


@mixed_settings
@given(mixed_instances())
@example(KnapsackInstance(groups=(), budget=0))
@example(
    KnapsackInstance(
        groups=(
            (ChoiceItem("a", "A", Fraction(1, 10**9), 10**300), ChoiceItem("b", "A", 0, 10**300)),
            (ChoiceItem("c", "B", Fraction(1, 3), Fraction(1, 2)),),
        ),
        budget=Fraction(1, 3),
    )
)
def test_exact_and_greedy_on_mixed_numbers(instance):
    profit, combos = brute_optima(instance)
    optima = exact_mckp(instance)
    assert sorted(sel.item_ids() for sel in optima) == combos
    for sel in optima:
        assert sel.total_cost == sum(item.cost for item in sel.chosen)
        assert sel.total_profit == sum(item.profit for item in sel.chosen) == profit
    found = greedy_mckp(instance)
    assert found == greedy_summing_reserve(instance)
    assert len(found) == bool(optima)
    for greedy in found:
        assert greedy.total_cost == sum(item.cost for item in greedy.chosen)
        assert greedy.total_profit == sum(item.profit for item in greedy.chosen)


def test_float_costs_are_read_at_their_exact_binary_value():
    # As floats 0.1 + 0.2 rounds up past the sum of their exact values,
    # so only exact reading fits both items into that sum.
    exact_sum = Fraction(0.1) + Fraction(0.2)
    groups = ((ChoiceItem("a", "A", 0.1, 1),), (ChoiceItem("b", "B", 0.2, 1),))
    inst = KnapsackInstance(groups=groups, budget=exact_sum)
    (optimum,) = exact_mckp(inst)
    assert optimum.item_ids() == ("a", "b")
    assert optimum.total_cost == exact_sum != 0.1 + 0.2
    assert greedy_mckp(inst) == (optimum,)
    below = KnapsackInstance(groups=groups, budget=exact_sum - Fraction(1, 2**80))
    assert exact_mckp(below) == ()
    assert greedy_mckp(below) == ()


def test_int_instances_keep_int_totals(catalogue):
    for budget in (*catalogue.budgets, Fraction(21, 2), 1000):
        inst = catalogue.instance(budget)
        (greedy,) = greedy_mckp(inst)
        plans = (
            extend_kernel(catalogue.kernel, inst, method="greedy"),
            extend_kernel(catalogue.kernel, inst, method="exact"),
        )
        assert None not in plans
        for found in (greedy, *exact_mckp(inst), *plans):
            assert type(found.total_cost) is int and type(found.total_profit) is int


# ---------------------------------------------------------------------------
# kernel extension
# ---------------------------------------------------------------------------


def test_extension_merges_kernel_with_selection(catalogue):
    plan = extend_kernel(catalogue.kernel, catalogue.instance(9), method="greedy")
    assert plan.label == "A1_1*A2_4*A3_1*A4_1*A5_1"
    assert (plan.total_cost, plan.total_profit) == (9, 10)


def test_extension_exact_budget_eleven(catalogue):
    plan = extend_kernel(catalogue.kernel, catalogue.instance(11), method="exact")
    assert plan.label == "A1_1*A2_1*A3_1*A4_1*A5_2"


def test_empty_instance_returns_kernel_unchanged():
    empty = KnapsackInstance(groups=(), budget=0)
    plan = extend_kernel({"K": "K_1", "L": "L_2"}, empty)
    assert plan.picks_map() == {"K": "K_1", "L": "L_2"}
    assert (plan.total_cost, plan.total_profit) == (0, 0)


def test_overlapping_kernel_and_groups_error(catalogue):
    with pytest.raises(KnapsackError):
        extend_kernel({"A2": "A2_9"}, catalogue.instance(9))


def test_infeasible_extension_is_flagged(catalogue):
    for method in ("greedy", "exact"):
        assert extend_kernel(catalogue.kernel, catalogue.instance(2), method=method) is None


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: KnapsackInstance(
                groups=((ChoiceItem("a", "A", 1, 1), ChoiceItem("b", "B", 1, 1)),), budget=1
            ),
            KnapsackError,
            "item 'b' labeled 'B' inside group 'A'",
        ),
        (
            lambda: extend_kernel({}, KnapsackInstance(groups=(), budget=0), method="dp"),
            ValueError,
            "unknown method 'dp'",
        ),
    ],
    ids=["item-in-another-group", "unknown-method"],
)
def test_knapsack_refuses_a_malformed_call(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
