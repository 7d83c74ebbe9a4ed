"""Interval estimates over an ordinal scale, as count multisets.

An estimate spreads a fixed number of marks (eta) over the scale's
priority levels: counts (n1, ..., nl) with sum eta, level 1 best. The
gap rule (optionally enforced) forbids marks on two levels that
sandwich an empty level. Estimates support elementwise aggregation, a
two-sided edit distance counting one-level promotions and demotions,
and consensus search: the domain estimate minimizing total distance to
a set of observed estimates, found by a dynamic program over the
prefix sums of the counts rather than by listing the domain.
Estimate-carrying alternatives can be composed like ranked ones,
scoring a selection by its consensus estimate instead of priority
counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from .model import (
    Component,
    CompositeSolution,
    InvalidComparisonError,
    MorphModel,
    QualityVector,
    SolutionError,
    check_counts,
    cumulative,
)
from .synthesis import (
    Frontier,
    QualityKey,
    admissible_states,
    child_candidates,
    pareto_filter,
    quality_key,
)

Estimate = tuple[int, ...]


def multiset_number(levels: int, eta: int) -> int:
    """How many count vectors spread eta marks over the given levels
    (gap rule ignored): binomial(levels + eta - 1, eta)."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1: {levels}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0: {eta}")
    return math.comb(levels + eta - 1, eta)


def satisfies_gap_rule(counts: Sequence[int]) -> bool:
    """Marks on levels i and i+2 require a mark on level i+1."""
    return all(
        not (counts[i] > 0 and counts[i + 2] > 0) or counts[i + 1] > 0
        for i in range(len(counts) - 2)
    )


def enumerate_estimates(
    levels: int, eta: int, enforce_gap_rule: bool = True
) -> list[Estimate]:
    """All estimates for the given shape, best first.

    Ordered descending-lexicographically on counts, which linearly
    extends dominance: better estimates always come earlier.
    """
    _check_shape(levels, eta)
    out: list[Estimate] = []

    def build(remaining: int, parts: int, prefix: tuple[int, ...]) -> None:
        if parts == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            build(remaining - first, parts - 1, prefix + (first,))

    build(eta, levels, ())
    if enforce_gap_rule:
        out = [e for e in out if satisfies_gap_rule(e)]
    return out


def _check_shape(levels: int, eta: int) -> None:
    """An estimate domain needs at least one level and one mark."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1: {levels}")
    if eta < 1:
        raise ValueError(f"eta must be >= 1: {eta}")


def uplus(estimates: Sequence[Estimate], levels: int | None = None) -> Estimate:
    """Elementwise sum; the identity (all zeros) for an empty input,
    which then needs ``levels``."""
    if not estimates:
        if levels is None:
            raise ValueError("empty aggregation needs an explicit level count")
        return (0,) * levels
    width = len(estimates[0])
    if levels is not None and levels != width:
        raise InvalidComparisonError(f"estimates have {width} levels, expected {levels}")
    totals = [0] * width
    for est in estimates:
        if len(est) != width:
            raise InvalidComparisonError(
                f"estimates differ in length: {width} vs {len(est)}"
            )
        for i, c in enumerate(est):
            totals[i] += c
    return tuple(totals)


@dataclass(frozen=True)
class Proximity:
    """Minimal edit decomposition turning one estimate into another:
    ``improvements`` one-level promotions, ``degradations`` one-level
    demotions. The magnitude is the larger of the two."""

    improvements: int
    degradations: int

    @property
    def magnitude(self) -> int:
        return max(self.improvements, self.degradations)

    @property
    def total(self) -> int:
        return self.improvements + self.degradations


def proximity(a: Estimate, b: Estimate) -> Proximity:
    """Edit distance from ``a`` to ``b``, split into promotions and
    demotions.

    A promotion across the boundary below level k raises exactly the
    k-th cumulative count by one, so the boundary-wise positive and
    negative cumulative differences are the unique minimal
    decomposition into pure promotions and pure demotions.
    """
    check_counts((a, b))
    improvements, degradations = _edits(cumulative(a), cumulative(b))
    return Proximity(improvements=improvements, degradations=degradations)


def _edits(ca: Sequence[int], cb: Sequence[int]) -> tuple[int, int]:
    """(promotions, demotions) from the estimate with prefix sums ``ca``
    to the one with ``cb``. The shapes must already agree, so the last
    prefix sums are equal and add nothing."""
    up = down = 0
    for x, y in zip(ca, cb):
        if y > x:
            up += y - x
        else:
            down += x - y
    return up, down


# ---------------------------------------------------------------------------
# Consensus (generalized median)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MedianResult:
    """All co-minimal consensus estimates, best first, with the
    minimized total deviation."""

    estimates: tuple[Estimate, ...]
    deviation: int

    @property
    def best(self) -> Estimate:
        return self.estimates[0]


Row = list[int]
Moves = tuple[int, tuple[tuple[int | None, int], ...]]

# The gap rule as an automaton over the positivity of the last two
# counts: (start state, per state (state after a positive count, state
# after a zero count)). With the rule, state 0 follows a positive count,
# state 1 a zero after a positive count (a positive count now would
# sandwich the empty level, so it has no move), and state 2 a zero after
# a zero or nothing. Without the rule one state takes every count.
_GAP_RULE_MOVES: Moves = (2, ((0, 1), (None, 2), (0, 2)))
_FREE_MOVES: Moves = (0, ((0, 0),))


def generalized_median(
    observed: Sequence[Estimate],
    enforce_gap_rule: bool = True,
    metric: str = "max",
) -> MedianResult:
    """Domain estimate(s) minimizing total proximity to the observed
    estimates.

    The candidate domain is every estimate of the same shape (gap rule
    applied unless disabled). ``metric`` picks the per-pair deviation:
    the magnitude (``max``) or the full edit count (``sum``). All
    co-minimal candidates are returned, best first.

    The domain is never listed. A candidate with prefix sums S_k
    deviates from observation j by sum_k |S_k - P_jk| edits, of which
    the promotions outnumber the demotions by T_j - T (T = sum_k S_k),
    so both metrics separate over the levels: ``sum`` costs
    sum_k cost_k(S_k) with cost_k(s) = sum_j |s - P_jk|, and ``max``
    costs half of that plus sum_j |T_j - T|. A dynamic program over the
    levels, whose state is S_k, the gap-rule state and (for ``max``)
    the running total, tabulates the least cost of the remaining
    levels; a walk that tries the highest S_k first and follows only
    optimal moves then lists every optimum in descending-lex order.
    The tables hold O(levels * eta) entries for ``sum`` and
    O(levels**2 * eta**2) for ``max``, each computed in constant time;
    the domain holds binomial(levels + eta - 1, eta) estimates.
    """
    if not observed:
        raise ValueError("median of an empty observation set")
    if metric not in ("max", "sum"):
        raise ValueError(f"unknown metric {metric!r}")
    check_counts(observed)
    levels, eta = len(observed[0]), sum(observed[0])
    _check_shape(levels, eta)
    observed_sums = [cumulative(est) for est in observed]
    # Only the max metric needs the running total t = S_1 + ... + S_k;
    # under sum it stays 0.
    step = 1 if metric == "max" else 0
    start, moves = _GAP_RULE_MOVES if enforce_gap_rule else _FREE_MOVES
    # cost[k][s]: level k+1 at prefix sum s. The last level always
    # ends at eta, as every observation does, and costs nothing.
    cost = [_distance_sums(column, eta) for column in list(zip(*observed_sums))[:-1]]
    cost.append([0] * (eta + 1))
    # by_total[t]: sum_j |T_j - t|, the max metric's term for total t.
    if step:
        by_total = _distance_sums([sum(sums) for sums in observed_sums], levels * eta)
    else:
        by_total = [0]

    # togo[k][state][s][t] for k = 1..l: the least cost of levels
    # k+1..l (for max, with sum_j |T_j - T| added) after level k ends at
    # prefix sum s in that state with running total t; None where no
    # estimate goes on. A row covers at least t = 0..step*k*s, the
    # totals such a prefix can have. togo[0] stays empty: level 0 is
    # prefix sum 0 in the start state, and ``moves_after`` reads its
    # moves off togo[1].
    final: list[Row | None] = [None] * eta + [by_total]
    togo: list[list[list[Row | None]]] = [[final] * len(moves)]
    marks = {marked for marked, _ in moves if marked is not None}
    for k in range(levels - 1, 0, -1):
        level_cost = cost[k]
        # via[x][s][t]: the least cost of levels k+1..l when level k+1
        # ends at s in state x, from running total t at level k.
        via = [
            [
                None if row is None else [level_cost[s] + v for v in row[step * s :]]
                for s, row in enumerate(rows)
            ]
            for rows in togo[-1]
        ]
        # above[x][s]: the best over s' > s of via[x][s'], for a positive count.
        above = {x: _suffix_min(via[x]) for x in marks}
        togo.append(
            [
                [
                    _row_min(None if marked is None else above[marked][s], via[zero][s])
                    for s in range(eta + 1)
                ]
                for marked, zero in moves
            ]
        )
    togo.append([])
    togo.reverse()

    def moves_after(k: int, s: int, state: int, t: int) -> Iterator[tuple[int, int, int, int]]:
        """(least cost of levels k+1..l, prefix sum, state, total) for
        each way level k+1 can go on from level k, highest sum first."""
        marked, zero = moves[state]
        level_cost, rows = cost[k], togo[k + 1]
        for nxt in range(eta, s - 1, -1):
            x = zero if nxt == s else marked
            row = None if x is None else rows[x][nxt]
            if row is not None:
                t2 = t + step * nxt
                yield level_cost[nxt] + row[t2], nxt, x, t2

    found: list[Estimate] = []

    def walk(k: int, s: int, state: int, t: int, left: int, counts: Estimate) -> None:
        if k == levels:
            found.append(counts)
            return
        for value, nxt, x, t2 in moves_after(k, s, state, t):
            if value == left:
                walk(k + 1, nxt, x, t2, left - cost[k][nxt], counts + (nxt - s,))

    best = min(value for value, *_ in moves_after(0, 0, start, 0))
    walk(0, 0, start, 0, best, ())
    return MedianResult(estimates=tuple(found), deviation=best // 2 if step else best)


def _distance_sums(points: Sequence[int], top: int) -> Row:
    """[sum(|s - p| for p in points) for s in 0..top], each from the
    last: one step up moves s away from the points at or below it and
    toward the rest."""
    ordered = sorted(points)
    steps = (2 * bisect_right(ordered, s) - len(ordered) for s in range(top))
    return list(accumulate(steps, initial=sum(map(abs, ordered))))


def _row_min(a: Row | None, b: Row | None) -> Row | None:
    """Elementwise minimum over the shorter length; None is no row."""
    if a is None:
        return b
    if b is None:
        return a
    return [x if x < y else y for x, y in zip(a, b)]


def _suffix_min(rows: list[Row | None]) -> list[Row | None]:
    """out[s] = the elementwise minimum of rows[s+1:], None if all None."""
    out: list[Row | None] = [None] * len(rows)
    acc: Row | None = None
    for s in range(len(rows) - 1, 0, -1):
        acc = _row_min(acc, rows[s])
        out[s - 1] = acc
    return out


# ---------------------------------------------------------------------------
# Estimate-based synthesis
# ---------------------------------------------------------------------------


def multiset_synthesize(
    node: Component,
    model: MorphModel,
    enforce_gap_rule: bool = True,
    metric: str = "max",
) -> Frontier:
    """Compose the estimates of ``node``'s leaf children.

    Every admissible selection (w >= 1) is scored by (w; consensus of
    the picked estimates), carrying the consensus deviation. Among
    co-minimal consensus estimates the best-first one is used.
    Dominance for layering requires better-or-equal w, dominated-or-
    equal consensus counts, and no larger deviation.
    """
    lists = child_candidates(node, model, None)
    for child_id, cands in lists:
        for cand in cands:
            if cand.estimate is None:
                raise SolutionError(
                    f"alternative {cand.id!r} of child {child_id!r} carries no estimate"
                )
    check_counts(cand.estimate for _, cands in lists for cand in cands)

    solutions = []
    for picks, w, _ in admissible_states(node, model, lists):
        chosen = [cands[a] for (_, cands), a in zip(lists, picks)]
        median = generalized_median(
            [c.estimate for c in chosen],
            enforce_gap_rule=enforce_gap_rule,
            metric=metric,
        )
        solutions.append(
            CompositeSolution(
                node=node.id,
                picks=tuple((child_id, c.id) for (child_id, _), c in zip(lists, chosen)),
                quality=QualityVector(w=w, e=median.best),
                deviation=median.deviation,
            )
        )
    return pareto_filter(solutions, key=_median_key)


def _median_key(sol: CompositeSolution) -> QualityKey:
    """The ordinal key extended by -deviation: a smaller deviation is
    better, and a larger one may not dominate."""
    assert sol.deviation is not None
    return (*quality_key(sol), -sol.deviation)
