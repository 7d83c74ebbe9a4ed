"""Interval estimates over an ordinal scale, as count multisets.

An estimate spreads a fixed number of marks (eta) over the scale's
priority levels: counts (n1, ..., nl) with sum eta, level 1 best. The
gap rule (optionally enforced) forbids marks on two levels that
sandwich an empty level. Estimates support elementwise aggregation, a
two-sided edit distance counting one-level promotions and demotions,
and consensus search: the domain estimate minimizing total distance to
a set of observed estimates. Estimate-carrying alternatives can be
composed like ranked ones, scoring a selection by its consensus
estimate instead of priority counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

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
    Candidate,
    Frontier,
    QualityKey,
    _admissible_states,
    _child_candidates,
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
    if levels < 1:
        raise ValueError(f"levels must be >= 1: {levels}")
    if eta < 1:
        raise ValueError(f"eta must be >= 1: {eta}")
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


def generalized_median(
    observed: Sequence[Estimate],
    enforce_gap_rule: bool = True,
    metric: str = "max",
) -> MedianResult:
    """Domain estimate(s) minimizing total proximity to the observed
    estimates.

    The candidate domain is every estimate of the same shape
    (gap rule applied unless disabled); the whole domain is scanned, so
    the result is exhaustively optimal. ``metric`` picks the per-pair
    deviation: the magnitude (``max``) or the full edit count
    (``sum``). All co-minimal candidates are returned, best first.
    """
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


# ---------------------------------------------------------------------------
# Estimate-based synthesis
# ---------------------------------------------------------------------------


def multiset_synthesize(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[Candidate]] | None = None,
    enforce_gap_rule: bool = True,
    metric: str = "max",
) -> Frontier:
    """Compose estimate-carrying candidates under ``node``.

    Every admissible selection (w >= 1) is scored by (w; consensus of
    the picked estimates), carrying the consensus deviation. Among
    co-minimal consensus estimates the best-first one is used.
    Dominance for layering requires better-or-equal w, dominated-or-
    equal consensus counts, and no larger deviation.
    """
    lists = _child_candidates(node, model, candidates)
    for child_id, cands in lists:
        for cand in cands:
            if cand.estimate is None:
                raise SolutionError(
                    f"alternative {cand.id!r} of child {child_id!r} carries no estimate"
                )
    check_counts(cand.estimate for _, cands in lists for cand in cands)

    solutions = []
    for picks, w, _ in _admissible_states(node, model, lists):
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
