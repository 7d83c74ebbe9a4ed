"""Composition of admissible selections and Pareto-efficient frontiers.

One depth-first walk, ``admissible_states``, composes a node's
children. Without a cut it lists every admissible selection: the
brute-force oracle, also used by estimate synthesis; both walk the
children in declared order. The fold gives it a branch-and-bound cut
and the children fewest candidates first, so it reaches only the
selections that no other admissible selection strictly beats. Whole
trees are solved bottom-up: each retained solution of a composite
node becomes a design alternative of its parent, with the solution
label as id and its layer (or a pinned override) as priority.
Qualities are compared by ``model``'s order, and ``build_solutions``
makes the solutions of every composition, estimate synthesis included.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, ge, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    Component,
    CompositeSolution,
    DesignAlternative,
    InfeasibleNodeError,
    InvalidComparisonError,
    MorphModel,
    QualityKey,
    QualityVector,
    SolutionError,
    check_counts,
    dominates,
    quality_key,
)


@dataclass(frozen=True)
class Frontier:
    """Solutions of one node, split into dominance layers.

    Layer 1 holds the non-dominated solutions; layer k+1 holds what
    becomes non-dominated once layers <= k are removed. ``layers`` is
    parallel to ``solutions``.
    """

    solutions: tuple[CompositeSolution, ...]
    layers: tuple[int, ...]

    def layer(self, k: int) -> tuple[CompositeSolution, ...]:
        return tuple(s for s, l in zip(self.solutions, self.layers) if l == k)

    def find(self, picks: Mapping[str, str]) -> CompositeSolution | None:
        want = dict(picks)
        for s in self.solutions:
            if s.picks_map() == want:
                return s
        return None


def child_candidates(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[DesignAlternative]] | None,
) -> list[tuple[DesignAlternative, ...]]:
    """Each child's option tuple, in ``node.children`` order: its entry
    in ``candidates`` or, for a leaf child, its own alternatives."""
    if node.is_leaf:
        raise SolutionError(f"component {node.id} is a leaf; nothing to compose")
    lists: list[tuple[DesignAlternative, ...]] = []
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
            cands = child.das
        if not cands:
            raise InfeasibleNodeError(node.id, f"child {child_id!r} offers no candidates")
        lists.append(cands)
    return lists


# ---------------------------------------------------------------------------
# The admissible walk
# ---------------------------------------------------------------------------

# A selection of one candidate per child so far, as indices into the
# children's candidate lists, with its running w and its running counts
# per priority level.
_State = tuple[tuple[int, ...], int, tuple[int, ...]]

# compat[k][i][a][b]: candidate a of child i against candidate b of
# child k, for i < k.
_Matrix = list[list[list[list[int]]]]


def _compat_matrix(node: Component, cands: Sequence[Sequence[DesignAlternative]]) -> _Matrix | None:
    """Every pair the node's table scores, filled once per node from
    its entries under the table's sorted-pair key. None for a node
    without a table: every pair is then ``max_compat``, and the running
    w never leaves it."""
    if node.compat is None:
        return None
    get, default = node.compat.entries.get, node.compat.default
    ids = [[cand.id for cand in options] for options in cands]
    return [
        [
            [[get((a, b) if a <= b else (b, a), default) for b in ids[k]] for a in ids[i]]
            for i in range(k)
        ]
        for k in range(len(ids))
    ]


def admissible_states(
    node: Component,
    model: MorphModel,
    cands: Sequence[Sequence[DesignAlternative]],
    cut: Callable[[_State], bool] | None = None,
) -> Iterator[_State]:
    """Every admissible selection of one of ``cands`` per child, depth
    first in walk order (the first child's candidate varies slowest):
    each pick lowers w to the least pairwise compatibility so far and
    adds to its priority's count, and a pick that meets a zero is cut.
    ``cut`` is asked of every state, partial or complete, before it is
    extended or yielded; a state it cuts goes with all its completions."""
    compat = _compat_matrix(node, cands)
    stack: list[_State] = [((), model.scale.max_compat, (0,) * model.scale.levels)]
    while stack:
        state = stack.pop()
        if cut is not None and cut(state):
            continue
        picks, w, counts = state
        k = len(picks)
        rows = () if compat is None else [col[a] for col, a in zip(compat[k], picks)]
        out = []
        for b, cand in enumerate(cands[k]):
            wv = w
            for row in rows:
                if row[b] < wv:
                    wv = row[b]
                    if wv == 0:
                        break
            if wv:
                cnt = list(counts)
                cnt[cand.priority - 1] += 1
                out.append((picks + (b,), wv, tuple(cnt)))
        if k + 1 < len(cands):
            stack += reversed(out)
        elif cut is None:
            yield from out
        else:
            yield from (st for st in out if not cut(st))


def build_solutions(
    node: Component,
    cands: Sequence[Sequence[DesignAlternative]],
    states: Iterable[_State],
    deviations: Iterable[int | None] | None = None,
) -> list[CompositeSolution]:
    """One solution of ``node`` per state walked over ``cands``, its
    picks named by candidate id and by ``node.children`` (a leaf names
    itself), each with its entry of ``deviations`` when given. The
    solutions of one (w, e) share one QualityVector."""
    named = [
        [(child_id, cand.id) for cand in options]
        for child_id, options in zip(node.children or (node.id,), cands)
    ]
    qualities: dict[tuple[int, tuple[int, ...]], QualityVector] = {}
    out = []
    if deviations is None:
        deviations = repeat(None)
    for (picks, w, counts), deviation in zip(states, deviations):
        quality = qualities.get((w, counts))
        if quality is None:
            quality = qualities[w, counts] = QualityVector(w=w, e=counts)
        picked = tuple(map(list.__getitem__, named, picks))
        out.append(CompositeSolution(node.id, picked, quality, deviation))
    return out


def enumerate_admissible(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[DesignAlternative]] | None = None,
) -> list[CompositeSolution]:
    """All selections of one candidate per child with w >= 1, in walk
    order (the first child's candidate varies slowest).

    Prefixes hitting a zero-compatibility pair are cut immediately,
    so the walk touches only selections that can still be admissible.
    """
    cands = child_candidates(node, model, candidates)
    return build_solutions(node, cands, admissible_states(node, model, cands))


# ---------------------------------------------------------------------------
# Pareto layering
# ---------------------------------------------------------------------------


def _key_layers(keys: Sequence[QualityKey]) -> list[int]:
    """Dominance layer of each of the distinct ``keys``, given in
    lexicographically descending order: one more than the deepest layer
    among the keys that strictly beat it.

    Every strict dominator of a key is lexicographically larger, so it
    is layered before the key. Each key's front is found by
    ``bisect_left`` over the fronts built so far (ENS-BS: Zhang, Tian,
    Cheng and Jin, "An efficient approach to nondominated sorting for
    evolutionary multiobjective optimization", IEEE TEVC 19(2), 2015):
    if a member of front i beats a key, then by transitivity a member
    of every earlier front does too, so "no member beats the key" is
    false up to some front and true from there on, and the key's layer
    is the first front where it holds.
    """
    fronts: list[list[QualityKey]] = []
    layers = []
    for key in keys:
        i = bisect_left(fronts, True, key=lambda front: not any(dominates(m, key) for m in front))
        if i == len(fronts):
            fronts.append([key])
        else:
            fronts[i].append(key)
        layers.append(i + 1)
    return layers


def _pick_ids(sol: CompositeSolution) -> tuple[str, ...]:
    return tuple(map(itemgetter(1), sol.picks))


def peel_layers(
    solutions: Sequence[CompositeSolution],
) -> tuple[tuple[CompositeSolution, ...], tuple[int, ...]]:
    """Dominance layers by ``quality_key``: layer 1 is the maximal set,
    layer k+1 what becomes maximal once layers <= k are removed.

    The order is the same whatever the input order: ``quality_key``
    descending (w descending, then the counts lexicographically
    descending, then the deviation ascending where solutions carry
    one); solutions of one quality and deviation by their pick ids.
    The solutions are grouped once by (w, e, deviation), and only the
    distinct groups are keyed, sorted and peeled. Raises
    InvalidComparisonError when the count vectors differ in length or
    total, or when only some solutions carry a deviation.
    """
    groups: dict[tuple[int, tuple[int, ...], int | None], list[CompositeSolution]] = {}
    for sol in solutions:
        q = sol.quality
        groups.setdefault((q.w, q.e, sol.deviation), []).append(sol)
    check_counts(e for _, e, _ in groups)
    if len({dev is None for _, _, dev in groups}) > 1:
        raise InvalidComparisonError("only some solutions carry a deviation")
    # Distinct groups of one shape have distinct keys.
    by_key = {quality_key(*group): members for group, members in groups.items()}
    keys = sorted(by_key, reverse=True)
    ordered: list[CompositeSolution] = []
    layers: list[int] = []
    for key, layer in zip(keys, _key_layers(keys)):
        members = by_key[key]
        if len(members) > 1:
            members.sort(key=_pick_ids)
        ordered += members
        layers += [layer] * len(members)
    return tuple(ordered), tuple(layers)


def pareto_filter(solutions: Sequence[CompositeSolution]) -> Frontier:
    """Layer a set of solutions of one node as ``peel_layers`` does;
    layer 1 is the non-dominated set."""
    nodes = {s.node for s in solutions}
    if len(nodes) > 1:
        raise SolutionError(f"solutions score different nodes: {sorted(nodes)}")
    for s in solutions:
        if s.quality.w < 1:
            raise SolutionError(f"inadmissible solution (w=0): {s.label}")
    return Frontier(*peel_layers(solutions))


# ---------------------------------------------------------------------------
# Fold-based synthesis
# ---------------------------------------------------------------------------


def synthesize_dp(
    node: Component,
    model: MorphModel,
    candidates: Mapping[str, Sequence[DesignAlternative]] | None = None,
) -> Frontier:
    """The admissible selections that no other admissible selection
    strictly beats, layered.

    Selection b strictly beats a when b's key (w, prefix sums of its
    counts) is at least a's everywhere and the prefix sums differ.
    Equal sums with larger w do not beat, so a selection that loses
    only on w stays, on a deeper layer. The relation is transitive.

    A depth-first branch and bound: the admissible walk, each child's
    candidates best priority first, with the bound test as its cut. A
    partial selection's optimistic completion is its running w and its
    prefix sums with every open child at its best priority; no
    completion scores above it. The walk cuts a selection as soon as a
    complete selection found so far strictly beats that bound, since
    that selection then strictly beats every completion. The found
    selections are kept grouped by key, and only under keys that
    nothing found strictly beats: a new key first evicts every kept
    key it beats. By transitivity a find beaten by an earlier one is
    cut when walked to and one beaten by a later one is evicted, so
    the kept groups end as exactly the unbeaten selections. The
    layer-1 set equals full enumeration's; deeper layers are those of
    the kept set, so they may come back thinner.

    The children are walked fewest candidates first, ties in child
    order: the fail-first rule of tree search (Haralick and Elliott,
    "Increasing tree search efficiency for constraint satisfaction
    problems", AI 14, 1980). Single-candidate children then come
    before the branching ones, so complete selections, and with them
    bounds, are reached after fewer states. The answer cannot depend
    on that order: which selections some other one strictly beats is
    a property of the set of admissible selections, and the order
    changes only how much is cut. The picks are put back in
    ``node.children`` order before the solutions are built.
    """
    lists = child_candidates(node, model, candidates)
    order = sorted(range(len(lists)), key=lambda i: len(lists[i]))
    # Best priority first; ties keep the candidate order.
    cands = [tuple(sorted(lists[i], key=attrgetter("priority"))) for i in order]

    # suffix[k]: the prefix sums of walked children k.. each at its best priority.
    suffix = [(0,) * model.scale.levels]
    for options in reversed(cands):
        best = options[0].priority
        suffix.append(tuple(s + (j >= best - 1) for j, s in enumerate(suffix[-1])))
    suffix.reverse()

    def beaten(state: _State) -> bool:
        picks, w, counts = state
        sums = tuple(map(add, accumulate(counts), suffix[len(picks)]))
        for kw, ks in kept:
            if kw >= w and ks != sums and all(map(ge, ks, sums)):
                return True
        return False

    # Complete selections by (w, prefix sums): their bound, with no child open.
    kept: dict[tuple[int, tuple[int, ...]], list[_State]] = {}
    for state in admissible_states(node, model, cands, beaten):
        w, sums = key = (state[1], tuple(accumulate(state[2])))
        if key in kept:
            kept[key].append(state)
        else:
            for old in [
                (kw, ks) for kw, ks in kept if w >= kw and sums != ks and all(map(ge, sums, ks))
            ]:
                del kept[old]
            kept[key] = [state]
    # Back to node.children order: child i was walked at position at[i].
    at = sorted(range(len(order)), key=order.__getitem__)
    states = (
        (tuple(map(picks.__getitem__, at)), w, counts)
        for picks, w, counts in chain.from_iterable(kept.values())
    )
    return pareto_filter(build_solutions(node, list(map(cands.__getitem__, at)), states))


# ---------------------------------------------------------------------------
# Whole-tree synthesis
# ---------------------------------------------------------------------------


@dataclass
class SynthesisOutcome:
    """The frontier of each feasible composite node (and of a leaf
    root), and the reason of each infeasible one."""

    frontiers: dict[str, Frontier] = field(default_factory=dict)
    infeasible: dict[str, str] = field(default_factory=dict)


def leaf_frontier(component: Component, model: MorphModel) -> Frontier:
    """A leaf's alternatives as single-pick solutions, layered by
    priority: read for a leaf root and for a drawn leaf."""
    cands = [component.das]
    states = admissible_states(component, model, cands)
    return pareto_filter(build_solutions(component, cands, states))


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
    priorities, and a leaf gets no frontier of its own unless it is the
    root. An infeasible node poisons its ancestors but leaves sibling
    subtrees reported.

    "brute" retains every admissible solution; "dp" retains only the
    selections that no other admissible selection strictly beats, so
    its deeper layers can be thinner. Efficient layers agree under both
    everywhere, unless a priority override pins a dominated solution
    that only full retention still carries.
    """
    if algorithm not in ("dp", "brute"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    outcome = SynthesisOutcome()
    candidates: dict[str, tuple[DesignAlternative, ...]] = {}

    for comp in model.postorder():
        if comp.is_leaf:
            if comp.id == model.root:
                outcome.frontiers[comp.id] = leaf_frontier(comp, model)
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
        if comp.id != model.root:  # the root has no parent to offer to
            candidates[comp.id] = _retained_candidates(comp, model, frontier, max_layers)
    return outcome


def _retained_candidates(
    comp: Component,
    model: MorphModel,
    frontier: Frontier,
    max_layers: int | None,
) -> tuple[DesignAlternative, ...]:
    levels = model.scale.levels
    retained: list[DesignAlternative] = []
    for sol, layer in zip(frontier.solutions, frontier.layers):
        if max_layers is not None and layer > max_layers:
            continue
        label = sol.label
        priority = comp.priority_overrides.get(label, min(layer, levels))
        retained.append(DesignAlternative(id=label, priority=priority))
    return tuple(retained)
