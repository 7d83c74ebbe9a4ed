"""Domain model for hierarchical composition of ranked alternatives.

A system is a tree of components. Leaf components offer design
alternatives (DAs) ranked on an ordinal priority scale (1 = best).
A composite component is built by picking one alternative per child;
the pick set is scored by the pair (w; e) where w is the minimum
pairwise compatibility among the picks (0 forbids co-selection) and
e counts the picks per priority level. Quality vectors are partially
ordered: better w and more mass on better priority levels both help,
and neither can be traded for the other. The order lives here alone:
``quality_key`` maps a quality to w and the prefix sums of e, and
``dominates`` compares two keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import ge, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# Sanity caps on scale sizes; everything here is meant for small ordinal scales.
MAX_LEVELS = 16
MAX_COMPAT = 16

# Joins pick ids into composite-solution labels; forbidden inside DA ids.
PICK_SEPARATOR = "*"

# The alternative id of a (child, id) pick, for label joins.
_pick_id = itemgetter(1)


class MorphError(Exception):
    """Base class for errors raised by this package."""


class InvalidComparisonError(MorphError, ValueError):
    """Count vectors of different length or total were compared, or
    solutions with a deviation against solutions without one."""


class SolutionError(MorphError, ValueError):
    """A pick set is incomplete or references an unknown alternative."""


class InfeasibleNodeError(MorphError):
    """A component admits no selection with nonzero compatibility."""

    def __init__(self, node: str, reason: str = "no admissible selection"):
        super().__init__(f"{node}: {reason}")
        self.node = node
        self.reason = reason


# ---------------------------------------------------------------------------
# Count vectors and quality vectors
# ---------------------------------------------------------------------------


def cumulative(counts: Sequence[int]) -> tuple[int, ...]:
    """Running totals of a per-level count vector, best level first."""
    return tuple(accumulate(counts))


def check_counts(counts: Iterable[Sequence[int]]) -> None:
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


# A quality mapped to a tuple where higher is better in every coordinate,
# so dominance is componentwise >= and strict dominance adds "not equal".
QualityKey = tuple[int, ...]


def quality_key(w: int, e: Sequence[int], deviation: int | None = None) -> QualityKey:
    """(w, *prefix sums of e), then -deviation when there is one:
    dominance is componentwise >=, and a smaller deviation is better.
    For counts of one length, descending key order is w descending,
    then the counts lexicographically descending, then the deviation
    ascending."""
    key = (w, *accumulate(e))
    return key if deviation is None else (*key, -deviation)


def dominates(a: QualityKey, b: QualityKey) -> bool:
    """Key a is at least key b in every coordinate."""
    return all(map(ge, a, b))


def e_dominates(e1: Sequence[int], e2: Sequence[int]) -> bool:
    """Whether count vector ``e1`` is at least as good as ``e2``.

    Both vectors distribute the same number of picks over the same
    priority levels; ``e1`` dominates when every cumulative prefix
    (mass on the best k levels) is at least that of ``e2``. This is
    exactly the transitive closure of single-pick degradations: moving
    one counted pick from level i to level i+1 lowers one prefix by 1.
    Reflexive by construction.
    """
    check_counts((e1, e2))
    return dominates(cumulative(e1), cumulative(e2))


@dataclass(frozen=True)
class QualityVector:
    """Two-part score (w; e) of a composite selection.

    ``w`` is the minimum pairwise compatibility over the selected picks,
    ``e`` the per-priority-level pick counts (index 0 = best level).
    """

    w: int
    e: tuple[int, ...]

    def strictly_dominates(self, other: "QualityVector") -> bool:
        return self != other and n_dominates(self, other)

    def __str__(self) -> str:
        return f"({self.w};{','.join(str(c) for c in self.e)})"


def n_dominates(n1: QualityVector, n2: QualityVector) -> bool:
    """Whether ``n1`` is at least as good as ``n2`` on both criteria."""
    return n1.w >= n2.w and e_dominates(n1.e, n2.e)


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrdinalScale:
    """Scale bounds: ``levels`` priority grades (1 = best) and
    compatibility grades 0..``max_compat`` (0 = impossible)."""

    levels: int
    max_compat: int

    def __post_init__(self) -> None:
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [1, {MAX_LEVELS}]: {self.levels}")
        if not 1 <= self.max_compat <= MAX_COMPAT:
            raise ValueError(
                f"max_compat must be in [1, {MAX_COMPAT}]: {self.max_compat}"
            )


@dataclass(frozen=True)
class DesignAlternative:
    """One option a composite can pick for a child: a leaf's own
    alternative, or a retained solution of a composite child offered
    under its label."""

    id: str
    priority: int
    annotations: Mapping[str, str] = field(default_factory=dict)
    estimate: tuple[int, ...] | None = None


@dataclass(frozen=True)
class CompatibilityTable:
    """Symmetric pairwise compatibility entries with a default for
    unlisted pairs. Keys are sorted id pairs, so symmetry holds by
    construction."""

    default: int = 0
    entries: Mapping[tuple[str, str], int] = field(default_factory=dict)

    @staticmethod
    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, str, int]], default: int = 0
    ) -> "CompatibilityTable":
        entries: dict[tuple[str, str], int] = {}
        for a, b, value in pairs:
            entries[cls.key(a, b)] = value
        return cls(default=default, entries=entries)

    def value(self, a: str, b: str) -> int:
        return self.entries.get(self.key(a, b), self.default)


@dataclass(frozen=True)
class Component:
    """A node of the system tree.

    Leaves carry alternatives (``das``); composites carry ``children``
    plus an optional compatibility table over the children's
    alternatives. ``priority_overrides`` maps a composite solution
    label of THIS node to the priority it should carry when offered as
    a candidate to the parent (default: its Pareto layer).
    """

    id: str
    das: tuple[DesignAlternative, ...] = ()
    children: tuple[str, ...] = ()
    compat: CompatibilityTable | None = None
    priority_overrides: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def da(self, da_id: str) -> DesignAlternative:
        for da in self.das:
            if da.id == da_id:
                return da
        raise SolutionError(f"component {self.id} has no alternative {da_id!r}")


@dataclass(frozen=True)
class MorphModel:
    """The full tree: scale, root id, and components by id."""

    scale: OrdinalScale
    root: str
    components: Mapping[str, Component]

    def component(self, cid: str) -> Component:
        try:
            return self.components[cid]
        except KeyError:
            raise SolutionError(f"unknown component {cid!r}") from None

    def compat_value(self, node: Component, a: str, b: str) -> int:
        """Compatibility of two picks under ``node``. A node without a
        table treats every pair as fully compatible."""
        if node.compat is None:
            return self.scale.max_compat
        return node.compat.value(a, b)

    def postorder(self) -> Iterator[Component]:
        """Components in bottom-up order starting from the root: each
        child's subtree in child order, then the component itself. An
        explicit stack, so that a deep tree cannot exhaust the
        interpreter's recursion limit."""
        seen: set[str] = set()
        stack: list[tuple[str, bool]] = [(self.root, False)]
        while stack:
            cid, expanded = stack.pop()
            if expanded:
                yield self.components[cid]
            elif cid not in seen and cid in self.components:
                seen.add(cid)
                stack.append((cid, True))
                children = self.components[cid].children
                stack.extend((child, False) for child in reversed(children))


class CompositeSolution(NamedTuple):
    """One pick per child of a node, with its quality.

    ``picks`` keeps the node's child order. ``deviation`` is only set
    by estimate-based synthesis (total distance of the chosen
    consensus estimate to the picks' estimates)."""

    node: str
    picks: tuple[tuple[str, str], ...]
    quality: QualityVector
    deviation: int | None = None

    # A tuple record, but equal only to another solution. A plain tuple
    # on the left defers to this method too, since the class subclasses
    # tuple; returning NotImplemented would let tuple's own == say equal.
    # Another tuple subclass on the left still compares as a tuple.
    def __eq__(self, other) -> bool:
        return type(other) is CompositeSolution and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def label(self) -> str:
        return PICK_SEPARATOR.join(map(_pick_id, self.picks))

    def picks_map(self) -> dict[str, str]:
        return dict(self.picks)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def system_quality(
    picks: Mapping[str, str], node: Component, model: MorphModel
) -> QualityVector:
    """Score one pick per child of ``node``.

    w is the minimum compatibility over all unordered pick pairs; a
    single-child selection has no pairs and scores w = max_compat so
    that admissibility (w >= 1) never hinges on a vacuous minimum.
    e counts picks per priority level.
    """
    if node.is_leaf:
        raise SolutionError(f"component {node.id} is a leaf; nothing to compose")
    chosen: list[DesignAlternative] = []
    for child_id in node.children:
        if child_id not in picks:
            raise SolutionError(f"missing pick for child {child_id!r} of {node.id}")
        child = model.component(child_id)
        chosen.append(child.da(picks[child_id]))
    extra = set(picks) - set(node.children)
    if extra:
        raise SolutionError(f"picks name non-children of {node.id}: {sorted(extra)}")

    counts = [0] * model.scale.levels
    for da in chosen:
        counts[da.priority - 1] += 1

    w = model.scale.max_compat
    for i in range(len(chosen)):
        for j in range(i + 1, len(chosen)):
            w = min(w, model.compat_value(node, chosen[i].id, chosen[j].id))
    return QualityVector(w=w, e=tuple(counts))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [str(v) for v in self.violations]


def validate_model(model: MorphModel) -> ValidationReport:
    """Collect every structural violation; an empty report means the
    model is well-formed."""
    out: list[Violation] = []

    def bad(code: str, where: str, message: str) -> None:
        out.append(Violation(code, where, message))

    levels = model.scale.levels
    nu = model.scale.max_compat

    if model.root not in model.components:
        bad("root-missing", model.root, "root component is not defined")

    # Tree shape: every component reachable from the root exactly once.
    seen: dict[str, str] = {}
    stack: list[tuple[str, str]] = [(model.root, "")] if model.root in model.components else []
    while stack:
        cid, parent = stack.pop()
        if cid in seen:
            bad("tree-shape", cid, f"reached from both {seen[cid]!r} and {parent!r}")
            continue
        seen[cid] = parent
        comp = model.components.get(cid)
        if comp is None:
            bad("child-missing", cid, f"child of {parent!r} is not defined")
            continue
        for child in comp.children:
            stack.append((child, cid))
    for cid in model.components:
        if cid not in seen:
            bad("unreachable", cid, "component is not reachable from the root")

    for comp in model.components.values():
        where = comp.id
        if comp.is_leaf:
            if not comp.das:
                bad("empty-leaf", where, "leaf component has no alternatives")
            if comp.compat is not None:
                bad("leaf-compat", where, "leaf component carries a compatibility table")
            if comp.priority_overrides:
                bad("leaf-overrides", where, "leaf component carries priority overrides")
        else:
            if comp.das:
                bad("composite-das", where, "composite component carries alternatives")

        ids_seen: set[str] = set()
        for da in comp.das:
            if not da.id or PICK_SEPARATOR in da.id:
                bad("bad-id", f"{where}.{da.id}", f"alternative id must be non-empty and free of {PICK_SEPARATOR!r}")
            if da.id in ids_seen:
                bad("duplicate-id", f"{where}.{da.id}", "alternative id repeats within the component")
            ids_seen.add(da.id)
            if not 1 <= da.priority <= levels:
                bad("priority-range", f"{where}.{da.id}", f"priority {da.priority} out of [1, {levels}]")
            if da.estimate is not None:
                if len(da.estimate) != levels:
                    bad("estimate-shape", f"{where}.{da.id}", f"estimate has {len(da.estimate)} levels, scale has {levels}")
                elif any(c < 0 for c in da.estimate):
                    bad("estimate-negative", f"{where}.{da.id}", "estimate counts must be nonnegative")

        for label, prio in comp.priority_overrides.items():
            if not 1 <= prio <= levels:
                bad("override-range", f"{where}[{label}]", f"priority {prio} out of [1, {levels}]")

        if comp.compat is not None:
            _validate_table(model, comp, bad, nu)

    return ValidationReport(tuple(out))


def _validate_table(model: MorphModel, comp: Component, bad, nu: int) -> None:
    where = f"{comp.id}.compat"
    table = comp.compat
    assert table is not None
    if not 0 <= table.default <= nu:
        bad("compat-range", where, f"default {table.default} out of [0, {nu}]")
    # Owner children of each referenced alternative id; sibling leaves
    # may share an id, and a listed pair scores the two ids under
    # whichever children offer them.
    # Tables may only name alternatives of leaf children; composite
    # children contribute synthesized candidates whose pairs always take
    # the default.
    owners: dict[str, set[str]] = {}
    for child_id in comp.children:
        child = model.components.get(child_id)
        if child is None:
            continue
        for da in child.das:
            owners.setdefault(da.id, set()).add(child_id)
    for (a, b), value in table.entries.items():
        if not 0 <= value <= nu:
            bad("compat-range", f"{where}[{a},{b}]", f"value {value} out of [0, {nu}]")
        oa, ob = owners.get(a), owners.get(b)
        if oa is None or ob is None:
            missing = a if oa is None else b
            bad("compat-reference", f"{where}[{a},{b}]", f"{missing!r} is not an alternative of any leaf child")
        elif oa == ob and len(oa) == 1:
            bad("compat-intra-child", f"{where}[{a},{b}]", f"both picks belong to child {min(oa)!r}")
