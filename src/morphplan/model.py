"""Domain model for hierarchical composition of ranked alternatives.

A system is a tree of components. Leaf components offer design
alternatives (DAs) ranked on an ordinal priority scale (1 = best).
A composite component is built by picking one alternative per child;
the pick set is scored by the pair (w; e) where w is the minimum
pairwise compatibility among the picks (0 forbids co-selection) and
e counts the picks per priority level. Quality vectors are partially
ordered: better w and more mass on better priority levels both help,
and neither can be traded for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

# Sanity caps on scale sizes; everything here is meant for small ordinal scales.
MAX_LEVELS = 16
MAX_COMPAT = 16

# Joins pick ids into composite-solution labels; forbidden inside DA ids.
PICK_SEPARATOR = "*"


class MorphError(Exception):
    """Base class for errors raised by this package."""


class InvalidComparisonError(MorphError, ValueError):
    """Count vectors of different length or total were compared."""


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
    total = 0
    out = []
    for c in counts:
        total += c
        out.append(total)
    return tuple(out)


def e_dominates(e1: Sequence[int], e2: Sequence[int]) -> bool:
    """Whether count vector ``e1`` is at least as good as ``e2``.

    Both vectors distribute the same number of picks over the same
    priority levels; ``e1`` dominates when every cumulative prefix
    (mass on the best k levels) is at least that of ``e2``. This is
    exactly the transitive closure of single-pick degradations: moving
    one counted pick from level i to level i+1 lowers one prefix by 1.
    Reflexive by construction.
    """
    if len(e1) != len(e2):
        raise InvalidComparisonError(
            f"count vectors differ in length: {len(e1)} vs {len(e2)}"
        )
    if sum(e1) != sum(e2):
        raise InvalidComparisonError(
            f"count vectors differ in total: {sum(e1)} vs {sum(e2)}"
        )
    c1, c2 = cumulative(e1), cumulative(e2)
    return all(a >= b for a, b in zip(c1, c2))


@dataclass(frozen=True)
class QualityVector:
    """Two-part score (w; e) of a composite selection.

    ``w`` is the minimum pairwise compatibility over the selected picks,
    ``e`` the per-priority-level pick counts (index 0 = best level).
    """

    w: int
    e: tuple[int, ...]

    def dominates(self, other: "QualityVector") -> bool:
        return n_dominates(self, other)

    def strictly_dominates(self, other: "QualityVector") -> bool:
        return self != other and n_dominates(self, other)

    def __str__(self) -> str:
        return f"({self.w};{','.join(str(c) for c in self.e)})"


def n_dominates(n1: QualityVector, n2: QualityVector) -> bool:
    """Whether ``n1`` is at least as good as ``n2`` on both criteria."""
    return n1.w >= n2.w and e_dominates(n1.e, n2.e)


def unit_counts(levels: int, priority: int) -> tuple[int, ...]:
    """Count vector of a single pick at the given priority level."""
    counts = [0] * levels
    counts[priority - 1] = 1
    return tuple(counts)


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
    """One local option for a leaf component."""

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

    def da_ids(self) -> tuple[str, ...]:
        return tuple(da.id for da in self.das)


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
        """Components in bottom-up order starting from the root."""
        seen: set[str] = set()

        def walk(cid: str) -> Iterator[Component]:
            if cid in seen or cid not in self.components:
                return
            seen.add(cid)
            comp = self.components[cid]
            for child in comp.children:
                yield from walk(child)
            yield comp

        yield from walk(self.root)


@dataclass(frozen=True)
class CompositeSolution:
    """One pick per child of a node, with its quality.

    ``picks`` keeps the node's child order. ``deviation`` is only set
    by estimate-based synthesis (total distance of the chosen
    consensus estimate to the picks' estimates)."""

    node: str
    picks: tuple[tuple[str, str], ...]
    quality: QualityVector
    deviation: int | None = None

    @property
    def label(self) -> str:
        return PICK_SEPARATOR.join(pick for _, pick in self.picks)

    def picks_map(self) -> dict[str, str]:
        return dict(self.picks)

    def pick_for(self, child: str) -> str:
        for cid, pick in self.picks:
            if cid == child:
                return pick
        raise SolutionError(f"solution has no pick for child {child!r}")


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
    order: list[str] = []
    while stack:
        cid, parent = stack.pop()
        if cid in seen:
            bad("tree-shape", cid, f"reached from both {seen[cid]!r} and {parent!r}")
            continue
        seen[cid] = parent
        order.append(cid)
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
            dwhere = f"{where}.{da.id}"
            if not da.id or PICK_SEPARATOR in da.id:
                bad("bad-id", dwhere, f"alternative id must be non-empty and free of {PICK_SEPARATOR!r}")
            if da.id in ids_seen:
                bad("duplicate-id", dwhere, "alternative id repeats within the component")
            ids_seen.add(da.id)
            if not 1 <= da.priority <= levels:
                bad("priority-range", dwhere, f"priority {da.priority} out of [1, {levels}]")
            if da.estimate is not None:
                if len(da.estimate) != levels:
                    bad("estimate-shape", dwhere, f"estimate has {len(da.estimate)} levels, scale has {levels}")
                elif any(c < 0 for c in da.estimate):
                    bad("estimate-negative", dwhere, "estimate counts must be nonnegative")

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
    # Owner child of each referenced alternative id. Tables may only name
    # alternatives of leaf children; composite children contribute
    # synthesized candidates whose pairs always take the default.
    owner: dict[str, str] = {}
    for child_id in comp.children:
        child = model.components.get(child_id)
        if child is None:
            continue
        for da in child.das:
            owner[da.id] = child_id
    for (a, b), value in table.entries.items():
        pwhere = f"{where}[{a},{b}]"
        if not 0 <= value <= nu:
            bad("compat-range", pwhere, f"value {value} out of [0, {nu}]")
        oa, ob = owner.get(a), owner.get(b)
        if oa is None or ob is None:
            missing = a if oa is None else b
            bad("compat-reference", pwhere, f"{missing!r} is not an alternative of any leaf child")
        elif oa == ob:
            bad("compat-intra-child", pwhere, f"both picks belong to child {oa!r}")
