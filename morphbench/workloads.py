"""The benchmark's workloads: which documents each one generates and
which ``morph`` commands it sends on them.

A workload is a list of groups. A group is one bundled fixture, one
fixed generated document, or a pool of seeded generated documents of
one shape. A run proceeds in rounds; each round sends every command
of a group on ``per_round`` instances of that group, in a seeded
shuffled order. Pool instances are split into ``per_round`` strata by
the cost recorded for them in ``reference/<workload>.json``, and a
round takes one instance from each stratum, so every seed draws other
documents with the same spread of cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Command:
    """One ``morph`` invocation on a group's document.

    ``check`` names how its output is verified: ``digest`` (bytes
    equal to the recorded output), ``dot`` (frontier drawing checked by
    content), ``scale-dot`` (estimate-scale drawing checked by content)
    or ``aggregate`` (optimum profit per budget and feasibility)."""

    name: str
    args: tuple[str, ...]
    check: str = "digest"


@dataclass(frozen=True)
class Group:
    name: str
    commands: tuple[Command, ...]
    pool: int = 1
    per_round: int = 1
    fixture: str | None = None
    make: Callable[[random.Random, str], dict] | None = None
    size: str = ""

    def document(self, index: int) -> dict:
        """The group's document number ``index``; the same index always
        gives the same document."""
        if self.make is None:
            raise ValueError(f"group {self.name} is a fixture")
        name = self.instance_name(index)
        return self.make(random.Random(name), name)

    def instance_name(self, index: int) -> str:
        if self.fixture:
            return self.fixture
        return self.name if self.pool == 1 else f"{self.name}-i{index:03d}"


@dataclass(frozen=True)
class Workload:
    """``repeats``: rounds run in one process and so send it the same
    documents again. A workload without it sends each round from a
    fresh forked child, so that no process sees a document twice.

    ``baseline``: fixture-sized groups sent once at the end of a traced
    run only, for the per-command rows of the baseline the ROADMAP
    quotes; they take seconds a command, too long for the timed rounds,
    and count in no metric."""

    name: str
    why: str
    groups: tuple[Group, ...]
    repeats: bool = False
    baseline: tuple[Group, ...] = ()

    def __post_init__(self) -> None:
        names = [g.name for g in self.groups + self.baseline]
        if len(set(names)) != len(names):
            raise ValueError(f"workload {self.name} repeats a group name: {names}")
        for g in self.groups:
            if g.pool % g.per_round:
                raise ValueError(f"group {g.name}: pool {g.pool} is not a multiple of per_round {g.per_round}")


def _json(name: str, *args: str, check: str = "digest") -> Command:
    fmt = () if "--format" in args else ("--format", "json")
    return Command(name, tuple(args) + fmt, check)


# ---------------------------------------------------------------------------
# paper-fixtures
# ---------------------------------------------------------------------------

_FIXTURE_COMMANDS = tuple(
    command
    for name in ("validate", "synth", "bottlenecks", "kernel", "report")
    for command in (Command(f"{name}/text", (name,)), _json(f"{name}/json", name))
) + (Command("synth/dot", ("synth", "--format", "dot"), "dot"),)

_MEDIANS = tuple(
    _json(f"median/{metric}/gap-{gap}", "median", "--metric", metric, "--enforce-condition2", gap)
    for metric in ("max", "sum")
    for gap in ("true", "false")
)

_YAMAL_AGGREGATES = tuple(
    _json(f"aggregate/{method}/b{budget}", "aggregate", "--method", method, "--budget", str(budget), check="aggregate")
    for method in ("greedy", "exact")
    for budget in (9, 10, 11, 12)
) + tuple(
    _json(f"aggregate/{method}/all", "aggregate", "--method", method, check="aggregate")
    for method in ("greedy", "exact")
)

PAPER_FIXTURES = Workload(
    name="paper-fixtures",
    why=(
        "What a user runs: every command on the four paper fixtures, 4-70 ms each; "
        "build_parser and model_digest are a large share, and it is the only workload that repeats inputs."
    ),
    groups=(
        Group("arkticheskoe", _FIXTURE_COMMANDS, fixture="arkticheskoe"),
        Group("kruzensternskoe", _FIXTURE_COMMANDS, fixture="kruzensternskoe"),
        Group("yamal_region", _FIXTURE_COMMANDS + _YAMAL_AGGREGATES, fixture="yamal_region"),
        Group(
            "arkticheskoe_multiset",
            _FIXTURE_COMMANDS + _MEDIANS,
            fixture="arkticheskoe_multiset",
        ),
    ),
    repeats=True,
)

# ---------------------------------------------------------------------------
# brute-oracle
# ---------------------------------------------------------------------------

_BRUTE = _json("synth/brute", "synth", "--algorithm", "brute")
_KERNEL_BRUTE = _json("kernel/brute", "kernel", "--algorithm", "brute")


def _tree_group(tag: str, shape, pool: int, per_round: int, commands, listed: float) -> Group:
    roots = 1
    for counts in shape:
        selections = 1
        for n in counts:
            selections *= n
        roots *= selections
    return Group(
        name=f"{tag}{roots}",
        commands=commands,
        pool=pool,
        per_round=per_round,
        make=lambda rng, name: gen.tree_document(rng, shape, listed, name),
        size=f"subsystems {shape}, {roots} root selections, listed share {listed}",
    )


# A run keeps each command's least latency over its rounds. Rounds of
# well under a second, of commands of 6-40 ms, give each command some
# forty sends in a run and a fair chance to run at the host's full
# speed; the host slows down in spells of a few milliseconds. The
# bundled fixtures take 0.5-2.7 s under brute force and are left to the
# traced baseline.
BRUTE_ORACLE = Workload(
    name="brute-oracle",
    why=(
        "Brute force is the oracle: tree roots hold 48-192 solutions with 5-10 qualities, so "
        "peel_layers and e_dominates take nearly all the time; the fold never runs."
    ),
    groups=(
        _tree_group("tree-r", [[2, 3], [2, 2, 2]], 102, 17, (_BRUTE,), 1.0),
        _tree_group("tree-r", [[2, 2], [2, 2], [2, 3]], 60, 10, (_BRUTE,), 1.0),
        _tree_group("tree-r", [[2, 2, 2], [2, 2], [2, 3]], 60, 10, (_BRUTE,), 1.0),
        _tree_group(
            "dot-r",
            [[2, 3], [2, 2, 2]],
            20,
            2,
            (Command("synth/brute/dot", ("synth", "--algorithm", "brute", "--format", "dot"), "dot"),),
            1.0,
        ),
        _tree_group("kern-r", [[2, 2, 2], [2, 2], [2, 3]], 20, 2, (_KERNEL_BRUTE,), 1.0),
    ),
    baseline=(
        Group(
            "arkticheskoe",
            (
                _BRUTE,
                _KERNEL_BRUTE,
                Command(
                    "synth/brute/dot-W",
                    ("synth", "--algorithm", "brute", "--format", "dot", "--node", "W"),
                    "dot",
                ),
            ),
            fixture="arkticheskoe",
        ),
        Group("kruzensternskoe", (_BRUTE, _KERNEL_BRUTE), fixture="kruzensternskoe"),
    ),
)

# ---------------------------------------------------------------------------
# dense-fold
# ---------------------------------------------------------------------------

_DP = _json("synth/dp", "synth")
_KERNEL_L1 = _json("kernel/layers-1", "kernel", "--layers", "1")


def _ladder_rung(children: int, das: int) -> Group:
    """The same document whatever the seed: seeded one-node models with
    every pair listed differ in cost by up to 13 times at 768 selections
    and 30 times above, too much for a run to average out."""
    return Group(
        name=f"dense-c{children}-d{das}",
        commands=(_DP, Command("synth/text", ("synth",)), _KERNEL_L1),
        make=lambda rng, name: gen.one_node_document(1, children, das),
        size=f"generate_document(seed=1, children={children}, das={das}, zero_rate=0)",
    )


DENSE_FOLD = Workload(
    name="dense-fold",
    why=(
        "Every pair is listed, so every position stays linked and the fold degrades toward "
        "enumeration in _prune_group and compat_value; brute force and DOT never run."
    ),
    groups=(
        _ladder_rung(6, 5),
        _ladder_rung(7, 6),
        _ladder_rung(8, 5),
        _ladder_rung(9, 6),
        _tree_group("ml-r", [[3, 3, 2], [2, 2, 3], [2, 3]], 200, 4, (_DP,), 0.5),
        _tree_group("ml-r", [[2, 2, 2, 2], [3, 3, 2], [2, 2, 2]], 200, 4, (_DP,), 0.4),
    ),
    baseline=(_ladder_rung(10, 5), _ladder_rung(10, 6)),
)

# ---------------------------------------------------------------------------
# estimates-aggregate
# ---------------------------------------------------------------------------


def _estimate_group(counts: list[int], levels: int, eta: int, pool: int, per_round: int, dot: bool) -> Group:
    selections = 1
    for n in counts:
        selections *= n
    commands = _MEDIANS
    if dot:
        commands += (Command("median/dot", ("median", "--format", "dot"), "scale-dot"),)
    return Group(
        name=f"est-c{len(counts)}-s{selections}-l{levels}-e{eta}",
        commands=commands,
        pool=pool,
        per_round=per_round,
        make=lambda rng, name: gen.estimate_document(rng, counts, levels, eta, name),
        size=f"{len(counts)} children with {counts} alternatives, estimates over {levels} levels with eta {eta}",
    )


_AGGREGATES = tuple(
    _json(f"aggregate/{method}", "aggregate", "--method", method, check="aggregate")
    for method in ("exact", "greedy")
)


def _knapsack_group(tag: str, items: list[int], budgets: int, pool: int, per_round: int, tied: bool = False) -> Group:
    return Group(
        name=f"{tag}-g{len(items)}",
        commands=_AGGREGATES,
        pool=pool,
        per_round=per_round,
        make=lambda rng, name: gen.knapsack_document(rng, items, budgets, name, tied),
        size=f"groups of {items} items with cent costs, {budgets} budgets" + (", all items tied" if tied else ""),
    )


ESTIMATES_AGGREGATE = Workload(
    name="estimates-aggregate",
    why=(
        "The two exhaustive solvers outside synthesis: the median domain scan (up to 495 "
        "estimates) and the knapsack table over cent-valued budgets; neither runs elsewhere."
    ),
    groups=(
        _estimate_group([1, 1, 1, 1, 2], 3, 4, 30, 2, True),
        _estimate_group([2, 1, 2, 1, 1, 1], 3, 6, 30, 2, True),
        _estimate_group([2, 2, 1, 1, 1], 4, 6, 30, 2, False),
        _estimate_group([1, 1, 1, 1, 2], 5, 8, 30, 2, False),
        _knapsack_group("knap", [3, 4, 3, 4], 3, 40, 2),
        _knapsack_group("knap", [4, 4, 5, 4, 3], 3, 40, 2),
        _knapsack_group("knap", [5, 5, 4, 5, 4, 5], 3, 40, 2),
        _knapsack_group("tied", [3, 3, 3, 3, 3], 2, 10, 1, tied=True),
    ),
)

WORKLOADS = {w.name: w for w in (PAPER_FIXTURES, BRUTE_ORACLE, DENSE_FOLD, ESTIMATES_AGGREGATE)}
