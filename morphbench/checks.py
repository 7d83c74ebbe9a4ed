"""Output checks. Each returns ``None`` when the output is right, or a
one-line reason when it is not.

Reports, frontiers and medians must match the recorded bytes. Drawings
and knapsack plans are checked by content instead, because planned
changes redraw the DOT on distinct qualities and cap the list of
co-optimal selections.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import accumulate


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check(kind: str, output: str, reference, document: dict) -> str | None:
    if kind == "digest":
        got = digest(output)
        return None if got == reference else f"digest {got} != {reference}"
    if kind == "dot":
        return check_frontier_dot(output, reference)
    if kind == "scale-dot":
        return check_scale_dot(output, document)
    if kind == "aggregate":
        return check_aggregate(output, reference, document)
    raise ValueError(f"unknown check {kind!r}")


# ---------------------------------------------------------------------------
# Dominance, written independently of the program
# ---------------------------------------------------------------------------


def _e_dominates(e1, e2) -> bool:
    return all(a >= b for a, b in zip(accumulate(e1), accumulate(e2)))


def _strictly(q1: tuple, q2: tuple) -> bool:
    """(w; e) order: q1 = (w, e...) strictly dominates q2."""
    return q1 != q2 and q1[0] >= q2[0] and _e_dominates(q1[1:], q2[1:])


_NODE = re.compile(r'^\s*(\w+) \[label="(.*)"\];$')
_EDGE = re.compile(r"^\s*(\w+) -> (\w+);$")


def _parse_dot(output: str) -> tuple[dict[str, str], list[tuple[str, str]]] | None:
    lines = output.splitlines()
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        return None
    nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    for line in lines:
        if m := _NODE.match(line):
            nodes[m.group(1)] = m.group(2)
        elif m := _EDGE.match(line):
            edges.append((m.group(1), m.group(2)))
    return nodes, edges


def _edges_descend(nodes: dict[str, tuple], edges) -> str | None:
    for a, b in edges:
        if a not in nodes or b not in nodes:
            return f"edge {a} -> {b} names an undeclared node"
        if not _strictly(nodes[a], nodes[b]):
            return f"edge {a} -> {b} does not run from a strictly dominating quality"
    return None


_QUALITY = re.compile(r"\((\d+);([\d,]+)\)")


def check_frontier_dot(output: str, qualities: list[list[int]]) -> str | None:
    """Every recorded frontier quality is drawn, nothing else is, and
    every edge runs from a strictly dominating quality to a dominated
    one. ``qualities`` holds (w, e1, ..., el) per distinct quality."""
    parsed = _parse_dot(output)
    if parsed is None:
        return "not a digraph"
    labels, edges = parsed
    nodes: dict[str, tuple] = {}
    for node, label in labels.items():
        m = _QUALITY.search(label)
        if m is None:
            return f"node {node} carries no quality"
        nodes[node] = (int(m.group(1)), *map(int, m.group(2).split(",")))
    drawn = set(nodes.values())
    want = {tuple(q) for q in qualities}
    if drawn != want:
        return f"drawn qualities differ: missing {sorted(want - drawn)}, extra {sorted(drawn - want)}"
    return _edges_descend(nodes, edges)


def estimate_domain(levels: int, eta: int) -> set[tuple[int, ...]]:
    """Every count vector spreading eta marks over the levels that
    keeps the gap rule: marks on levels i and i+2 require a mark on
    level i+1."""
    out: set[tuple[int, ...]] = set()

    def build(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == levels - 1:
            out.add(prefix + (left,))
            return
        for c in range(left + 1):
            build(prefix + (c,), left - c)

    build((), eta)
    return {e for e in out if not any(e[i] and e[i + 2] and not e[i + 1] for i in range(levels - 2))}


def check_scale_dot(output: str, document: dict) -> str | None:
    """The default ``median --format dot`` draws the gap-ruled estimate
    scale of the root's alternatives: every estimate once, and edges
    only from a dominating estimate to a dominated one."""
    parsed = _parse_dot(output)
    if parsed is None:
        return "not a digraph"
    labels, edges = parsed
    nodes = {}
    for node, label in labels.items():
        nodes[node] = (0, *map(int, label.strip("()").split(",")))
    estimate = next(
        da["estimate"] for c in document["components"] if c["kind"] == "leaf" for da in c["das"]
    )
    want = estimate_domain(len(estimate), sum(estimate))
    drawn = [q[1:] for q in nodes.values()]
    if len(drawn) != len(want) or set(drawn) != want:
        return f"drew {len(drawn)} estimates, the scale has {len(want)}"
    return _edges_descend(nodes, edges)


def number(value) -> Fraction:
    return Fraction(repr(value)) if isinstance(value, float) else Fraction(value)


def check_aggregate(output: str, reference: dict, document: dict) -> str | None:
    """Per budget: the plan and every listed alternative fill each
    group once within the budget, and reach the recorded profit (the
    optimum for exact, the greedy pick's profit for greedy)."""
    try:
        report = json.loads(output)
    except json.JSONDecodeError:
        return "output is not JSON"
    section = document["knapsack"]
    items = {
        it["id"]: (g["id"], number(it["cost"]), number(it["profit"]))
        for g in section["groups"]
        for it in g["items"]
    }
    groups = {g["id"] for g in section["groups"]}
    entries = report.get("aggregation", [])
    if [str(number(e["budget"])) for e in entries] != list(reference):
        return "budgets differ from the recorded ones"
    for entry in entries:
        budget = number(entry["budget"])
        profit = Fraction(reference[str(budget)])
        if not entry.get("feasible"):
            return f"budget {budget}: reported infeasible"
        picks = entry["picks"]
        for comp, pick in section["kernel"].items():
            if picks.get(comp) != pick:
                return f"budget {budget}: kernel pick {comp} lost"
        chosen = [pick for comp, pick in picks.items() if comp in groups]
        selections = [chosen] + [alt["items"] for alt in entry.get("alternatives", [])]
        for sel in selections:
            if sorted(items[i][0] for i in sel if i in items) != sorted(groups) or len(sel) != len(groups):
                return f"budget {budget}: {sel} does not fill every group once"
            if sum(items[i][1] for i in sel) > budget:
                return f"budget {budget}: {sel} exceeds the budget"
            if sum(items[i][2] for i in sel) != profit:
                return f"budget {budget}: {sel} has profit {sum(items[i][2] for i in sel)}, want {profit}"
        if number(entry["total_profit"]) != profit:
            return f"budget {budget}: total_profit {entry['total_profit']}, want {profit}"
    return None
