"""Report rendering: canonical JSON, a plain-text projection, and DOT
drawings of dominance posets (frontiers and estimate scales). The
quality order and the (w;e) text form both come from ``model``."""

from __future__ import annotations

from typing import Iterator, Sequence

from .model import CompositeSolution, QualityKey, QualityVector, check_counts, cumulative
from .model import dominates, quality_key
from .modeldoc import canonical_json
from .synthesis import Frontier


def render_json(report: dict) -> str:
    return canonical_json(report)


# ---------------------------------------------------------------------------
# Text projection
# ---------------------------------------------------------------------------


def render_text(report: dict) -> str:
    lines: list[str] = []
    model = report.get("model", {})
    if model:
        name = model.get("name") or model.get("root", "?")
        lines.append(
            f"model {name} (root {model.get('root')}, digest {model.get('digest')})"
        )
    if "validation" in report:
        issues = report["validation"]
        lines.append(f"validation: {'ok' if not issues else f'{len(issues)} issue(s)'}")
        lines.extend(f"  {v}" for v in issues)
    for node, data in sorted(report.get("frontiers", {}).items()):
        if data.get("infeasible"):
            lines.append(f"node {node}: infeasible ({data.get('reason', '')})")
            continue
        lines.append(f"node {node}: {len(data['solutions'])} solution(s)")
        lines.extend(_solution_row(sol) for sol in data["solutions"])
    for entry in report.get("named", []):
        mark = "ok" if entry["match"] else "MISMATCH"
        lines.append(
            f"named {entry['name']} @ {entry['node']}: computed "
            f"{QualityVector(**entry['computed'])}, "
            f"reference {QualityVector(**entry['reference'])} [{mark}]"
        )
    for node, data in sorted(report.get("bottlenecks", {}).items()):
        for label, actions in sorted(data.items()):
            lines.append(f"bottlenecks {node} / {label}:")
            lines.extend(
                f"  {act['kind']} {act['describe']} -> {QualityVector(act['new_w'], act['new_e'])}"
                for act in actions
            )
    if "medians" in report:
        med = report["medians"]
        lines.append(
            f"median scan @ {med['node']}: {len(med['solutions'])} solution(s), "
            f"scale P^{{{med['levels']},{med['eta']}}}"
        )
        lines.extend(_solution_row(sol) for sol in med["solutions"])
    if "kernel" in report:
        ker = report["kernel"]
        lines.append(f"kernel over {ker['count']} solution(s) @ {ker['node']}:")
        lines.append(f"  agreed: {ker['kernel']}")
        lines.append(f"  superstructure: {ker['superstructure']}")
    for agg in report.get("aggregation", []):
        if not agg["feasible"]:
            lines.append(f"budget {agg['budget']}: infeasible")
            continue
        lines.append(
            f"budget {agg['budget']} ({agg['method']}): {agg['plan']}  "
            f"cost {agg['total_cost']}, profit {agg['total_profit']}"
        )
        for alt in agg.get("alternatives", []):
            lines.append(f"  also optimal: {'+'.join(alt['items'])} (profit {alt['profit']})")
    for warning in report.get("warnings", []):
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _solution_row(sol: dict) -> str:
    """A frontier or median-scan solution: layer, label, quality and,
    when it carries one, the consensus deviation."""
    dev = f" dev={sol['deviation']}" if sol.get("deviation") is not None else ""
    return f"  [layer {sol['layer']}] {sol['label']}  {QualityVector(sol['w'], sol['e'])}{dev}"


# ---------------------------------------------------------------------------
# DOT drawings
# ---------------------------------------------------------------------------


def cover_edges(keys: Sequence[QualityKey]) -> list[tuple[int, int]]:
    """Hasse edges of strict dominance over keys (componentwise >=):
    i -> j when i beats j with nothing strictly between them, sorted.

    A transitive reduction on bitsets: bit i of ``beaten[j]`` is set
    when key i beats key j, and j's covers are the keys in ``beaten[j]``
    that beat no other key in it."""
    beaten = [
        sum(1 << i for i, a in enumerate(keys) if a != b and dominates(a, b)) for b in keys
    ]
    edges = []
    for j, mask in enumerate(beaten):
        implied = 0
        for k in _bits(mask):
            implied |= beaten[k]
        edges.extend((i, j) for i in _bits(mask & ~implied))
    edges.sort()
    return edges


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def frontier_dot(frontier: Frontier) -> str:
    """The frontier's quality poset: one node per distinct (w; e) and
    deviation, as ``peel_layers`` groups them, labelled with the labels
    of all its solutions and then the quality (and deviation), ranked
    by w, edges along the cover relation of ``quality_key``."""
    groups: dict[tuple[QualityVector, int | None], list[CompositeSolution]] = {}
    for sol in frontier.solutions:
        groups.setdefault((sol.quality, sol.deviation), []).append(sol)
    labels = []
    by_w: dict[int, list[int]] = {}
    for i, ((q, dev), sols) in enumerate(groups.items()):
        score = str(q) if dev is None else f"{q} dev={dev}"
        labels.append("\\n".join([*(_dot_escape(sol.label) for sol in sols), score]))
        by_w.setdefault(q.w, []).append(i)
    keys = [quality_key(q.w, q.e, dev) for q, dev in groups]
    ranks = [by_w[w] for w in sorted(by_w, reverse=True)]
    return _poset_dot("quality", "box", "n", labels, keys, ranks)


def _dot_escape(text: str) -> str:
    """Make text safe inside a double-quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def estimate_scale_dot(estimates: Sequence[tuple[int, ...]]) -> str:
    """The dominance poset of an estimate scale, best at the top."""
    check_counts(estimates)
    labels = ["(" + ",".join(str(c) for c in est) + ")" for est in estimates]
    return _poset_dot("estimates", "oval", "e", labels, [cumulative(est) for est in estimates])


def _poset_dot(graph: str, shape: str, prefix: str, labels: Sequence[str],
               keys: Sequence[QualityKey], ranks: Sequence[Sequence[int]] = ()) -> str:
    """A poset drawn top-down: node i is ``prefix`` i with ``labels[i]``,
    each group of ``ranks`` shares a rank, and the edges are the cover
    relation of ``keys``."""
    lines = [f"digraph {graph} {{", "  rankdir=TB;", f"  node [shape={shape}, fontsize=10];"]
    lines.extend(f'  {prefix}{i} [label="{label}"];' for i, label in enumerate(labels))
    for members in ranks:
        lines.append("  { rank=same; " + " ".join(f"{prefix}{i};" for i in members) + " }")
    lines.extend(f"  {prefix}{i} -> {prefix}{j};" for i, j in cover_edges(keys))
    lines.append("}")
    return "\n".join(lines) + "\n"
