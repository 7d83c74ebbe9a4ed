"""Report rendering: canonical JSON, a plain-text projection, and DOT
drawings of dominance posets (frontiers and estimate scales)."""

from __future__ import annotations

from typing import Sequence

from .model import CompositeSolution, QualityVector, cumulative
from .modeldoc import canonical_json
from .synthesis import Frontier, QualityKey, _check_counts, _dominates, quality_key


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
        sols = data["solutions"]
        lines.append(f"node {node}: {len(sols)} solution(s)")
        for sol in sols:
            dev = f" dev={sol['deviation']}" if sol.get("deviation") is not None else ""
            lines.append(
                f"  [layer {sol['layer']}] {sol['label']}  "
                f"({sol['w']};{','.join(str(c) for c in sol['e'])}){dev}"
            )
    for entry in report.get("named", []):
        mark = "ok" if entry["match"] else "MISMATCH"
        lines.append(
            f"named {entry['name']} @ {entry['node']}: computed "
            f"{_fmt_q(entry['computed'])}, reference {_fmt_q(entry['reference'])} [{mark}]"
        )
    for node, data in sorted(report.get("bottlenecks", {}).items()):
        for label, actions in sorted(data.items()):
            lines.append(f"bottlenecks {node} / {label}:")
            for act in actions:
                lines.append(
                    f"  {act['kind']} {act['describe']} -> "
                    f"({act['new_w']};{','.join(str(c) for c in act['new_e'])})"
                )
    if "medians" in report:
        med = report["medians"]
        lines.append(
            f"median scan @ {med['node']}: {len(med['solutions'])} solution(s), "
            f"scale P^{{{med['levels']},{med['eta']}}}"
        )
        for sol in med["solutions"]:
            lines.append(
                f"  [layer {sol['layer']}] {sol['label']}  "
                f"({sol['w']};{','.join(str(c) for c in sol['e'])}) dev={sol['deviation']}"
            )
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


def _fmt_q(q: dict) -> str:
    return f"({q['w']};{','.join(str(c) for c in q['e'])})"


# ---------------------------------------------------------------------------
# DOT drawings
# ---------------------------------------------------------------------------


def cover_edges(keys: Sequence[QualityKey]) -> list[tuple[int, int]]:
    """Hasse edges of strict dominance over keys (componentwise >=):
    i -> j when i beats j with nothing strictly between them."""
    n = len(keys)
    strict = [
        [keys[i] != keys[j] and _dominates(keys[i], keys[j]) for j in range(n)]
        for i in range(n)
    ]
    edges = []
    for i in range(n):
        for j in range(n):
            if strict[i][j] and not any(
                strict[i][k] and strict[k][j] for k in range(n)
            ):
                edges.append((i, j))
    return edges


def frontier_dot(frontier: Frontier) -> str:
    """The frontier's quality poset: one node per distinct (w; e),
    labelled with the labels of all its solutions and then the
    quality, ranked by w, edges along the dominance cover relation."""
    groups: dict[QualityVector, list[CompositeSolution]] = {}
    for sol in frontier.solutions:
        groups.setdefault(sol.quality, []).append(sol)
    edges = cover_edges([quality_key(sols[0]) for sols in groups.values()])
    lines = ["digraph quality {", "  rankdir=TB;", '  node [shape=box, fontsize=10];']
    by_w: dict[int, list[int]] = {}
    for i, (q, sols) in enumerate(groups.items()):
        label = "\\n".join([*(sol.label for sol in sols), str(q)])
        lines.append(f'  n{i} [label="{label}"];')
        by_w.setdefault(q.w, []).append(i)
    for w in sorted(by_w, reverse=True):
        members = " ".join(f"n{i};" for i in by_w[w])
        lines.append(f"  {{ rank=same; {members} }}")
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def estimate_scale_dot(estimates: Sequence[tuple[int, ...]]) -> str:
    """The dominance poset of an estimate scale, best at the top."""
    _check_counts(estimates)
    edges = cover_edges([cumulative(est) for est in estimates])
    lines = ["digraph estimates {", "  rankdir=TB;", '  node [shape=oval, fontsize=10];']
    for i, est in enumerate(estimates):
        label = "(" + ",".join(str(c) for c in est) + ")"
        lines.append(f'  e{i} [label="{label}"];')
    for i, j in edges:
        lines.append(f"  e{i} -> e{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
