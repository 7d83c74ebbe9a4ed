"""Command line driver.

    morph validate    model.json
    morph synth       model.json [--algorithm dp|brute] [--layers K] [--node ID]
    morph bottlenecks model.json [--node ID]
    morph median      model.json [--node ID] [--enforce-condition2 true|false]
                                 [--metric max|sum]
    morph aggregate   model.json [--budget B] [--method greedy|exact]
    morph kernel      model.json [--threshold P]
    morph gen         [--seed N] [--children M] [--das D] [--levels L] [--nu V]
    morph report      model.json [...]

All commands take --format text|json|dot (dot where a poset exists).
Exit codes: 0 success, 1 infeasibility, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analysis import bottlenecks as solution_bottlenecks
from .analysis import kernel as solution_kernel
from .estimates import enumerate_estimates, generalized_median, multiset_synthesize
from .generator import generate_document
from .knapsack import extend_kernel
from .model import CompositeSolution, MorphError, QualityVector, system_quality
from .modeldoc import DocumentError, ModelDocument, canonical_json, model_digest, parse_model_file
from .reporting import estimate_scale_dot, frontier_dot, render_json, render_text
from .synthesis import Frontier, hierarchical_synthesize

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


@dataclass
class CommandResult:
    report: dict
    output: str
    code: int


def main(argv: Sequence[str] | None = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.output:
        stream = sys.stderr if result.code == EXIT_USAGE else sys.stdout
        stream.write(result.output)
    return result.code


def run_command(argv: Sequence[str]) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return CommandResult(report={}, output="", code=code or EXIT_OK)
    try:
        return args.handler(args)
    except DocumentError as exc:
        lines = [f"error: {d}" for d in exc.diagnostics]
        return CommandResult(
            report={"diagnostics": exc.diagnostics},
            output="\n".join(lines) + "\n",
            code=EXIT_USAGE,
        )
    except (MorphError, OSError, ValueError) as exc:
        return CommandResult(
            report={"diagnostics": [str(exc)]},
            output=f"error: {exc}\n",
            code=EXIT_USAGE,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p, choices=("text", "json")):
        p.add_argument("--format", choices=list(choices), default="text")

    def model_arg(p):
        p.add_argument("model", help="model document (JSON)")

    p = sub.add_parser("validate", help="check a model document")
    model_arg(p)
    fmt(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("synth", help="synthesize frontiers bottom-up")
    model_arg(p)
    p.add_argument("--algorithm", choices=["dp", "brute"], default="dp")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--node", default=None, help="node for dot output")
    fmt(p, ("text", "json", "dot"))
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("bottlenecks", help="improvement actions per solution")
    model_arg(p)
    p.add_argument("--node", default=None)
    p.add_argument("--algorithm", choices=["dp", "brute"], default="dp")
    fmt(p)
    p.set_defaults(handler=cmd_bottlenecks)

    p = sub.add_parser("median", help="estimate-based synthesis and consensus")
    model_arg(p)
    p.add_argument("--node", default=None)
    p.add_argument("--enforce-condition2", choices=["true", "false"], default="true")
    p.add_argument("--metric", choices=["max", "sum"], default="max")
    fmt(p, ("text", "json", "dot"))
    p.set_defaults(handler=cmd_median)

    p = sub.add_parser("aggregate", help="budgeted kernel extension")
    model_arg(p)
    p.add_argument("--budget", type=_parse_budget, default=None)
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    fmt(p)
    p.set_defaults(handler=cmd_aggregate)

    p = sub.add_parser("kernel", help="agreement structure of the root frontier")
    model_arg(p)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--algorithm", choices=["dp", "brute"], default="dp")
    p.add_argument("--layers", type=int, default=None)
    fmt(p)
    p.set_defaults(handler=cmd_kernel)

    p = sub.add_parser("gen", help="emit a seeded random model document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--children", type=int, default=4)
    p.add_argument("--das", type=int, default=3)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--nu", type=int, default=4)
    fmt(p, ("text", "json"))
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("report", help="full run: everything the model supports")
    model_arg(p)
    p.add_argument("--algorithm", choices=["dp", "brute"], default="dp")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--budget", type=_parse_budget, default=None)
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--enforce-condition2", choices=["true", "false"], default="true")
    p.add_argument("--metric", choices=["max", "sum"], default="max")
    p.add_argument("--threshold", type=float, default=1.0)
    fmt(p)
    p.set_defaults(handler=cmd_report)

    return parser


def _parse_budget(text: str):
    try:
        return int(text)
    except ValueError:
        return Fraction(text)


# ---------------------------------------------------------------------------
# Shared report pieces
# ---------------------------------------------------------------------------


def _base_report(command: str, args, doc: ModelDocument | None) -> dict:
    report: dict = {"command": command, "arguments": _echo_args(args)}
    if doc is not None:
        report["model"] = {
            "name": doc.options.name,
            "digest": model_digest(doc.model),
            "root": doc.model.root,
            "scale": {
                "l": doc.model.scale.levels,
                "nu": doc.model.scale.max_compat,
            },
        }
    return report


def _echo_args(args) -> dict:
    skip = {"handler", "command"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = str(value) if isinstance(value, Fraction) else value
    return out


def _solution_dict(sol: CompositeSolution, layer: int) -> dict:
    return {
        "label": sol.label,
        "picks": sol.picks_map(),
        "w": sol.quality.w,
        "e": list(sol.quality.e),
        "layer": layer,
        "deviation": sol.deviation,
    }


def _frontier_dict(frontier: Frontier) -> dict:
    return {
        "infeasible": False,
        "count": len(frontier.solutions),
        "solutions": [
            _solution_dict(sol, layer)
            for sol, layer in zip(frontier.solutions, frontier.layers)
        ],
    }


def _named_ordinal(doc: ModelDocument) -> tuple[list[dict], list[str]]:
    entries: list[dict] = []
    warnings: list[str] = []
    model = doc.model
    for exp in doc.options.expected:
        if exp.kind != "ordinal":
            continue
        node = model.component(exp.node)
        q = system_quality(exp.picks, node, model)
        entries.append(_named_entry(exp, q, warnings))
    return entries, warnings


def _named_entry(exp, computed: QualityVector, warnings: list[str]) -> dict:
    reference = QualityVector(w=exp.w, e=exp.e)
    match = computed == reference
    if not match:
        message = (
            f"{exp.name} @ {exp.node}: computed {computed} "
            f"differs from reference {reference}"
        )
        if exp.note:
            message += f" -- {exp.note}"
        warnings.append(message)
    return {
        "name": exp.name,
        "node": exp.node,
        "picks": dict(exp.picks),
        "computed": {"w": computed.w, "e": list(computed.e)},
        "reference": {"w": reference.w, "e": list(reference.e)},
        "match": match,
    }


def _synth_sections(doc: ModelDocument, algorithm: str, layers: int | None) -> tuple[dict, list[str], bool]:
    outcome = hierarchical_synthesize(doc.model, algorithm=algorithm, max_layers=layers)
    frontiers: dict = {}
    for comp in doc.model.postorder():
        if comp.is_leaf:
            continue
        if comp.id in outcome.frontiers:
            frontiers[comp.id] = _frontier_dict(outcome.frontiers[comp.id])
        else:
            frontiers[comp.id] = {
                "infeasible": True,
                "reason": outcome.infeasible.get(comp.id, ""),
                "count": 0,
                "solutions": [],
            }
    root_ok = doc.model.root in outcome.frontiers or doc.model.component(doc.model.root).is_leaf
    sections = {"frontiers": frontiers, "_outcome": outcome}
    return sections, list(doc.options.notes), root_ok


def _finish(report: dict, args, code: int, dot: str | None = None) -> CommandResult:
    report.pop("_outcome", None)
    if args.format == "json":
        output = render_json(report)
    elif args.format == "dot":
        output = dot if dot is not None else ""
    else:
        output = render_text(report)
    return CommandResult(report=report, output=output, code=code)


def _num_out(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else float(value)
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> CommandResult:
    try:
        doc = parse_model_file(args.model)
    except DocumentError as exc:
        report = {"command": "validate", "arguments": _echo_args(args), "validation": exc.diagnostics}
        return _finish(report, args, EXIT_USAGE)
    report = _base_report("validate", args, doc)
    report["validation"] = []
    return _finish(report, args, EXIT_OK)


def cmd_synth(args) -> CommandResult:
    doc = parse_model_file(args.model)
    target = args.node or doc.model.root
    doc.model.component(target)  # an unknown id is a usage error
    report = _base_report("synth", args, doc)
    sections, warnings, root_ok = _synth_sections(doc, args.algorithm, args.layers)
    outcome = sections.pop("_outcome")
    report.update(sections)
    named, mismatch_warnings = _named_ordinal(doc)
    if named:
        report["named"] = named
    report["warnings"] = warnings + mismatch_warnings
    dot = None
    if args.format == "dot":
        frontier = outcome.frontiers.get(target)
        if frontier is None:
            reason = outcome.infeasible.get(target, "")
            return CommandResult(report, f"node {target}: infeasible ({reason})\n", EXIT_INFEASIBLE)
        dot = frontier_dot(frontier)
    return _finish(report, args, EXIT_OK if root_ok else EXIT_INFEASIBLE, dot)


def cmd_bottlenecks(args) -> CommandResult:
    doc = parse_model_file(args.model)
    model = doc.model
    report = _base_report("bottlenecks", args, doc)
    outcome = hierarchical_synthesize(model, algorithm=args.algorithm)
    nodes = [args.node] if args.node else [
        comp.id
        for comp in model.postorder()
        if not comp.is_leaf
        and all(model.component(c).is_leaf for c in comp.children)
    ]
    per_node: dict = {}
    warnings = list(doc.options.notes)
    for node_id in nodes:
        comp = model.component(node_id)
        targets: dict[str, CompositeSolution] = {}
        frontier = outcome.frontiers.get(node_id)
        if frontier is not None:
            for sol in frontier.layer(1):
                targets[sol.label] = sol
        for exp in doc.options.expected:
            if exp.kind == "ordinal" and exp.node == node_id:
                q = system_quality(exp.picks, comp, model)
                sol = CompositeSolution(
                    node=node_id,
                    picks=tuple((c, exp.picks[c]) for c in comp.children),
                    quality=q,
                )
                targets[sol.label] = sol
        per_node[node_id] = {
            label: [
                {
                    "kind": act.kind,
                    "component": act.component,
                    "target": list(act.target) if isinstance(act.target, tuple) else act.target,
                    "before": act.before,
                    "after": act.after,
                    "describe": act.describe(),
                    "new_w": act.new_quality.w,
                    "new_e": list(act.new_quality.e),
                }
                for act in solution_bottlenecks(sol, model)
            ]
            for label, sol in sorted(targets.items())
        }
    report["bottlenecks"] = per_node
    report["warnings"] = warnings
    return _finish(report, args, EXIT_OK)


def cmd_median(args) -> CommandResult:
    doc = parse_model_file(args.model)
    model = doc.model
    enforce = args.enforce_condition2 == "true"
    node_id = args.node or model.root
    node = model.component(node_id)
    report = _base_report("median", args, doc)
    warnings = list(doc.options.notes)

    estimates = [
        da.estimate
        for cid in node.children
        for da in model.component(cid).das
        if da.estimate is not None
    ]
    if not estimates:
        return CommandResult(
            report={},
            output=f"error: node {node_id} has no estimate-carrying alternatives\n",
            code=EXIT_USAGE,
        )
    levels = len(estimates[0])
    eta = sum(estimates[0])

    frontier = multiset_synthesize(
        node, model, enforce_gap_rule=enforce, metric=args.metric
    )
    report["medians"] = {
        "node": node_id,
        "levels": levels,
        "eta": eta,
        "gap_rule": enforce,
        "metric": args.metric,
        "solutions": [
            _solution_dict(sol, layer)
            for sol, layer in zip(frontier.solutions, frontier.layers)
        ],
    }

    named = []
    for exp in doc.options.expected:
        if exp.kind != "median" or exp.node != node_id:
            continue
        q_ord = system_quality(exp.picks, node, model)
        observed = [
            model.component(cid).da(pick).estimate for cid, pick in exp.picks.items()
        ]
        median = generalized_median(
            [est for est in observed if est is not None],
            enforce_gap_rule=enforce,
            metric=args.metric,
        )
        computed = QualityVector(w=q_ord.w, e=median.best)
        entry = _named_entry(exp, computed, warnings)
        entry["deviation"] = median.deviation
        named.append(entry)
    if named:
        report["named"] = named
    report["warnings"] = warnings

    dot = None
    if args.format == "dot":
        dot = estimate_scale_dot(enumerate_estimates(levels, eta, enforce))
    return _finish(report, args, EXIT_OK, dot)


def cmd_aggregate(args) -> CommandResult:
    doc = parse_model_file(args.model)
    report = _base_report("aggregate", args, doc)
    if doc.knapsack is None:
        return CommandResult(
            report={}, output="error: model has no knapsack section\n", code=EXIT_USAGE
        )
    section = doc.knapsack
    budgets = [args.budget] if args.budget is not None else list(section.budgets)
    if not budgets:
        return CommandResult(
            report={}, output="error: no budget given and none in the model\n", code=EXIT_USAGE
        )
    entries = []
    any_infeasible = False
    for budget in budgets:
        plan = extend_kernel(section.kernel, section.instance(budget), method=args.method)
        entry = {
            "budget": _num_out(budget),
            "method": args.method,
            "feasible": plan.feasible,
        }
        if plan.feasible:
            entry.update(
                {
                    "picks": plan.picks_map(),
                    "plan": plan.label,
                    "total_cost": _num_out(plan.total_cost),
                    "total_profit": _num_out(plan.total_profit),
                    "alternatives": [
                        {
                            "items": list(alt.item_ids()),
                            "cost": _num_out(alt.total_cost),
                            "profit": _num_out(alt.total_profit),
                        }
                        for alt in plan.alternatives
                    ],
                }
            )
        else:
            any_infeasible = True
        entries.append(entry)
    report["aggregation"] = entries
    report["warnings"] = list(doc.options.notes)
    return _finish(report, args, EXIT_INFEASIBLE if any_infeasible else EXIT_OK)


def cmd_kernel(args) -> CommandResult:
    doc = parse_model_file(args.model)
    model = doc.model
    report = _base_report("kernel", args, doc)
    outcome = hierarchical_synthesize(model, algorithm=args.algorithm, max_layers=args.layers)
    root_frontier = outcome.frontiers.get(model.root)
    if root_frontier is None:
        report["warnings"] = [f"root infeasible: {outcome.infeasible.get(model.root, '')}"]
        return _finish(report, args, EXIT_INFEASIBLE)
    solutions = root_frontier.layer(1)
    result = solution_kernel(solutions, threshold=args.threshold)
    report["kernel"] = {
        "node": result.node,
        "count": len(solutions),
        "threshold": args.threshold,
        "kernel": dict(sorted(result.kernel.items())),
        "superstructure": {
            child: list(picks) for child, picks in sorted(result.superstructure.items())
        },
    }
    report["warnings"] = list(doc.options.notes)
    return _finish(report, args, EXIT_OK)


def cmd_gen(args) -> CommandResult:
    doc = generate_document(
        seed=args.seed,
        children=args.children,
        das=args.das,
        levels=args.levels,
        max_compat=args.nu,
    )
    output = canonical_json(doc)
    report = {"command": "gen", "arguments": _echo_args(args), "generated": doc}
    return CommandResult(report=report, output=output, code=EXIT_OK)


def cmd_report(args) -> CommandResult:
    doc = parse_model_file(args.model)
    model = doc.model
    report = _base_report("report", args, doc)
    report["validation"] = []
    sections, warnings, root_ok = _synth_sections(doc, args.algorithm, args.layers)
    outcome = sections.pop("_outcome")
    report.update(sections)
    named, mismatch_warnings = _named_ordinal(doc)
    if named:
        report["named"] = named
    warnings += mismatch_warnings

    per_node: dict = {}
    for comp in model.postorder():
        if comp.is_leaf or not all(model.component(c).is_leaf for c in comp.children):
            continue
        frontier = outcome.frontiers.get(comp.id)
        if frontier is None:
            continue
        per_node[comp.id] = {
            sol.label: [
                {"kind": act.kind, "describe": act.describe(),
                 "new_w": act.new_quality.w, "new_e": list(act.new_quality.e)}
                for act in solution_bottlenecks(sol, model)
            ]
            for sol in frontier.layer(1)
        }
    report["bottlenecks"] = per_node

    root_frontier = outcome.frontiers.get(model.root)
    if root_frontier is not None and root_frontier.solutions:
        result = solution_kernel(root_frontier.layer(1), threshold=args.threshold)
        report["kernel"] = {
            "node": result.node,
            "count": len(root_frontier.layer(1)),
            "threshold": args.threshold,
            "kernel": dict(sorted(result.kernel.items())),
            "superstructure": {
                child: list(picks)
                for child, picks in sorted(result.superstructure.items())
            },
        }

    if doc.knapsack is not None and (doc.knapsack.budgets or args.budget is not None):
        budgets = [args.budget] if args.budget is not None else list(doc.knapsack.budgets)
        entries = []
        for budget in budgets:
            plan = extend_kernel(
                doc.knapsack.kernel, doc.knapsack.instance(budget), method=args.method
            )
            entry = {"budget": _num_out(budget), "method": args.method, "feasible": plan.feasible}
            if plan.feasible:
                entry.update(
                    {
                        "picks": plan.picks_map(),
                        "plan": plan.label,
                        "total_cost": _num_out(plan.total_cost),
                        "total_profit": _num_out(plan.total_profit),
                    }
                )
            entries.append(entry)
        report["aggregation"] = entries

    report["warnings"] = warnings
    return _finish(report, args, EXIT_OK if root_ok else EXIT_INFEASIBLE)


if __name__ == "__main__":
    sys.exit(main())
