"""Command line driver.

    morph validate    model.json
    morph synth       model.json [--algorithm dp|brute] [--layers K] [--node ID]
    morph bottlenecks model.json [--algorithm dp|brute] [--node ID]
    morph median      model.json [--node ID] [--enforce-condition2 true|false]
                                 [--metric max|sum]
    morph aggregate   model.json [--budget B] [--method greedy|exact]
    morph kernel      model.json [--algorithm dp|brute] [--layers K]
                                 [--threshold P]
    morph gen         [--seed N] [--children M] [--das D] [--levels L] [--nu V]
    morph report      model.json [...]

Every command but gen takes --format text|json|dot (dot where a poset exists).
Exit codes: 0 success, 1 infeasibility, 2 usage, parse error or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .analysis import bottlenecks as solution_bottlenecks
from .analysis import kernel as solution_kernel
from .estimates import enumerate_estimates, generalized_median, multiset_synthesize
from .generator import generate_document
from .knapsack import extend_kernel
from .model import Component, CompositeSolution, MorphError, MorphModel, QualityVector, system_quality
from .modeldoc import DocumentError, ExpectedSolution, KnapsackSection, ModelDocument
from .modeldoc import canonical_json, model_digest, number_out, parse_model_file
from .reporting import estimate_scale_dot, frontier_dot, render_json, render_text
from .synthesis import Frontier, SynthesisOutcome, hierarchical_synthesize, leaf_frontier, synthesize_dp

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2

_OUT_OF_MEMORY = "error: out of memory\n"

# The fields of a bottleneck action that `report` prints.
_REPORT_ACTION_FIELDS = ("kind", "describe", "new_w", "new_e")


@dataclass
class CommandResult:
    output: str
    code: int


def main(argv: Sequence[str] | None = None) -> int:
    result = run_command(sys.argv[1:] if argv is None else argv)
    if result.output:
        stream = sys.stderr if result.code == EXIT_USAGE else sys.stdout
        try:
            stream.write(result.output)
        except MemoryError:
            # Writing needs a copy of the output: drop it, then report.
            result = None
            sys.stderr.write(_OUT_OF_MEMORY)
            return EXIT_USAGE
    return result.code


def run_command(argv: Sequence[str]) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return CommandResult(output="", code=code or EXIT_OK)
    try:
        return args.handler(args)
    except DocumentError as exc:
        lines = [f"error: {d}" for d in exc.diagnostics]
        return CommandResult(output="\n".join(lines) + "\n", code=EXIT_USAGE)
    except (MorphError, OSError, ValueError) as exc:
        return CommandResult(output=f"error: {exc}\n", code=EXIT_USAGE)
    except MemoryError:
        pass
    # Built only once the except block has ended: inside it, the
    # traceback keeps the handler's frames, and all they allocated, alive.
    return CommandResult(output=_OUT_OF_MEMORY, code=EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``morph`` parser, built on the first call and shared after it:
    ``parse_args`` fills a fresh namespace on every call and every
    default is immutable, so one parser serves any number of commands."""
    parser = argparse.ArgumentParser(prog="morph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def model_command(name, summary, handler, flags, dot=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="model document (JSON)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        formats = ["text", "json", "dot"] if dot else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(handler=handler)

    model_command("validate", "check a model document", cmd_validate, ())
    model_command("synth", "synthesize frontiers bottom-up", cmd_synth,
                  ("--algorithm", "--layers", "--node"), dot=True)
    model_command("bottlenecks", "improvement actions per solution", cmd_bottlenecks,
                  ("--node", "--algorithm"))
    model_command("median", "estimate-based synthesis and consensus", cmd_median,
                  ("--node", "--enforce-condition2", "--metric"), dot=True)
    model_command("aggregate", "budgeted kernel extension", cmd_aggregate,
                  ("--budget", "--method"))
    model_command("kernel", "agreement structure of the root frontier", cmd_kernel,
                  ("--threshold", "--algorithm", "--layers"))

    p = sub.add_parser("gen", help="emit a seeded random model document")
    for flag, default in (("--seed", 0), ("--children", 4), ("--das", 3), ("--levels", 3), ("--nu", 4)):
        p.add_argument(flag, type=int, default=default)
    p.set_defaults(handler=cmd_gen)

    # The union of its sections' flags. No section reads the median
    # flags, but their echo in ``arguments`` is part of the output.
    model_command("report", "full run: everything the model supports", cmd_report,
                  ("--algorithm", "--layers", "--budget", "--method",
                   "--enforce-condition2", "--metric", "--threshold"))

    return parser


def _layer_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1: {text!r}")
    return value


# A number with an exponent (group 1), compiled on first use. Fraction
# expands 10**exponent before anything can check it, so an exponent
# beyond the digits that an int prints by default is refused first.
# The expanded value is then held to those digits too: its arguments
# echo prints it with str(). int() and Fraction refuse a run of more
# digits (_LONG_RUN, underscores dropped) before that check can name it.
_EXPONENT = r"\s*[-+]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE][-+]?(\d[\d_]*)\s*"
_MAX_EXPONENT = sys.int_info.default_max_str_digits  # 4300
_LONG_RUN = rf"\d{{{_MAX_EXPONENT + 1}}}"


def _parse_budget(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    exponent = re.fullmatch(_EXPONENT, text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise argparse.ArgumentTypeError(
                f"exponent must be between -{_MAX_EXPONENT} and {_MAX_EXPONENT}: {text!r}"
            )
    try:
        value = Fraction(text)
    except ValueError:
        if not re.search(_LONG_RUN, text.replace("_", "")):
            raise argparse.ArgumentTypeError(f"invalid number value: {text!r}") from None
        value = None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) >= 10**_MAX_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"numerator and denominator must have at most {_MAX_EXPONENT} digits: {text!r}"
        )
    return value


def _threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1]: {text!r}")
    return value


# Each flag that more than one command takes, declared once.
_FLAGS = {
    "--algorithm": {"choices": ["dp", "brute"], "default": "dp"},
    "--layers": {"type": _layer_count, "default": None},
    "--node": {"default": None,
               "help": "node to draw (synth --format dot) or to report (bottlenecks, median)"},
    "--budget": {"type": _parse_budget, "default": None},
    "--method": {"choices": ["greedy", "exact"], "default": "greedy"},
    "--enforce-condition2": {"choices": ["true", "false"], "default": "true"},
    "--metric": {"choices": ["max", "sum"], "default": "max"},
    "--threshold": {"type": _threshold, "default": 1.0},
}


# ---------------------------------------------------------------------------
# Shared report pieces
# ---------------------------------------------------------------------------


def _model_command(build):
    """A command on a model document. The handler parses the document
    and calls ``build(args, doc, report)``, which adds the command's
    sections and returns the exit code and, for ``--format dot``, the
    drawing to print as it is. The handler writes a printed report's
    header (command, arguments, model) after ``build`` returns."""

    @functools.wraps(build)
    def handler(args) -> CommandResult:
        doc = parse_model_file(args.model)
        report: dict = {}
        code, dot = build(args, doc, report)
        if args.format == "dot":
            return CommandResult(output=dot, code=code)
        model = doc.model
        report["command"] = args.command
        report["arguments"] = _echo_args(args)
        report["model"] = {
            "name": doc.options.name,
            "digest": model_digest(model),
            "root": model.root,
            "scale": {"l": model.scale.levels, "nu": model.scale.max_compat},
        }
        return CommandResult(output=_render(report, args.format), code=code)

    return handler


def _render(report: dict, fmt: str) -> str:
    return render_json(report) if fmt == "json" else render_text(report)


def _echo_args(args) -> dict:
    return {
        key: str(value) if isinstance(value, Fraction) else value
        for key, value in vars(args).items()
        if key not in ("handler", "command")
    }


def _solution_dict(sol: CompositeSolution, layer: int) -> dict:
    return {
        "label": sol.label,
        "picks": sol.picks_map(),
        "w": sol.quality.w,
        "e": sol.quality.e,
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


def _expected_solution(exp: ExpectedSolution, model: MorphModel) -> CompositeSolution:
    """An ``options.expected`` entry scored as a solution of its node,
    its picks in child order."""
    node = model.component(exp.node)
    return CompositeSolution(
        node=exp.node,
        picks=tuple((c, exp.picks[c]) for c in node.children),
        quality=system_quality(exp.picks, node, model),
    )


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
        "computed": {"w": computed.w, "e": computed.e},
        "reference": {"w": reference.w, "e": reference.e},
        "match": match,
    }


def _synth_sections(doc: ModelDocument, outcome: SynthesisOutcome, report: dict) -> None:
    """Add the frontiers of ``outcome``, the named and the warnings sections."""
    model = doc.model
    frontiers = report["frontiers"] = {
        node: _frontier_dict(frontier)
        for node, frontier in outcome.frontiers.items()
        if not model.component(node).is_leaf  # a leaf root
    }
    for node, reason in outcome.infeasible.items():
        frontiers[node] = {"infeasible": True, "reason": reason, "count": 0, "solutions": []}
    warnings = list(doc.options.notes)
    named = [
        _named_entry(exp, _expected_solution(exp, model).quality, warnings)
        for exp in doc.options.expected
        if exp.kind == "ordinal"
    ]
    if named:
        report["named"] = named
    report["warnings"] = warnings


def _composes_leaves(model: MorphModel, comp: Component) -> bool:
    """Whether ``comp`` is a composite whose children are all leaves:
    its selections pick design alternatives."""
    return not comp.is_leaf and all(model.component(c).is_leaf for c in comp.children)


def _leaf_parents(model: MorphModel) -> list[str]:
    """Composite nodes whose children are all leaves, bottom-up."""
    return [comp.id for comp in model.postorder() if _composes_leaves(model, comp)]


def _bottlenecks_section(
    model: MorphModel,
    frontiers: Mapping[str, Frontier],
    expected: Sequence[ExpectedSolution] = (),
) -> dict:
    """Improvement actions by node and solution label, for the layer-1
    solutions of each node's frontier and the named ordinal selections
    in ``expected``."""
    per_node: dict = {}
    for node_id, frontier in frontiers.items():
        targets = {sol.label: sol for sol in frontier.layer(1)}
        for exp in expected:
            if exp.kind == "ordinal" and exp.node == node_id:
                sol = _expected_solution(exp, model)
                targets[sol.label] = sol
        per_node[node_id] = {
            label: [
                {
                    "kind": act.kind,
                    "component": act.component,
                    "target": act.target,
                    "before": act.before,
                    "after": act.after,
                    "describe": act.describe(),
                    "new_w": act.new_quality.w,
                    "new_e": act.new_quality.e,
                }
                for act in solution_bottlenecks(sol, model)
            ]
            for label, sol in sorted(targets.items())
        }
    return per_node


def _kernel_section(
    model: MorphModel, outcome: SynthesisOutcome, threshold: float
) -> dict | None:
    """Agreement over the root's layer 1; None when the root is infeasible."""
    root_frontier = outcome.frontiers.get(model.root)
    if root_frontier is None:
        return None
    solutions = root_frontier.layer(1)
    result = solution_kernel(solutions, threshold=threshold)
    return {
        "node": result.node,
        "count": len(solutions),
        "threshold": threshold,
        "kernel": dict(sorted(result.kernel.items())),
        "superstructure": {
            child: list(picks) for child, picks in sorted(result.superstructure.items())
        },
    }


def _aggregation_section(knapsack: KnapsackSection, budget, method: str) -> list[dict]:
    """One plan per budget: the given one, else each budget of the model."""
    budgets = [budget] if budget is not None else list(knapsack.budgets)
    entries = []
    for b in budgets:
        plan = extend_kernel(knapsack.kernel, knapsack.instance(b), method=method)
        entry = {"budget": number_out(b), "method": method, "feasible": plan is not None}
        if plan is not None:
            entry.update(
                {
                    "picks": plan.picks_map(),
                    "plan": plan.label,
                    "total_cost": number_out(plan.total_cost),
                    "total_profit": number_out(plan.total_profit),
                    "alternatives": [
                        {
                            "items": alt.item_ids(),
                            "cost": number_out(alt.total_cost),
                            "profit": number_out(alt.total_profit),
                        }
                        for alt in plan.alternatives
                    ],
                }
            )
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> CommandResult:
    try:
        return _validated(args)
    except DocumentError as exc:
        report = {"command": "validate", "arguments": _echo_args(args), "validation": exc.diagnostics}
        return CommandResult(output=_render(report, args.format), code=EXIT_USAGE)


@_model_command
def _validated(args, doc, report) -> tuple[int, str | None]:
    report["validation"] = []
    return EXIT_OK, None


@_model_command
def cmd_synth(args, doc, report) -> tuple[int, str | None]:
    target = args.node or doc.model.root
    node = doc.model.component(target)  # an unknown id is a usage error
    outcome = hierarchical_synthesize(doc.model, algorithm=args.algorithm, max_layers=args.layers)
    code = EXIT_OK if doc.model.root in outcome.frontiers else EXIT_INFEASIBLE
    if args.format != "dot":
        _synth_sections(doc, outcome, report)
        return code, None
    frontier = outcome.frontiers.get(target)
    if frontier is None and node.is_leaf:  # synthesis skips a leaf below the root
        frontier = leaf_frontier(node, doc.model)
    if frontier is None:
        reason = outcome.infeasible.get(target, "")
        return EXIT_INFEASIBLE, f"node {target}: infeasible ({reason})\n"
    return code, frontier_dot(frontier)


@_model_command
def cmd_bottlenecks(args, doc, report) -> tuple[int, str | None]:
    model = doc.model
    if args.node:
        if not _composes_leaves(model, model.component(args.node)):
            raise MorphError(
                f"bottlenecks --node {args.node}: not a composite whose children are all leaves"
            )
        nodes = [args.node]
    else:
        nodes = _leaf_parents(model)
    # Either algorithm gives these nodes the same layer 1, and no node above them is read.
    frontiers = {node: synthesize_dp(model.component(node), model) for node in nodes}
    report["bottlenecks"] = _bottlenecks_section(model, frontiers, doc.options.expected)
    report["warnings"] = list(doc.options.notes)
    return EXIT_OK, None


@_model_command
def cmd_median(args, doc, report) -> tuple[int, str | None]:
    model = doc.model
    enforce = args.enforce_condition2 == "true"
    node_id = args.node or model.root
    node = model.component(node_id)
    if node.is_leaf:
        raise MorphError(f"component {node_id} is a leaf; nothing to compose")
    if not _composes_leaves(model, node):
        raise MorphError(f"node {node_id} is not a composite whose children are all leaves")
    leaves = [model.component(cid) for cid in node.children]
    estimates = [da.estimate for leaf in leaves for da in leaf.das if da.estimate is not None]
    if not estimates:
        raise MorphError(f"node {node_id} has no estimate-carrying alternatives")
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
        "solutions": _frontier_dict(frontier)["solutions"],
    }

    warnings = list(doc.options.notes)
    named = []
    for exp in doc.options.expected:
        if exp.kind != "median" or exp.node != node_id:
            continue
        sol = _expected_solution(exp, model)
        observed = [model.component(cid).da(pick).estimate for cid, pick in sol.picks]
        median = generalized_median(observed, enforce_gap_rule=enforce, metric=args.metric)
        entry = _named_entry(exp, QualityVector(w=sol.quality.w, e=median.best), warnings)
        entry["deviation"] = median.deviation
        named.append(entry)
    if named:
        report["named"] = named
    report["warnings"] = warnings

    code = EXIT_OK if frontier.solutions else EXIT_INFEASIBLE
    if args.format != "dot":
        return code, None
    return code, estimate_scale_dot(enumerate_estimates(levels, eta, enforce))


@_model_command
def cmd_aggregate(args, doc, report) -> tuple[int, str | None]:
    if doc.knapsack is None:
        raise MorphError("model has no knapsack section")
    entries = _aggregation_section(doc.knapsack, args.budget, args.method)
    if not entries:
        raise MorphError("no budget given and none in the model")
    report["aggregation"] = entries
    report["warnings"] = list(doc.options.notes)
    feasible = all(entry["feasible"] for entry in entries)
    return EXIT_OK if feasible else EXIT_INFEASIBLE, None


@_model_command
def cmd_kernel(args, doc, report) -> tuple[int, str | None]:
    model = doc.model
    outcome = hierarchical_synthesize(model, algorithm=args.algorithm, max_layers=args.layers)
    section = _kernel_section(model, outcome, args.threshold)
    if section is None:
        report["warnings"] = [f"root infeasible: {outcome.infeasible.get(model.root, '')}"]
        return EXIT_INFEASIBLE, None
    report["kernel"] = section
    report["warnings"] = list(doc.options.notes)
    return EXIT_OK, None


def cmd_gen(args) -> CommandResult:
    doc = generate_document(
        seed=args.seed,
        children=args.children,
        das=args.das,
        levels=args.levels,
        max_compat=args.nu,
    )
    return CommandResult(output=canonical_json(doc), code=EXIT_OK)


@_model_command
def cmd_report(args, doc, report) -> tuple[int, str | None]:
    model = doc.model
    report["validation"] = []
    outcome = hierarchical_synthesize(model, algorithm=args.algorithm, max_layers=args.layers)
    _synth_sections(doc, outcome, report)

    frontiers = {n: outcome.frontiers[n] for n in _leaf_parents(model) if n in outcome.frontiers}
    report["bottlenecks"] = {
        node: {
            label: [{key: act[key] for key in _REPORT_ACTION_FIELDS} for act in actions]
            for label, actions in per_label.items()
        }
        for node, per_label in _bottlenecks_section(model, frontiers).items()
    }

    kernel = _kernel_section(model, outcome, args.threshold)
    if kernel is not None:
        report["kernel"] = kernel

    if doc.knapsack is not None:
        entries = _aggregation_section(doc.knapsack, args.budget, args.method)
        if entries:
            report["aggregation"] = [
                {key: value for key, value in entry.items() if key != "alternatives"}
                for entry in entries
            ]

    return EXIT_OK if model.root in outcome.frontiers else EXIT_INFEASIBLE, None


if __name__ == "__main__":
    sys.exit(main())
