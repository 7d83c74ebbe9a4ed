"""Record the reference outputs the benchmark checks against, and the
cost of every pool instance that rounds are stratified by.

    python3 morphbench/record.py [--workload NAME ...]

Run it at the commit whose outputs are the reference; it rewrites
``reference/<workload>.json`` for the named workloads (all, when none
is named) and ``setup.json``. Knapsack optima are confirmed by brute force over every
selection, and drawings by the same content checks a run applies.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import run
from tracer import LAYER_METRICS
from workloads import WORKLOADS, Workload


def frontier_qualities(cli, path: str, args: tuple[str, ...]) -> list[list[int]]:
    """Distinct qualities of the node a ``synth --format dot`` command
    draws, read from the same command's JSON report."""
    node = args[args.index("--node") + 1] if "--node" in args else None
    algorithm = args[args.index("--algorithm") + 1] if "--algorithm" in args else "dp"
    report = json.loads(cli.run_command(["synth", path, "--algorithm", algorithm, "--format", "json"]).output)
    target = node or report["model"]["root"]
    return sorted({(s["w"], *s["e"]) for s in report["frontiers"][target]["solutions"]})


def brute_optimum(document: dict, budget: Fraction) -> Fraction:
    groups = [
        [(run.checks.number(it["cost"]), run.checks.number(it["profit"])) for it in g["items"]]
        for g in document["knapsack"]["groups"]
    ]
    best = None
    for pick in itertools.product(*groups):
        if sum(c for c, _ in pick) <= budget:
            profit = sum(p for _, p in pick)
            best = profit if best is None or profit > best else best
    return best


def record_workload(cli, workload: Workload, outputs: dict, costs: dict) -> None:
    for group in workload.groups + workload.baseline:
        for index in range(group.pool):
            docs = run.prepare(workload, [(group, index)])
            instance = group.instance_name(index)
            document = docs[instance]
            path = str(run.input_path(workload, instance))
            spent = 0.0
            for command in group.commands:
                argv = [command.args[0], path, *command.args[1:]]
                start = time.perf_counter()
                result = cli.run_command(argv)
                spent += time.perf_counter() - start
                key = f"{instance}/{command.name}"
                if command.check == "digest":
                    ref = run.checks.digest(result.output)
                elif command.check == "dot":
                    ref = frontier_qualities(cli, path, command.args)
                elif command.check == "aggregate":
                    report = json.loads(result.output)
                    ref = {
                        str(run.checks.number(e["budget"])): str(run.checks.number(e["total_profit"]))
                        for e in report["aggregation"]
                    }
                    if "exact" in command.args:
                        for budget, profit in ref.items():
                            if brute_optimum(document, Fraction(budget)) != Fraction(profit):
                                raise SystemExit(f"{workload.name}/{key}: exact optimum differs from brute force")
                else:
                    ref = None
                reason = run.checks.check(command.check, result.output, ref, document)
                if reason is not None:
                    raise SystemExit(f"{workload.name}/{key}: reference output fails its own check: {reason}")
                outputs[key] = [result.code, ref]
            costs[instance] = round(spent * 1000.0, 2)
        print(f"recorded {workload.name}/{group.name} ({group.pool} instances)", flush=True)


def setup_record() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0], "commit": commit},
        "loop": "closed, one client, commands through morphplan.cli.run_command; paper-fixtures repeats rounds in one process, the other workloads send each round from a child forked before any round; a command's latency is the least of its sends in a run",
        "workloads": {
            w.name: {
                "why": w.why,
                "seed": "--seed picks the instances of every stratum and the order of every round",
                **{
                    key: [
                        {
                            "name": g.name,
                            "input": g.fixture and f"fixture {g.fixture}" or g.size,
                            "pool": g.pool,
                            "per_round": g.per_round,
                            "commands": [" ".join(("morph", c.args[0], "MODEL", *c.args[1:])) for c in g.commands],
                        }
                        for g in groups
                    ]
                    for key, groups in (("groups", w.groups), ("baseline", w.baseline))
                },
            }
            for w in WORKLOADS.values()
        },
        "per_layer": {
            name: {"unit": unit, "moves": moves, "on": on}
            for name, (unit, _, moves, on) in LAYER_METRICS.items()
        },
    }


def dump(reference: dict) -> str:
    """One line per instance or command, so re-recording diffs by line."""
    tables = [
        f'"{name}": {{\n'
        + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
            for k, v in sorted(reference[name].items())
        )
        + "\n}"
        for name in ("costs", "outputs")
    ]
    return "{\n" + f'"commit": {json.dumps(reference["commit"])},\n' + ",\n".join(tables) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    from morphplan import cli

    commit = setup_record()["host"]["commit"]
    for name in args.workload or sorted(WORKLOADS):
        reference = {"commit": commit, "outputs": {}, "costs": {}}
        record_workload(cli, WORKLOADS[name], reference["outputs"], reference["costs"])
        path = run.reference_path(WORKLOADS[name])
        path.parent.mkdir(exist_ok=True)
        path.write_text(dump(reference))
    (run.HERE / "setup.json").write_text(json.dumps(setup_record(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
