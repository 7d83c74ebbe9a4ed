"""Smoke test of the benchmark itself.

    python3 morphbench/smoke.py

Runs every workload at a tiny size, traced and untraced, and checks
that every metric of BENCHMARK.json is printed with its unit and that
nothing failed. Then checks that deliberately corrupted outputs are
counted as failed, and that the benchmark refuses to run without the
program. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LIMIT = "5"


def fail(message: str) -> None:
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "morphbench", "run.py")
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_metrics(workload: str, trace: str, names: dict[str, str]) -> None:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace, "--limit", LIMIT)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed: {proc.stderr[-500:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != names:
        fail(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(names))} differ from BENCHMARK.json")
    if trace == "0" and "# failed_ratio 0.0000" not in proc.stdout:
        fail(f"{workload}: failed_ratio line missing or not 0")
    print(f"smoke: {workload} trace {trace}: {len(got)} metrics, {result['attempted']} commands, none failed")


def check_corruption() -> None:
    """Each kind of check refuses a corrupted output, and a corrupted
    output counts as a failed command."""
    from morphplan import cli

    corruptions = {
        "digest": lambda out: out.replace("1", "2", 1),
        "dot": lambda out: out.replace("\\n(", "\\n(9", 1),
        "scale-dot": lambda out: "\n".join(l for l in out.splitlines() if "e1 " not in l) + "\n",
        "aggregate": lambda out: out.replace('"total_profit": ', '"total_profit": 1', 1),
    }
    seen = set()
    for workload in WORKLOADS.values():
        reference = run.load_reference(workload)
        items = run.round_steps(workload, 1, 0, reference["costs"])
        docs = run.prepare(workload, [(i.group, i.index) for i in items])
        for item in items:
            kind = item.command.check
            if kind in seen:
                continue
            clean = run.send(cli, workload, item, docs, reference)
            broken = run.send(cli, workload, item, docs, reference, corrupt=corruptions[kind])
            if not clean.ok or broken.ok:
                fail(f"{item.label} ({kind}): clean ok={clean.ok}, corrupted ok={broken.ok}")
            seen.add(kind)
            print(f"smoke: corrupted {kind} output of {item.label} counted as failed: {broken.reason}")
    if seen != set(corruptions):
        fail(f"no command exercised checks {sorted(set(corruptions) - seen)}")


def check_bare_directory() -> None:
    """With only BENCHMARK.json and the benchmark's files, the run must
    fail without printing a result."""
    bare = run.ROOT / run.WORK / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "paper-fixtures", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory run exited {proc.returncode} with output {proc.stdout[-200:]!r}")
    print(f"smoke: bare directory run refused with exit {proc.returncode}")


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    if [w["name"] for w in SPEC["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    for entry in SPEC["workloads"]:
        if entry["why"] != WORKLOADS[entry["name"]].why:
            fail(f"BENCHMARK.json why of {entry['name']} differs from workloads.py")
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        check_metrics(name, "0", end_to_end)
        check_metrics(name, "1", per_layer)
    check_corruption()
    check_bare_directory()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
