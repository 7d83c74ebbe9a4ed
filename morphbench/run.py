"""Run one workload of the morphplan benchmark and print its metrics.

    python3 morphbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the benchmark works in the checkout that holds this
directory and imports the program from its ``src/``. One client sends
``morph`` commands in a closed loop through ``morphplan.cli.run_command``,
the function the ``morph`` script calls, in whole rounds until the next
round would end after ``--seconds``. A workload that repeats inputs
sends its rounds in this process; one that must not send a document
twice to the same process sends each round from a child forked from a
process that has sent no round yet, one child at a time. Every output
is checked.

On a shared host the CPU's speed flickers between full and about two
thirds within milliseconds, and the share of full-speed time drifts
over minutes. So a command's latency is the least of its sends in the
run: noise only ever adds time, and every command is sent in every
round. The parent of forked rounds freezes its heap first, so that the
children's garbage collector leaves the benchmark's own objects alone.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs rounds
untraced in this process (for half of ``--seconds`` where rounds
repeat), sends the same commands again with spans around the program's
public functions, then the workload's baseline commands, and prints the
per-layer metrics, per-command rows, per-node synthesis self times and
the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".morphbench")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, Command, Group, Workload  # noqa: E402


@dataclass
class Step:
    """One command of a round, on one instance of a group."""

    group: Group
    index: int
    command: Command

    @property
    def instance(self) -> str:
        return self.group.instance_name(self.index)

    @property
    def label(self) -> str:
        return f"{self.instance}/{self.command.name}"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def reference_path(workload: Workload) -> Path:
    return HERE / "reference" / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def round_instances(workload: Workload, seed: int, costs: dict) -> list[tuple[Group, int]]:
    """For each group, one instance from each of ``per_round`` strata of
    its pool ordered by recorded cost."""
    out = []
    for group in workload.groups:
        if group.fixture:
            out.append((group, 0))
            continue
        ranked = sorted(range(group.pool), key=lambda i: (costs.get(group.instance_name(i), 0), i))
        size = group.pool // group.per_round
        for s in range(group.per_round):
            stratum = ranked[s * size : (s + 1) * size]
            out.append((group, random.Random(f"{seed}:{group.name}:{s}").choice(stratum)))
    return out


def round_steps(workload: Workload, seed: int, number: int, costs: dict) -> list[Step]:
    steps = [
        Step(group, index, command)
        for group, index in round_instances(workload, seed, costs)
        for command in group.commands
    ]
    random.Random(f"{seed}:round:{number}").shuffle(steps)
    return steps


def document_text(group: Group, index: int) -> str:
    if group.fixture:
        return (SRC / "morphplan" / "fixtures" / f"{group.fixture}.json").read_text(encoding="utf-8")
    return json.dumps(group.document(index), indent=1, sort_keys=True) + "\n"


def input_path(workload: Workload, instance: str, base: Path = WORK / "inputs") -> Path:
    return base / workload.name / f"{instance}.json"


def prepare(workload: Workload, instances, base: Path = WORK / "inputs") -> dict[str, dict]:
    """Generate, write and parse each instance's document; return the
    documents by instance name."""
    from morphplan.modeldoc import parse_model

    docs = {}
    for group, index in instances:
        name = group.instance_name(index)
        if name in docs:
            continue
        text = document_text(group, index)
        path = input_path(workload, name, base)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        parse_model(path.read_text(encoding="utf-8"))
        docs[name] = json.loads(text)
    return docs


def setup_probe(workload: Workload, seed: int, base: Path) -> int:
    """The set-up a fresh process pays: import, then generate, write and
    parse the first round's inputs."""
    import morphplan  # noqa: F401

    prepare(workload, round_instances(workload, seed, load_reference(workload)["costs"]), base)
    return 0


def measure_setup(workload: Workload, seed: int) -> list[float]:
    """Wall time of fresh processes that each do the set-up; each
    writes its inputs into its own directory, removed afterwards."""
    times = []
    for k in range(SETUP_PROBES):
        base = WORK / f"probe-{os.getpid()}-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
               "--seed", str(seed), "--setup-probe", str(base)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which
        # would quantize the measurement; a timer kills a stuck probe.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        shutil.rmtree(base, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    return times


# ---------------------------------------------------------------------------
# Issuing commands
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    seconds: float
    ok: bool
    reason: str | None


def send(cli, workload: Workload, item: Step, docs: dict, reference: dict, corrupt=None) -> Outcome:
    """Send one command and check its output; ``corrupt`` (smoke test
    only) alters the output before the check."""
    path = input_path(workload, item.instance)
    argv = [item.command.args[0], str(path), *item.command.args[1:]]
    start = time.perf_counter()
    result = cli.run_command(argv)
    seconds = time.perf_counter() - start
    output = corrupt(result.output) if corrupt else result.output
    want = reference["outputs"].get(item.label)
    if want is None:
        reason = "no recorded output"
    elif result.code != want[0]:
        reason = f"exit code {result.code}, want {want[0]}"
    else:
        reason = checks.check(item.command.check, output, want[1], docs[item.instance])
    return Outcome(item.label, seconds, reason is None, reason)


def run_rounds(cli, workload: Workload, seed: int, seconds: float, limit: int | None,
               reference: dict, docs: dict) -> tuple[list[Outcome], list[Step]]:
    """Whole rounds in this process until the next one would end after
    ``seconds``; one round for a workload that does not repeat inputs."""
    costs = reference["costs"]
    outcomes: list[Outcome] = []
    sent: list[Step] = []
    start = time.perf_counter()
    number = 0
    while True:
        began = time.perf_counter()
        items = round_steps(workload, seed, number, costs)[:limit]
        for item in items:
            outcomes.append(send(cli, workload, item, docs, reference))
        sent.extend(items)
        now = time.perf_counter()
        if limit is not None or not workload.repeats or (now - start) + (now - began) > seconds:
            return outcomes, sent
        number += 1


def warm_up(cli) -> None:
    """Commands on a bundled fixture, which no forked round sends, so
    that the first timed command does not pay for first use of the
    parser and the renderers."""
    path = str(SRC / "morphplan" / "fixtures" / "arkticheskoe.json")
    for argv in (["validate", path], ["synth", path, "--format", "json"], ["kernel", path]):
        cli.run_command(argv)


def forked_round(cli, workload: Workload, seed: int, number: int, limit: int | None,
                 reference: dict, docs: dict) -> tuple[list[Outcome], float]:
    """Round ``number`` in a forked child, so that nothing a command
    leaves in memory outlives the round; returns its outcomes and the
    child's peak RSS."""
    items = round_steps(workload, seed, number, reference["costs"])[:limit]
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            # The child's first writes to the pages it shares with the
            # parent copy them; the warm-up pays for most of that before
            # the first timed command.
            warm_up(cli)
            outcomes = [send(cli, workload, item, docs, reference) for item in items]
            payload = {"outcomes": [[o.label, o.seconds, o.ok, o.reason] for o in outcomes], "rss_mb": peak_rss_mb()}
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    watchdog = threading.Timer(ROUND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        with os.fdopen(read_fd, encoding="utf-8") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
    finally:
        watchdog.cancel()
    if status != 0:
        raise RuntimeError(f"round {number} child ended with status {status}")
    result = json.loads(data)
    return [Outcome(*row) for row in result["outcomes"]], result["rss_mb"]


def run_forked_rounds(cli, workload: Workload, seed: int, seconds: float, limit: int | None,
                      reference: dict, docs: dict) -> tuple[list[Outcome], float]:
    """Whole forked rounds until the next one would end after
    ``seconds``; returns the outcomes and the largest peak RSS of a
    round."""
    warm_up(cli)
    gc.freeze()
    outcomes: list[Outcome] = []
    rss = 0.0
    start = time.perf_counter()
    number = 0
    while True:
        began = time.perf_counter()
        got, peak = forked_round(cli, workload, seed, number, limit, reference, docs)
        outcomes.extend(got)
        rss = max(rss, peak)
        now = time.perf_counter()
        if limit is not None or (now - start) + (now - began) > seconds:
            return outcomes, rss
        number += 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def best_ms(outcomes: list[Outcome]) -> list[float]:
    """Each command's latency: the least of its sends, in ms."""
    best: dict[str, float] = {}
    for o in outcomes:
        best[o.label] = min(best.get(o.label, o.seconds), o.seconds)
    return sorted(seconds * 1000.0 for seconds in best.values())


def latency_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Throughput of one round of every command at its best, and the
    median and p90 of the commands' best latencies."""
    ms = best_ms(outcomes)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {
        "cmd_per_s": (len(ms) / sum(ms) * 1000.0, "1/s"),
        "cmd_p50_ms": (statistics.median(ms), "ms"),
        "cmd_p90_ms": (p90, "ms"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(outcomes: list[Outcome], metrics: dict[str, tuple[float, str]]) -> None:
    failed = [o for o in outcomes if not o.ok]
    for o in failed[:20]:
        print(f"FAILED {o.label}: {o.reason}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def host_line(workload: Workload, seed: int, outcomes: list[Outcome]) -> str:
    return (
        f"# {workload.name} seed {seed}: {len(outcomes)} commands, nproc {os.cpu_count()}, "
        f"Python {sys.version.split()[0]}"
    )


def end_to_end(cli, workload: Workload, args, reference: dict) -> None:
    setup = measure_setup(workload, args.seed)
    docs = prepare(workload, round_instances(workload, args.seed, reference["costs"]))
    if workload.repeats:
        outcomes, _ = run_rounds(cli, workload, args.seed, args.seconds, args.limit, reference, docs)
        rss = peak_rss_mb()
    else:
        outcomes, rss = run_forked_rounds(cli, workload, args.seed, args.seconds, args.limit, reference, docs)
    failed = sum(not o.ok for o in outcomes)
    metrics = latency_metrics(outcomes)
    metrics["peak_rss_mb"] = (rss, "MB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["pass_ratio"] = (1 - failed / len(outcomes), "1")
    print(host_line(workload, args.seed, outcomes))
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:12.4f} {unit}")
    commands = len(best_ms(outcomes))
    beyond = commands - int(0.9 * commands)
    print(f"# samples {len(outcomes)} sends of {commands} commands, {len(outcomes) // commands} rounds; "
          f"{beyond} commands beyond p90; set-up runs {[round(s, 3) for s in setup]}")
    print(f"# failed_ratio {failed / len(outcomes):.4f} ({failed} of {len(outcomes)} failed)")
    emit(outcomes, metrics)


def traced(cli, workload: Workload, args, reference: dict) -> None:
    from tracer import LAYER_METRICS, Tracer

    baseline = [Step(group, 0, command) for group in workload.baseline for command in group.commands][: args.limit]
    instances = round_instances(workload, args.seed, reference["costs"]) + [(g, 0) for g in workload.baseline]
    docs = prepare(workload, instances)
    plain, sent = run_rounds(cli, workload, args.seed, args.seconds / 2, args.limit, reference, docs)
    tracer = Tracer()
    tracer.install()
    spanned: list[Outcome] = []
    try:
        for number, item in enumerate(sent):
            tracer.command = number
            spanned.append(send(cli, workload, item, docs, reference))
        layers = tracer.layer_metrics()
        absent = tracer.absent_metrics()
        extra: list[Outcome] = []
        for number, item in enumerate(baseline, start=len(sent)):
            tracer.command = number
            extra.append(send(cli, workload, item, docs, reference))
    finally:
        tracer.uninstall()

    plain_rate = latency_metrics(plain)["cmd_per_s"][0]
    traced_rate = latency_metrics(spanned)["cmd_per_s"][0]
    traced_ms = sum(o.seconds for o in spanned) * 1000.0
    metrics = {name: (layers[name], LAYER_METRICS[name][0]) for name in LAYER_METRICS}
    metrics["trace.untraced_cmd_per_s"] = (plain_rate, "1/s")
    metrics["trace.cmd_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100.0, "%")
    metrics["trace.cmd_ms"] = (traced_ms, "ms")

    print(host_line(workload, args.seed, spanned))
    print(f"# absent functions: {', '.join(tracer.absent) or 'none'}")
    for name, (value, unit) in metrics.items():
        mark = "  ABSENT" if name in absent else ""
        print(f"{name:<32} {value:14.3f} {unit}{mark}")
    print_rows(spanned + extra, tracer, {o.label for o in extra})
    write_spans(workload, args.seed, spanned + extra, tracer)
    emit(plain + spanned + extra, metrics)


def print_rows(spanned: list[Outcome], tracer, baseline: set[str]) -> None:
    """Per-command rows by label (median latency, mean self time of the
    three largest layers) and per-node synthesis self times; rows of
    baseline commands, which count in no metric, are marked."""
    per_command = tracer.per_command()
    rows: dict[str, list[int]] = defaultdict(list)
    for number, o in enumerate(spanned):
        rows[o.label].append(number)
    print("# command rows: label, sends, median ms, largest self times (ms per send)")
    for label, numbers in sorted(rows.items()):
        selfs: dict[str, float] = defaultdict(float)
        for n in numbers:
            for span, ms in per_command[n].items():
                selfs[span] += ms / len(numbers)
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        median = statistics.median(spanned[n].seconds for n in numbers) * 1000.0
        kind = "baseline" if label in baseline else "row"
        print(f"{kind} {label} x{len(numbers)} {median:.2f} ms  " + " ".join(f"{k}={v:.2f}" for k, v in top))
    print("# node rows: label, tree node, synthesis self time (ms per send)")
    nodes: dict[tuple[str, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (number, node, span), ms in tracer.per_node().items():
        label = spanned[number].label
        nodes[(label, node)][span] += ms / len(rows[label])
    for (label, node), spans in sorted(nodes.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        print(f"node {label} {node} " + " ".join(f"{k}={v:.2f}" for k, v in sorted(spans.items())))


def write_spans(workload: Workload, seed: int, spanned: list[Outcome], tracer) -> None:
    """All spans, written once at the end: name, node, start, end,
    parent span, command id; commands by id."""
    path = WORK / f"trace-{workload.name}-s{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [o.label for o in spanned], "spans": tracer.spans}, fh)
    print(f"# spans written to {path}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="send only the first N commands of one round (smoke test)")
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "morphplan" / "__init__.py").is_file():
        print(f"error: no program at {SRC}; run from a morphplan checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe is not None:
        return setup_probe(workload, args.seed, args.setup_probe)

    from morphplan import cli

    reference = load_reference(workload)
    if args.trace:
        traced(cli, workload, args, reference)
    else:
        end_to_end(cli, workload, args, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
