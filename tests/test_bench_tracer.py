"""The benchmark's tracer still finds every function it wraps: each
traced layer reads more than zero after one command that runs it."""

from __future__ import annotations

from morphbench.tracer import LAYER_METRICS, Tracer
from morphplan import cli
from morphplan.fixtures import fixture_path

ARK = str(fixture_path("arkticheskoe"))
REGION = str(fixture_path("yamal_region"))
MULTI = str(fixture_path("arkticheskoe_multiset"))

COMMANDS = [
    ["synth", ARK, "--algorithm", "dp"],
    ["synth", ARK, "--algorithm", "brute", "--format", "dot", "--node", "W"],
    ["bottlenecks", ARK],
    ["kernel", REGION],
    ["median", MULTI],
    # The only command that still lists the estimate domain.
    ["median", MULTI, "--format", "dot"],
    ["aggregate", REGION, "--method", "exact"],
    ["aggregate", REGION, "--method", "greedy"],
]


def test_tracer_reads_every_layer():
    tracer = Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(COMMANDS):
            tracer.command = i
            # Through the module, so that the tracer's run_command span is used.
            assert cli.run_command(argv).code == 0, argv
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(LAYER_METRICS)
    assert [name for name, value in metrics.items() if not value > 0] == []
