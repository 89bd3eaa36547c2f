"""The names the benchmark's tracer reads off the program.

``perfbench/tracer.py`` patches the functions it lists in every module
that holds them, swaps ``lyapunov``'s module-level ``np`` for a wrapper
that counts ``np.linalg.qr``, and reads ``StateCache.states`` and
``.transitions``, and ``.size`` off orbit graphs (``.steps`` it reads off
``run_monte_carlo``'s estimates, which no CLI line reaches).  A rename in
``src/`` that breaks one of those would crash a traced benchmark run, or
leave a layer reading 0, so one traced pass of a few ops runs here, on
the cold caches the conftest gives, through the benchmark's own harness.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("harness", "oracle", "tracer", "workloads")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's harness, tracer and workloads, imported afresh
    from ``perfbench/`` and dropped again after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import harness
    import tracer
    import workloads

    yield harness, tracer, workloads
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_a_traced_pass_reads_every_layer(tmp_path, bench):
    harness, tracer, workloads = bench
    ops = [
        workloads.Op("lyapunov", "5 1 2 2 5", steps=200, seeds=(1, 2, 3)),
        workloads.Op("certify", "5 1 2 2 5", steps=200, seeds=(1, 2, 3)),
        workloads.Op("ekz", "5 1 2 2 5"),
        workloads.Op("orbit", "4; (); (1 4 2); (1 4 3 2); (1 4 2 3)"),
    ]
    configs = harness.write_inputs(ops, tmp_path)
    with tracer.Tracer(harness.BudgetExceeded) as tr:
        results, _ = harness.run_pass(configs, 60.0, 120.0, after_op=tr.reset_stack)
    harness.verify(ops, results)
    assert [(r.cause, r.detail) for r in results] == [(None, "")] * len(ops)
    metrics = tr.metrics()
    for name in ("lyapunov.qr.calls", "cocycle.StateCache.state.builds",
                 "cocycle.StateCache.transition.builds", "orbit.vertices"):
        assert metrics[name] > 0, name
