"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

The repeat test runs two traced passes of every workload (about a minute
on two cores).
"""

import os
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.names())
def test_layer_counts_repeat_across_traced_runs(workload):
    first, second = (run.spawn_pass(workload, 1, True)
                     for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0
    counts = [{k: p["layers"][k] for k in tracing.COUNT_METRICS}
              for p in (first, second)]
    assert counts[0] == counts[1]
    assert "absent" not in counts[0].values()


def test_missing_entry_point_reads_absent(monkeypatch):
    fake = types.ModuleType("phaselab.fake_solver")
    monkeypatch.setitem(sys.modules, "phaselab.fake_solver", fake)
    monkeypatch.setattr(tracing, "ENTRY_POINTS",
                        (("phaselab.fake_solver", "splu", "solver.factor"),))
    tracer = tracing.Tracer()
    tracing.instrument(tracer)()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["solver.factorizations"] == "absent"
    assert metrics["solver.factor_s"] == "absent"
    assert metrics["solver.solves"] == 0


def test_pool_thread_spans_take_the_enclosing_span_as_parent():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def member():
        barrier.wait(timeout=10)
        return tracer.call("families.member", lambda: None, (), {})

    def build():
        threads = [threading.Thread(target=member) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.call("families.build", build, (), {})
    build_span = next(s for s in tracer.spans if s.name == "families.build")
    members = [s for s in tracer.spans if s.name == "families.member"]
    assert len(members) == 2
    assert all(m.parent is build_span for m in members)


def test_self_time_subtracts_the_union_of_parallel_children():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
