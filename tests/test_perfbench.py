"""The benchmark tracer patches library names by module, and the workloads
call the library through them; a refactor that moves or drops one of them,
or changes a value a workload checks, must fail here, not in
``perfbench/run.py``."""

import importlib.util
import os

from traffics import engine, graphs, limits, moments
from traffics.graphs import Edge, TestGraph

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracing = _load("tracing")
    originals = (engine.trace_test_graph, graphs.canonical_key, moments.ltd_trace,
                 limits.double_tree_quotients, limits.cut_integral)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert engine.trace_test_graph is not originals[0]
        pad = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
        assert limits.cut_probability(pad, 1) == 1
        assert [span[0] for span in tracer.spans] == ["limits.cut_integral"]
    finally:
        assert tracer.uninstall() is True
    assert (engine.trace_test_graph, graphs.canonical_key, moments.ltd_trace,
            limits.double_tree_quotients, limits.cut_integral) == originals


def test_every_workload_passes_its_checks_at_its_default_seed():
    workloads, null = _load("workloads"), _load("tracing").NullTracer()
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(None)
        workloads.reset_caches()
        failed = [(check[0], check[2]) for check in wl.check(wl.run(null)) if not check[1]]
        assert not failed, (name, failed)
