"""The benchmark tracer patches library names by module; a refactor that
moves or drops one of them must fail here, not in ``perfbench/run.py``."""

import importlib.util
import os

from traffics import engine, graphs, limits, moments

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_tracer_installs_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (engine.trace_test_graph, graphs.canonical_key, moments.ltd_trace,
                 limits.double_tree_quotients)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert engine.trace_test_graph is not originals[0]
    finally:
        assert tracer.uninstall() is True
    assert (engine.trace_test_graph, graphs.canonical_key, moments.ltd_trace,
            limits.double_tree_quotients) == originals
