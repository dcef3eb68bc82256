"""The benchmark tracer patches library names by module, and the workloads
call the library through them; a refactor that moves or drops one of them,
or changes a value a workload checks, must fail here, not in
``perfbench/run.py``."""

import importlib
import importlib.util
import os
import pkgutil

import traffics
from traffics import engine, ensembles, graphs, limits, moments
from traffics.graphs import Edge, TestGraph

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    # the draw-path names last: the tracer wraps them to count draws and bytes
    return (engine.trace_test_graph, graphs.canonical_key, moments.ltd_trace,
            limits.double_tree_quotients, limits.cut_integral, ensembles.MatrixModel.sample,
            ensembles.sample_haar_orthogonal, ensembles.band_mask)


def test_tracer_installs_and_restores_every_name():
    tracing = _load("tracing")
    originals = _traced_names()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(now is not was for now, was in zip(_traced_names(), originals))
        pad = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
        assert limits.cut_probability(pad, 1) == 1
        assert [span[0] for span in tracer.spans] == ["limits.cut_integral"]
    finally:
        assert tracer.uninstall() is True
    assert _traced_names() == originals


def test_every_workload_passes_its_checks_at_its_default_seed():
    workloads, null = _load("workloads"), _load("tracing").NullTracer()
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(None)
        workloads.reset_caches()
        failed = [(check[0], check[2]) for check in wl.check(wl.run(null)) if not check[1]]
        assert not failed, (name, failed)


def _library_caches():
    """Every functools.lru_cache at module level in the package."""
    found = {}
    for info in pkgutil.iter_modules(traffics.__path__):
        module = importlib.import_module(f"traffics.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found[id(value)] = (f"{value.__module__}.{value.__qualname__}", value)
    return list(found.values())


def test_every_cache_a_pass_fills_is_one_reset_caches_clears():
    workloads, null = _load("workloads"), _load("tracing").NullTracer()
    caches = _library_caches()
    assert caches
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(None)
        for _, cached in caches:
            cached.cache_clear()
        wl.run(null)
        filled = [(qualname, cached) for qualname, cached in caches
                  if cached.cache_info().currsize]
        workloads.reset_caches()
        kept = [qualname for qualname, cached in filled if cached.cache_info().currsize]
        assert not kept, (name, kept)
