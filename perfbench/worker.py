"""One benchmark process: build a workload's inputs, then time cold passes.

Run by ``run.py``, never by hand.  The process prints ``{"event": "ready"}``
as soon as its inputs are built (the parent times process start to that
line as set-up), and in ``--mode run`` one ``{"event": "result", ...}``
line at the end.  Every pass starts with the library caches empty, as a
fresh CLI invocation sees them.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def blas_info() -> dict:
    """BLAS name and version from numpy's build config; the thread count
    from the bundled OpenBLAS when its query symbol is there."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(wl) -> dict:
    params = {k: getattr(wl, k) for k in ("n", "samples", "n_wigner", "samples_wigner",
                                           "n_haar", "samples_haar", "order", "max_pads")
              if hasattr(wl, k)}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "seed": getattr(wl, "seeds", getattr(wl, "seed", None)),
        "params": params,
    }


def timed_pass(wl, tracer):
    workloads.reset_caches()
    gc.collect()
    c0, w0 = time.process_time(), time.perf_counter()
    outputs = wl.run(tracer)
    wall = time.perf_counter() - w0
    return outputs, wall, time.process_time() - c0


class Tally:
    """Counts checks.  A statistical check counts only where it is enforced,
    at the acceptance-test seeds; elsewhere a miss is reported, not failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reported: list[str] = []

    def one(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def add(self, checks, enforce_statistical: bool, report: bool = False) -> None:
        for name, ok, detail, statistical in checks:
            if statistical and not enforce_statistical:
                if report and not ok:
                    self.reported.append(f"{name}: {detail}")
            else:
                self.one(name, ok, detail)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed)
    emit({"event": "ready"})
    if args.mode == "setup":
        return 0

    null = tracing.NullTracer()
    tally = Tally()
    # Untimed gate pass at the acceptance-test seeds.  It is the only pass
    # whose z gates count: a 3-SE gate over many estimates trips on some
    # share of arbitrary seeds even on correct code.  It also takes the
    # process's first-pass costs off the timing (heap growth, page faults,
    # BLAS thread start), which add 15-25% to an exact workload's first pass.
    gate = cls(None)
    gate_outputs, _, _ = timed_pass(gate, null)
    tally.add(gate.check(gate_outputs), enforce_statistical=True)

    walls, cpus, traced_walls, layer_runs = [], [], [], []
    first = None

    def untraced():
        nonlocal first
        outputs, wall, cpu = timed_pass(wl, null)
        walls.append(wall)
        cpus.append(cpu)
        checks = wl.check(outputs)
        tally.add(checks, enforce_statistical=False, report=first is None)
        summary = workloads.summarize(outputs)
        if first is None:
            first = (summary, [c[1] for c in checks])
        else:
            tally.one("repeat pass", summary == first[0], "outputs differ between passes")

    def traced():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outputs, wall, _ = timed_pass(wl, tracer)
        finally:
            restored = tracer.uninstall()
        checks = wl.check(outputs)
        tally.add(checks, enforce_statistical=False)
        if not layer_runs:
            # self-test: tracing changes no output and no check verdict
            tally.one("trace restores originals", restored, "a wrapper was left in place")
            tally.one("traced outputs bit-identical", workloads.summarize(outputs) == first[0],
                      "traced pass disagrees with the untraced pass")
            tally.one("traced check verdicts", [c[1] for c in checks] == first[1],
                      "traced pass changes a check verdict")
            if args.spans:
                tracer.write(args.spans)
        traced_walls.append(wall)
        layer_runs.append(tracer.layer_metrics(wall))

    # A traced run times untraced and traced passes in U T T U blocks, so a
    # steady drift in machine speed cancels out of trace_overhead_s.
    block = (untraced, traced, traced, untraced) if args.trace else (untraced,)
    start = time.perf_counter()
    blocks = 0
    while True:
        for step in block:
            step()
        blocks += 1
        # start another block only while at least half a block's time is left
        elapsed = time.perf_counter() - start
        if args.seconds - elapsed < 0.5 * elapsed / blocks:
            break

    result = {
        "event": "result",
        "passes": len(walls),
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "z_misses_at_seed": tally.reported,
        "outputs": first[0],
        "environment": environment(wl),
    }
    if args.trace:
        per_layer = {
            name: (statistics.median(run[name][0] for run in layer_runs), unit)
            for name, (_, unit) in layer_runs[0].items()
        }
        per_layer["trace_overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
        result["per_layer"] = per_layer
        result["traced_wall_s"] = traced_walls
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
