"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload band_star --seed 1 --seconds 24 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run starts ``SETUP_PROBES`` processes that only build the workload's
inputs, then one worker that builds them again and repeats cold passes of
the workload for about ``--seconds``.  ``setup_s`` is the median,
over all of those processes, of the time from process start to inputs
built; ``wall_s`` and ``cpu_s`` are the lower quartiles over the passes.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see WORKLOADS.md).  The line before
it holds the environment, per-pass times, outputs and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("band_star", "wigner_haar_corpus", "markov_moments", "independence_audit")
SETUP_PROBES = 10
TIMEOUT_S = 170.0


def lower_quartile(values: list[float]) -> float:
    """First quartile of the pass times.  Interference from other tenants of
    the host only ever adds time to a pass, and it comes and goes within a
    run, so the low quartile follows the program and the median follows
    the neighbours (see WORKLOADS.md)."""
    return values[0] if len(values) < 2 else statistics.quantiles(values, n=4)[0]


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds it took to report ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line or json.loads(line).get("event") != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not report ready (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker until the deadline, killing it past that; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed; the default is the acceptance-test seed")
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "traffics", "__init__.py")):
        sys.stderr.write(f"perfbench: no library source under {os.path.join(ROOT, 'src')}\n")
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_worker(common + ["--mode", "setup"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        setup.append(ready)

    spans = None
    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        spans = os.path.join(HERE, "out", f"spans-{args.workload}-seed{seed}.json")
        run_args += ["--spans", spans]
    proc, ready = start_worker(run_args, deadline)
    setup.append(ready)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    details = {
        "workload": args.workload,
        "environment": result["environment"],
        "setup_s_samples": setup,
        "passes": result["passes"],
        "wall_s_passes": result["wall_s"],
        "cpu_s_passes": result["cpu_s"],
        "fail_rate": failed / attempted,
        "failures": result["failures"],
        "z_misses_at_seed": result["z_misses_at_seed"],
        "outputs": result["outputs"],
    }
    if args.trace:
        details["traced_wall_s_passes"] = result["traced_wall_s"]
        details["spans"] = os.path.relpath(spans, ROOT)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": lower_quartile(result["wall_s"]), "unit": "s"},
            "cpu_s": {"value": lower_quartile(result["cpu_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
