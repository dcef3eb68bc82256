"""Layer spans recorded from outside the library.

``Tracer.install`` replaces public functions of ``traffics`` with timing
wrappers in every module namespace where a caller looks them up, since
several modules import them by name.  The wrappers call the originals, so
the LRU caches of ``canonical_key``/``canonical_form`` stay in the path,
and ``uninstall`` puts every original back.  Spans live in memory as
``[name, start, end, parent]`` and are written out once, after the pass.

A layer's self time is its spans' duration minus the part covered by their
child spans.  Generators (``enumerate_partitions``,
``double_tree_quotients``) get one span per ``next()``, so the consumer's
work between items is not charged to the scan.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from traffics import engine, ensembles, graphs, independence, limits, moments, partitions

_clock = time.perf_counter


class NullTracer:
    """Stand-in for untraced passes: hands evaluators back unchanged."""

    def evaluator(self, fn):
        return fn


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.draw_keys: set = set()
        self.traced_graphs: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self._canon = (graphs.canonical_key, graphs.canonical_form)
        self._canon_after: tuple = ()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, _clock(), 0.0, stack[-1]])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i][2] = _clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _wrap_generator(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = len(spans)
                spans.append([name, _clock(), 0.0, stack[-1]])
                stack.append(i)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[i][2] = _clock()
                    stack.pop()
                counts[count] += 1
                yield item

        return traced

    def evaluator(self, fn):
        """Wrap an ``ltd_fn`` the benchmark passes into the library."""
        return self._wrap("limits.eval", fn)

    # -- patching ----------------------------------------------------------

    def _patch(self, wrapper, *targets):
        for owner, attr in targets:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        def on_draw(args, out):
            model, n, rng = args[0], args[1], args[2]
            seq = getattr(rng.bit_generator, "seed_seq", None)
            key = (repr(model.parts), n, getattr(seq, "entropy", id(rng)),
                   getattr(seq, "spawn_key", ()))
            if key in self.draw_keys:
                self.counts["ensembles.repeat_draws"] += 1
            self.draw_keys.add(key)
            self.counts["ensembles.bytes_drawn"] += sum(m.nbytes for m in out.values())

        def on_trace(args, out):
            self.traced_graphs.add(args[0])

        def on_power(args, out):
            self.counts["moments.terms"] += len(out.terms)

        def on_corpus(args, out):
            self.counts["independence.graphs"] += len(out)

        p = self._patch
        p(self._wrap("ensembles.sample", ensembles.MatrixModel.sample, on_draw),
          (ensembles.MatrixModel, "sample"))
        p(self._wrap("ensembles.band_mask", ensembles.band_mask), (ensembles, "band_mask"))
        p(self._wrap("ensembles.haar", ensembles.sample_haar_orthogonal),
          (ensembles, "sample_haar_orthogonal"))
        p(self._wrap("engine.estimate", engine.estimate_traffic_state),
          (engine, "estimate_traffic_state"))
        p(self._wrap("engine.trace", engine.trace_test_graph, on_trace),
          (engine, "trace_test_graph"))
        p(self._wrap_generator("partitions.enumerate", partitions.enumerate_partitions,
                               "partitions.count"),
          (engine, "enumerate_partitions"), (partitions, "enumerate_partitions"))
        p(self._wrap("limits.ltd_trace", limits.ltd_trace),
          (moments, "ltd_trace"), (limits, "ltd_trace"))
        p(self._wrap_generator("limits.quotient_scan", limits.double_tree_quotients,
                               "limits.quotients"),
          (limits, "double_tree_quotients"))
        p(self._wrap("limits.cut_integral", limits.cut_integral), (limits, "cut_integral"))
        p(self._wrap("graphs.canon", graphs.canonical_key),
          (graphs, "canonical_key"), (engine, "canonical_key"),
          (moments, "canonical_key"), (independence, "canonical_key"))
        p(self._wrap("graphs.canon", graphs.canonical_form),
          (graphs, "canonical_form"), (engine, "canonical_form"),
          (independence, "canonical_form"))
        p(self._wrap("moments.moment", moments.traffic_moment), (moments, "traffic_moment"))
        p(self._wrap("moments.expand", moments.poly_power, on_power), (moments, "poly_power"))
        p(self._wrap("moments.expand", moments.trace_closure), (moments, "trace_closure"))
        p(self._wrap("independence.corpus", independence.build_double_tree_corpus, on_corpus),
          (independence, "build_double_tree_corpus"))
        p(self._wrap("independence.audit", independence.verify_traffic_independence),
          (independence, "verify_traffic_independence"))

    def uninstall(self) -> bool:
        """Put every original back; True when each name is the original again."""
        self._canon_after = tuple(f.cache_info() for f in self._canon)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(getattr(o, a) is orig for o, a, orig in self._patched)
        self._patched.clear()
        return restored

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        calls: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start - child)
            calls[name] += 1
        return out, calls

    def layer_metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass whose wall time was ``wall_s``.

        Call after ``uninstall``.  The pass emptied the canonical-form caches
        when it started, which also zeroes their hit and miss counters.
        """
        selfs, calls = self.self_times()
        c = self.counts
        t = lambda name: (selfs.get(name, 0.0), "s")
        n = lambda value: (value, "count")
        hits = sum(info.hits for info in self._canon_after)
        lookups = hits + sum(info.misses for info in self._canon_after)
        draws = calls["ensembles.sample"]
        # canonical keys of the traced graphs, taken after the cache counters
        shapes = {self._canon[0](g) for g in self.traced_graphs}
        return {
            "ensembles.sample_s": t("ensembles.sample"),
            "ensembles.draws": n(draws),
            "ensembles.band_mask_s": t("ensembles.band_mask"),
            "ensembles.band_mask_calls": n(calls["ensembles.band_mask"]),
            "ensembles.haar_s": t("ensembles.haar"),
            "ensembles.bytes_drawn": (c["ensembles.bytes_drawn"], "bytes"),
            "ensembles.repeat_draw_share": (
                c["ensembles.repeat_draws"] / draws if draws else 0.0, "ratio"),
            "engine.trace_s": t("engine.trace"),
            "engine.trace_calls": n(calls["engine.trace"]),
            "engine.distinct_shapes": n(len(shapes)),
            "engine.stack_reduce_s": t("engine.estimate"),
            "partitions.enumerate_s": t("partitions.enumerate"),
            "partitions.count": n(c["partitions.count"]),
            "limits.ltd_trace_s": t("limits.ltd_trace"),
            "limits.ltd_trace_calls": n(calls["limits.ltd_trace"]),
            "limits.quotient_scan_s": t("limits.quotient_scan"),
            "limits.quotients": n(c["limits.quotients"]),
            "limits.eval_s": t("limits.eval"),
            "limits.eval_calls": n(calls["limits.eval"]),
            "limits.cut_integral_s": t("limits.cut_integral"),
            "limits.cut_integral_calls": n(calls["limits.cut_integral"]),
            "graphs.canon_s": t("graphs.canon"),
            "graphs.canon_calls": n(calls["graphs.canon"]),
            "graphs.canon_lookups": n(lookups),
            "graphs.canon_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "moments.expand_s": t("moments.expand"),
            "moments.terms": n(c["moments.terms"]),
            "moments.sum_s": t("moments.moment"),
            "independence.corpus_s": t("independence.corpus"),
            "independence.audit_s": t("independence.audit"),
            "independence.graphs": n(c["independence.graphs"]),
            "trace.wall_s": (wall_s, "s"),
            "trace.residual_s": (wall_s - sum(selfs.values()), "s"),
        }

    def write(self, path) -> None:
        """Write the spans as one JSON record: names, then [name, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
