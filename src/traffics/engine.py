"""Evaluate graph monomials on matrices and estimate traffic states.

Evaluation follows the sum-over-maps rule: a graph monomial t with input u
and output v takes the value

    t(A)(i, j) = sum over phi: V -> [n] with phi(v) = i, phi(u) = j
                 of the product over edges e of A_e(phi(tar e), phi(src e)),

with the conjugate transpose bound to starred edges.  The engine first folds
the graph into a simple graph: loops become vertex weight vectors and the
parallel edges between two vertices one Hadamard bundle.  It then sums out
vertices one at a time, smallest degree first, broadcasting over any leading
batch axes of the bound matrices:

* degree 0: a sum of the vertex weights (or a factor n);
* degree 1: one einsum pass into a ``batch x n`` vector on the neighbour,
  with no ``n x n`` temporary;
* degree 2: one matmul of the two bundles, each built in one einsum pass in
  the orientation the product needs, with the vertex weights folded into
  one side;
* degree >= 3: a general einsum step over every factor at the vertex.

The order and the kind of every step depend on the graph alone (``_plan``).
Degree-1 results are keyed by a rooted-subtree code, so the Mobius terms of
one injective trace, evaluated on the same draws, share their pendant sums.
A plan with a general step whose ``batch x n^degree`` output would exceed
``DEFAULT_ENUM_LIMIT`` entries raises ``ValueError``; an estimate checks its
plans before it draws anything.

Traffic states: ``tau[T] = E (1/n) tr T(A)`` is estimated by Monte Carlo with
one counter-based stream per sample index, so results are byte-identical for
a given (seed, n, samples) regardless of batching or thread count.  The
samples are split into tasks, one per large sample or one per chunk of small
ones, and a task draws its samples straight into its thread's stacked arrays
and contracts them on the same thread.  By default the estimate runs its
tasks on every core the process may run on; ``ensembles.BLAS_LOCK`` keeps
the threads from running multithreaded BLAS calls at once.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

# canonical_form and canonical_key stay importable here for perfbench/tracing.py
from .ensembles import BLAS_LOCK, stream
from .graphs import GraphMonomial, TestGraph, canonical_form, canonical_key, quotient, shape_sum
from .partitions import MAX_GROUND, enumerate_partitions, mobius_zero

DEFAULT_ENUM_LIMIT = 10**8
# a sample holding at least this many matrix entries is drawn and contracted
# as a task of its own; smaller ones a chunk at a time (see ``_sample_values``)
SAMPLE_TASK_ENTRIES = 2**18


def _bindings(labels: Sequence[str], matrices: Any) -> dict[str, np.ndarray]:
    if isinstance(matrices, Mapping):
        out = {}
        for lab in labels:
            if lab not in matrices:
                raise ValueError(f"no matrix bound to label {lab!r}")
            out[lab] = np.asarray(matrices[lab])
    else:
        if len(labels) > 1:
            raise ValueError("a bare array can only bind a single-label graph")
        out = {lab: np.asarray(matrices) for lab in labels}
    n = batch = None
    for lab, m in out.items():
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"matrix for {lab!r} is not square")
        if n is None:
            n, batch = m.shape[-1], m.shape[:-2]
        elif m.shape[-1] != n or m.shape[:-2] != batch:
            raise ValueError("bound matrices disagree in shape")
    return out


def _dim(mats: dict[str, np.ndarray], matrices: Any) -> tuple[int, tuple]:
    if mats:
        m = next(iter(mats.values()))
        return m.shape[-1], m.shape[:-2]
    # edgeless graph: take the dimension from whatever was passed
    if isinstance(matrices, Mapping):
        for m in matrices.values():
            m = np.asarray(m)
            return m.shape[-1], m.shape[:-2]
        raise ValueError("cannot infer the dimension from an empty binding")
    m = np.asarray(matrices)
    return m.shape[-1], m.shape[:-2]


class _Bound:
    """Matrices bound by label, shared by every trace taken on the same draws.

    ``pendants`` memoizes degree-1 eliminations by rooted-subtree code, so
    the Mobius terms of one injective trace share their pendant sums.  It
    holds only ``batch x n`` vectors and lives as long as the object.
    """

    __slots__ = ("mats", "n", "batch", "pendants")

    def __init__(self, labels: Sequence[str], matrices: Any):
        self.mats = _bindings(labels, matrices)
        self.n, self.batch = _dim(self.mats, matrices)
        self.pendants: dict[tuple, np.ndarray] = {}


def _bound(g: TestGraph, matrices: Any) -> _Bound:
    if not isinstance(matrices, _Bound):
        return _Bound(g.labels(), matrices)
    for lab in g.labels():
        if lab not in matrices.mats:
            raise ValueError(f"no matrix bound to label {lab!r}")
    return matrices


_E = Ellipsis  # leading batch axes in einsum sublists


def _pair(u: int, w: int) -> tuple[int, int]:
    return (u, w) if u < w else (w, u)


def _operands(factors: list, row: int, weights: Sequence[np.ndarray] = (), at: int = 1) -> list:
    """einsum operands of parallel factors on subscripts (0, 1) = (row, other)
    and of vertex weights on subscript ``at``."""
    ops: list = []
    for arr, r, _ in factors:
        ops += [arr, [_E, 0, 1] if r == row else [_E, 1, 0]]
    for w in weights:
        ops += [w, [_E, at]]
    return ops


def _bundle(factors: list, row: int, weights: Sequence[np.ndarray] = (), at: int = 1) -> np.ndarray:
    """Hadamard product of parallel factors indexed [row, other], in one pass
    with the weights folded in.  A lone unweighted factor comes back as a view."""
    if len(factors) == 1 and not weights:
        arr, r, _ = factors[0]
        return arr if r == row else np.swapaxes(arr, -1, -2)
    return np.einsum(*_operands(factors, row, weights, at), [_E, 0, 1])


def _pendant_code(bundle: list, root: int, weights: list) -> Optional[tuple]:
    """Rooted-subtree code of a pendant: its edge tokens, oriented from the
    root, and the codes on the eliminated vertex.  None if anything in it
    was computed by a degree >= 2 step."""
    tokens = []
    for _, row, tok in bundle:
        if tok is None:
            return None
        tokens.append(tok + (row != root,))
    codes = []
    for _, code in weights:
        if code is None:
            return None
        codes.append(code)
    return tuple(sorted(tokens)), tuple(sorted(codes, key=repr))


class _Folded:
    """A graph as a simple graph of folded factors, eliminated vertex by vertex.

    Loops become vectors in ``weights[v]``.  Parallel edges between u and w
    stay in ``pairs[(u, w)]`` (u < w) as unbuilt factors ``(array, row,
    token)`` with ``array[..., i, j]`` indexed by (row, the other vertex),
    so the step that consumes a bundle builds it in the orientation it
    needs.  Rank >= 3 results of general steps live in ``hypers``.  Tokens
    are ``(label, star)`` for edges of the graph and None for computed
    factors; a weight carries the code of the pendant it came from.  Which
    vertex goes next, and with which neighbours, comes from :func:`_plan`.
    """

    def __init__(self, g: TestGraph, mats: dict[str, np.ndarray]):
        self.weights: dict[int, list] = {v: [] for v in range(g.n_vertices)}
        self.pairs: dict[tuple[int, int], list] = {}
        self.hypers: list[tuple[np.ndarray, tuple[int, ...]]] = []
        conj: dict[str, np.ndarray] = {}
        for e in g.edges:
            m = mats[e.label]
            if e.star:
                m = conj.get(e.label)
                if m is None:
                    m = conj[e.label] = mats[e.label].conj()
            tok = (e.label, e.star)
            if e.src == e.tar:
                self.weights[e.src].append((np.diagonal(m, axis1=-2, axis2=-1), tok))
            else:
                row, col = (e.src, e.tar) if e.star else (e.tar, e.src)
                self._add(m, (row, col), tok)

    def _add(self, arr: np.ndarray, axes: tuple[int, ...], tok: Optional[tuple] = None) -> None:
        if len(axes) == 2:
            self.pairs.setdefault(_pair(*axes), []).append((arr, axes[0], tok))
        else:
            self.hypers.append((arr, axes))

    def eliminate(
        self, v: int, nb: tuple[int, ...], general: bool, ctx: _Bound
    ) -> Union[int, np.ndarray, None]:
        """Sum out v, whose neighbours are ``nb``; returns the scalar factor
        when v had none."""
        if general:
            self._general(v, nb, ctx.batch)
        elif len(nb) == 2:
            self._bridge(v, *nb)
        elif nb:
            self._pendant(v, nb[0], ctx.pendants)
        else:
            ops: list = []
            for w, _ in self.weights.pop(v):
                ops += [w, [_E, 0]]
            return np.einsum(*ops, [_E]) if ops else ctx.n  # n: v is free in every map
        return None

    def _pendant(self, v: int, u: int, pendants: dict) -> None:
        # sum_v B[u, v] w[v] straight into a vector on u: no n x n temporary
        bundle = self.pairs.pop(_pair(u, v))
        weights = self.weights.pop(v)
        code = _pendant_code(bundle, u, weights)
        vec = pendants.get(code) if code is not None else None
        if vec is None:
            vec = np.einsum(*_operands(bundle, u, [w for w, _ in weights]), [_E, 0])
            if code is not None:
                pendants[code] = vec
        self.weights[u].append((vec, code))

    def _bridge(self, v: int, u: int, w: int) -> None:
        # one matmul; v's weights ride on the side that is built anyway
        left, right = self.pairs.pop(_pair(u, v)), self.pairs.pop(_pair(v, w))
        weights = [x for x, _ in self.weights.pop(v)]
        if len(right) > len(left):
            a, b = _bundle(left, u), _bundle(right, v, weights, at=0)
        else:
            a, b = _bundle(left, u, weights, at=1), _bundle(right, v)
        with BLAS_LOCK:
            ab = a @ b
        self._add(ab, (u, w))

    def _general(self, v: int, nb: tuple[int, ...], batch: tuple) -> None:
        sub = {u: i for i, u in enumerate((v,) + nb)}
        ops: list = []
        for u in nb:
            for arr, row, _ in self.pairs.pop(_pair(u, v), ()):
                ops += [arr, [_E, sub[row], sub[u if row == v else v]]]
        for w, _ in self.weights.pop(v):
            ops += [w, [_E, 0]]
        rest = []
        for arr, axes in self.hypers:
            if v in axes:
                ops += [arr, [_E] + [sub[a] for a in axes]]
            else:
                rest.append((arr, axes))
        self.hypers = rest
        step = _step_batch(batch)
        if step != batch:
            ops[::2] = [np.broadcast_to(a, step[:1] + a.shape) for a in ops[::2]]
        # pairwise BLAS contractions: 5-7x faster than one pass at degree 3-4
        with BLAS_LOCK:
            merged = np.einsum(*ops, [_E] + [sub[u] for u in nb], optimize=True)
        self._add(merged if step == batch else merged[0], nb)

    def finish(self, keep: tuple[int, ...], n: int, batch: tuple) -> np.ndarray:
        """The array on ``keep`` once every other vertex is summed out."""
        sub = {a: i for i, a in enumerate(keep)}
        ops: list = []
        for a in keep:
            for w, _ in self.weights[a]:
                ops += [w, [_E, sub[a]]]
        linked = len(keep) == 2 and _pair(*keep) in self.pairs
        if linked:
            for arr, row, _ in self.pairs[_pair(*keep)]:
                ops += [arr, [_E, sub[row], 1 - sub[row]]]
        for a in keep:
            if not self.weights[a] and not linked:
                ops += [np.ones(batch + (n,)), [_E, sub[a]]]
        return np.einsum(*ops, [_E] + list(range(len(keep))))


def _plan(g: TestGraph, keep: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], bool]]:
    """The elimination steps of :func:`_contract`: ``(vertex, its sorted
    neighbours, general step?)`` in order.

    Vertices go smallest degree first, ties by index.  Eliminating v links
    its neighbours pairwise; a step is general at degree >= 3 or when v lies
    in the rank >= 3 result of an earlier general step.  All of it depends
    on the adjacency alone, so the plan, and the size check on it, come
    before any matrix is drawn.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for e in g.edges:
        if e.src != e.tar:
            nbrs[e.src].add(e.tar)
            nbrs[e.tar].add(e.src)
    hypers: list[tuple[int, ...]] = []
    live = [v for v in range(g.n_vertices) if v not in keep]
    steps = []
    while live:
        v = min(live, key=lambda u: (len(nbrs[u]), u))
        live.remove(v)
        nb = tuple(sorted(nbrs.pop(v)))
        general = len(nb) >= 3 or any(v in axes for axes in hypers)
        if general:
            hypers = [axes for axes in hypers if v not in axes]
            if len(nb) >= 3:
                hypers.append(nb)
        for u in nb:
            nbrs[u].discard(v)
            nbrs[u].update(w for w in nb if w != u)
        steps.append((v, nb, general))
    return steps


def _step_batch(batch: tuple) -> tuple:
    """The batch a general step runs over.  numpy's pairwise einsum drops
    length-1 batch axes and then rounds differently, so a batch of one
    sample runs as a broadcast pair: each sample's bits do not depend on
    the samples stacked with it."""
    return (2,) + batch if batch and math.prod(batch) == 1 else batch


def _check_size(steps: list, n: int, batch: tuple) -> None:
    """Refuse a plan whose general step would output more than
    ``DEFAULT_ENUM_LIMIT`` entries over ``batch``."""
    for _, nb, general in steps:
        if not general:
            continue
        size = math.prod(_step_batch(batch)) * n ** len(nb)
        if size > DEFAULT_ENUM_LIMIT:
            raise ValueError(
                f"a degree-{len(nb)} contraction step needs {size} entries, "
                f"over the limit {DEFAULT_ENUM_LIMIT}"
            )


def _contract(g: TestGraph, ctx: _Bound, keep: tuple[int, ...]) -> np.ndarray:
    """Sum over all maps phi, returning an array indexed by phi on ``keep``.

    Follows :func:`_plan`.  Degrees 0, 1 and 2 have their own kernels (a
    sum, a one-pass vector, one matmul); larger ones take a general einsum
    step.  A plan whose general step would exceed ``DEFAULT_ENUM_LIMIT``
    entries raises ``ValueError`` before anything is computed.
    """
    n, batch = ctx.n, ctx.batch
    steps = _plan(g, keep)
    _check_size(steps, n, batch)
    folded = _Folded(g, ctx.mats)
    scalar = np.ones(batch)
    for v, nb, general in steps:
        factor = folded.eliminate(v, nb, general, ctx)
        if factor is not None:
            scalar = scalar * factor
    if not keep:
        return scalar
    out = folded.finish(keep, n, batch)
    return out * scalar.reshape(batch + (1,) * len(keep))


def eval_graph_matrix(t: GraphMonomial, matrices: Any) -> np.ndarray:
    """Evaluate a graph monomial on bound matrices; result (..., n, n)."""
    g = t.graph
    ctx = _bound(g, matrices)
    if t.v_in != t.v_out:
        return _contract(g, ctx, (t.v_out, t.v_in))
    vec = _contract(g, ctx, (t.v_in,))
    out = np.zeros(ctx.batch + (ctx.n, ctx.n), dtype=vec.dtype)
    idx = np.arange(ctx.n)
    out[..., idx, idx] = vec
    return out


def trace_test_graph(T: TestGraph, matrices: Any) -> Any:
    """tr T(A): sum over all vertex maps of the edge-entry product."""
    ctx = _bound(T, matrices)
    out = _contract(T, ctx, ())
    return out if ctx.batch else out[()]


@lru_cache(maxsize=4096)
def _injective_terms(T: TestGraph) -> tuple[tuple[int, TestGraph], ...]:
    """Mobius-weighted quotients of T, grouped up to isomorphism."""
    if T.n_vertices > MAX_GROUND:
        raise ValueError(f"too many vertices for the partition sum ({T.n_vertices})")
    terms = ((quotient(T, pi), mobius_zero(pi)) for pi in enumerate_partitions(T.n_vertices))
    return tuple((w, graph) for graph, w in shape_sum(terms))


def trace_injective(T: TestGraph, matrices: Any) -> Any:
    """tr^0 T(A): the sum restricted to injective maps, via Mobius inversion."""
    ctx = _bound(T, matrices)  # the terms share pendant sums
    total = None
    for w, q in _injective_terms(T):
        val = trace_test_graph(q, ctx)
        total = w * val if total is None else total + w * val
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimation

@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate of a (normalized) traffic-state quantity."""

    mean: complex
    stderr: float
    samples: int
    n: int

    def z(self, theory: complex) -> float:
        diff = abs(complex(self.mean) - complex(theory))
        if self.stderr <= 1e-12 * max(abs(complex(self.mean)), 1.0):
            # every sample agreed up to rounding: a difference at rounding
            # level is a match
            return 0.0 if diff <= 1e-12 * max(abs(theory), 1.0) else math.inf
        return diff / self.stderr


def _chunk_size(n: int) -> int:
    # keep stacked batches near 100 MB; depends only on n, so results do not
    # change with threading or memory pressure
    return max(1, min(64, int(1.2e8 / (16 * max(n * n, 1)))))


def _task_size(n: int, model: Any) -> int:
    """Samples per task of ``_sample_values``: a sample of at least
    ``SAMPLE_TASK_ENTRIES`` matrix entries alone, smaller ones a chunk."""
    return 1 if n * n * len(model.labels) >= SAMPLE_TASK_ENTRIES else _chunk_size(n)


def _thread_count(threads: Optional[int]) -> int:
    """``threads``, or the number of cores this process may run on if None."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    return threads


def _check_sizes(n: int, samples: int) -> None:
    if n < 1 or samples < 1:
        raise ValueError(f"need n >= 1 and samples >= 1, got n={n}, samples={samples}")


def _sample_values(
    model: Any,
    labels: Sequence[str],
    n: int,
    samples: int,
    seed: int,
    threads: Optional[int],
    values: Callable[[dict[str, np.ndarray]], np.ndarray],
) -> np.ndarray:
    """The Monte Carlo loop: split the samples into tasks, and in each task
    draw sample i from ``stream(seed, i)`` into the stacked slots of the
    thread it runs on and map them through ``values`` on that thread.

    A task holds ``_task_size(n, model)`` samples: one sample of at least
    ``SAMPLE_TASK_ENTRIES`` matrix entries, or a chunk of smaller ones.  The
    split depends on n and the model alone, and results are concatenated in
    task order, so the thread count changes no bit.  With one task or one
    thread the tasks run on the calling thread; otherwise a pool of at most
    ``threads`` runs them.  Each thread allocates its slots once, sized to
    the first task, and reuses them for its later tasks, so ``values`` must
    return an array that does not share their memory.  Bad sizes fail before
    any draw.
    """
    _check_sizes(n, samples)
    dtypes = model.dtypes()
    size = _task_size(n, model)
    tasks = [(s, min(s + size, samples)) for s in range(0, samples, size)]
    local = threading.local()  # dropped with the call, so no slot outlives it

    def task(span: tuple[int, int]) -> np.ndarray:
        start, stop = span
        if not hasattr(local, "slots"):
            shape = (min(size, samples), n, n)
            local.slots = {lab: np.empty(shape, dtypes[lab]) for lab in labels}
        stacked = {lab: a[: stop - start] for lab, a in local.slots.items()}
        for i in range(start, stop):
            model.sample(n, stream(seed, i), out={lab: a[i - start] for lab, a in stacked.items()})
        return values(stacked)

    workers = min(_thread_count(threads), len(tasks))
    if workers == 1:
        return np.concatenate([task(t) for t in tasks])
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return np.concatenate(list(pool.map(task, tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


def _trace_values(
    T: TestGraph,
    model: Any,
    n: int,
    samples: int,
    seed: int,
    injective: bool,
    threads: Optional[int],
) -> np.ndarray:
    _check_sizes(n, samples)  # ahead of the early return below, which draws nothing
    _thread_count(threads)  # a bad count fails before any other work
    labels = T.labels()
    # Normalizing tr^0 by the injective-map count instead of n removes the
    # O(1/n) falling-factorial bias, so means are centered on the limit.
    scale = 1.0
    if injective:
        _injective_terms(T)  # a graph too large for the partition sum fails before any draw
        if n < T.n_vertices:
            return np.zeros(samples)
        for j in range(T.n_vertices):
            scale *= n / (n - j)
    # an oversized contraction fails before any draw; the first task is the largest
    batch = (min(_task_size(n, model), samples),)
    for _, q in _injective_terms(T) if injective else [(1, T)]:
        _check_size(_plan(q, ()), n, batch)

    def traces(stacked: dict[str, np.ndarray]) -> np.ndarray:
        # the Mobius terms share pendant sums through one context per chunk
        ctx = _Bound(labels, stacked)
        trace = trace_injective if injective else trace_test_graph
        return np.asarray(trace(T, ctx)) * (scale / n)

    return _sample_values(model, labels, n, samples, seed, threads, traces)


def _mean_stderr(values: np.ndarray) -> tuple[complex, float]:
    mean = complex(np.mean(values))
    k = values.size
    if k < 2:
        return mean, 0.0
    var = float(np.sum(np.abs(values - mean) ** 2)) / (k - 1)
    return mean, math.sqrt(var / k)


def estimate_traffic_state(
    T: TestGraph,
    model: Any,
    n: int,
    samples: int,
    seed: int,
    *,
    injective: bool = False,
    threads: Optional[int] = None,
) -> Estimate:
    """Estimate tau[T] = E (1/n) tr T(A) (or tau^0 with ``injective``).

    ``model`` is a :class:`~traffics.ensembles.MatrixModel`; each sample
    index draws from its own stream of ``seed``.  ``threads`` None uses
    every core the process may run on (see ``_sample_values``).  Injective
    estimates carry the n^|V| / (n)_|V| count correction (see
    ``_trace_values``).
    """
    values = _trace_values(T, model, n, samples, seed, injective, threads)
    mean, stderr = _mean_stderr(values)
    return Estimate(mean, stderr, samples, n)


def central_moment_estimate(
    T: TestGraph,
    model: Any,
    n: int,
    samples: int,
    order: int,
    seed: int,
    *,
    injective: bool = False,
    threads: Optional[int] = None,
) -> Estimate:
    """Two-pass estimate of E |(1/n) tr T - E (1/n) tr T|^order."""
    if order < 2 or order % 2:
        raise ValueError("central moment order must be even and >= 2")
    values = _trace_values(T, model, n, samples, seed, injective, threads)
    mean = complex(np.mean(values))
    dev = np.abs(values - mean) ** order
    m, se = _mean_stderr(dev)
    return Estimate(m, se, samples, n)
