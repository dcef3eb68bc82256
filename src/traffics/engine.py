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

Degree-1 results are keyed by a rooted-subtree code, so the Mobius terms of
one injective trace, evaluated on the same draws, share their pendant sums.
When the smallest degree exceeds the rank guard the engine warns and falls
back to direct enumeration of the maps, which is also exposed as a test
oracle.

Traffic states: ``tau[T] = E (1/n) tr T(A)`` is estimated by Monte Carlo with
one counter-based stream per sample index, so results are byte-identical for
a given (seed, n, samples) regardless of batching or thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

# canonical_form and canonical_key stay importable here for perfbench/tracing.py
from .graphs import GraphMonomial, TestGraph, canonical_form, canonical_key, quotient, shape_sum
from .partitions import MAX_GROUND, enumerate_partitions, mobius_zero

DEFAULT_MAX_RANK = 4
DEFAULT_ENUM_LIMIT = 10**8


class _RankOverflow(Exception):
    pass


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


def _edge_factor(e, mats) -> tuple[np.ndarray, tuple[int, ...]]:
    m = mats[e.label]
    if e.star:
        arr, axes = m.conj(), (e.src, e.tar)
    else:
        arr, axes = m, (e.tar, e.src)
    if e.src == e.tar:
        return np.diagonal(arr, axis1=-2, axis2=-1), (e.src,)
    return arr, axes


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
    factors; a weight carries the code of the pendant it came from.
    """

    def __init__(self, g: TestGraph, mats: dict[str, np.ndarray]):
        self.weights: dict[int, list] = {v: [] for v in range(g.n_vertices)}
        self.pairs: dict[tuple[int, int], list] = {}
        self.hypers: list[tuple[np.ndarray, tuple[int, ...]]] = []
        self.nbrs: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
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
        for a in axes:
            self.nbrs[a].update(b for b in axes if b != a)

    def _drop(self, v: int) -> None:
        for u in self.nbrs.pop(v):
            self.nbrs[u].discard(v)

    def degree(self, v: int) -> int:
        return len(self.nbrs[v])

    def eliminate(self, v: int, n: int, pendants: dict) -> Union[int, np.ndarray, None]:
        """Sum out v; returns the scalar factor when v had no neighbours."""
        deg = len(self.nbrs[v])
        if any(v in axes for _, axes in self.hypers) or deg >= 3:
            self._general(v)
        elif deg == 2:
            self._bridge(v)
        elif deg == 1:
            self._pendant(v, pendants)
        else:
            self.nbrs.pop(v)
            ops: list = []
            for w, _ in self.weights.pop(v):
                ops += [w, [_E, 0]]
            return np.einsum(*ops, [_E]) if ops else n  # n: v is free in every map
        return None

    def _pendant(self, v: int, pendants: dict) -> None:
        # sum_v B[u, v] w[v] straight into a vector on u: no n x n temporary
        (u,) = self.nbrs[v]
        bundle = self.pairs.pop(_pair(u, v))
        weights = self.weights.pop(v)
        code = _pendant_code(bundle, u, weights)
        vec = pendants.get(code) if code is not None else None
        if vec is None:
            vec = np.einsum(*_operands(bundle, u, [w for w, _ in weights]), [_E, 0])
            if code is not None:
                pendants[code] = vec
        self._drop(v)
        self.weights[u].append((vec, code))

    def _bridge(self, v: int) -> None:
        # one matmul; v's weights ride on the side that is built anyway
        u, w = sorted(self.nbrs[v])
        left, right = self.pairs.pop(_pair(u, v)), self.pairs.pop(_pair(v, w))
        weights = [x for x, _ in self.weights.pop(v)]
        if len(right) > len(left):
            a, b = _bundle(left, u), _bundle(right, v, weights, at=0)
        else:
            a, b = _bundle(left, u, weights, at=1), _bundle(right, v)
        self._drop(v)
        self._add(a @ b, (u, w))

    def _general(self, v: int) -> None:
        nb = sorted(self.nbrs[v])
        sub = {u: i for i, u in enumerate([v] + nb)}
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
        # pairwise BLAS contractions: 5-7x faster than one pass at degree 3-4
        merged = np.einsum(*ops, [_E] + [sub[u] for u in nb], optimize=True)
        self._drop(v)
        self._add(merged, tuple(nb))

    def finish(self, keep: tuple[int, ...], n: int, batch: tuple) -> np.ndarray:
        """The array on ``keep`` once every other vertex is summed out."""
        sub = {a: i for i, a in enumerate(keep)}
        ops: list = []
        for a in keep:
            for w, _ in self.weights[a]:
                ops += [w, [_E, sub[a]]]
        if len(keep) == 2:
            for arr, row, _ in self.pairs.get(_pair(*keep), ()):
                ops += [arr, [_E, sub[row], 1 - sub[row]]]
        for a in keep:
            if not self.weights[a] and not self.nbrs[a]:
                ops += [np.ones(batch + (n,)), [_E, sub[a]]]
        return np.einsum(*ops, [_E] + list(range(len(keep))))


def _contract(g: TestGraph, ctx: _Bound, keep: tuple[int, ...], max_rank: int) -> np.ndarray:
    """Sum over all maps phi, returning an array indexed by phi on ``keep``.

    Vertices go smallest degree first.  Degrees 0, 1 and 2 have their own
    kernels (a sum, a one-pass vector, one matmul); larger ones take a
    general einsum step, and one above ``max_rank`` raises ``_RankOverflow``.
    """
    n, batch = ctx.n, ctx.batch
    folded = _Folded(g, ctx.mats)
    scalar = np.ones(batch)
    live = [v for v in range(g.n_vertices) if v not in keep]
    while live:
        v = min(live, key=lambda u: (folded.degree(u), u))
        if folded.degree(v) > max_rank:
            raise _RankOverflow(folded.degree(v))
        live.remove(v)
        factor = folded.eliminate(v, n, ctx.pendants)
        if factor is not None:
            scalar = scalar * factor
    if not keep:
        return scalar
    out = folded.finish(keep, n, batch)
    return out * scalar.reshape(batch + (1,) * len(keep))


def _phi_values(
    g: TestGraph, mats: dict[str, np.ndarray], phis: np.ndarray, batch: tuple
) -> np.ndarray:
    """Product over edges for each map in ``phis`` (rows = maps)."""
    vals = np.ones(batch + (phis.shape[0],))
    for e in g.edges:
        arr, axes = _edge_factor(e, mats)
        if len(axes) == 1:
            vals = vals * arr[..., phis[:, axes[0]]]
        else:
            vals = vals * arr[..., phis[:, axes[0]], phis[:, axes[1]]]
    return vals


def _all_maps(n: int, k: int) -> np.ndarray:
    limit = DEFAULT_ENUM_LIMIT
    if n**k > limit:
        raise ValueError(f"enumeration of {n}^{k} maps exceeds the limit {limit}")
    grids = np.meshgrid(*[np.arange(n)] * k, indexing="ij")
    return np.stack([a.ravel() for a in grids], axis=1)


def _enumerate(g: TestGraph, ctx: _Bound, rank: int, max_rank: int):
    """Fallback for a rank overflow: every map and its edge product."""
    k = g.n_vertices
    warnings.warn(
        f"contraction needs a rank-{rank} intermediate (max_rank={max_rank}); "
        f"enumerating {ctx.n}^{k} = {ctx.n ** k} maps instead",
        RuntimeWarning, stacklevel=3,
    )
    phis = _all_maps(ctx.n, k)
    return phis, _phi_values(g, ctx.mats, phis, ctx.batch)


def eval_graph_matrix(
    t: GraphMonomial, matrices: Any, *, max_rank: int = DEFAULT_MAX_RANK
) -> np.ndarray:
    """Evaluate a graph monomial on bound matrices; result (..., n, n)."""
    g = t.graph
    ctx = _bound(g, matrices)
    n, batch = ctx.n, ctx.batch
    try:
        if t.v_in == t.v_out:
            vec = _contract(g, ctx, (t.v_in,), max_rank)
            out = np.zeros(batch + (n, n), dtype=vec.dtype)
            idx = np.arange(n)
            out[..., idx, idx] = vec
            return out
        return _contract(g, ctx, (t.v_out, t.v_in), max_rank)
    except _RankOverflow as exc:
        phis, vals = _enumerate(g, ctx, exc.args[0], max_rank)
    out = np.zeros(batch + (n, n), dtype=vals.dtype)
    flat = out.reshape((-1, n, n))
    vflat = vals.reshape((-1, vals.shape[-1]))
    np.add.at(flat, (slice(None), phis[:, t.v_out], phis[:, t.v_in]), vflat)
    return flat.reshape(out.shape)


def trace_test_graph(T: TestGraph, matrices: Any, *, max_rank: int = DEFAULT_MAX_RANK) -> Any:
    """tr T(A): sum over all vertex maps of the edge-entry product."""
    ctx = _bound(T, matrices)
    try:
        out = _contract(T, ctx, (), max_rank)
    except _RankOverflow as exc:
        out = _enumerate(T, ctx, exc.args[0], max_rank)[1].sum(axis=-1)
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


def trace_injective_direct(T: TestGraph, matrices: Any) -> Any:
    """Oracle: tr^0 by direct enumeration of injective maps."""
    ctx = _bound(T, matrices)
    n, batch = ctx.n, ctx.batch
    k = T.n_vertices
    count = math.perm(n, k)
    if count > DEFAULT_ENUM_LIMIT:
        raise ValueError(f"enumeration of {count} injective maps exceeds the limit")
    if count == 0:
        return np.zeros(batch) if batch else 0.0
    phis = np.array(list(permutations(range(n), k)), dtype=np.intp)
    out = _phi_values(T, ctx.mats, phis, batch).sum(axis=-1)
    return out if batch else out[()]


def trace_full_direct(T: TestGraph, matrices: Any) -> Any:
    """Oracle: tr over all maps by direct enumeration."""
    ctx = _bound(T, matrices)
    phis = _all_maps(ctx.n, T.n_vertices)
    out = _phi_values(T, ctx.mats, phis, ctx.batch).sum(axis=-1)
    return out if ctx.batch else out[()]


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
        if self.stderr == 0:
            return math.inf if self.mean != theory else 0.0
        return abs(complex(self.mean) - complex(theory)) / self.stderr


def _chunk_size(n: int) -> int:
    # keep stacked batches near 100 MB; depends only on n, so results do not
    # change with threading or memory pressure
    return max(1, min(64, int(1.2e8 / (16 * max(n * n, 1)))))


def _sample_values(
    model: Any,
    labels: Sequence[str],
    n: int,
    samples: int,
    seed: int,
    threads: Optional[int],
    values: Callable[[dict[str, np.ndarray]], np.ndarray],
) -> np.ndarray:
    """The Monte Carlo loop: draw sample i from ``stream(seed, i)``, stack the
    draws of each chunk by label and map every chunk through ``values``."""
    from .ensembles import stream

    def run_chunk(start: int, stop: int) -> np.ndarray:
        # each draw is copied into its slot and dropped, so the chunk holds
        # its draws once
        stacked: dict[str, np.ndarray] = {}
        for k, i in enumerate(range(start, stop)):
            draw = model.sample(n, stream(seed, i))
            for lab in labels:
                if k == 0:
                    stacked[lab] = np.empty((stop - start,) + draw[lab].shape, draw[lab].dtype)
                stacked[lab][k] = draw[lab]
        return values(stacked)

    size = _chunk_size(n)
    bounds = [(s, min(s + size, samples)) for s in range(0, samples, size)]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(lambda se: run_chunk(*se), bounds))
    else:
        parts = [run_chunk(*se) for se in bounds]
    return np.concatenate(parts)


def _trace_values(
    T: TestGraph,
    model: Any,
    n: int,
    samples: int,
    seed: int,
    injective: bool,
    threads: Optional[int],
) -> np.ndarray:
    if n < 1 or samples < 1:
        raise ValueError(f"need n >= 1 and samples >= 1, got n={n}, samples={samples}")
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

    ``model`` provides ``sample(n, rng) -> {label: matrix}``; each sample
    index draws from its own stream of ``seed``.  Injective estimates carry
    the n^|V| / (n)_|V| count correction (see ``_trace_values``).
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
