"""Edge-labelled multidigraphs and the operations of the traffic calculus.

A *test graph* is a finite connected multidigraph whose edges carry a label
(the name of a matrix indeterminate) and a star flag (conjugate transpose).
A *graph monomial* is a test graph with an input and an output vertex; it
evaluates to a matrix once every label is bound to a square matrix.  An
*n-graph monomial* carries an ordered tuple of root vertices instead.

Graphs are stored with dense vertex ids ``0..n_vertices-1``.  All operations
return new objects; everything here is immutable and hashable, so graphs can
be memoized by their canonical key.

The text format (one directive per line, ``#`` starts a comment)::

    n 3            # optional vertex count (declares ids 0..2)
    e 0 1 x        # edge 0 -> 1 labelled x
    e 1 2 y*       # starred edge
    in 0           # input root        (with "out": a graph monomial)
    out 2          # output root
    roots 0 2      # alternative: ordered root tuple (an n-graph monomial)

Vertex ids in the text are arbitrary decimal integers; they are mapped to
dense ids in order of first appearance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _iproduct
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union


class Edge(NamedTuple):
    """Directed edge ``src -> tar`` with a label and a star flag."""

    src: int
    tar: int
    label: str
    star: bool = False

    def reversed(self) -> "Edge":
        return Edge(self.tar, self.src, self.label, self.star)

    def conjugated(self) -> "Edge":
        """Reverse the edge and toggle its star."""
        return Edge(self.tar, self.src, self.label, not self.star)


_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class TestGraph:
    """Connected multidigraph with labelled, optionally starred edges."""

    n_vertices: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        n = int(self.n_vertices)
        object.__setattr__(self, "n_vertices", n)
        if n < 1:
            raise ValueError("a test graph needs at least one vertex")
        edges = tuple(
            Edge(int(e[0]), int(e[1]), str(e[2]), bool(e[3]) if len(e) > 3 else False)
            for e in self.edges
        )
        object.__setattr__(self, "edges", edges)
        uf = _UnionFind(n)
        for e in edges:
            if not (0 <= e.src < n and 0 <= e.tar < n):
                raise ValueError(f"edge {e} out of range for {n} vertices")
            if not _LABEL_RE.match(e.label):
                raise ValueError(f"bad edge label {e.label!r}")
            uf.union(e.src, e.tar)
        if len({uf.find(v) for v in range(n)}) > 1:
            raise ValueError("graph is not connected")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted({e.label for e in self.edges}))

    def conjugate(self) -> "TestGraph":
        """Reverse every edge and toggle every star."""
        return TestGraph(self.n_vertices, tuple(e.conjugated() for e in self.edges))

    def reverse_edges(self) -> "TestGraph":
        """Reverse every edge, keeping stars."""
        return TestGraph(self.n_vertices, tuple(e.reversed() for e in self.edges))

    def relabel(self, perm: Sequence[int]) -> "TestGraph":
        """Apply the vertex permutation ``v -> perm[v]``."""
        if sorted(perm) != list(range(self.n_vertices)):
            raise ValueError("perm is not a permutation of the vertex set")
        return TestGraph(
            self.n_vertices,
            tuple(Edge(perm[e.src], perm[e.tar], e.label, e.star) for e in self.edges),
        )


@dataclass(frozen=True)
class GraphMonomial:
    """Bi-rooted test graph: evaluates to a matrix (input ``v_in``, output ``v_out``)."""

    graph: TestGraph
    v_in: int
    v_out: int

    def __post_init__(self):
        object.__setattr__(self, "v_in", int(self.v_in))
        object.__setattr__(self, "v_out", int(self.v_out))
        n = self.graph.n_vertices
        if not (0 <= self.v_in < n and 0 <= self.v_out < n):
            raise ValueError("root vertex out of range")

    def adjoint(self) -> "GraphMonomial":
        """Conjugate the graph and swap the roots; t*(A) = t(A)*."""
        return GraphMonomial(self.graph.conjugate(), self.v_out, self.v_in)

    def transpose(self) -> "GraphMonomial":
        """Swap the roots only; t^T(A) = t(A)^T."""
        return GraphMonomial(self.graph, self.v_out, self.v_in)

    def as_ngraph(self) -> "NGraphMonomial":
        return NGraphMonomial(self.graph, (self.v_in, self.v_out))


@dataclass(frozen=True)
class NGraphMonomial:
    """Test graph with an ordered tuple of distinguished root vertices."""

    graph: TestGraph
    roots: tuple[int, ...]

    def __post_init__(self):
        roots = tuple(int(r) for r in self.roots)
        object.__setattr__(self, "roots", roots)
        if not roots:
            raise ValueError("an n-graph monomial needs at least one root")
        n = self.graph.n_vertices
        if any(not 0 <= r < n for r in roots):
            raise ValueError("root vertex out of range")

    def adjoint(self) -> "NGraphMonomial":
        """Conjugate the graph; the root tuple is left in place."""
        return NGraphMonomial(self.graph.conjugate(), self.roots)


GraphLike = Union[TestGraph, GraphMonomial, NGraphMonomial]


# ---------------------------------------------------------------------------
# edge classes

@dataclass(frozen=True)
class EdgeClass:
    """Edges sharing an unordered endpoint pair.  ``u <= v``; loops have u == v."""

    u: int
    v: int
    members: tuple[int, ...]

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


def edge_classes(g: TestGraph) -> tuple[EdgeClass, ...]:
    """Group edge indices by unordered endpoint pair, sorted by that pair."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, e in enumerate(g.edges):
        key = (e.src, e.tar) if e.src <= e.tar else (e.tar, e.src)
        groups.setdefault(key, []).append(i)
    return tuple(
        EdgeClass(u, v, tuple(members)) for (u, v), members in sorted(groups.items())
    )


# ---------------------------------------------------------------------------
# gluing operations

def _collapse(uf: _UnionFind, n: int) -> tuple[list[int], int]:
    """Dense relabelling of union-find classes, ordered by smallest member."""
    reps: dict[int, int] = {}
    vmap = [0] * n
    for v in range(n):
        r = uf.find(v)
        if r not in reps:
            reps[r] = len(reps)
        vmap[v] = reps[r]
    return vmap, len(reps)


def _glue(
    n: int, edges: Iterable[Edge], unions: Iterable[tuple[int, int]]
) -> tuple[TestGraph, list[int]]:
    """The one gluing rule: identify vertices ``0..n-1`` along ``unions``.

    Classes become vertices numbered by smallest member, and every edge is
    re-anchored to the classes of its endpoints.  Returns the glued graph
    and the map from old ids to new ones.
    """
    uf = _UnionFind(n)
    for a, b in unions:
        uf.union(a, b)
    vmap, k = _collapse(uf, n)
    return TestGraph(
        k, tuple(Edge(vmap[e.src], vmap[e.tar], e.label, e.star) for e in edges)
    ), vmap


def _merge_graphs(
    parts: Sequence[TestGraph], unions: Iterable[tuple[int, int]]
) -> tuple[TestGraph, list[int]]:
    """Disjoint union of ``parts`` with the given global-id unions applied.

    Part k's vertex v has global id ``offset_k + v``.  Returns the merged
    graph and the map from global ids to new dense ids.
    """
    off, edges = 0, []
    for g in parts:
        edges += [Edge(e.src + off, e.tar + off, e.label, e.star) for e in g.edges]
        off += g.n_vertices
    return _glue(off, edges, unions)


def concat_product(t1: GraphMonomial, t2: GraphMonomial) -> GraphMonomial:
    """Composition product: (t1 t2)(A) = t1(A) t2(A).

    The output root of t2 is merged into the input root of t1 (right factor
    acts first), so concatenating single edges reproduces word monomials.
    """
    off1 = t2.graph.n_vertices
    g, vmap = _merge_graphs(
        (t2.graph, t1.graph), [(t2.v_out, t1.v_in + off1)]
    )
    return GraphMonomial(g, vmap[t2.v_in], vmap[t1.v_out + off1])


def hadamard(t1: GraphMonomial, t2: GraphMonomial) -> GraphMonomial:
    """Entrywise product: inputs are identified together, outputs together."""
    off1 = t1.graph.n_vertices
    g, vmap = _merge_graphs(
        (t1.graph, t2.graph),
        [(t1.v_in, t2.v_in + off1), (t1.v_out, t2.v_out + off1)],
    )
    return GraphMonomial(g, vmap[t1.v_in], vmap[t1.v_out + off1])


def delta(t: GraphMonomial) -> TestGraph:
    """Identify input with output and forget the roots (trace shape)."""
    return _glue(t.graph.n_vertices, t.graph.edges, [(t.v_in, t.v_out)])[0]


def delta_n(t1: NGraphMonomial, t2: NGraphMonomial) -> TestGraph:
    """Glue disjoint copies of t1 and t2 along their root tuples, coordinatewise.

    The factors are used as given; callers wanting the positivity pairing
    pass ``delta_n(t.adjoint(), t)``.
    """
    if len(t1.roots) != len(t2.roots):
        raise ValueError("root tuples must have equal length")
    off1 = t1.graph.n_vertices
    g, _ = _merge_graphs(
        (t1.graph, t2.graph),
        [(r1, r2 + off1) for r1, r2 in zip(t1.roots, t2.roots)],
    )
    return g


def quotient(g: TestGraph, blocks: Sequence[Sequence[int]]) -> TestGraph:
    """Quotient graph: identify the vertices inside each block.

    ``blocks`` must partition ``0..n_vertices-1``.  Blocks become the new
    vertices (ordered by smallest member); every edge survives, re-anchored
    to the blocks of its endpoints.
    """
    if not all(blocks) or sorted(v for b in blocks for v in b) != list(range(g.n_vertices)):
        raise ValueError("blocks do not partition the vertex set")
    return _glue(g.n_vertices, g.edges, [(b[0], v) for b in blocks for v in b])[0]


# ---------------------------------------------------------------------------
# substitution

def _binding_terms(
    e: Edge, bindings: Mapping[str, Any]
) -> list[tuple[GraphMonomial, Any]]:
    try:
        bound = bindings[e.label]
    except KeyError:
        raise ValueError(f"label {e.label!r} is not bound") from None
    if isinstance(bound, GraphMonomial):
        terms = [(bound, 1)]
    elif isinstance(bound, TrafficPolynomial):
        terms = list(bound.terms)
    else:
        raise TypeError(f"cannot bind {e.label!r} to {type(bound).__name__}")
    if e.star:
        terms = [(m.adjoint(), _conj(c)) for m, c in terms]
    return terms


def _substitutions(
    g: TestGraph, roots: tuple[int, ...], bindings: Mapping[str, Any]
) -> Iterator[tuple[Any, TestGraph, tuple[int, ...]]]:
    """(coefficient, graph, roots), one per choice of bound term on each edge.

    Edge k of g is replaced by its chosen monomial: the source of the edge
    is glued to the input root of the replacement, the target to the output
    root (a starred edge receives the adjoint).
    """
    per_edge = [_binding_terms(e, bindings) for e in g.edges]
    for combo in _iproduct(*per_edge):
        coeff: Any = 1
        off, edges, unions = g.n_vertices, [], []
        for e, (s, c) in zip(g.edges, combo):
            coeff = coeff * c
            edges += [Edge(f.src + off, f.tar + off, f.label, f.star) for f in s.graph.edges]
            unions += [(e.src, s.v_in + off), (e.tar, s.v_out + off)]
            off += s.graph.n_vertices
        sub, vmap = _glue(off, edges, unions)
        yield coeff, sub, tuple(vmap[r] for r in roots)


def substitute_graph(
    g: TestGraph, bindings: Mapping[str, Any]
) -> tuple[tuple[Any, TestGraph], ...]:
    """Multilinear substitution into an unrooted graph.

    Every label must be bound to a :class:`GraphMonomial` or a
    :class:`TrafficPolynomial`.  Returns (coefficient, graph) pairs, one per
    choice of polynomial term on each edge; graphs are not deduplicated.
    """
    return tuple((coeff, sub) for coeff, sub, _ in _substitutions(g, (), bindings))


def substitute(t: Any, bindings: Mapping[str, Any]) -> "TrafficPolynomial":
    """Substitute bound monomials/polynomials for the labels of ``t``.

    ``t`` is a :class:`GraphMonomial` or :class:`TrafficPolynomial`.  The
    substitution is multilinear in the bindings; starred edges receive the
    adjoint of the bound term.
    """
    if isinstance(t, TrafficPolynomial):
        acc: list[tuple[GraphMonomial, Any]] = []
        for mono, coeff in t.terms:
            for m2, c2 in substitute(mono, bindings).terms:
                acc.append((m2, coeff * c2))
        return TrafficPolynomial.from_terms(acc)
    if not isinstance(t, GraphMonomial):
        raise TypeError("substitute expects a GraphMonomial or TrafficPolynomial")
    return TrafficPolynomial.from_terms(
        (GraphMonomial(sub, vi, vo), coeff)
        for coeff, sub, (vi, vo) in _substitutions(t.graph, (t.v_in, t.v_out), bindings)
    )


def _conj(c: Any) -> Any:
    return c.conjugate() if hasattr(c, "conjugate") else c


# ---------------------------------------------------------------------------
# polynomials

@dataclass(frozen=True)
class TrafficPolynomial:
    """Finite linear combination of graph monomials, stored canonically.

    Terms are keyed by canonical form, like terms are combined and exact
    zeros dropped, so structural equality is equality of polynomials.
    """

    terms: tuple[tuple[GraphMonomial, Any], ...] = ()

    @staticmethod
    def from_terms(items: Iterable[tuple[GraphMonomial, Any]]) -> "TrafficPolynomial":
        return TrafficPolynomial(tuple(shape_sum(items)))

    @staticmethod
    def wrap(x: Any) -> "TrafficPolynomial":
        if isinstance(x, TrafficPolynomial):
            return x
        if isinstance(x, GraphMonomial):
            return TrafficPolynomial.from_terms([(x, 1)])
        raise TypeError(f"cannot wrap {type(x).__name__} as a polynomial")

    def __add__(self, other: Any) -> "TrafficPolynomial":
        other = TrafficPolynomial.wrap(other)
        return TrafficPolynomial.from_terms(tuple(self.terms) + tuple(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "TrafficPolynomial":
        return TrafficPolynomial.from_terms((m, -c) for m, c in self.terms)

    def __sub__(self, other: Any) -> "TrafficPolynomial":
        return self + (-TrafficPolynomial.wrap(other))

    def __mul__(self, other: Any) -> "TrafficPolynomial":
        if isinstance(other, (TrafficPolynomial, GraphMonomial)):
            other = TrafficPolynomial.wrap(other)
            return TrafficPolynomial.from_terms(
                (concat_product(m1, m2), c1 * c2)
                for m1, c1 in self.terms
                for m2, c2 in other.terms
            )
        return TrafficPolynomial.from_terms((m, c * other) for m, c in self.terms)

    def __rmul__(self, other: Any) -> "TrafficPolynomial":
        return self * other

    def adjoint(self) -> "TrafficPolynomial":
        return TrafficPolynomial.from_terms(
            (m.adjoint(), _conj(c)) for m, c in self.terms
        )

    def transpose(self) -> "TrafficPolynomial":
        return TrafficPolynomial.from_terms(
            (m.transpose(), c) for m, c in self.terms
        )


# ---------------------------------------------------------------------------
# builders

def unit_monomial() -> GraphMonomial:
    """Single vertex, no edges; evaluates to the identity matrix."""
    return GraphMonomial(TestGraph(1), 0, 0)


def edge_monomial(label: str = "x", star: bool = False) -> GraphMonomial:
    """Single edge monomial; evaluates to the bound matrix (or its adjoint)."""
    return GraphMonomial(TestGraph(2, (Edge(0, 1, label, star),)), 0, 1)


def row_op(label: str = "x") -> GraphMonomial:
    """Diagonal of row sums: a pendant edge pointing into the doubled root."""
    return GraphMonomial(TestGraph(2, (Edge(1, 0, label),)), 0, 0)


def col_op(label: str = "x") -> GraphMonomial:
    """Diagonal of column sums: a pendant edge pointing out of the doubled root."""
    return GraphMonomial(TestGraph(2, (Edge(0, 1, label),)), 0, 0)


def eta(word: Union[str, Sequence[tuple[str, bool]]]) -> GraphMonomial:
    """Path monomial for a word of labels, e.g. ``eta("x y* x")``.

    The word reads left to right in matrix-product order, so
    ``eta("x y")(A, B) = A B``.  An empty word gives the unit.
    """
    if isinstance(word, str):
        factors = []
        for tok in word.split():
            star = tok.endswith("*")
            factors.append((tok[:-1] if star else tok, star))
    else:
        factors = [(lab, bool(st)) for lab, st in word]
    m = len(factors)
    if m == 0:
        return unit_monomial()
    edges = tuple(
        Edge(k - 1, k, factors[m - k][0], factors[m - k][1]) for k in range(1, m + 1)
    )
    return GraphMonomial(TestGraph(m + 1, edges), 0, m)


def directed_cycle(m: int, label: str = "x") -> TestGraph:
    """Directed m-cycle, the trace shape of the m-th power."""
    if m < 1:
        raise ValueError("cycle length must be >= 1")
    return delta(eta([(label, False)] * m))


# ---------------------------------------------------------------------------
# canonical forms

_CANON_CAP = 16


def _refine(n: int, edges: tuple[Edge, ...], colors: list[int]) -> list[int]:
    while True:
        sigs: list[list] = [[] for _ in range(n)]
        for e in edges:
            if e.src == e.tar:
                sigs[e.src].append((2, e.label, e.star, -1))
            else:
                sigs[e.src].append((0, e.label, e.star, colors[e.tar]))
                sigs[e.tar].append((1, e.label, e.star, colors[e.src]))
        full = [(colors[v], tuple(sorted(sigs[v]))) for v in range(n)]
        ranks = {s: i for i, s in enumerate(sorted(set(full)))}
        new = [ranks[full[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _canon_search(
    n: int, edges: tuple[Edge, ...], roots: tuple[int, ...], colors0: list[int]
) -> tuple:
    """Least (sorted relabelled edges, relabelled roots) over the leaves of
    the individualization-refinement tree."""
    edge_ms = sorted((e.src, e.tar, e.label, e.star) for e in edges)

    def swap_is_automorphism(u: int, w: int) -> bool:
        def m(v: int) -> int:
            return w if v == u else u if v == w else v

        return sorted((m(s), m(t), l, st) for s, t, l, st in edge_ms) == edge_ms

    best: list = [None]

    def rec(colors: list[int]) -> None:
        colors = _refine(n, edges, colors)
        target = -1
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
            perm = colors  # discrete: colors are a bijection onto 0..n-1
            enc = (
                tuple(sorted((perm[e.src], perm[e.tar], e.label, e.star) for e in edges)),
                tuple(perm[r] for r in roots),
            )
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        members = [v for v in range(n) if colors[v] == target]
        kept: list[int] = []
        for v in members:
            if any(swap_is_automorphism(v, u) for u in kept):
                continue
            kept.append(v)
            child = list(colors)
            child[v] = -1
            rec(child)

    rec(colors0)
    return best[0]


@lru_cache(maxsize=1 << 16)
def canonical_key(obj: GraphLike) -> tuple:
    """Hashable isomorphism invariant, complete for graphs of at most
    ``_CANON_CAP`` (16) vertices; larger graphs raise ``ValueError``.

    The key is ``(tag, n, edges, roots)``: the relabelled edges, sorted,
    and the relabelled roots, so it holds the canonical form itself.
    """
    if isinstance(obj, TestGraph):
        g, roots, tag = obj, (), "tg"
    elif isinstance(obj, GraphMonomial):
        g, roots, tag = obj.graph, (obj.v_in, obj.v_out), "gm"
    elif isinstance(obj, NGraphMonomial):
        g, roots, tag = obj.graph, obj.roots, "ng"
    else:
        raise TypeError(f"cannot canonicalize {type(obj).__name__}")
    n = g.n_vertices
    if n > _CANON_CAP:
        raise ValueError(f"canonical form supports at most {_CANON_CAP} vertices, got {n}")
    role: list[tuple[int, ...]] = [tuple(i for i, r in enumerate(roots) if r == v) for v in range(n)]
    ranks = {s: i for i, s in enumerate(sorted(set(role)))}
    colors0 = [ranks[role[v]] for v in range(n)]
    return (tag, n) + _canon_search(n, g.edges, roots, colors0)


# the cached original, looked up by canonical_form even while a caller has
# rebound the module name
_cached_key = canonical_key


@lru_cache(maxsize=1 << 16)
def canonical_form(obj: GraphLike) -> GraphLike:
    """Canonical relabelling: isomorphic inputs give equal outputs.

    Rebuilt from the key, so a graph whose key is cached is not searched
    again; the same vertex cap applies.
    """
    tag, n, edges, roots = _cached_key(obj)
    ng = TestGraph(n, tuple(Edge(*e) for e in edges))
    if tag == "tg":
        return ng
    if tag == "gm":
        return GraphMonomial(ng, roots[0], roots[1])
    return NGraphMonomial(ng, roots)


def shape_sum(items: Iterable[tuple[GraphLike, Any]]) -> list[tuple[GraphLike, Any]]:
    """Weighted graphs reduced to isomorphism classes.

    One ``(canonical form, summed weight)`` pair per class, in
    ``canonical_key`` order; classes whose weights sum to zero are dropped.
    The form is built from the first member of each class only.
    """
    acc: dict[tuple, list] = {}
    for g, w in items:
        key = canonical_key(g)
        slot = acc.get(key)
        if slot is None:
            acc[key] = [canonical_form(g), w]
        else:
            slot[1] = slot[1] + w
    return [(form, w) for form, w in (acc[k] for k in sorted(acc)) if w != 0]


# ---------------------------------------------------------------------------
# text format

class DSLError(ValueError):
    """Parse error with 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def parse_dsl(text: str) -> GraphLike:
    """Parse the text format; returns the most specific graph type.

    A description with ``in``/``out`` yields a :class:`GraphMonomial`, one
    with ``roots`` an :class:`NGraphMonomial`, otherwise a :class:`TestGraph`.
    """
    ids: dict[int, int] = {}

    def vid(tok: str, lineno: int, col: int) -> int:
        if not tok.isdigit():
            raise DSLError(lineno, col, f"vertex id {tok!r} is not a decimal integer")
        k = int(tok)
        if k not in ids:
            ids[k] = len(ids)
        return ids[k]

    edges: list[Edge] = []
    v_in = v_out = None
    roots: list[int] | None = None
    declared_n = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        found = list(re.finditer(r"\S+", raw.split("#", 1)[0]))
        toks = [m.group() for m in found]
        cols = [m.start() + 1 for m in found]  # 1-based column of each token
        if not toks:
            continue
        kw = toks[0]
        if kw == "n":
            if len(toks) != 2 or not toks[1].isdigit():
                raise DSLError(lineno, cols[0], "expected: n <count>")
            declared_n = int(toks[1])
            if declared_n < 1:
                raise DSLError(lineno, cols[1], "vertex count must be >= 1")
            for k in range(declared_n):
                ids.setdefault(k, len(ids))
        elif kw == "e":
            if len(toks) != 4:
                raise DSLError(lineno, cols[0], "expected: e <src> <dst> <label>")
            src = vid(toks[1], lineno, cols[1])
            tar = vid(toks[2], lineno, cols[2])
            lab = toks[3]
            star = lab.endswith("*")
            if star:
                lab = lab[:-1]
            if not _LABEL_RE.match(lab):
                raise DSLError(lineno, cols[3], f"bad label {toks[3]!r}")
            edges.append(Edge(src, tar, lab, star))
        elif kw in ("in", "out"):
            if len(toks) != 2:
                raise DSLError(lineno, cols[0], f"expected: {kw} <vertex>")
            if roots is not None:
                raise DSLError(lineno, cols[0], f"{kw!r} conflicts with an earlier 'roots' line")
            v = vid(toks[1], lineno, cols[1])
            if kw == "in":
                if v_in is not None:
                    raise DSLError(lineno, cols[0], "duplicate 'in' line")
                v_in = v
            else:
                if v_out is not None:
                    raise DSLError(lineno, cols[0], "duplicate 'out' line")
                v_out = v
        elif kw == "roots":
            if v_in is not None or v_out is not None:
                raise DSLError(lineno, cols[0], "'roots' conflicts with an earlier 'in'/'out' line")
            if roots is not None:
                raise DSLError(lineno, cols[0], "duplicate 'roots' line")
            if len(toks) < 2:
                raise DSLError(lineno, cols[0], "expected: roots <v1> [<v2> ...]")
            roots = [vid(t, lineno, c) for t, c in zip(toks[1:], cols[1:])]
        else:
            raise DSLError(lineno, cols[0], f"unknown directive {kw!r}")
    if not ids:
        raise ValueError("empty graph description")
    if (v_in is None) != (v_out is None):
        raise ValueError("'in' and 'out' must be given together")
    g = TestGraph(len(ids), tuple(edges))
    if v_in is not None:
        return GraphMonomial(g, v_in, v_out)
    if roots is not None:
        return NGraphMonomial(g, tuple(roots))
    return g


def serialize(obj: GraphLike) -> str:
    """Render a graph in the text format; ``parse_dsl`` inverts it exactly."""
    if isinstance(obj, TestGraph):
        g, tail = obj, []
    elif isinstance(obj, GraphMonomial):
        g, tail = obj.graph, [f"in {obj.v_in}", f"out {obj.v_out}"]
    elif isinstance(obj, NGraphMonomial):
        g, tail = obj.graph, ["roots " + " ".join(str(r) for r in obj.roots)]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    lines = [f"n {g.n_vertices}"]
    for e in g.edges:
        lines.append(f"e {e.src} {e.tar} {e.label}{'*' if e.star else ''}")
    lines.extend(tail)
    return "\n".join(lines) + "\n"
