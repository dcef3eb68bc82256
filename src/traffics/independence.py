"""Traffic independence and asymptotic freeness checks.

A family assignment splits the labels of a test graph into independent
groups.  The graph is a *free product* when the bipartite incidence graph
chi(T) of its colored components and their shared vertices is a tree; the
injective state of independent families factorizes over the components on
free products and vanishes otherwise.  ``verify_traffic_independence`` audits
that prediction against any injective-limit evaluator and reports every
violating graph, which is how the proportional-band and complex
pseudo-variance counterexamples are surfaced.

The freeness half predicts mixed moments from marginals via noncrossing
partitions and free cumulants, for comparison against exact traffic limits
and Monte Carlo runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence, Union

# canonical_form and canonical_key stay importable here for perfbench/tracing.py
from .graphs import (
    Edge,
    TestGraph,
    _UnionFind,
    canonical_form,
    canonical_key,
    serialize,
    shape_sum,
)
from .limits import double_tree_code

Number = Union[int, float, Fraction, complex]

MAX_WORD = 12


def _family_of(families: Any, label: str) -> str:
    if families is None:
        return label
    if label not in families:
        raise ValueError(f"label {label!r} has no family")
    return families[label]


@dataclass(frozen=True)
class ColoredComponent:
    """A connected component of one family's edges inside a test graph."""

    family: str
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]


def colored_components(T: TestGraph, families: Any = None) -> tuple[ColoredComponent, ...]:
    """Connected components of the subgraph spanned by each family."""
    fam_edges: dict[str, list[int]] = {}
    for i, e in enumerate(T.edges):
        fam_edges.setdefault(_family_of(families, e.label), []).append(i)
    out = []
    for fam in sorted(fam_edges):
        ids = fam_edges[fam]
        uf = _UnionFind(T.n_vertices)
        for i in ids:
            uf.union(T.edges[i].src, T.edges[i].tar)
        groups: dict[int, list[int]] = {}
        for i in ids:
            groups.setdefault(uf.find(T.edges[i].src), []).append(i)
        for root in sorted(groups, key=lambda r: min(groups[r])):
            members = groups[root]
            vs = sorted({v for i in members for v in (T.edges[i].src, T.edges[i].tar)})
            out.append(ColoredComponent(fam, tuple(vs), tuple(members)))
    return tuple(out)


def component_graph(T: TestGraph, comp: ColoredComponent) -> TestGraph:
    """The component as a standalone test graph (dense local vertex ids)."""
    local = {v: i for i, v in enumerate(comp.vertices)}
    return TestGraph(
        len(comp.vertices),
        tuple(
            Edge(local[T.edges[i].src], local[T.edges[i].tar], T.edges[i].label,
                 T.edges[i].star)
            for i in comp.edge_ids
        ),
    )


ChiNode = tuple[str, int]  # ("component", index) or ("vertex", vertex id)


@dataclass(frozen=True)
class ChiGraph:
    """Bipartite incidence of colored components and their shared vertices."""

    components: tuple[ColoredComponent, ...]
    shared_vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (component index, shared vertex)
    is_tree: bool
    cycle: Optional[tuple[ChiNode, ...]] = None


def chi_graph(T: TestGraph, families: Any = None) -> ChiGraph:
    comps = colored_components(T, families)
    owners: dict[int, list[int]] = {}
    for ci, comp in enumerate(comps):
        for v in comp.vertices:
            owners.setdefault(v, []).append(ci)
    shared = tuple(sorted(v for v, cs in owners.items() if len(cs) >= 2))
    edges = tuple(
        (ci, v) for v in shared for ci in owners[v]
    )
    nodes: list[ChiNode] = [("component", i) for i in range(len(comps))]
    nodes += [("vertex", v) for v in shared]
    n_edges = len(edges)
    if len(nodes) <= 1:
        return ChiGraph(comps, shared, edges, True)
    # connectivity + acyclicity by union-find; first redundant edge seeds a cycle
    index = {node: i for i, node in enumerate(nodes)}
    uf = _UnionFind(len(nodes))
    extra: Optional[tuple[int, int]] = None
    for ci, v in edges:
        if not uf.union(index[("component", ci)], index[("vertex", v)]) and extra is None:
            extra = (ci, v)
    connected = len({uf.find(i) for i in range(len(nodes))}) == 1
    is_tree = connected and n_edges == len(nodes) - 1
    cycle = None
    if extra is not None:
        cycle = _chi_cycle(nodes, edges, extra)
    return ChiGraph(comps, shared, edges, is_tree, cycle)


def _chi_cycle(
    nodes: Sequence[ChiNode],
    edges: Sequence[tuple[int, int]],
    extra: tuple[int, int],
) -> tuple[ChiNode, ...]:
    """Close the redundant edge into an explicit alternating cycle."""
    start: ChiNode = ("component", extra[0])
    goal: ChiNode = ("vertex", extra[1])
    adj: dict[ChiNode, list[ChiNode]] = {node: [] for node in nodes}
    for ci, v in edges:
        if (ci, v) == extra:
            continue
        adj[("component", ci)].append(("vertex", v))
        adj[("vertex", v)].append(("component", ci))
    prev: dict[ChiNode, ChiNode] = {start: start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for nxt in adj[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def is_free_product(
    T: TestGraph, families: Any = None
) -> tuple[bool, Optional[tuple[ChiNode, ...]]]:
    """Whether chi(T) is a tree; if not, one witness cycle."""
    chi = chi_graph(T, families)
    return chi.is_tree, chi.cycle


def independent_prediction(
    T: TestGraph, families: Any, ltd_fn: Callable[[TestGraph], Number]
) -> Number:
    """tau^0 predicted by traffic independence: the product of ltd_fn over
    colored components on free products, zero otherwise."""
    return _prediction(T, chi_graph(T, families), ltd_fn)


def _prediction(
    T: TestGraph, chi: ChiGraph, ltd_fn: Callable[[TestGraph], Number]
) -> Number:
    if not chi.is_tree:
        return 0
    out: Number = 1
    for comp in chi.components:
        out = out * ltd_fn(component_graph(T, comp))
    return out


def _value_repr(v: Number) -> str:
    if isinstance(v, complex):
        return repr(v)
    return str(v)


def _values_match(actual: Number, expected: Number, tol: float = 1e-9) -> bool:
    exact = (int, Fraction)
    if isinstance(actual, exact) and isinstance(expected, exact):
        return actual == expected
    a, b = complex(actual), complex(expected)
    return abs(a - b) <= tol * (1 + max(abs(a), abs(b)))


@dataclass(frozen=True)
class IndependenceReport:
    records: tuple[dict, ...]

    @property
    def violations(self) -> tuple[dict, ...]:
        return tuple(r for r in self.records if not r["match"])

    @property
    def all_match(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "graphs": len(self.records),
                "violations": len(self.violations),
                "records": list(self.records),
            },
            indent=2,
            sort_keys=True,
        )


def verify_traffic_independence(
    ltd_fn: Callable[[TestGraph], Number],
    families: Any,
    corpus: Sequence[TestGraph],
) -> IndependenceReport:
    """Audit tau^0-factorization over a corpus of test graphs.

    For every graph, compares ltd_fn(T) against the independence prediction
    (product over colored components when chi(T) is a tree, zero otherwise).
    chi(T) is built once per graph, and ltd_fn runs once per distinct graph
    of the audit, corpus graphs and components alike: its values are kept
    for this call, keyed by the graph itself, so a float value is reused bit
    for bit.  Violations carry the serialized witness graph.
    """
    values: dict[TestGraph, Number] = {}

    def ltd(g: TestGraph) -> Number:
        if g not in values:
            values[g] = ltd_fn(g)
        return values[g]

    records = []
    for T in corpus:
        chi = chi_graph(T, families)
        expected = _prediction(T, chi, ltd)
        actual = ltd(T)
        records.append(
            {
                "graph": serialize(T),
                "chi_tree": chi.is_tree,
                "components": len(chi.components),
                "expected": _value_repr(expected),
                "actual": _value_repr(actual),
                "match": _values_match(actual, expected),
            }
        )
    return IndependenceReport(tuple(records))


# ---------------------------------------------------------------------------
# corpus

_PAD_KINDS = ("forward", "backward", "opposing")


def _pad_edges(u: int, v: int, label: str, kind: str) -> tuple[Edge, Edge]:
    if kind == "forward":
        return Edge(u, v, label), Edge(u, v, label)
    if kind == "backward":
        return Edge(v, u, label), Edge(v, u, label)
    return Edge(u, v, label), Edge(v, u, label)


def double_tree(
    tree_edges: Sequence[tuple[int, int]],
    pattern: Sequence[tuple[str, str]],
) -> TestGraph:
    """Build a colored double tree from a skeleton and per-pad (label, kind),
    kind one of 'forward', 'backward', 'opposing'."""
    edges: list[Edge] = []
    for (u, v), (label, kind) in zip(tree_edges, pattern):
        edges.extend(_pad_edges(u, v, label, kind))
    n = max(max(u, v) for u, v in tree_edges) + 1
    return TestGraph(n, tuple(edges))


def _corpus_candidates(max_pads: int, labels: Sequence[str]) -> Iterator[TestGraph]:
    """Every labelled, oriented double tree on every recursive skeleton of
    at most ``max_pads`` pads, isomorphic copies included, then the witnesses."""
    for k in range(1, max_pads + 1):
        for parents in product(*(range(i) for i in range(1, k + 1))):
            tree = [(parents[i - 1], i) for i in range(1, k + 1)]
            for pattern in product(product(labels, _PAD_KINDS), repeat=k):
                yield double_tree(tree, pattern)
    yield from witness_graphs(labels).values()


def build_double_tree_corpus(
    max_pads: int = 3, labels: Sequence[str] = ("x", "y")
) -> tuple[TestGraph, ...]:
    """Every colored double tree with at most ``max_pads`` pads over the given
    labels, up to isomorphism, plus fixed larger witnesses (8 vertices) and
    the standard non-free-product graphs.

    Candidates are deduplicated by ``limits.double_tree_code``, keeping the
    first of each class (a witness that is not a double tree stands for
    itself); only those representatives are put in canonical form, and the
    corpus lists the forms in ``canonical_key`` order."""
    if not 1 <= max_pads <= 4:
        raise ValueError("pad budget must be between 1 and 4")
    repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise ValueError(f"corpus labels repeat: {', '.join(repeated)}")
    reps: dict[Any, TestGraph] = {}
    for g in _corpus_candidates(max_pads, labels):
        code = double_tree_code(g)
        reps.setdefault(g if code is None else code, g)
    return tuple(form for form, _ in shape_sum((g, 1) for g in reps.values()))


def witness_graphs(labels: Sequence[str] = ("x", "y")) -> dict[str, TestGraph]:
    """Hand-built graphs that drive the audits.

    * ``two_pad_star``: both pads one label; its proportional-regime value is
      the pT_star closed form.
    * ``s_graph``: the same skeleton with distinct pad labels (p_S).
    * ``three_pad_path``: outer pads one label, middle pad the other; under a
      (proportional, slow) assignment the middle pad contracts and the value
      drops to pT_star while independence predicts 1.
    * ``congruent_path``: two congruent pads of different labels; separates
      complex pseudo-variances from the factorized prediction.
    * ``chi_square``: two doubled edges on one vertex pair, different labels;
      chi(T) is a 4-cycle, the standard non-free-product.
    * ``shared_loops``: one loop of each label at a single vertex; chi(T) is
      a tree, a minimal free product.
    * ``path8`` / ``star8`` / ``caterpillar8``: 8-vertex double trees with
      mixed labels, orientations and shapes for the wide audit.
    """
    x, y = labels[0], labels[-1]
    path = [(i, i + 1) for i in range(7)]
    star = [(0, i) for i in range(1, 8)]
    caterpillar = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (3, 6), (3, 7)]
    kinds = ("forward", "opposing", "backward")
    mix = lambda seq: [
        ((x, y)[i % 2], kinds[i % 3]) for i in range(len(seq))
    ]
    return {
        "two_pad_star": double_tree([(0, 1), (0, 2)], [(x, "opposing"), (x, "opposing")]),
        "s_graph": double_tree([(0, 1), (0, 2)], [(x, "opposing"), (y, "opposing")]),
        "three_pad_path": double_tree(
            [(0, 1), (1, 2), (2, 3)],
            [(x, "opposing"), (y, "opposing"), (x, "opposing")],
        ),
        "congruent_path": double_tree(
            [(0, 1), (1, 2)], [(x, "forward"), (y, "forward")]
        ),
        "chi_square": TestGraph(
            2,
            (
                Edge(0, 1, x),
                Edge(1, 0, x),
                Edge(0, 1, y),
                Edge(1, 0, y),
            ),
        ),
        "shared_loops": TestGraph(1, (Edge(0, 0, x), Edge(0, 0, y))),
        "path8": double_tree(path, mix(path)),
        "star8": double_tree(star, mix(star)),
        "caterpillar8": double_tree(caterpillar, mix(caterpillar)),
    }


# ---------------------------------------------------------------------------
# noncrossing partitions and free moments

@lru_cache(maxsize=None)
def noncrossing_partitions(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All noncrossing partitions of {0..m-1} (Catalan-many)."""
    if m > MAX_WORD:
        raise ValueError(f"word length {m} exceeds the guard {MAX_WORD}")

    def rec(ground: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
        if not ground:
            return [()]
        first, rest = ground[0], ground[1:]
        out = []
        for bits in range(1 << len(rest)):
            block = [first]
            gaps: list[list[int]] = [[]]
            for j, elem in enumerate(rest):
                if bits >> j & 1:
                    block.append(elem)
                    gaps.append([])
                else:
                    gaps[-1].append(elem)
            partial = [()]
            for gap in gaps:
                partial = [
                    p + q for p in partial for q in rec(tuple(gap))
                ]
            for tail in partial:
                out.append((tuple(block),) + tail)
        return out

    return tuple(rec(tuple(range(m))))


def free_cumulants(moments: Sequence[Number]) -> list[Number]:
    """Free cumulants kappa_1..kappa_K from moments m_1..m_K via the
    noncrossing moment-cumulant relation."""
    kappa: list[Number] = []
    for k in range(1, len(moments) + 1):
        rest: Number = 0
        for pi in noncrossing_partitions(k):
            if len(pi) == 1:
                continue
            term: Number = 1
            for block in pi:
                term = term * kappa[len(block) - 1]
            rest = rest + term
        kappa.append(moments[k - 1] - rest)
    return kappa


def free_mixed_moment(
    word: Sequence, marginals: Mapping[Any, Sequence[Number]]
) -> Number:
    """Mixed moment of freely independent elements with the given marginal
    moments: the sum over noncrossing partitions with single-letter blocks of
    the product of free cumulants."""
    word = tuple(word)
    m = len(word)
    if m > MAX_WORD:
        raise ValueError(f"word length {m} exceeds the guard {MAX_WORD}")
    counts: dict[Any, int] = {}
    for w in word:
        counts[w] = counts.get(w, 0) + 1
    kappa: dict[Any, list[Number]] = {}
    for letter, mult in counts.items():
        moments = tuple(marginals[letter])[:mult]
        if len(moments) < mult:
            raise ValueError(f"need {mult} marginal moments for {letter!r}")
        kappa[letter] = free_cumulants(moments)
    total: Number = 0
    for pi in noncrossing_partitions(m):
        term: Number = 1
        for block in pi:
            letter = word[block[0]]
            if any(word[i] != letter for i in block[1:]):
                term = 0
                break
            term = term * kappa[letter][len(block) - 1]
        total = total + term
    return total


# ---------------------------------------------------------------------------
# freeness against traffic limits

@dataclass(frozen=True)
class FreenessTest:
    """Mixed-moment comparison: free prediction vs exact traffic limit vs
    Monte Carlo.  z_free measures the empirical distance to the free
    prediction, z_traffic the distance to the traffic value."""

    word: tuple[str, ...]
    free_prediction: Number
    traffic_value: Number
    estimate: Any
    z_free: float
    z_traffic: float

    @property
    def free_matches_traffic(self) -> bool:
        return _values_match(self.traffic_value, self.free_prediction)


def freeness_moment_test(
    word: Sequence[str],
    elements: Mapping[str, Any],
    model: Mapping[str, Any],
    n: int,
    samples: int,
    seed: int = 0,
) -> FreenessTest:
    """Compare E (1/n) tr of a word in graph polynomials against the free
    prediction built from the elements' marginal traffic moments.

    ``elements`` maps letters of the word to graph polynomials over the
    labels of ``model`` (a label -> band profile assignment, optionally with
    entry specs).  Marginals and the exact traffic value come from the
    quotient expansion; the Monte Carlo estimate samples the model.
    """
    from .engine import Estimate, _mean_stderr, _sample_values
    from .ensembles import BLAS_LOCK, MatrixModel
    from .limits import model_ltd
    from .moments import eval_polynomial_matrix, mixed_moment_ltd, traffic_moment

    import numpy as np

    word = tuple(word)
    mm = MatrixModel(model)
    ltd = model_ltd(mm)

    counts: dict[str, int] = {}
    for w in word:
        if w not in elements:
            raise ValueError(f"letter {w!r} has no element")
        counts[w] = counts.get(w, 0) + 1
    marginals = {
        w: [traffic_moment(elements[w], k, ltd) for k in range(1, mult + 1)]
        for w, mult in counts.items()
    }
    prediction = free_mixed_moment(word, marginals)
    exact = mixed_moment_ltd([elements[w] for w in word], ltd)

    def word_values(stacked: dict) -> Any:
        mats = {w: eval_polynomial_matrix(elements[w], stacked) for w in counts}
        prod = mats[word[0]]
        for w in word[1:]:
            with BLAS_LOCK:
                prod = prod @ mats[w]
        return np.trace(prod, axis1=-2, axis2=-1) / n

    vals = _sample_values(mm, mm.labels, n, samples, seed, None, word_values)
    mean, stderr = _mean_stderr(vals)
    est = Estimate(mean, stderr, samples, n)
    return FreenessTest(
        word,
        prediction,
        exact,
        est,
        est.z(complex(prediction)),
        est.z(complex(exact)),
    )
