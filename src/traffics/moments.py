"""Limiting moments of graph polynomials.

The trace moment E (1/n) tr(a_1 ... a_m) expands multilinearly into cycle
test graphs: slot j of the directed m-cycle takes one term of a_j, so each
word of term choices gives one closed graph, and its limit is the sum of the
limiting injective values over its double-tree quotients.  Rotating a word
only relabels the cycle and keeps the product of coefficients, so the sum
runs over rotation classes of cyclic words, weighted by the number of words
in the class.  The m-th moment of a is the case a_1 = ... = a_m = a, whose
classes are generated directly as necklaces.  A class is keyed by its word
read as a cycle of steps with commuting decorations at the junctions, and
equal keys close into isomorphic graphs, so each key is substituted and
scanned once, with no canonical search.  With an exact limit evaluator the
result is exact (rationals in, rationals out); the guard order 12 keeps the
quotient scans tractable.

A double-tree quotient has no loop and pairs each edge with another of its
label, so a closed graph with a loop or an odd edge count of some label adds
exactly zero.  A word class whose terms leave a label odd is dropped before
it is keyed or substituted, and a closed graph with a loop before it is
scanned.  Closed graphs that survive must have at most 16 vertices, which
bounds the cost of their quotient scans; a moment sum that meets a larger one
raises ``ValueError`` naming the order.

The Markov element p*x + (q/2) row(x) + (q/2) col(x) is the workhorse: its
moments are those of the free convolution of a semicircle of variance p^2
with a Gaussian of variance q^2, and its variance split over the opposing
double edge and the double loop realizes the traffic CLT interpolation.  The
split is two second moments on the same word path: the double loop is
tau[d d], d = hadamard(a, unit) being the diagonal part of a, and the other
part is tau[a a] minus it.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .ensembles import _double_factorial_odd
from .graphs import (
    _CANON_CAP,
    Edge,
    GraphMonomial,
    TestGraph,
    TrafficPolynomial,
    canonical_key,  # stays importable here for perfbench/tracing.py
    col_op,
    delta,
    edge_monomial,
    hadamard,
    row_op,
    substitute_graph,
    unit_monomial,
)
from .limits import can_pair, catalan, ltd_trace, model_support, wigner_ltd

Number = Union[int, float, Fraction, complex]

MAX_ORDER = 12


def _as_poly(a: Any) -> TrafficPolynomial:
    if isinstance(a, str):
        return parse_poly(a)
    return TrafficPolynomial.wrap(a)


def poly_power(a: Any, m: int) -> TrafficPolynomial:
    """a^m by repeated squaring; terms stay combined in canonical form."""
    if m < 0:
        raise ValueError("negative power")
    out = TrafficPolynomial.wrap(unit_monomial())
    base = _as_poly(a)
    while m:
        if m & 1:
            out = out * base
        base2 = base * base if m > 1 else base
        base, m = base2, m >> 1
    return out


# the graph of tr t(A): the output root glued to the input root
trace_closure = delta


def _closed_sum(
    terms: Iterable[tuple[Any, Any, Callable[[], TestGraph]]],
    ltd_fn: Callable[[TestGraph], Number],
    order: int,
) -> Number:
    """Sum of coeff * ltd_trace(close()) over the (coeff, key, close) terms
    of a moment of the given order, with one close() and one ltd_trace per
    key.

    Terms with equal keys must close into isomorphic graphs.  A closed graph
    that :func:`limits.can_pair` refuses has no double-tree quotient and adds
    coeff * 0, as its empty scan would; the key None marks terms the caller
    already knows to close into such a graph, and they are never closed.
    The scan runs on the first graph of each key as it was glued, not on a
    canonical form: the pruned scan depends on vertex order, and the glued
    numbering is the cheaper one to scan.
    """
    memo: dict[Any, Number] = {None: 0}
    total: Number = 0
    for coeff, key, close in terms:
        value = memo.get(key)
        if value is None:
            g = close()
            if not can_pair(g):
                value = 0
            elif g.n_vertices > _CANON_CAP:
                raise ValueError(
                    f"the moment of order {order} has a closed graph of {g.n_vertices} "
                    f"vertices; moment sums take at most {_CANON_CAP}"
                )
            else:
                value = ltd_trace(g, ltd_fn)
            memo[key] = value
        total = total + coeff * value
    return total


def _necklaces(k: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The rotation classes of the k^m words of length m over range(k), as
    (least rotation, period) in lexicographic order; a class holds as many
    words as its period.

    Fredricksen-Kessler-Maiorana: step through the prenecklaces in
    lexicographic order, each the periodic extension of its first p letters,
    and keep those whose period p divides m (Ruskey, Savage & Wang,
    "Generating necklaces", J. Algorithms 1992).
    """
    if k < 1:
        return
    a = [0] * m
    p = 1
    while True:
        if m % p == 0:
            yield tuple(a), p
        j = m - 1
        while j >= 0 and a[j] == k - 1:
            j -= 1
        if j < 0:
            return
        a[j] += 1
        for i in range(j + 1, m):
            a[i] = a[i - j - 1]
        p = j + 1


def _cyclic_word_ltd(
    polys: Sequence[TrafficPolynomial], ltd_fn: Callable[[TestGraph], Number]
) -> Number:
    """Limit of E (1/n) tr(a_1 ... a_m), summed over rotation classes of
    cyclic words.

    A word picks one term of polynomial j for slot j of the m-cycle; terms
    get ids shared across the slots, so rotating a word only relabels the
    cycle and keeps the coefficient.  Each class is weighted by how many
    words of the product set it holds.  When every slot holds the same
    terms the classes are generated as necklaces; otherwise the product set
    is grouped by least rotation.  A class whose terms hold an odd number of
    edges of some label closes into a graph that cannot pair, so it is not
    substituted at all: for the Markov element, no word of odd order is.

    The closed graph of a word is a cycle of its steps (terms whose roots
    differ), each junction carrying the decorations (terms with one root)
    that sit between two steps, in any order.  So a class is keyed by the
    least rotation of its cyclic sequence of (sorted decorations, step)
    runs, with terms named by their monomial and edgeless decorations left
    out, or, with no step, by its sorted decorations alone; equal keys
    close into isomorphic graphs.
    """
    m = len(polys)
    ids: dict[tuple[GraphMonomial, Any], int] = {}
    slot_ids = [tuple(ids.setdefault(t, len(ids)) for t in p.terms) for p in polys]
    terms = list(ids)
    if all(s == slot_ids[0] for s in slot_ids):
        classes: Iterable[tuple[tuple[int, ...], int]] = _necklaces(len(terms), m)
    else:
        classes = Counter(
            min(w[i:] + w[:i] for i in range(m)) for w in product(*slot_ids)
        ).items()
    # one bit per label, set where a term holds an odd number of its edges;
    # the monomial of each term, None for the unit; which terms are steps
    bits: dict[str, int] = {}
    odd = []
    monos: dict[GraphMonomial, int] = {}
    mono_id: list[Optional[int]] = []
    step = []
    for mono, _ in terms:
        mask = 0
        for e in mono.graph.edges:
            mask ^= bits.setdefault(e.label, 1 << len(bits))
        odd.append(mask)
        mono_id.append(monos.setdefault(mono, len(monos)) if mono.graph.edges else None)
        step.append(mono.v_in != mono.v_out)
    # the m-cycle of tr(a_1 ... a_m): entry (i_j, i_{j+1}) of factor j is an
    # edge from the later index vertex into the earlier one
    slots = [f"slot{j}" for j in range(m)]
    cycle = TestGraph(m, tuple(Edge((j + 1) % m, j, slots[j]) for j in range(m)))

    def key(word: tuple[int, ...]) -> Any:
        runs: list[tuple[tuple[int, ...], int]] = []
        decorations: list[int] = []
        for i in word:
            if step[i]:
                runs.append((tuple(sorted(decorations)), mono_id[i]))
                decorations = []
            elif mono_id[i] is not None:
                decorations.append(mono_id[i])
        if not runs:
            return tuple(sorted(decorations))
        if decorations:  # the junction before the first step, cyclically
            runs[0] = (tuple(sorted(decorations + list(runs[0][0]))), runs[0][1])
        return tuple(min(runs[i:] + runs[:i] for i in range(len(runs))))

    def closed() -> Iterator[tuple[Any, Any, Optional[Callable[[], TestGraph]]]]:
        for word, count in classes:
            coeff: Any = count
            mask = 0
            for i in word:
                coeff = coeff * terms[i][1]
                mask ^= odd[i]
            if mask:
                yield coeff, None, None
                continue

            def close(word: tuple[int, ...] = word) -> TestGraph:
                ((_, g),) = substitute_graph(
                    cycle, {s: terms[i][0] for s, i in zip(slots, word)}
                )
                return g

            yield coeff, key(word), close

    return _closed_sum(closed(), ltd_fn, m)


def traffic_moment(
    a: Any, m: int, ltd_fn: Optional[Callable[[TestGraph], Number]] = None
) -> Number:
    """Limit of E (1/n) tr a(A)^m under the given injective evaluator
    (Wigner by default).  Exact when the coefficients and the evaluator are.
    """
    if not 0 <= m <= MAX_ORDER:
        raise ValueError(f"order {m} outside [0, {MAX_ORDER}]")
    ltd = ltd_fn or wigner_ltd
    poly = _as_poly(a)
    if m == 0:
        return ltd_trace(TestGraph(1), ltd)
    return _cyclic_word_ltd([poly] * m, ltd)


def require_moment_support(model: Any) -> None:
    """Refuse a matrix model whose limit the double-tree scans here miss."""
    if model_support(model) != "double_tree":
        raise ValueError("moment sums scan double-tree quotients only, so every label "
                         "needs a band regime other than fixed")


def mixed_moment_ltd(
    elements: Sequence[Any], ltd_fn: Optional[Callable[[TestGraph], Number]] = None
) -> Number:
    """Exact limit of E (1/n) tr(a_1 ... a_m) for polynomials in independent
    labels, via the quotient sum."""
    m = len(elements)
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"word length {m} outside [1, {MAX_ORDER}]")
    return _cyclic_word_ltd([_as_poly(a) for a in elements], ltd_fn or wigner_ltd)


# ---------------------------------------------------------------------------
# the Markov interpolation family

def _exactify(v: Any) -> Any:
    return Fraction(v) if isinstance(v, int) else v


def markov_element(p: Any, q: Any, label: str = "x") -> TrafficPolynomial:
    """p x + (q/2)(row(x) + col(x)): band matrix plus symmetrized degrees."""
    p, q = _exactify(p), _exactify(q)
    x = TrafficPolynomial.wrap(edge_monomial(label))
    r = TrafficPolynomial.wrap(row_op(label))
    c = TrafficPolynomial.wrap(col_op(label))
    return p * x + (q / 2) * r + (q / 2) * c


def markov_moments(p: Any, q: Any, m: int) -> Number:
    """m-th limiting moment of the (p, q)-Markov matrix: the moment of
    SC(0, p^2) boxplus N(0, q^2).  Exact for rational p, q."""
    return traffic_moment(markov_element(p, q), m)


def clt_alpha_split(
    a: Any, ltd_fn: Optional[Callable[[TestGraph], Number]] = None
) -> tuple[Number, Number]:
    """Variance split (tau0 of the opposing double edge, tau0 of the double
    loop) for a self-adjoint centered element; the pair (alpha, 1 - alpha)
    of the traffic central limit.

    The opposing double edge is the 2-cycle of tr(a a).  Substituting a term
    t into a loop glues both its roots, which leaves its diagonal part
    hadamard(t, unit), so the double loop is the 2-cycle of tr(d d), d the
    diagonal parts of a's terms with a's coefficients.  The split is
    (tau[a a] - tau[d d], tau[d d]), two second moments on the word path.
    """
    ltd = ltd_fn or wigner_ltd
    poly = _as_poly(a)
    diagonal = TrafficPolynomial.from_terms(
        (hadamard(t, unit_monomial()), c) for t, c in poly.terms
    )
    loops = traffic_moment(diagonal, 2, ltd)
    return traffic_moment(poly, 2, ltd) - loops, loops


def semicircle_moment(m: int) -> int:
    """Moments of the standard semicircle: Catalan numbers at even orders."""
    return 0 if m % 2 else catalan(m // 2)


def gaussian_moment(m: int) -> int:
    """Moments of the standard Gaussian: double factorials at even orders."""
    return 0 if m % 2 else _double_factorial_odd(m)


# ---------------------------------------------------------------------------
# polynomial grammar and matrix evaluation

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[()+\-*]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad character {text[pos:].lstrip()[0]!r} in polynomial")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind) is not None:
                out.append((kind, m.group(kind)))
    return out


def parse_poly(text: str) -> TrafficPolynomial:
    """Parse the experiment grammar: terms like ``2*x``, ``0.5*row(x)``,
    ``3/2*col(y)``, ``unit``, joined by + and -.  Coefficients are exact
    (decimals and fractions both go through Fraction)."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[tuple[str, str]]:
        return tokens[pos] if pos < len(tokens) else None

    def take(kind: str, value: Optional[str] = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"polynomial syntax error near token {pos}")
        pos += 1
        return tok[1]

    def factor() -> TrafficPolynomial:
        tok = peek()
        if tok is None:
            raise ValueError("polynomial ends mid-term")
        if tok[0] == "num":
            num = take("num")
            try:
                coef = Fraction(num)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {num!r} divides by zero") from None
            return coef * TrafficPolynomial.wrap(unit_monomial())
        name = take("name")
        if name in ("row", "col") and peek() == ("op", "("):
            take("op", "(")
            label = take("name")
            take("op", ")")
            op = row_op if name == "row" else col_op
            return TrafficPolynomial.wrap(op(label))
        if name == "unit":
            return TrafficPolynomial.wrap(unit_monomial())
        return TrafficPolynomial.wrap(edge_monomial(name))

    def term() -> TrafficPolynomial:
        out = factor()
        while peek() == ("op", "*"):
            take("op", "*")
            out = out * factor()
        return out

    def expr() -> TrafficPolynomial:
        sign = 1
        tok = peek()
        if tok == ("op", "-"):
            take("op", "-")
            sign = -1
        elif tok == ("op", "+"):
            take("op", "+")
        out = sign * term()
        while peek() in (("op", "+"), ("op", "-")):
            s = 1 if take("op")[0] == "+" else -1
            out = out + s * term()
        return out

    if not tokens:
        raise ValueError("empty polynomial")
    out = expr()
    if pos != len(tokens):
        raise ValueError(f"polynomial syntax error near token {pos}")
    return out


def eval_polynomial_matrix(a: Any, matrices: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate a polynomial on concrete matrices: sum of coefficient times
    the monomial evaluations."""
    from .engine import eval_graph_matrix

    out: Optional[np.ndarray] = None
    for mono, coeff in _as_poly(a).terms:
        val = complex(coeff) if isinstance(coeff, complex) else float(coeff)
        piece = val * eval_graph_matrix(mono, matrices)
        out = piece if out is None else out + piece
    if out is None:
        raise ValueError("the zero polynomial has no evaluation shape")
    return out
