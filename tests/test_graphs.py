"""Structure tests: graphs, monomials, products, quotients, canonical forms,
and the text format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from traffics.engine import eval_graph_matrix
from traffics.graphs import (
    DSLError,
    Edge,
    GraphMonomial,
    NGraphMonomial,
    TestGraph,
    TrafficPolynomial,
    canonical_form,
    canonical_key,
    col_op,
    concat_product,
    delta,
    delta_n,
    directed_cycle,
    edge_classes,
    edge_monomial,
    eta,
    hadamard,
    parse_dsl,
    quotient,
    row_op,
    serialize,
    shape_sum,
    substitute,
    substitute_graph,
    unit_monomial,
)

from oracles import brute_isomorphic


# ---------------------------------------------------------------------------
# strategies

@st.composite
def connected_graphs(draw, max_vertices=5, max_extra=3, labels=("x", "y")):
    n = draw(st.integers(1, max_vertices))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        flip = draw(st.booleans())
        lab = draw(st.sampled_from(labels))
        star = draw(st.booleans())
        edges.append(Edge(u, v, lab, star) if flip else Edge(v, u, lab, star))
    for _ in range(draw(st.integers(0, max_extra))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        edges.append(Edge(u, v, draw(st.sampled_from(labels)), draw(st.booleans())))
    if n == 1 and not edges:
        pass  # single vertex, no edges: still a valid test graph
    return TestGraph(n, tuple(edges))


def relabel(g: TestGraph, perm) -> TestGraph:
    return TestGraph(
        g.n_vertices,
        tuple(e._replace(src=perm[e.src], tar=perm[e.tar]) for e in g.edges),
    )


# ---------------------------------------------------------------------------
# construction and validation

def test_rejects_disconnected():
    with pytest.raises(ValueError):
        TestGraph(3, (Edge(0, 1, "x"),))


def test_rejects_bad_label():
    with pytest.raises(ValueError):
        TestGraph(2, (Edge(0, 1, "9bad"),))
    with pytest.raises(ValueError):
        TestGraph(2, (Edge(0, 1, ""),))


def test_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        TestGraph(2, (Edge(0, 2, "x"),))


def test_single_vertex_graph_ok():
    g = TestGraph(1, ())
    assert g.n_vertices == 1
    assert g.labels() == ()


def test_monomial_roots_checked():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    with pytest.raises(ValueError):
        GraphMonomial(g, 0, 5)


def test_edge_conjugation():
    e = Edge(0, 1, "x", False)
    assert e.reversed() == Edge(1, 0, "x", False)
    assert e.conjugated() == Edge(1, 0, "x", True)
    assert e.conjugated().conjugated() == e


def test_adjoint_is_involution():
    t = eta("x y* x")
    assert t.adjoint().adjoint() == t


def test_adjoint_swaps_roots():
    t = edge_monomial("x")
    a = t.adjoint()
    assert (a.v_in, a.v_out) == (t.v_out, t.v_in)
    assert a.graph.edges[0].star


# ---------------------------------------------------------------------------
# products and gluing

def test_concat_with_unit_is_identity():
    t = eta("x y")
    for prod in (concat_product(t, unit_monomial()), concat_product(unit_monomial(), t)):
        assert canonical_key(prod) == canonical_key(t)


def test_concat_builds_paths():
    # x then y should have the same shape as the word monomial
    t = concat_product(edge_monomial("x"), edge_monomial("y"))
    assert canonical_key(t) == canonical_key(eta("x y"))


def test_hadamard_doubles_edges():
    t = edge_monomial("x")
    h = hadamard(t, t)
    assert h.graph.n_vertices == 2
    assert len(h.graph.edges) == 2
    assert h.v_in != h.v_out


def test_hadamard_with_the_unit_is_the_diagonal():
    a = np.arange(9.0).reshape(3, 3) + 1
    h = hadamard(edge_monomial("x"), unit_monomial())
    assert (h.graph.n_vertices, h.v_in, h.v_out) == (1, 0, 0)
    np.testing.assert_array_equal(eval_graph_matrix(h, {"x": a}), np.diag(np.diag(a)))


def test_hadamard_roots_come_from_the_first_factor():
    # t2 numbers its roots the other way round from t1
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 4, 4))
    t2 = GraphMonomial(TestGraph(2, (Edge(1, 0, "y"),)), 1, 0)
    h = hadamard(edge_monomial("x"), t2)
    assert h.v_in != h.v_out
    np.testing.assert_allclose(eval_graph_matrix(h, {"x": a, "y": b}), a * b)


def test_delta_closes_the_roots():
    d = delta(edge_monomial("x"))
    assert d.n_vertices == 1
    assert d.edges[0].src == d.edges[0].tar


def test_delta_n_glues_coordinatewise():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    t = NGraphMonomial(g, (0, 1))
    glued = delta_n(t, t)
    assert glued.n_vertices == 2
    assert len(glued.edges) == 2


def test_delta_n_rejects_mismatched_roots():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    with pytest.raises(ValueError):
        delta_n(NGraphMonomial(g, (0, 1)), NGraphMonomial(g, (0,)))


def test_quotient_merges_and_loops():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    q = quotient(g, [(0, 1)])
    assert q.n_vertices == 1
    assert q.edges[0].src == q.edges[0].tar


def test_quotient_identity_partition():
    g = directed_cycle(4)
    q = quotient(g, [(0,), (1,), (2,), (3,)])
    assert canonical_key(q) == canonical_key(g)


def naive_quotient(g, blocks):
    """Blocks numbered by smallest member, every edge re-anchored, stars kept."""
    firsts = sorted(min(b) for b in blocks)
    block_of = {v: firsts.index(min(b)) for b in blocks for v in b}
    return TestGraph(len(blocks), tuple(
        Edge(block_of[e.src], block_of[e.tar], e.label, e.star) for e in g.edges))


@st.composite
def graphs_with_partitions(draw):
    g = draw(connected_graphs())
    groups = {}
    for v in range(g.n_vertices):
        groups.setdefault(draw(st.integers(0, g.n_vertices - 1)), []).append(v)
    # neither the order of the blocks nor the order inside one may matter
    blocks = draw(st.permutations(list(groups.values())))
    return g, [draw(st.permutations(b)) for b in blocks]


@given(graphs_with_partitions())
def test_quotient_is_the_naive_gluing_rule(gb):
    g, blocks = gb
    assert quotient(g, blocks) == naive_quotient(g, blocks)
    with pytest.raises(ValueError):
        quotient(g, blocks + [()])


@given(connected_graphs(), st.data())
def test_delta_is_the_quotient_gluing_the_roots(g, data):
    v_in, v_out = (data.draw(st.integers(0, g.n_vertices - 1)) for _ in range(2))
    blocks = [sorted({v_in, v_out})] + [
        [v] for v in range(g.n_vertices) if v not in (v_in, v_out)]
    assert delta(GraphMonomial(g, v_in, v_out)) == naive_quotient(g, blocks)


def test_edge_classes_group_by_endpoints():
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(0, 0, "y")))
    classes = edge_classes(g)
    assert len(classes) == 2
    loops = [c for c in classes if c.is_loop]
    assert len(loops) == 1


# ---------------------------------------------------------------------------
# polynomials and substitution

def test_polynomial_combines_like_terms():
    x = edge_monomial("x")
    p = TrafficPolynomial.from_terms([(x, 1), (x, 2)])
    assert len(p.terms) == 1
    assert p.terms[0][1] == 3


def test_polynomial_drops_zero():
    x = edge_monomial("x")
    p = TrafficPolynomial.from_terms([(x, 1)])
    assert (p - p).terms == ()


def test_polynomial_product_distributes():
    x = edge_monomial("x")
    y = edge_monomial("y")
    p = TrafficPolynomial.from_terms([(x, 1), (y, 1)])
    assert len((p * p).terms) == 4


def test_substitute_graph_is_multilinear():
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    y = edge_monomial("y")
    z = edge_monomial("z")
    binding = TrafficPolynomial.from_terms([(y, 1), (z, 2)])
    terms = substitute_graph(g, {"x": binding})
    assert len(terms) == 4
    coeffs = sorted(c for c, _ in terms)
    assert coeffs == [1, 2, 2, 4]


def test_substitute_graph_requires_every_label():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    with pytest.raises(ValueError):
        substitute_graph(g, {})
    (coeff, out), = substitute_graph(g, {"x": edge_monomial("x")})
    assert coeff == 1
    assert canonical_key(out) == canonical_key(g)


def test_substitute_own_edges_is_the_identity():
    own = {lab: edge_monomial(lab) for lab in "xy"}
    two_terms = TrafficPolynomial.from_terms([(eta("x"), 1), (eta("y* x"), 2)])
    for t in (eta("x y* x"), eta("y"), row_op("x"), two_terms):
        assert substitute(t, own) == TrafficPolynomial.wrap(t)


def test_substitute_multiplies_coefficients_along_each_edge():
    p = TrafficPolynomial.from_terms([(eta("y"), 2), (eta("z"), 3)])
    want = TrafficPolynomial.from_terms([
        (eta("y y"), 4), (eta("y z"), 6), (eta("z y"), 6), (eta("z z"), 9),
    ])
    assert substitute(eta("x x"), {"x": p}) == want


def test_substitute_gives_a_starred_edge_the_adjoint():
    assert substitute(eta("x*"), {"x": eta("y z")}) == TrafficPolynomial.wrap(
        eta("y z").adjoint()
    )


def test_substitute_then_trace_is_substitute_graph_of_the_trace():
    t = eta("x y* x")
    bindings = {
        "x": TrafficPolynomial.from_terms([(eta("y"), 1), (eta("z x"), 3)]),
        "y": eta("x z"),
    }
    traced = shape_sum((delta(m), c) for m, c in substitute(t, bindings).terms)
    direct = shape_sum((g, c) for c, g in substitute_graph(delta(t), bindings))
    assert traced == direct and len(direct) > 1


def test_row_col_are_adjoint_shapes():
    r = row_op("x")
    c = col_op("x")
    assert r.v_in == r.v_out
    assert c.v_in == c.v_out
    assert canonical_key(r) != canonical_key(c)
    # reversing the pendant edge swaps the two operators
    assert canonical_key(
        GraphMonomial(r.graph.reverse_edges(), r.v_in, r.v_out)
    ) == canonical_key(c)


def test_directed_cycle_shape():
    g = directed_cycle(5, "w")
    assert g.n_vertices == 5
    assert len(g.edges) == 5
    assert all(e.label == "w" for e in g.edges)


# ---------------------------------------------------------------------------
# canonical forms

def test_parallel_vs_opposing_edges_differ():
    opposing = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    parallel = TestGraph(2, (Edge(0, 1, "x"), Edge(0, 1, "x")))
    assert canonical_key(opposing) != canonical_key(parallel)


def test_canonical_key_star_sensitivity():
    plain = TestGraph(2, (Edge(0, 1, "x"),))
    starred = TestGraph(2, (Edge(0, 1, "x", True),))
    assert canonical_key(plain) != canonical_key(starred)


def test_canonical_key_sees_roots():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    assert canonical_key(GraphMonomial(g, 0, 1)) != canonical_key(GraphMonomial(g, 1, 0))
    assert canonical_key(GraphMonomial(g, 0, 1)) != canonical_key(g)


def test_canonical_forms_stop_at_sixteen_vertices():
    def path(n):
        return TestGraph(n, tuple(Edge(v, v + 1, "x") for v in range(n - 1)))

    assert canonical_form(path(16)).n_vertices == 16
    for fn in (canonical_key, canonical_form):
        with pytest.raises(ValueError, match="at most 16 vertices, got 17"):
            fn(path(17))


@given(connected_graphs(), st.randoms(use_true_random=False))
def test_canonical_key_relabel_invariant(g, rnd):
    perm = list(range(g.n_vertices))
    rnd.shuffle(perm)
    assert canonical_key(g) == canonical_key(relabel(g, perm))


@given(connected_graphs(max_vertices=4), connected_graphs(max_vertices=4))
def test_canonical_key_complete(g, h):
    assert (canonical_key(g) == canonical_key(h)) == brute_isomorphic(g, h)


@given(connected_graphs())
def test_canonical_form_is_idempotent(g):
    form = canonical_form(g)
    assert canonical_form(form) == form
    assert canonical_key(form) == canonical_key(g)


@given(
    st.lists(st.tuples(connected_graphs(max_vertices=3, max_extra=1), st.integers(-2, 2)),
             max_size=12),
    st.randoms(use_true_random=False),
)
def test_shape_sum_is_the_naive_grouping(items, rnd):
    # relabelled copies put several members in one class
    items = items + [(relabel(g, list(range(g.n_vertices))[::-1]), -w) for g, w in items[::2]]
    forms, sums = {}, {}
    for g, w in items:
        key = canonical_key(g)
        forms[key] = canonical_form(g)
        sums[key] = sums.get(key, 0) + w
    want = [(forms[k], sums[k]) for k in sorted(sums) if sums[k] != 0]
    assert shape_sum(items) == want
    rnd.shuffle(items)
    assert shape_sum(items) == want


# ---------------------------------------------------------------------------
# text format

@given(connected_graphs())
def test_serialize_round_trip(g):
    assert parse_dsl(serialize(g)) == g


def test_serialize_round_trip_monomial():
    t = eta("x y* z")
    assert parse_dsl(serialize(t)) == t


def test_serialize_round_trip_n_rooted():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    t = NGraphMonomial(g, (1, 0, 1))
    assert parse_dsl(serialize(t)) == t


def test_parse_errors_carry_position():
    with pytest.raises(DSLError) as info:
        parse_dsl("e 0 1 x\ne 1 2\n")
    assert info.value.line == 2


@pytest.mark.parametrize("text, line, col", [
    ("e 1 2 1", 1, 7),            # the label, not the first '1'
    ("e e 1 x", 1, 3),            # the vertex, not the keyword
    ("e 0 1 x\ne 0 0 0", 2, 7),
    ("  e  0 1  2x", 1, 11),
    ("roots 0 0 a", 1, 11),
    ("n 3\nin 1\nin 1\nout 0", 3, 1),
    ("n 0", 1, 3),
])
def test_parse_errors_point_at_the_offending_token(text, line, col):
    with pytest.raises(DSLError) as info:
        parse_dsl(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_parse_rejects_disconnected():
    with pytest.raises(ValueError):
        parse_dsl("n 3\ne 0 1 x\n")


def test_parse_rejects_unknown_directive():
    with pytest.raises(DSLError):
        parse_dsl("edge 0 1 x\n")


def test_parse_star_suffix():
    g = parse_dsl("e 0 1 x*\n")
    assert g.edges[0].star
