"""Exact evaluation engine: graph evaluation, traces, injective traces,
Monte Carlo plumbing."""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traffics import engine
from traffics.engine import (
    Estimate,
    central_moment_estimate,
    estimate_traffic_state,
    eval_graph_matrix,
    trace_full_direct,
    trace_injective,
    trace_injective_direct,
    trace_test_graph,
)
from traffics.ensembles import BandProfile, MatrixModel, stream
from traffics.graphs import (
    Edge,
    GraphMonomial,
    TestGraph,
    col_op,
    concat_product,
    delta,
    edge_monomial,
    eta,
    quotient,
    row_op,
    unit_monomial,
)
from traffics.partitions import enumerate_partitions

from oracles import naive_graph_matrix
from test_graphs import connected_graphs


def random_matrices(labels, n, rng, complex_=False, batch=()):
    out = {}
    for lab in labels:
        a = rng.standard_normal(batch + (n, n))
        if complex_:
            a = a + 1j * rng.standard_normal(batch + (n, n))
        out[lab] = a
    return out


def _labels(g):
    return sorted({e.label for e in g.edges}) or ["x"]


@st.composite
def loopy_graphs(draw, max_vertices=4, max_extra=2):
    """Connected graphs with extra loops, each possibly starred."""
    g = draw(connected_graphs(max_vertices=max_vertices, max_extra=max_extra))
    loops = [
        Edge(v, v, draw(st.sampled_from("xy")), draw(st.booleans()))
        for v in draw(st.lists(st.integers(0, g.n_vertices - 1), max_size=3))
    ]
    return TestGraph(g.n_vertices, g.edges + tuple(loops))


@st.composite
def dense_five_vertex_graphs(draw):
    """K5 minus at most two disjoint pairs, plus loops: every vertex has
    degree >= 3, so the first elimination is a general step."""
    pairs = list(combinations(range(5), 2))
    dropped = draw(st.sampled_from([(), ((0, 1),), ((0, 1), (2, 3)), ((1, 4), (0, 2))]))
    edges = []
    for u, v in pairs:
        if (u, v) in dropped:
            continue
        for _ in range(draw(st.integers(1, 2))):
            a, b = (u, v) if draw(st.booleans()) else (v, u)
            edges.append(Edge(a, b, draw(st.sampled_from("xy")), draw(st.booleans())))
    for v in draw(st.lists(st.integers(0, 4), max_size=2)):
        edges.append(Edge(v, v, draw(st.sampled_from("xy")), draw(st.booleans())))
    return TestGraph(5, tuple(edges))


def _quiet(fn, *args, **kwargs):
    # the rank-overflow fallback warns; these tests compare its answers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# graph evaluation

def test_edge_monomial_evaluates_to_the_matrix(rng):
    a = rng.standard_normal((5, 5))
    assert np.allclose(eval_graph_matrix(edge_monomial("x"), {"x": a}), a)


def test_starred_edge_is_the_adjoint(rng):
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    t = edge_monomial("x", star=True)
    assert np.allclose(eval_graph_matrix(t, {"x": a}), a.conj().T)


def test_unit_monomial_is_identity(rng):
    assert np.allclose(eval_graph_matrix(unit_monomial(), {"x": rng.standard_normal((4, 4))}), np.eye(4))


def test_word_monomial_is_matrix_product(rng):
    mats = random_matrices("xy", 6, rng, complex_=True)
    got = eval_graph_matrix(eta("x y* x"), mats)
    want = mats["x"] @ mats["y"].conj().T @ mats["x"]
    assert np.allclose(got, want)


def test_concat_product_composes(rng):
    mats = random_matrices("xy", 5, rng)
    t = concat_product(edge_monomial("x"), edge_monomial("y"))
    assert np.allclose(eval_graph_matrix(t, mats), mats["x"] @ mats["y"])


def test_row_and_col_operators(rng):
    a = rng.standard_normal((7, 7))
    assert np.allclose(eval_graph_matrix(row_op("x"), {"x": a}), np.diag(a.sum(axis=1)))
    assert np.allclose(eval_graph_matrix(col_op("x"), {"x": a}), np.diag(a.sum(axis=0)))


def test_trace_of_delta_matches_matrix_trace(rng):
    mats = random_matrices("xy", 5, rng, complex_=True)
    t = eta("x y x* y")
    lhs = np.trace(eval_graph_matrix(t, mats))
    rhs = trace_test_graph(delta(t), mats)
    assert np.isclose(lhs, rhs)


def test_adjoint_evaluates_to_conjugate_transpose(rng):
    mats = random_matrices("xy", 5, rng, complex_=True)
    t = eta("x y")
    lhs = eval_graph_matrix(t.adjoint(), mats)
    assert np.allclose(lhs, eval_graph_matrix(t, mats).conj().T)


# ---------------------------------------------------------------------------
# oracle equivalence and the partition identity

@settings(max_examples=30)
@given(connected_graphs(max_vertices=4, max_extra=2), st.integers(2, 6))
def test_trace_matches_enumeration(g, n):
    rng = np.random.default_rng(n * 1000 + g.n_vertices)
    mats = random_matrices(sorted({e.label for e in g.edges}) or ["x"], n, rng, complex_=True)
    fast = trace_test_graph(g, mats)
    slow = trace_full_direct(g, mats)
    assert np.isclose(fast, slow, rtol=1e-9, atol=1e-12)


@settings(max_examples=30)
@given(connected_graphs(max_vertices=4, max_extra=2), st.integers(2, 6))
def test_injective_matches_enumeration(g, n):
    rng = np.random.default_rng(n * 999 + len(g.edges))
    mats = random_matrices(sorted({e.label for e in g.edges}) or ["x"], n, rng, complex_=True)
    fast = trace_injective(g, mats)
    slow = trace_injective_direct(g, mats)
    assert np.isclose(fast, slow, rtol=1e-9, atol=1e-12)


@settings(max_examples=20)
@given(connected_graphs(max_vertices=4, max_extra=1), st.integers(2, 5))
def test_trace_is_sum_of_injective_quotients(g, n):
    rng = np.random.default_rng(n + 17 * g.n_vertices)
    mats = random_matrices(sorted({e.label for e in g.edges}) or ["x"], n, rng, complex_=True)
    whole = trace_test_graph(g, mats)
    parts = sum(
        trace_injective(quotient(g, pi), mats)
        for pi in enumerate_partitions(g.n_vertices)
    )
    assert np.isclose(whole, parts, rtol=1e-9, atol=1e-12)


def test_contraction_rank_does_not_change_answers(rng):
    g = TestGraph(4, (Edge(0, 1, "x"), Edge(1, 2, "x"), Edge(2, 3, "x"),
                      Edge(3, 0, "x"), Edge(0, 2, "y")))
    mats = random_matrices("xy", 8, rng)
    with pytest.warns(RuntimeWarning):  # max_rank=1 takes the enumeration fallback
        low = trace_test_graph(g, mats, max_rank=1)
    vals = {low.round(9)} | {trace_test_graph(g, mats, max_rank=r).round(9) for r in (2, 4)}
    assert len(vals) == 1


def test_batched_trace(rng):
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    batch = rng.standard_normal((3, 6, 6))
    out = trace_test_graph(g, {"x": batch})
    assert out.shape == (3,)
    for i in range(3):
        assert np.isclose(out[i], trace_test_graph(g, {"x": batch[i]}))


def test_loop_edges_evaluate_on_the_diagonal(rng):
    g = TestGraph(1, (Edge(0, 0, "x"),))
    a = rng.standard_normal((5, 5))
    assert np.isclose(trace_test_graph(g, {"x": a}), np.trace(a))


@settings(max_examples=40)
@given(loopy_graphs(), st.integers(2, 4), st.integers(1, 4))
def test_batched_complex_trace_matches_enumeration(g, n, max_rank):
    rng = np.random.default_rng(31 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2, 3))
    fast = _quiet(trace_test_graph, g, mats, max_rank=max_rank)
    slow = trace_full_direct(g, mats)
    assert fast.shape == (2, 3)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


@settings(max_examples=25)
@given(dense_five_vertex_graphs(), st.integers(2, 3), st.integers(1, 4))
def test_general_steps_match_enumeration(g, n, max_rank):
    rng = np.random.default_rng(7 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2,))
    fast = _quiet(trace_test_graph, g, mats, max_rank=max_rank)
    assert np.allclose(fast, trace_full_direct(g, mats), rtol=1e-9, atol=1e-12)


@settings(max_examples=40)
@given(loopy_graphs(), st.integers(2, 3), st.integers(1, 4), st.data())
def test_eval_graph_matrix_matches_enumeration(g, n, max_rank, data):
    v_out = data.draw(st.integers(0, g.n_vertices - 1))
    v_in = data.draw(st.sampled_from([v_out, data.draw(st.integers(0, g.n_vertices - 1))]))
    rng = np.random.default_rng(13 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2,))
    fast = _quiet(eval_graph_matrix, GraphMonomial(g, v_in, v_out), mats, max_rank=max_rank)
    assert np.allclose(fast, naive_graph_matrix(g, v_out, v_in, mats), rtol=1e-9, atol=1e-12)


def test_eval_graph_matrix_general_step_with_roots(rng):
    g = TestGraph(5, tuple(Edge(u, v, "x", star=(u + v) % 3 == 0)
                           for u, v in combinations(range(5), 2)))
    mats = random_matrices("x", 3, rng, complex_=True, batch=(2,))
    for v_in, v_out in ((0, 0), (0, 4)):
        got = eval_graph_matrix(GraphMonomial(g, v_in, v_out), mats)
        assert np.allclose(got, naive_graph_matrix(g, v_out, v_in, mats))


@settings(max_examples=30)
@given(loopy_graphs(max_vertices=4, max_extra=3), st.integers(4, 6))
def test_shared_pendant_sums_equal_termwise_sum(g, n):
    rng = np.random.default_rng(n + 5 * len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2,))
    termwise = sum(w * trace_test_graph(q, mats) for w, q in engine._injective_terms(g))
    assert np.allclose(trace_injective(g, mats), termwise, rtol=1e-12, atol=1e-12)


def test_pendant_sums_are_shared_across_terms(rng):
    # two-pad star: its Mobius terms repeat the same pads
    g = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(0, 2, "x"), Edge(2, 0, "x")))
    mats = random_matrices("x", 6, rng, batch=(3,))
    shared = engine._Bound(g.labels(), mats)
    alone = 0
    for _, q in engine._injective_terms(g):
        trace_test_graph(q, shared)
        own = engine._Bound(g.labels(), mats)
        trace_test_graph(q, own)
        alone += len(own.pendants)
    assert 0 < len(shared.pendants) < alone


def test_pendant_codes_keep_orientation_and_star(rng):
    # the same label hangs off vertex 0 as x, x^T, x* and a loop-weighted x;
    # only identical rooted subtrees may share a pendant sum
    g = TestGraph(5, (Edge(1, 0, "x"), Edge(0, 2, "x"), Edge(3, 0, "x", True),
                      Edge(4, 0, "x"), Edge(4, 4, "x")))
    mats = random_matrices("x", 4, rng, complex_=True, batch=(2,))
    assert np.allclose(trace_test_graph(g, mats), trace_full_direct(g, mats))


def test_rank_overflow_fallback_warns(rng):
    g = TestGraph(4, (Edge(0, 1, "x"), Edge(1, 2, "x"), Edge(2, 3, "x"),
                      Edge(3, 0, "x"), Edge(0, 2, "y")))
    mats = random_matrices("xy", 5, rng)
    with pytest.warns(RuntimeWarning, match=r"rank-2 .*max_rank=1.*5\^4 = 625 maps"):
        low = trace_test_graph(g, mats, max_rank=1)
    assert np.isclose(low, trace_test_graph(g, mats))
    t = GraphMonomial(g, 0, 2)
    with pytest.warns(RuntimeWarning, match=r"rank-2 .*5\^4 = 625 maps"):
        low = eval_graph_matrix(t, mats, max_rank=1)
    assert np.allclose(low, eval_graph_matrix(t, mats))


# ---------------------------------------------------------------------------
# Monte Carlo estimation

def _wigner_model():
    return MatrixModel({"x": BandProfile.parse("wigner")})


def test_estimates_are_thread_count_invariant():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    for samples in (30, 130):  # one chunk of 64 draws, or three
        runs = [
            estimate_traffic_state(T, _wigner_model(), 40, samples, seed=5, injective=True,
                                   threads=k)
            for k in (None, 1, 2, 4)
        ]
        assert len({(r.mean, r.stderr) for r in runs}) == 1


def test_estimates_depend_on_seed():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    a = estimate_traffic_state(T, _wigner_model(), 30, 20, seed=1)
    b = estimate_traffic_state(T, _wigner_model(), 30, 20, seed=2)
    assert a.mean != b.mean


def test_injective_estimator_mean_is_centered():
    # opposing pad: every injective pair contributes E|X_ij|^2 / n exactly,
    # so the count-normalized estimator has mean exactly 1 at every n
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    est = estimate_traffic_state(T, _wigner_model(), 60, 400, seed=3, injective=True)
    assert est.z(1.0) < 4


def test_estimate_small_n_guard():
    T = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 2, "x")))
    est = estimate_traffic_state(T, _wigner_model(), 2, 10, seed=0, injective=True)
    assert est.mean == 0


def test_z_score():
    e = Estimate(mean=1.5, stderr=0.25, samples=10, n=4)
    assert e.z(1.0) == pytest.approx(2.0)
    assert Estimate(1.0, 0.0, 1, 4).z(1.0) == 0.0


def test_central_moment_validates_order():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    with pytest.raises(ValueError):
        central_moment_estimate(T, _wigner_model(), 10, 10, order=3, seed=0)


def test_central_moment_mean_is_complex():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    est = central_moment_estimate(T, _wigner_model(), 20, 30, order=2, seed=4)
    assert isinstance(est.mean, complex) and est.mean.imag == 0 and est.mean.real > 0


def test_variance_estimate_shrinks_with_n():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    small = central_moment_estimate(T, _wigner_model(), 20, 200, order=2, seed=4)
    large = central_moment_estimate(T, _wigner_model(), 80, 200, order=2, seed=4)
    assert large.mean.real < small.mean.real


def test_model_stream_usage_matches_manual_sampling():
    # sample index i must draw from stream(seed, i) regardless of chunking
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    model = _wigner_model()
    est = estimate_traffic_state(T, model, 12, 5, seed=9, injective=False)
    vals = []
    for i in range(5):
        a = model.sample(12, stream(9, i))["x"]
        vals.append(np.trace(a @ a).real / 12)
    assert np.isclose(est.mean.real, np.mean(vals))
