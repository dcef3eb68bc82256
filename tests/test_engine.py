"""Exact evaluation engine: graph evaluation, traces, injective traces,
Monte Carlo plumbing."""

import threading
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
    trace_injective,
    trace_test_graph,
)
from traffics.ensembles import BandProfile, EntrySpec, MatrixModel, stream
from traffics.graphs import (
    Edge,
    GraphMonomial,
    TestGraph,
    col_op,
    concat_product,
    delta,
    directed_cycle,
    edge_monomial,
    eta,
    quotient,
    row_op,
    unit_monomial,
)
from traffics.partitions import enumerate_partitions

from oracles import naive_graph_matrix, naive_trace
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

def test_enumeration_oracles_on_a_two_by_two_matrix():
    a = np.array([[1, 2], [3, 4]])
    mats = {"x": a}
    two_cycle = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    assert naive_trace(two_cycle, mats) == np.trace(a @ a) == 29
    assert naive_trace(two_cycle, mats, injective=True) == 2 * a[0, 1] * a[1, 0] == 12
    edge = TestGraph(2, (Edge(0, 1, "x"),))
    starred = TestGraph(2, (Edge(0, 1, "x", True),))
    assert np.array_equal(naive_graph_matrix(edge, 1, 0, mats), a)
    assert np.array_equal(naive_graph_matrix(starred, 1, 0, mats), a.conj().T)


@settings(max_examples=30)
@given(connected_graphs(max_vertices=4, max_extra=2), st.integers(2, 6))
def test_trace_matches_enumeration(g, n):
    rng = np.random.default_rng(n * 1000 + g.n_vertices)
    mats = random_matrices(sorted({e.label for e in g.edges}) or ["x"], n, rng, complex_=True)
    fast = trace_test_graph(g, mats)
    slow = naive_trace(g, mats)
    assert np.isclose(fast, slow, rtol=1e-9, atol=1e-12)


@settings(max_examples=30)
@given(connected_graphs(max_vertices=4, max_extra=2), st.integers(2, 6))
def test_injective_matches_enumeration(g, n):
    rng = np.random.default_rng(n * 999 + len(g.edges))
    mats = random_matrices(sorted({e.label for e in g.edges}) or ["x"], n, rng, complex_=True)
    fast = trace_injective(g, mats)
    slow = naive_trace(g, mats, injective=True)
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


_FOUR_CYCLE_WITH_CHORD = TestGraph(4, (Edge(0, 1, "x"), Edge(1, 2, "x"), Edge(2, 3, "x"),
                                       Edge(3, 0, "x"), Edge(0, 2, "y")))


def test_four_cycle_with_chord_trace_matches_enumeration(rng):
    g = _FOUR_CYCLE_WITH_CHORD
    mats = random_matrices("xy", 8, rng, complex_=True, batch=(2,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = trace_test_graph(g, mats)
    assert np.allclose(got, naive_trace(g, mats))


def test_four_cycle_with_chord_rooted_matches_enumeration(rng):
    g = _FOUR_CYCLE_WITH_CHORD
    mats = random_matrices("xy", 5, rng)
    for v_in, v_out in ((0, 2), (1, 1), (1, 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eval_graph_matrix(GraphMonomial(g, v_in, v_out), mats)
        assert np.allclose(got, naive_graph_matrix(g, v_out, v_in, mats))


def test_batched_trace(rng):
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    batch = rng.standard_normal((3, 6, 6))
    out = trace_test_graph(g, {"x": batch})
    assert out.shape == (3,)
    for i in range(3):
        assert np.isclose(out[i], trace_test_graph(g, {"x": batch[i]}))


_TWO_PAD_STAR = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(0, 2, "x"), Edge(2, 0, "x")))


@pytest.mark.parametrize("entry", ["real", "complex", "haar"])
@pytest.mark.parametrize("kernel", ["pendant", "bridge", "general"])
def test_chunk_boundaries_do_not_change_bits(entry, kernel):
    # an estimate contracts its samples a task at a time: whole chunks, or one
    # sample each, so each sample's value must not depend on its neighbours
    T = {"pendant": _TWO_PAD_STAR, "bridge": directed_cycle(4), "general": _complete(4)}[kernel]
    wigner = BandProfile.parse("wigner")
    model = MatrixModel({"x": {
        "real": (wigner, EntrySpec.gaussian(1)),
        "complex": (wigner, EntrySpec.gaussian(0.6j)),
        "haar": "haar",
    }[entry]})
    n = 9
    stack = np.stack([model.sample(n, stream(3, i))["x"] for i in range(7)])
    for trace in (trace_test_graph, trace_injective):
        whole = trace(T, {"x": stack})
        for cuts in ([0, 1, 2, 3, 4, 5, 6, 7], [0, 3, 7]):
            parts = [trace(T, {"x": stack[a:b]}) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole)


def test_loop_edges_evaluate_on_the_diagonal(rng):
    g = TestGraph(1, (Edge(0, 0, "x"),))
    a = rng.standard_normal((5, 5))
    assert np.isclose(trace_test_graph(g, {"x": a}), np.trace(a))


@settings(max_examples=40)
@given(loopy_graphs(), st.integers(2, 4))
def test_batched_complex_trace_matches_enumeration(g, n):
    rng = np.random.default_rng(31 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2, 3))
    fast = trace_test_graph(g, mats)
    slow = naive_trace(g, mats)
    assert fast.shape == (2, 3)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


@settings(max_examples=25)
@given(dense_five_vertex_graphs(), st.integers(2, 3))
def test_general_steps_match_enumeration(g, n):
    rng = np.random.default_rng(7 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2,))
    fast = trace_test_graph(g, mats)
    assert np.allclose(fast, naive_trace(g, mats), rtol=1e-9, atol=1e-12)


@settings(max_examples=40)
@given(loopy_graphs(), st.integers(2, 3), st.data())
def test_eval_graph_matrix_matches_enumeration(g, n, data):
    v_out = data.draw(st.integers(0, g.n_vertices - 1))
    v_in = data.draw(st.sampled_from([v_out, data.draw(st.integers(0, g.n_vertices - 1))]))
    rng = np.random.default_rng(13 * n + len(g.edges))
    mats = random_matrices(_labels(g), n, rng, complex_=True, batch=(2,))
    fast = eval_graph_matrix(GraphMonomial(g, v_in, v_out), mats)
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
    assert np.allclose(trace_test_graph(g, mats), naive_trace(g, mats))


def _complete(k):
    return TestGraph(k, tuple(Edge(u, v, "x") for u, v in combinations(range(k), 2)))


def test_oversized_general_step_is_refused_before_allocating(rng):
    # K6 at n=200: the first step would need a 200^5 array (~5 TB complex)
    mats = {"x": rng.standard_normal((200, 200))}
    with pytest.raises(ValueError, match=r"degree-5 contraction step needs 320000000000 entries"):
        trace_test_graph(_complete(6), mats)
    with pytest.raises(ValueError, match="over the limit"):
        eval_graph_matrix(GraphMonomial(_complete(6), 0, 1), mats)


def test_size_check_counts_batch_and_degree(rng, monkeypatch):
    # K5 at n=3 over a batch of 2: its largest step is 2 * 3^4 = 162 entries
    g = _complete(5)
    mats = random_matrices("x", 3, rng, batch=(2,))
    want = naive_trace(g, mats)
    monkeypatch.setattr(engine, "DEFAULT_ENUM_LIMIT", 162)
    assert np.allclose(trace_test_graph(g, mats), want)
    monkeypatch.setattr(engine, "DEFAULT_ENUM_LIMIT", 161)
    with pytest.raises(ValueError, match="degree-4 contraction step needs 162 entries"):
        trace_test_graph(g, mats)


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


@pytest.mark.parametrize("samples", [30, 130])
def test_pooled_draws_are_thread_count_invariant(monkeypatch, samples):
    # every sample its own pool task, even at n=40
    monkeypatch.setattr(engine, "SAMPLE_TASK_ENTRIES", 0)
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    runs = [
        estimate_traffic_state(T, _wigner_model(), 40, samples, seed=5, injective=True,
                               threads=k)
        for k in (None, 1, 2, 4)
    ]
    assert len({(r.mean, r.stderr) for r in runs}) == 1


def test_large_two_label_draws_are_thread_count_invariant():
    # n=512 with two labels: every sample is its own pool task
    n, samples = 512, 6
    assert 2 * n * n >= engine.SAMPLE_TASK_ENTRIES
    model = MatrixModel({
        "x": (BandProfile.parse("proportional:1/2"), EntrySpec.gaussian(0.6j)),
        "y": "haar",
    })
    T = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(1, 2, "y"), Edge(2, 1, "y")))
    runs = [
        estimate_traffic_state(T, model, n, samples, seed=21, injective=True, threads=k)
        for k in (1, 2, 3)
    ]
    assert len({(r.mean, r.stderr) for r in runs}) == 1


def test_large_two_label_central_moments_are_thread_count_invariant():
    n, samples = 512, 6
    model = MatrixModel({
        "x": (BandProfile.parse("proportional:1/2"), EntrySpec.gaussian(0.6j)),
        "y": "haar",
    })
    T = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(1, 2, "y"), Edge(2, 1, "y")))
    runs = [
        central_moment_estimate(T, model, n, samples, 2, seed=21, injective=True, threads=k)
        for k in (1, 2, 3)
    ]
    assert len({(r.mean, r.stderr) for r in runs}) == 1


def test_a_failing_task_stops_the_rest(monkeypatch):
    n, samples, seed = 512, 64, 4
    assert n * n >= engine.SAMPLE_TASK_ENTRIES  # every sample is a task of its own
    real_sample = MatrixModel.sample
    calls = []

    def sample(self, n, rng, out=None):
        calls.append(rng)
        if rng.bit_generator.seed_seq.spawn_key == (2,):
            raise ValueError("draw 2 failed")
        return real_sample(self, n, rng, out=out)

    monkeypatch.setattr(MatrixModel, "sample", sample)
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    before = threading.active_count()
    with pytest.raises(ValueError, match="draw 2 failed"):
        estimate_traffic_state(T, _wigner_model(), n, samples, seed, threads=2)
    assert len(calls) < samples
    assert threading.active_count() == before


@pytest.mark.parametrize("injective", [False, True])
def test_oversized_contraction_is_refused_before_any_draw(monkeypatch, injective):
    calls = []
    monkeypatch.setattr(MatrixModel, "sample", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="contraction step needs"):
        estimate_traffic_state(_complete(6), _wigner_model(), 1000, 64, seed=0,
                               injective=injective)
    assert calls == []


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


@pytest.mark.parametrize("n", [50, 100])
def test_zero_stderr_z_forgives_rounding_only(n):
    # (1/n) tr X^2 with +-1 entries is the same at every draw, but the mean
    # of the samples need not be 1.0 to the last bit
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    model = MatrixModel({"x": (BandProfile.parse("wigner"), EntrySpec.rademacher())})
    est = estimate_traffic_state(T, model, n, 20, seed=3)
    assert est.stderr == 0 and abs(est.mean - 1) < 1e-15
    assert est.z(1) == 0.0
    assert est.z(2) == float("inf")


def test_central_moment_validates_order():
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    with pytest.raises(ValueError):
        central_moment_estimate(T, _wigner_model(), 10, 10, order=3, seed=0)


@pytest.mark.parametrize("threads", [0, -4])
def test_thread_count_below_one_is_refused(threads):
    T = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    with pytest.raises(ValueError, match="threads >= 1"):
        estimate_traffic_state(T, _wigner_model(), 10, 4, seed=0, threads=threads)


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
