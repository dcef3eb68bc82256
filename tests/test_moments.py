"""Limiting moments of graph polynomials and the Markov family."""

import functools
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traffics import graphs, limits, moments
from traffics.ensembles import BandProfile, MatrixModel
from traffics.graphs import (
    Edge,
    GraphMonomial,
    TestGraph,
    TrafficPolynomial,
    canonical_key,
    edge_monomial,
    substitute_graph,
)
from traffics.independence import free_cumulants, noncrossing_partitions
from traffics.limits import can_pair, haar_ltd, ltd_trace, model_ltd, rbm_ltd, wigner_ltd
from traffics.moments import (
    clt_alpha_split,
    eval_polynomial_matrix,
    gaussian_moment,
    markov_element,
    markov_moments,
    mixed_moment_ltd,
    parse_poly,
    poly_power,
    semicircle_moment,
    trace_closure,
    traffic_moment,
)

from oracles import (
    catalan_by_recurrence,
    closed_sum_reference,
    cyclic_word_reference,
    double_factorial_odd,
    ltd_trace_reference,
    word_trace_terms,
)
from test_limits import PAD_COUNTING, wigner_model_ltd

CATALAN = catalan_by_recurrence(8)


def boxplus_moments(kappa_a, kappa_b, orders):
    """Moments of the free convolution: add cumulants, recompose over
    noncrossing partitions."""
    kappa = [a + b for a, b in zip(kappa_a, kappa_b)]
    out = []
    for m in orders:
        total = 0
        for pi in noncrossing_partitions(m):
            term = 1
            for block in pi:
                term *= kappa[len(block) - 1]
            total += term
        out.append(total)
    return out


def gaussian_free_cumulants(q, upto):
    moments = [gaussian_moment(k) * q**k for k in range(1, upto + 1)]
    return free_cumulants(moments)


# ---------------------------------------------------------------------------
# powers, closures and trace limits

def test_poly_power_expands():
    a = parse_poly("x + unit")
    sq = poly_power(a, 2)
    assert sorted(c for _, c in sq.terms) == [1, 1, 2]
    assert len(poly_power(a, 0).terms) == 1
    with pytest.raises(ValueError):
        poly_power(a, -1)


def test_trace_closure_shapes():
    loop = trace_closure(edge_monomial("x"))
    assert canonical_key(loop) == canonical_key(TestGraph(1, (Edge(0, 0, "x"),)))
    from traffics.graphs import eta

    two = trace_closure(eta("x y"))
    want = TestGraph(2, (Edge(1, 0, "x"), Edge(0, 1, "y")))
    assert canonical_key(two) == canonical_key(want)


def test_unit_polynomial_traces_to_one():
    assert traffic_moment(parse_poly("unit"), 1, wigner_ltd) == 1
    assert traffic_moment(parse_poly("3*unit - x"), 1, wigner_ltd) == 3


def test_wigner_moments_are_semicircle():
    for m in range(9):
        assert traffic_moment(edge_monomial("x"), m) == semicircle_moment(m)


def test_moment_order_guard():
    with pytest.raises(ValueError):
        traffic_moment(edge_monomial("x"), 13)
    with pytest.raises(ValueError):
        traffic_moment(edge_monomial("x"), -1)


def test_moment_reference_sequences():
    for k in range(5):
        assert semicircle_moment(2 * k) == CATALAN[k]
        assert semicircle_moment(2 * k + 1) == 0
        assert gaussian_moment(2 * k) == double_factorial_odd(k)
        assert gaussian_moment(2 * k + 1) == 0


# ---------------------------------------------------------------------------
# the Markov family

def test_markov_element_matches_grammar():
    a = markov_element(1, 1)
    b = parse_poly("x + 0.5*row(x) + 0.5*col(x)")
    for m in range(1, 5):
        assert traffic_moment(a, m) == traffic_moment(b, m)


def test_markov_frozen_moments():
    got = [markov_moments(1, 1, m) for m in range(7)]
    assert got == [1, 0, 2, 0, 9, 0, 56]
    assert all(isinstance(v, (int, Fraction)) for v in got)


def _markov_sums_match_the_reference(monkeypatch, orders):
    """Every quotient sum behind the Markov moments equals the canonical-form
    reference, value and type."""
    calls = []

    def checked(T, ltd_fn):
        got, want = ltd_trace(T, ltd_fn), ltd_trace_reference(T, ltd_fn)
        assert (got, type(got)) == (want, type(want)), T
        calls.append(T)
        return got

    monkeypatch.setattr(moments, "ltd_trace", checked)
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    for m in orders:
        traffic_moment(a, m)
    assert calls


def test_markov_quotient_sums_match_the_reference_to_order_8(monkeypatch):
    _markov_sums_match_the_reference(monkeypatch, range(1, 9))


@pytest.mark.slow
def test_markov_quotient_sums_match_the_reference_to_order_10(monkeypatch):
    _markov_sums_match_the_reference(monkeypatch, (9, 10))


def test_markov_edge_cases():
    # q = 0 leaves the semicircle, p = 0 the Gaussian degree part
    for k in range(1, 4):
        assert markov_moments(1, 0, 2 * k) == CATALAN[k]
        assert markov_moments(0, 1, 2 * k) == double_factorial_odd(k)
    assert markov_moments(Fraction(1, 2), 0, 2) == Fraction(1, 4)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([0, 1, Fraction(1, 2), Fraction(3, 2)]),
    st.sampled_from([0, 1, Fraction(1, 2), 2]),
)
def test_markov_matches_free_convolution(p, q):
    upto = 8
    kappa_sc = [0, p * p] + [0] * (upto - 2)
    kappa_n = gaussian_free_cumulants(q, upto)
    want = boxplus_moments(kappa_sc, kappa_n, range(1, upto + 1))
    got = [markov_moments(p, q, m) for m in range(1, upto + 1)]
    assert got == want


@pytest.mark.slow
@pytest.mark.parametrize("m, want", [(10, Fraction(32357631, 512)),
                                     (12, Fraction(796013139, 512))])
def test_markov_moments_at_orders_10_and_12_match_the_free_convolution(m, want):
    p, q = Fraction(1, 2), Fraction(3, 2)
    (oracle,) = boxplus_moments([0, p * p] + [0] * (m - 2), gaussian_free_cumulants(q, m), [m])
    _same(oracle, want)
    _same(markov_moments(p, q, m), want)


def test_clt_variance_split():
    assert clt_alpha_split(parse_poly("x")) == (1, 0)
    assert clt_alpha_split(markov_element(1, 1)) == (1, 1)
    assert clt_alpha_split(markov_element(Fraction(1, 2), Fraction(3, 2))) == (
        Fraction(1, 4),
        Fraction(9, 4),
    )


# ---------------------------------------------------------------------------
# words of polynomials

def test_word_trace_terms_build_a_cycle():
    ((coeff, g),) = word_trace_terms([edge_monomial("x"), edge_monomial("x")])
    assert coeff == 1
    assert canonical_key(g) == canonical_key(TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x"))))


def test_mixed_moments_of_single_letters():
    x, y = edge_monomial("x"), edge_monomial("y")
    assert mixed_moment_ltd([x, x]) == 1
    assert mixed_moment_ltd([x, y]) == 0
    assert mixed_moment_ltd([x, x, y, y]) == 1
    assert mixed_moment_ltd([x, y, x, y]) == 0
    for size in (0, 13):
        with pytest.raises(ValueError, match="word length"):
            mixed_moment_ltd([x] * size)


def test_mixed_moment_agrees_with_powers():
    a = markov_element(1, 1)
    assert mixed_moment_ltd([a] * 4) == traffic_moment(a, 4)


# ---------------------------------------------------------------------------
# cyclic-word sums against the power-then-close oracle

def _starred():
    x = TrafficPolynomial.wrap(edge_monomial("x"))
    return x + 2 * TrafficPolynomial.wrap(edge_monomial("x", star=True))


ORACLE_POLYS = {
    "markov": lambda: markov_element(Fraction(1, 2), Fraction(3, 2)),
    "two_labels": lambda: parse_poly("x + 1/2*row(y) - col(x)"),
    "starred": _starred,
    "unit": lambda: parse_poly("1/2*x + 3*unit - col(x)"),
    "cancelling": lambda: parse_poly("x*row(x) - row(x)*x"),
    "zero": lambda: parse_poly("x - x"),
}


def power_trace(a, m, ltd=wigner_ltd):
    terms = poly_power(a, m).terms
    return closed_sum_reference(((c, trace_closure(mono)) for mono, c in terms), ltd)


@pytest.mark.parametrize("name", sorted(ORACLE_POLYS))
def test_traffic_moment_matches_power_then_close(name):
    a = ORACLE_POLYS[name]()
    for m in range(7):
        got = traffic_moment(a, m)
        assert got == power_trace(a, m), (name, m)
        assert isinstance(got, (int, Fraction))


def test_cyclic_words_under_band_evaluators():
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    b = parse_poly("x + 1/2*row(y) - col(x)")
    regimes = {
        "x": BandProfile("proportional", c=Fraction(1, 2)),
        "y": BandProfile("slow", gamma=0.5),
    }
    ltd = lambda T: rbm_ltd(T, regimes)
    for poly in (a, b):
        for m in range(1, 6):
            got = traffic_moment(poly, m, ltd)
            assert got == power_trace(poly, m, ltd)
            assert isinstance(got, (int, Fraction))


def test_cyclic_words_with_complex_beta():
    ltd = lambda T: wigner_ltd(T, {"x": 0.5 + 0.5j, "y": 0.25j})
    for poly in (_starred(), parse_poly("x + 1/2*row(y) - col(x)")):
        for m in range(1, 6):
            got = traffic_moment(poly, m, ltd)
            assert abs(got - power_trace(poly, m, ltd)) < 1e-12


@pytest.mark.parametrize("word", ["xyxy", "abab", "baaa"])
def test_mixed_moment_matches_word_expansion(word):
    elements = {
        "x": edge_monomial("x"),
        "y": edge_monomial("y"),
        "a": markov_element(1, Fraction(1, 2)),
        "b": parse_poly("y + 2*row(y) - unit"),
    }
    seq = [elements[c] for c in word]
    want = sum(c * ltd_trace(g, wigner_ltd) for c, g in word_trace_terms(seq))
    assert mixed_moment_ltd(seq) == want


def test_periodic_words_count_their_true_class_size():
    # (x + s*unit)^m holds periodic words such as (x, u, x, u); each class
    # weighs m/period words, so the sum is the binomial mix of semicircle
    # moments
    for shift in (1, 2):
        a = parse_poly(f"x + {shift}*unit")
        for m in range(1, 9):
            want = sum(
                comb(m, k) * shift ** (m - k) * semicircle_moment(k)
                for k in range(m + 1)
            )
            assert traffic_moment(a, m) == want


# ---------------------------------------------------------------------------
# pruned sums against the unpruned reference

def _same(got, want):
    assert (got, type(got)) == (want, type(want))


BAND_REGIMES = {
    "x": BandProfile("proportional", c=Fraction(1, 2)),
    "y": BandProfile("slow", gamma=0.5),
}
PRUNING_EVALUATORS = {
    "wigner": wigner_ltd,
    "complex_beta": lambda T: wigner_ltd(T, {"x": 0.6j, "y": 0.3 + 0.4j}),
    "band": lambda T: rbm_ltd(T, BAND_REGIMES),
}


@pytest.mark.parametrize("name", sorted(PAD_COUNTING))
def test_pad_counting_moments_match_the_quotient_graph_sums(name):
    ltd = PAD_COUNTING[name]
    assert ltd.congruent_weight is not None

    def graph_path(T):  # declares nothing, so every scan builds its quotients
        return ltd(T)

    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    _same(traffic_moment(a, 0, ltd), ltd_trace_reference(TestGraph(1), ltd))
    for m in range(1, 9):
        _same(traffic_moment(a, m, ltd), cyclic_word_reference([a] * m, graph_path))
    word = [a, markov_element(1, Fraction(1, 2), "y")] * 4
    for m in range(2, 9, 2):
        _same(mixed_moment_ltd(word[:m], ltd), cyclic_word_reference(word[:m], graph_path))
    b = parse_poly("x*y + y*x")
    for m in range(1, 5):
        _same(mixed_moment_ltd([b] * m, ltd), cyclic_word_reference([b] * m, graph_path))


@pytest.mark.parametrize("beta, want", [
    (0.5, ["88.691650390625", "1045.9203033447266"]),
    (0.6j, ["(29.134765625+0j)", "(229.34594726562497+5.1757670415167324e-15j)"]),
], ids=["float", "complex"])
def test_inexact_betas_keep_their_bits(beta, want):
    # frozen from the quotient-graph sums these evaluators still take
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    ltd = wigner_model_ltd({"x": beta})
    assert ltd.congruent_weight is None
    assert [repr(traffic_moment(a, m, ltd)) for m in (6, 8)] == want


def test_pad_counting_builds_no_quotient_graph(monkeypatch):
    calls: Counter = Counter()
    scanning = []

    def scan(T, ltd_fn):
        scanning.append(T)
        try:
            return ltd_trace(T, ltd_fn)
        finally:
            scanning.pop()

    def counted(name, fn):
        def during_scans(*args):
            if scanning:
                calls[name] += 1
            return fn(*args)
        return during_scans

    monkeypatch.setattr(moments, "ltd_trace", scan)
    monkeypatch.setattr(TestGraph, "__post_init__", counted("graph", TestGraph.__post_init__))
    for name in ("double_tree_code", "classify_double_tree"):
        monkeypatch.setattr(limits, name, counted(name, getattr(limits, name)))
    @functools.wraps(wigner_ltd)  # copies the declaration, as a tracing wrapper does
    def wrapped(T):
        return wigner_ltd(T)

    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    want = Fraction(1597, 8)
    for ltd in (None, wigner_model_ltd({"x": 1}), wrapped):
        _same(traffic_moment(a, 6, ltd), want)
    assert calls == Counter()
    # a plain lambda declares nothing: the same value from quotient graphs
    _same(traffic_moment(a, 6, lambda T: wigner_ltd(T)), want)
    assert calls["graph"] and calls["double_tree_code"] and calls["classify_double_tree"]


def test_moment_sums_refuse_limits_off_the_double_trees():
    fixed = model_ltd(MatrixModel({"x": BandProfile.parse("fixed:1")}))
    message = ("moment sums scan double-tree quotients only, so every label "
               "needs a band regime other than fixed")
    for ltd in (haar_ltd, fixed):
        # odd orders too, though every word of them is dropped unscanned
        for m in (0, 3, 4):
            with pytest.raises(ValueError) as err:
                traffic_moment("x", m, ltd)
            assert str(err.value) == message
            if m:
                with pytest.raises(ValueError) as err:
                    mixed_moment_ltd(["x"] * m, ltd)
                assert str(err.value) == message


def test_pruned_markov_moments_match_the_unpruned_sums():
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    _same(traffic_moment(a, 0), ltd_trace(TestGraph(1), wigner_ltd))
    for m in range(1, 9):
        _same(traffic_moment(a, m), cyclic_word_reference([a] * m, wigner_ltd))


@pytest.mark.parametrize("kind", [float, complex])
def test_inexact_coefficients_agree_with_the_exact_moment(kind):
    # classes of one multiset of terms share one coefficient product, taken
    # in sorted order, so inexact coefficients may leave the exact value in
    # their last bits, but give the same bits on every call
    exact = parse_poly("1/10*x + 1/5*row(x) + 3/10*col(x)")
    a = TrafficPolynomial(tuple((t, kind(c)) for t, c in exact.terms))
    want = traffic_moment(exact, 8)
    assert type(want) is Fraction
    got = traffic_moment(a, 8)
    assert type(got) is kind
    assert abs(got - want) <= 1e-12 * abs(want)
    assert repr(traffic_moment(a, 8)) == repr(got)


@pytest.mark.parametrize("name", sorted(PRUNING_EVALUATORS))
def test_pruned_mixed_moments_match_the_unpruned_sums(name):
    ltd = PRUNING_EVALUATORS[name]
    a = parse_poly("x*y + y*x")
    for m in range(1, 6):
        _same(mixed_moment_ltd([a] * m, ltd), cyclic_word_reference([a] * m, ltd))
    word = [a, parse_poly("x + 1/2*row(y)"), a, parse_poly("y - col(x) + 2*unit")]
    _same(mixed_moment_ltd(word, ltd), cyclic_word_reference(word, ltd))


@pytest.mark.parametrize("name", sorted(PRUNING_EVALUATORS))
def test_pruned_clt_split_and_traces_match_the_unpruned_sums(name):
    ltd = PRUNING_EVALUATORS[name]
    double_edge = TestGraph(2, (Edge(0, 1, "slot0"), Edge(1, 0, "slot0")))
    double_loop = TestGraph(1, (Edge(0, 0, "slot0"), Edge(0, 0, "slot0")))
    polys = [markov_element(Fraction(1, 2), Fraction(3, 2)), parse_poly("x*y + y*x"),
             parse_poly("x + 1/2*row(y) - col(x)"), _starred()]
    for a in polys:
        loops = closed_sum_reference(substitute_graph(double_loop, {"slot0": a}), ltd)
        edges = closed_sum_reference(substitute_graph(double_edge, {"slot0": a}), ltd)
        got = clt_alpha_split(a, ltd)
        _same(got[0], edges - loops)
        _same(got[1], loops)


def test_clt_split_runs_no_canonical_search(monkeypatch):
    calls = []
    key = moments.canonical_key
    monkeypatch.setattr(moments, "canonical_key", lambda g: calls.append(g) or key(g))
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    for ltd in PRUNING_EVALUATORS.values():
        clt_alpha_split(a, ltd)
    assert calls == []


def test_odd_markov_orders_build_no_graph(monkeypatch):
    calls = Counter()

    def counted(name):
        fn = getattr(moments, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(moments, name, wrapper)

    counted("canonical_key")
    counted("substitute_graph")
    graphs.canonical_key.cache_clear()
    graphs.canonical_form.cache_clear()
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    keys = 0
    for k in range(1, 8):
        calls.clear()
        got = traffic_moment(a, k)
        keys += calls["canonical_key"]
        if k % 2:
            assert not calls, k
            _same(got, Fraction(0))
    # classes are keyed by their cyclic words, not by canonical search
    assert keys == 0


@pytest.mark.parametrize("k", range(5))
def test_necklaces_are_the_rotation_classes_in_order(k):
    for m in range(1, 9):
        classes = Counter(
            min(w[i:] + w[:i] for i in range(m)) for w in product(range(k), repeat=m)
        )
        necklaces = list(moments._necklaces(k, m))
        assert necklaces == list(classes.items()), (k, m)
        for word, period in necklaces:
            assert word[period:] + word[:period] == word


def test_the_zero_polynomial_has_zero_moments():
    for m in range(1, 9):
        _same(markov_moments(0, 0, m), 0)


def _keyed_graphs(run):
    """(key, closed graph) of every word class a moment sum keys, taken
    from the terms that reach _closed_sum."""
    seen = []

    def capture(terms, ltd_fn, order):
        for _, key, close in terms:
            if key is not None:
                seen.append((key, close()))
        return 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_closed_sum", capture)
        run()
    return seen


def _key_poly(picks):
    pool = [
        TrafficPolynomial.wrap(edge_monomial("x")),
        TrafficPolynomial.wrap(edge_monomial("x", star=True)),
        TrafficPolynomial.wrap(edge_monomial("y")),
        parse_poly("row(x)"),
        parse_poly("col(y)"),
        parse_poly("unit"),
        parse_poly("x*y"),
        parse_poly("row(x)*col(y)"),
        TrafficPolynomial.wrap(GraphMonomial(TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "y"))), 0, 0)),
    ]
    return sum((c * pool[i] for i, c in picks.items()), TrafficPolynomial.from_terms(()))


_POLY_PICKS = st.dictionaries(st.integers(0, 8), st.integers(1, 3), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(_POLY_PICKS, min_size=1, max_size=3), st.integers(1, 6), st.randoms())
def test_equal_word_keys_close_into_isomorphic_graphs(picks, m, rnd):
    polys = [_key_poly(p) for p in picks]
    word = [rnd.choice(polys) for _ in range(m)]
    for run in (lambda: traffic_moment(polys[0], m), lambda: mixed_moment_ltd(word)):
        by_key = {}
        for key, g in _keyed_graphs(run):
            by_key.setdefault(key, set()).add(canonical_key(g))
        assert all(len(forms) == 1 for forms in by_key.values())


def test_markov_word_keys_merge_what_canonical_keys_merge(monkeypatch):
    # one ltd_trace per isomorphism class of closed graphs that can pair
    a = markov_element(Fraction(1, 2), Fraction(3, 2))
    scans = []
    trace = moments.ltd_trace

    def counted(T, ltd_fn):
        scans.append(T)
        return trace(T, ltd_fn)

    for m in range(1, 9):
        classes = {canonical_key(g) for _, g in _keyed_graphs(lambda: traffic_moment(a, m))
                   if can_pair(g)}
        with monkeypatch.context() as mp:
            mp.setattr(moments, "ltd_trace", counted)
            scans.clear()
            traffic_moment(a, m)
        assert len(scans) == len(classes), m


def test_moment_sums_name_the_order_of_a_graph_too_large():
    cube = parse_poly("x*x*x")
    with pytest.raises(ValueError, match="order 6 has a closed graph of 18 vertices"):
        traffic_moment(cube, 6)
    # an odd edge count drops every graph before the size check
    _same(traffic_moment(cube, 7), 0)


# ---------------------------------------------------------------------------
# the experiment grammar

def test_parse_poly_accepts_the_grammar():
    cases = {
        "x": 1,
        "2*x": 1,
        "0.5*row(x)": 1,
        "3/2*col(y)": 1,
        "unit": 1,
        "x - y + 1": 3,
        "-x": 1,
        "x*y": 1,
        "2*x*y + col(x)": 2,
    }
    for text, n_terms in cases.items():
        assert len(parse_poly(text).terms) == n_terms, text


def test_parse_poly_exact_coefficients():
    (pair,) = parse_poly("0.5*x").terms
    assert pair[1] == Fraction(1, 2)
    (pair,) = parse_poly("3/2*x").terms
    assert pair[1] == Fraction(3, 2)


def test_parse_poly_rejects_bad_input():
    for text in ("", "x +", "2**x", "x^2", "row(", "row(x", "(x+y)", "x )"):
        with pytest.raises(ValueError):
            parse_poly(text)


def test_cancellation_drops_terms():
    assert parse_poly("x - x").terms == ()


def test_eval_polynomial_matrix(rng):
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    mats = {"x": a, "y": b}
    got = eval_polynomial_matrix("2*x + unit", mats)
    assert np.allclose(got, 2 * a + np.eye(6))
    assert np.allclose(eval_polynomial_matrix("x*y", mats), a @ b)
    row = eval_polynomial_matrix("row(x)", mats)
    assert np.allclose(row, np.diag(a.sum(axis=1)))
    with pytest.raises(ValueError):
        eval_polynomial_matrix("x - x", mats)
