"""Limiting moments of graph polynomials and the Markov family."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traffics import moments
from traffics.ensembles import BandProfile
from traffics.graphs import Edge, TestGraph, TrafficPolynomial, canonical_key, edge_monomial
from traffics.independence import free_cumulants, noncrossing_partitions
from traffics.limits import ltd_trace, rbm_ltd, wigner_ltd
from traffics.moments import (
    clt_alpha_split,
    eval_polynomial_matrix,
    gaussian_moment,
    markov_element,
    markov_moments,
    mixed_moment_ltd,
    parse_poly,
    poly_power,
    polynomial_trace_ltd,
    semicircle_moment,
    trace_closure,
    traffic_moment,
)

from oracles import (
    catalan_by_recurrence,
    double_factorial_odd,
    ltd_trace_reference,
    word_trace_terms,
)

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
    assert polynomial_trace_ltd(parse_poly("unit"), wigner_ltd) == 1
    assert polynomial_trace_ltd(parse_poly("3*unit - x"), wigner_ltd) == 3


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
    return polynomial_trace_ltd(poly_power(a, m), ltd)


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
