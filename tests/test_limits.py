"""Limiting injective distributions: double trees, exact cut integrals,
band regimes, fixed band widths and the orthogonal cactus rule."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traffics import limits
from traffics.ensembles import BandProfile, EntrySpec, MatrixModel
from traffics.graphs import Edge, TestGraph, canonical_key, directed_cycle, quotient
from traffics.independence import _corpus_candidates, build_double_tree_corpus, witness_graphs
from traffics.limits import (
    _horner,
    _taylor_shift,
    _window,
    catalan,
    classify_double_tree,
    classify_orthogonal_cactus,
    cut_integral,
    cut_probability,
    double_tree_code,
    double_tree_quotients,
    fixed_band_count,
    fixed_band_density,
    fixed_band_ltd,
    forest_transform,
    haar_ltd,
    ltd_trace,
    model_ltd,
    model_support,
    norm_factor,
    rbm_ltd,
    regime_role,
    wigner_ltd,
)
from traffics.partitions import enumerate_partitions

from oracles import (
    PiecewisePoly,
    cut_integral_reference,
    degree_moment,
    double_factorial_odd,
    haar_estimator_mean,
    haar_tau0_exact,
    ltd_trace_reference,
    mc_cut_volume,
    naive_trace_sum,
    pS,
    pT_star,
)


def pad2(orientation="opposing", label="x"):
    second = Edge(1, 0, label) if orientation == "opposing" else Edge(0, 1, label)
    return TestGraph(2, (Edge(0, 1, label), second))


def double_star(labels=("x", "x"), orientations=None):
    """Pads from vertex 0 to 1..k, doubled per the requested orientations."""
    if orientations is None:
        orientations = ("opposing",) * len(labels)
    edges = []
    for i, (lab, ori) in enumerate(zip(labels, orientations, strict=True), start=1):
        edges.append(Edge(0, i, lab))
        edges.append(Edge(i, 0, lab) if ori == "opposing" else Edge(0, i, lab))
    return TestGraph(len(labels) + 1, tuple(edges))


def anti_cycle(m, label="x"):
    """Even cycle whose edges alternate direction around the cycle."""
    assert m % 2 == 0
    edges = []
    for i in range(m):
        u, v = i, (i + 1) % m
        edges.append(Edge(u, v, label) if i % 2 == 0 else Edge(v, u, label))
    return TestGraph(m, tuple(edges))


def tree_doubles(draw_edges):
    """TestGraph from (u, v, label, congruent) pad descriptions."""
    n = 1 + max(max(u, v) for u, v, _, _ in draw_edges)
    edges = []
    for u, v, lab, congruent in draw_edges:
        edges.append(Edge(u, v, lab))
        edges.append(Edge(u, v, lab) if congruent else Edge(v, u, lab))
    return TestGraph(n, tuple(edges))


@st.composite
def random_double_trees(draw, max_pads=4, labels="xy"):
    k = draw(st.integers(1, max_pads))
    pads = []
    for v in range(1, k + 1):
        u = draw(st.integers(0, v - 1))
        lab = draw(st.sampled_from(labels))
        pads.append((u, v, lab, draw(st.booleans())))
    return tree_doubles(pads)


# ---------------------------------------------------------------------------
# double tree classification

def test_pad_orientations():
    rep = classify_double_tree(pad2("opposing"))
    assert rep.is_double_tree and rep.pads[0].orientation == "opposing"
    rep = classify_double_tree(pad2("congruent"))
    assert rep.is_double_tree and rep.pads[0].orientation == "congruent"


def test_star_edges_resolve_to_plain_edges():
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(0, 1, "x", star=True)))
    rep = classify_double_tree(g)
    assert rep.is_double_tree and rep.pads[0].orientation == "congruent"


def test_rejections_carry_reasons():
    def reason(n, *edges):
        return classify_double_tree(TestGraph(n, tuple(Edge(*e) for e in edges))).reason

    assert reason(1, (0, 0, "x")) == "loop at vertex 0"
    assert classify_double_tree(directed_cycle(3)).reason == "class {0,1} has 1 edges"
    assert reason(2, *[(0, 1, "x")] * 3) == "class {0,1} has 3 edges"
    assert reason(2, (0, 1, "x"), (1, 0, "y")) == "class {0,1} mixes labels 'x', 'y'"
    doubled_cycle = [(i, (i + 1) % 3, "x") for i in range(3) for _ in range(2)]
    assert reason(3, *doubled_cycle) == "skeleton has a cycle"
    # classes are checked in sorted endpoint order, not in edge order
    assert reason(
        3, (1, 2, "x"), (0, 2, "x"), (1, 2, "x"), (0, 1, "x"), (0, 1, "y")
    ) == "class {0,1} mixes labels 'x', 'y'"


@st.composite
def random_small_graphs(draw, max_vertices=5):
    """Connected graphs with loops, stars and parallel edges."""
    n = draw(st.integers(1, max_vertices))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges = []
    for u, v in ends:
        for _ in range(draw(st.integers(1, 3))):
            s, t = draw(st.permutations((u, v)))
            edges.append(Edge(s, t, draw(st.sampled_from("xy")), draw(st.booleans())))
    return TestGraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=200, deadline=None)
@given(random_small_graphs())
def test_double_tree_code_is_none_exactly_when_classification_refuses(g):
    assert (double_tree_code(g) is None) == (not classify_double_tree(g).is_double_tree)


@settings(max_examples=40)
@given(random_double_trees())
def test_doubled_trees_classify_positive(g):
    rep = classify_double_tree(g)
    assert rep.is_double_tree
    assert len(rep.pads) == g.n_vertices - 1


# ---------------------------------------------------------------------------
# Wigner limits

def test_wigner_pad_values():
    assert wigner_ltd(pad2("opposing")) == 1
    assert wigner_ltd(pad2("opposing"), 5) == 1
    assert wigner_ltd(pad2("congruent")) == 1
    assert wigner_ltd(pad2("congruent"), Fraction(1, 2)) == Fraction(1, 2)
    two = tree_doubles([(0, 1, "x", True), (1, 2, "x", True)])
    assert wigner_ltd(two, 3) == 9
    assert wigner_ltd(directed_cycle(3)) == 0


def test_wigner_beta_mapping():
    g = tree_doubles([(0, 1, "x", True), (1, 2, "y", True)])
    assert wigner_ltd(g, {"x": 2, "y": Fraction(1, 3)}) == Fraction(2, 3)


def test_complex_beta_single_pad_averages_to_real_part():
    assert wigner_ltd(pad2("congruent"), 1j) == pytest.approx(0)
    assert wigner_ltd(pad2("congruent"), 0.6 + 0.8j) == pytest.approx(0.6)
    # opposing pads never see the pseudo-variance
    assert wigner_ltd(pad2("opposing"), 1j) == pytest.approx(1)


def test_complex_beta_congruent_path():
    g = tree_doubles([(0, 1, "x", True), (1, 2, "x", True)])
    assert wigner_ltd(g, 1j) == pytest.approx(Fraction(1, 3))


def brute_ordering_value(g, betas):
    """Average the pad weights over every total order of all vertices."""
    rep = classify_double_tree(g)
    assert rep.is_double_tree
    total = 0
    verts = range(g.n_vertices)
    for order in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(order)}
        w = 1
        for pad in rep.pads:
            if pad.orientation != "congruent":
                continue
            beta = complex(betas[pad.label]) if isinstance(betas, dict) else complex(betas)
            w *= beta if pos[pad.tar] > pos[pad.src] else beta.conjugate()
        total += w
    return total / math.factorial(g.n_vertices)


@settings(max_examples=25, deadline=None)
@given(random_double_trees(max_pads=4), st.sampled_from([1j, 0.5 + 0.5j, 0.3 - 0.9j]))
def test_ordering_sum_matches_global_enumeration(g, beta):
    got = complex(wigner_ltd(g, beta))
    want = brute_ordering_value(g, beta)
    assert got == pytest.approx(want, abs=1e-12)


def test_ordering_component_cap():
    chain = tree_doubles([(i, i + 1, "x", True) for i in range(11)])
    with pytest.raises(ValueError):
        wigner_ltd(chain, 1j)


@settings(max_examples=40, deadline=None)
@given(random_double_trees(max_pads=4), st.sampled_from([1, 0, Fraction(1, 2), -1, 0.3]),
       st.sampled_from([1, Fraction(-2, 3), 0.7]))
def test_rbm_under_wigner_regimes_is_wigner_ltd(g, bx, by):
    betas = {"x": bx, "y": by}
    wigner = {lab: BandProfile("wigner") for lab in "xy"}
    got, want = rbm_ltd(g, wigner, betas), wigner_ltd(g, betas)
    assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# piecewise polynomials and cut integrals (PiecewisePoly is the Fraction
# oracle; the integer kernel behind cut_integral is checked against it)

def test_piecewise_unit():
    one = PiecewisePoly.one()
    assert one.integral() == 1
    assert one(Fraction(1, 3)) == 1


def test_window_of_unit_is_overlap_length():
    f = PiecewisePoly.one().window(Fraction(1, 2))
    assert f(Fraction(1, 2)) == 1
    assert f(Fraction(0)) == Fraction(1, 2)
    assert f(Fraction(9, 10)) == Fraction(3, 5)
    assert f.integral() == Fraction(3, 4)


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=Fraction(1, 100), max_value=1),
)
def test_window_pointwise(x, c):
    f = PiecewisePoly.one().window(c)
    assert f(x) == min(x + c, Fraction(1)) - max(x - c, Fraction(0))


@given(st.fractions(min_value=0, max_value=1))
def test_piecewise_algebra_pointwise(x):
    f = PiecewisePoly.one().window(Fraction(1, 3))
    g = PiecewisePoly.one().window(Fraction(2, 3))
    assert (f + g)(x) == f(x) + g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert (f - g)(x) == f(x) - g(x)


def test_antiderivative_recovers_integral():
    f = PiecewisePoly.one().window(Fraction(1, 4))
    F = f.antiderivative()
    assert F(Fraction(0)) == 0
    assert F(Fraction(1)) == f.integral()


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.integers(-30, 30),
       st.integers(-30, 30))
def test_taylor_shift_is_a_translate(p, s, y):
    assert _horner(_taylor_shift(p, s), y) == _horner(p, y + s)


@given(st.integers(1, 40), st.data())
def test_integer_window_of_unit_is_overlap_length(D, data):
    C = data.draw(st.integers(1, D))
    y = data.draw(st.integers(0, D))
    breaks, pieces, den = _window(([0, D], [[1]], 1), C, D)
    assert breaks[0] == 0 and breaks[-1] == D and den == 1
    for lo, hi, p in zip(breaks, breaks[1:], pieces):
        if lo <= y <= hi:
            assert _horner(p, y) == min(y + C, D) - max(y - C, 0)


def test_cut_integral_matches_the_oracle_on_the_max_pads_4_corpus():
    # each label draws c = 1, the float 0.3 or a rational with a denominator
    # up to 10^6, so the grid D runs from 1 to about 2^54 * 10^12
    rng = random.Random(14)

    def proportion():
        kind = rng.randrange(3)
        if kind == 0:
            return 1
        if kind == 1:
            return 0.3
        q = rng.randint(1, 10**6)
        return Fraction(rng.randint(1, q), q)

    corpus = [g for g in build_double_tree_corpus(4, ("x", "y"))
              if classify_double_tree(g).is_double_tree]
    assert len(corpus) > 1000
    for g in corpus:
        props = {"x": proportion(), "y": proportion()}
        got, want = cut_integral(g, props), cut_integral_reference(g, props)
        assert type(got) is Fraction and type(want) is Fraction
        assert got == want, (g, props)


def test_single_pad_volume():
    for c in (Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        assert cut_integral(pad2(), c) == 2 * c - c * c
        assert cut_probability(pad2(), c) == 1


@given(st.fractions(min_value=Fraction(1, 20), max_value=1))
def test_star_cut_matches_closed_form(c):
    star = double_star(("x", "x"))
    assert cut_probability(star, c) == pT_star(c)


@given(
    st.fractions(min_value=Fraction(1, 20), max_value=1),
    st.fractions(min_value=Fraction(1, 20), max_value=1),
)
def test_two_label_star_matches_closed_form(ci, cj):
    star = double_star(("x", "y"))
    got = cut_probability(star, {"x": ci, "y": cj})
    assert got == pS(ci, cj)


def test_frozen_cut_values():
    assert pT_star(Fraction(1, 2)) == Fraction(28, 27)
    assert pS(Fraction(1, 4), Fraction(1, 2)) == Fraction(65, 63)
    assert pS(Fraction(1, 2), Fraction(1, 4)) == Fraction(65, 63)


def test_closed_form_branch_continuity():
    eps = Fraction(1, 10**9)
    a = pT_star(Fraction(1, 2) - eps)
    b = pT_star(Fraction(1, 2) + eps)
    assert abs(a - b) < Fraction(1, 10**7)
    a = pS(Fraction(1, 2) - eps, Fraction(1, 2))
    b = pS(Fraction(1, 2) + eps, Fraction(1, 2))
    assert abs(a - b) < Fraction(1, 10**7)


@given(st.fractions(min_value=Fraction(1, 20), max_value=1))
def test_same_label_star_is_the_diagonal_of_the_two_label_form(c):
    assert pT_star(c) == pS(c, c)


def test_cut_integral_against_monte_carlo():
    star3 = double_star(("x", "x", "x"))
    path4 = tree_doubles([(0, 1, "x", False), (1, 2, "x", False), (2, 3, "x", False)])
    for g in (star3, path4):
        exact = float(cut_integral(g, Fraction(1, 2)))
        mc = mc_cut_volume(g, {"x": 0.5}, 2_000_000, seed=7)
        assert abs(exact - mc) < 3e-3


@settings(max_examples=20)
@given(random_double_trees(max_pads=4))
def test_full_width_probability_is_one(g):
    assert cut_probability(g, Fraction(1)) == 1


def test_cut_argument_validation():
    with pytest.raises(ValueError):
        cut_integral(directed_cycle(3), Fraction(1, 2))
    with pytest.raises(ValueError):
        cut_integral(pad2(), Fraction(0))
    with pytest.raises(ValueError):
        cut_integral(pad2(), Fraction(3, 2))
    with pytest.raises(ValueError):
        cut_integral(pad2(), {"y": Fraction(1, 2)})
    with pytest.raises(ValueError, match="exact proportion"):
        cut_integral(pad2(), 0.5j)


# ---------------------------------------------------------------------------
# degree moments

def test_degree_moment_values():
    assert degree_moment(0, Fraction(1, 2)) == 1
    assert degree_moment(1, Fraction(1, 2)) == 0
    assert degree_moment(2, Fraction(1, 2)) == 1
    assert degree_moment(3, Fraction(1, 2)) == 0
    assert degree_moment(4, Fraction(1, 2)) == Fraction(28, 9)
    assert degree_moment(4, 1) == 3


def test_degree_moment_gaussian_at_full_width():
    for ell in range(1, 5):
        assert degree_moment(2 * ell, 1) == double_factorial_odd(ell)


@given(
    st.integers(1, 4),
    st.fractions(min_value=Fraction(1, 10), max_value=1),
)
def test_degree_moment_matches_window_integral(ell, c):
    # the limit law mixes centered Gaussians whose variance is the local
    # band mass w(u) / (2c - c^2); even moments integrate w(u)^ell over u
    us = np.linspace(0.0, 1.0, 200_001)
    w = np.minimum(us + float(c), 1.0) - np.maximum(us - float(c), 0.0)
    integral = float(np.trapezoid(w**ell, us))
    want = double_factorial_odd(ell) * integral / float(2 * c - c * c) ** ell
    assert float(degree_moment(2 * ell, c)) == pytest.approx(want, rel=1e-6)


# ---------------------------------------------------------------------------
# band regimes and the forest transform

def test_regime_roles():
    assert regime_role(BandProfile.parse("slow:1/2")) == "contract"
    assert regime_role(BandProfile.parse("periodic-slow:1/2")) == "contract"
    assert regime_role(BandProfile.parse("wigner")) == "delete"
    assert regime_role(BandProfile.parse("full")) == "delete"
    assert regime_role(BandProfile.parse("periodic-prop:1/2")) == "delete"
    assert regime_role(BandProfile.parse("proportional:1/2")) == "keep"
    with pytest.raises(ValueError):
        regime_role(BandProfile.parse("fixed:3"))


def test_forest_transform_contracts_and_deletes():
    def pad(lab):
        return TestGraph(2, (Edge(0, 1, lab), Edge(1, 0, lab)))

    star = double_star(("a", "b"))
    regimes = {"a": BandProfile.parse("slow:1/2"), "b": BandProfile.parse("proportional:1/2")}
    assert forest_transform(star, regimes) == (pad("b"),)

    regimes = {"a": BandProfile.parse("wigner"), "b": BandProfile.parse("proportional:1/2")}
    assert forest_transform(star, regimes) == (pad("b"), TestGraph(1))

    path = witness_graphs()["three_pad_path"]
    regimes = {"x": BandProfile.parse("proportional:1/2"), "y": BandProfile.parse("slow:0.5")}
    two_pad_path = TestGraph(3, (
        Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(1, 2, "x"), Edge(2, 1, "x"),
    ))
    assert forest_transform(path, regimes) == (two_pad_path,)


def test_rbm_ltd_classifies_its_graph_once(monkeypatch):
    path = witness_graphs()["three_pad_path"]
    regimes = {"x": BandProfile.parse("proportional:1/2"), "y": BandProfile.parse("slow:0.5")}
    args = []
    classify = limits.classify_double_tree

    def counted(T):
        args.append(T)
        return classify(T)

    monkeypatch.setattr(limits, "classify_double_tree", counted)
    assert rbm_ltd(path, regimes) == Fraction(28, 27)
    assert sum(T is path for T in args) == 1
    # the wrapper also sees the calls made inside limits, here on the forest's component
    assert len(args) > 1


def test_rbm_ltd_classifies_each_kept_component_once(monkeypatch):
    # two two-pad paths of x joined by a full-width pad of w, which the
    # forest transform deletes
    g = TestGraph(6, tuple(
        e for u, lab in ((0, "x"), (1, "x"), (2, "w"), (3, "x"), (4, "x"))
        for e in (Edge(u, u + 1, lab), Edge(u + 1, u, lab))
    ))
    regimes = {"x": BandProfile.parse("proportional:1/2"), "w": BandProfile.parse("wigner")}
    kept = [comp for comp in forest_transform(g, regimes) if comp.n_edges]
    assert len(kept) == 2
    calls = []
    classify = limits.classify_double_tree

    def counted(T):
        calls.append(T)
        return classify(T)

    monkeypatch.setattr(limits, "classify_double_tree", counted)
    assert rbm_ltd(g, regimes) == Fraction(28, 27) ** 2
    assert len(calls) == 1 + len(kept)
    assert calls[1:] == kept


def test_rbm_ltd_reduces_to_cut_probabilities():
    star = double_star(("x", "y"))
    regimes = {
        "x": BandProfile.parse("proportional:1/4"),
        "y": BandProfile.parse("proportional:1/2"),
    }
    assert rbm_ltd(star, regimes) == Fraction(65, 63)

    same = double_star(("x", "x"))
    assert rbm_ltd(same, {"x": BandProfile.parse("proportional:1/2")}) == Fraction(28, 27)


def test_rbm_ltd_mixed_regimes():
    star = double_star(("a", "b"))
    regimes = {"a": BandProfile.parse("wigner"), "b": BandProfile.parse("proportional:1/2")}
    # deleting the wigner pad leaves a lone pad, whose cut probability is 1
    assert rbm_ltd(star, regimes) == 1
    regimes["a"] = BandProfile.parse("slow:1/2")
    assert rbm_ltd(star, regimes) == 1


def test_rbm_ltd_congruent_pads_carry_beta():
    g = double_star(("x", "x"), orientations=("congruent", "congruent"))
    regimes = {"x": BandProfile.parse("proportional:1/2")}
    assert rbm_ltd(g, regimes, 2) == 4 * Fraction(28, 27)


def test_rbm_ltd_off_support_and_validation():
    assert rbm_ltd(directed_cycle(3), {"x": BandProfile.parse("proportional:1/2")}) == 0
    with pytest.raises(ValueError):
        rbm_ltd(pad2(), {"x": BandProfile.parse("proportional:1/2")}, 1j)


# ---------------------------------------------------------------------------
# fixed band widths

def brute_band_count(g, bands, n):
    total = 0
    for phi in itertools.permutations(range(n), g.n_vertices):
        if all(abs(phi[e.src] - phi[e.tar]) <= bands[e.label] for e in g.edges):
            total += 1
    return total


def test_fixed_band_count_matches_brute_force():
    cases = [
        (pad2(), {"x": 2}),
        (tree_doubles([(0, 1, "x", True), (1, 2, "y", False)]), {"x": 1, "y": 2}),
        (directed_cycle(3), {"x": 1}),
        (TestGraph(3, (Edge(0, 1, "x"), Edge(1, 2, "x"), Edge(2, 0, "x"), Edge(0, 1, "x"))), {"x": 2}),
    ]
    for g, bands in cases:
        for n in (4, 7, 9):
            assert fixed_band_count(g, bands, n) == brute_band_count(g, bands, n)


@given(st.integers(1, 4), st.integers(5, 40))
def test_two_vertex_count_closed_form(b, n):
    assert fixed_band_count(pad2(), {"x": b}, n) == 2 * b * n - b * (b + 1)


def test_counts_are_superadditive():
    g = tree_doubles([(0, 1, "x", False), (1, 2, "x", False)])
    bands = {"x": 2}
    a = {n: fixed_band_count(g, bands, n) for n in range(3, 25)}
    for m in range(3, 12):
        for n in range(3, 12):
            assert a[m + n] >= a[m] + a[n]


def test_fekete_report():
    # a_n / n rises to the exact density: a_n = C n - 6 with C = 2b = 4
    C = fixed_band_density(pad2(), {"x": 2})
    assert C == 4
    for n in (8, 16, 32, 64):
        assert fixed_band_count(pad2(), {"x": 2}, n) == C * n - 6


def test_fixed_band_count_work_guard():
    with pytest.raises(ValueError, match="work bound"):
        fixed_band_count(pad2(), {"x": 10**4}, 10**5)


@st.composite
def random_band_graphs(draw):
    """Connected graphs on at most 5 vertices with bands in {0, 1, 2}."""
    nv = draw(st.integers(1, 5))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    pairs += draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=3))
    edges = []
    for u, v in pairs:
        lab = draw(st.sampled_from("xy"))
        edges.append(Edge(u, v, lab) if draw(st.booleans()) else Edge(v, u, lab))
    return TestGraph(nv, tuple(edges)), {lab: draw(st.integers(0, 2)) for lab in "xy"}


@settings(max_examples=40, deadline=None)
@given(random_band_graphs())
def test_fixed_band_density_is_the_count_increment(case):
    g, bands = case
    C = fixed_band_density(g, bands)
    m = (g.n_vertices - 1) * max(bands.values()) + 1
    assert C == fixed_band_count(g, bands, m + 1) - fixed_band_count(g, bands, m)
    assert all(fixed_band_count(g, bands, n) <= C * n for n in range(1, m + 3))
    window: dict = {}
    for e in g.edges:
        if e.src != e.tar:
            key = frozenset((e.src, e.tar))
            window[key] = min(window.get(key, bands[e.label]), bands[e.label])
    bound, queue = 1, [0]
    for u in queue:
        for v in range(g.n_vertices):
            if v not in queue and frozenset((u, v)) in window:
                queue.append(v)
                bound *= 2 * window[frozenset((u, v))]
    assert C <= bound


GAUSS = {lab: EntrySpec.gaussian() for lab in "xy"}


def test_fixed_band_ltd_pad_powers():
    # 2k parallel edges on two vertices: moment factor (2k-1)!!, density 2b
    # and norm (2b+1)^k, so the limit is (2k-1)!! 2b / (2b+1)^k
    for b, k in ((1, 1), (1, 2), (2, 3)):
        g = TestGraph(2, tuple(Edge(0, 1, "x") if i % 2 else Edge(1, 0, "x") for i in range(2 * k)))
        assert fixed_band_density(g, {"x": b}) == 2 * b
        out = fixed_band_ltd(g, {"x": b}, GAUSS)
        assert type(out) is Fraction
        assert out == Fraction(double_factorial_odd(k) * 2 * b, (2 * b + 1) ** k)
    assert fixed_band_ltd(pad2(), {"x": 1}, GAUSS) == Fraction(2, 3)


def test_fixed_band_ltd_three_pad_path():
    path = tree_doubles([(0, 1, "x", False), (1, 2, "y", False), (2, 3, "x", False)])
    assert fixed_band_density(path, {"x": 2, "y": 2}) == 30
    assert fixed_band_ltd(path, {"x": 2, "y": 2}, GAUSS) == Fraction(6, 25)


@pytest.mark.parametrize("g", [pad2(), TestGraph(2, (Edge(0, 1, "x"),))])
def test_fixed_band_missing_width_is_a_value_error(g):
    # a lone edge has a vanishing moment factor and is refused all the same
    with pytest.raises(ValueError, match="no band width for label 'x'"):
        fixed_band_density(g, {})
    with pytest.raises(ValueError, match="no band width for label 'x'"):
        fixed_band_ltd(g, {}, GAUSS)


def test_fixed_band_ltd_missing_entry_law_is_a_value_error():
    s_graph = witness_graphs()["s_graph"]
    with pytest.raises(ValueError, match="no entry law for label 'y'"):
        fixed_band_ltd(s_graph, {"x": 1, "y": 1}, {"x": EntrySpec.rademacher()})


def test_fixed_band_ltd_vanishes_on_odd_classes():
    g = TestGraph(2, (Edge(0, 1, "x"),))
    out = fixed_band_ltd(g, {"x": 3}, GAUSS)
    assert out == 0 and type(out) is Fraction


def test_fixed_band_ltd_rademacher():
    g = TestGraph(2, tuple(Edge(0, 1, "x") if i % 2 else Edge(1, 0, "x") for i in range(4)))
    assert fixed_band_ltd(g, {"x": 1}, {"x": EntrySpec.rademacher()}) == Fraction(2, 9)
    assert fixed_band_ltd(g, {"x": 1}, GAUSS) == Fraction(6, 9)


@pytest.mark.parametrize("beta", [Fraction(1, 2), 0, 0.5j])
def test_fixed_band_ltd_names_a_label_without_real_entries(beta):
    entries = {"x": EntrySpec.gaussian(), "y": EntrySpec.gaussian(beta)}
    g = TestGraph(2, (Edge(0, 1, "y"), Edge(1, 0, "y")))
    with pytest.raises(ValueError, match="label 'y' .*need real-valued entries"):
        fixed_band_ltd(g, {"x": 1, "y": 1}, entries)
    # diagonal entries are real draws of the law under any beta
    loops = TestGraph(1, (Edge(0, 0, "y"), Edge(0, 0, "y")))
    assert fixed_band_ltd(loops, {"y": 2}, entries) == Fraction(1, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fixed_band_ltd_is_always_a_fraction(data):
    # S != 0 needs an even multiplicity per (class, label) pair under either
    # law, so P is a perfect square and no value falls back to a float
    nv = data.draw(st.integers(1, 4))
    vertex = st.integers(0, nv - 1)
    pairs = [(i, i + 1) for i in range(nv - 1)]  # a path keeps the graph connected
    pairs += data.draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    edges = []
    for u, v in pairs:  # each with a twin, so that most moment factors survive
        lab = data.draw(st.sampled_from("xy"))
        edges += [Edge(u, v, lab), Edge(v, u, lab) if data.draw(st.booleans()) else Edge(u, v, lab)]
    for u, v in data.draw(st.lists(st.tuples(vertex, vertex), max_size=2)):
        edges.append(Edge(u, v, data.draw(st.sampled_from("xy"))))
    if not edges:
        edges.append(Edge(0, 0, "x"))
    g = TestGraph(nv, tuple(edges))
    laws = {lab: data.draw(st.sampled_from([EntrySpec.gaussian(), EntrySpec.rademacher()]))
            for lab in "xy"}
    bands = {lab: data.draw(st.integers(1, 3)) for lab in "xy"}
    value = fixed_band_ltd(g, bands, laws)
    assert type(value) is Fraction
    if value:
        norm_sq = math.prod(2 * bands[e.label] + 1 for e in g.edges)
        root = math.isqrt(norm_sq)
        assert root * root == norm_sq
        assert (value * root / fixed_band_density(g, bands)).denominator == 1


# ---------------------------------------------------------------------------
# Haar orthogonal limits

def test_cactus_classification():
    assert classify_orthogonal_cactus(anti_cycle(4)).pad_sizes == (4,)
    rep = classify_orthogonal_cactus(pad2("congruent"))
    assert rep.is_cactus and rep.is_anti_directed and rep.pad_sizes == (2,)
    rep = classify_orthogonal_cactus(pad2("opposing"))
    assert rep.is_cactus and not rep.is_anti_directed
    assert "bridge" in classify_orthogonal_cactus(TestGraph(2, (Edge(0, 1, "x"),))).reason
    assert not classify_orthogonal_cactus(directed_cycle(4)).is_anti_directed
    assert not classify_orthogonal_cactus(TestGraph(1, (Edge(0, 0, "x"),))).is_anti_directed


def test_cactus_star_resolution():
    # an all-starred directed cycle reverses every edge, which stays directed;
    # starring alternate edges of a directed 4-cycle makes it anti-directed
    g = TestGraph(4, tuple(
        Edge(i, (i + 1) % 4, "x", star=bool(i % 2)) for i in range(4)
    ))
    rep = classify_orthogonal_cactus(g)
    assert rep.is_anti_directed and rep.pad_sizes == (4,)
    assert haar_ltd(g) == -1


def test_haar_frozen_values():
    assert haar_ltd(pad2("congruent")) == 1
    assert haar_ltd(pad2("opposing")) == 0
    assert haar_ltd(anti_cycle(4)) == -1
    assert haar_ltd(anti_cycle(6)) == 2
    assert haar_ltd(anti_cycle(8)) == -5
    assert haar_ltd(directed_cycle(3)) == 0
    assert haar_ltd(TestGraph(2, (Edge(0, 1, "x"),))) == 0


def test_haar_cactus_products():
    base = anti_cycle(4)
    with_pad = TestGraph(5, base.edges + (Edge(0, 4, "x"), Edge(0, 4, "x")))
    assert haar_ltd(with_pad) == -1
    two_cycles = TestGraph(7, base.edges + tuple(
        Edge(0 if i == 0 else 3 + i, 0 if i + 1 == 4 else 3 + i + 1, "x")
        if i % 2 == 0
        else Edge(0 if i + 1 == 4 else 3 + i + 1, 0 if i == 0 else 3 + i, "x")
        for i in range(4)
    ))
    rep = classify_orthogonal_cactus(two_cycles)
    assert rep.pad_sizes == (4, 4)
    assert haar_ltd(two_cycles) == 1


def test_haar_pad_weights_are_signed_catalans():
    for k in range(1, 5):
        assert haar_ltd(anti_cycle(2 * k)) == (-1) ** (k - 1) * catalan(k - 1)


def test_haar_exact_finite_n_against_weingarten_oracle():
    c4 = anti_cycle(4)
    for n in (5, 9):
        assert haar_tau0_exact(c4, n) == Fraction(-(n - 2) * (n - 3), n * (n + 2))
        assert haar_estimator_mean(c4, n) == Fraction(-(n * n), (n - 1) * (n + 2))
    p2 = pad2("congruent")
    assert haar_tau0_exact(p2, 7) == Fraction(6, 7)
    assert haar_estimator_mean(p2, 7) == 1
    assert haar_tau0_exact(pad2("opposing"), 6) == 0


def test_haar_oracle_converges_to_the_limit():
    # the finite-n correction is O(1/n); 50 covers the constants seen here
    for g in (pad2("congruent"), anti_cycle(4), anti_cycle(6)):
        for n in (400, 4000):
            gap = abs(float(haar_tau0_exact(g, n)) - haar_ltd(g))
            assert gap < 50 / n


# ---------------------------------------------------------------------------
# summing over quotients

def test_directed_cycle_traces_are_catalan():
    for k in (1, 2, 3):
        assert ltd_trace(directed_cycle(2 * k), wigner_ltd) == catalan(k)
    for m in (3, 5):
        assert ltd_trace(directed_cycle(m), wigner_ltd) == 0


def test_quotient_scan_ignores_stars():
    plain = TestGraph(4, (Edge(0, 1, "x"), Edge(2, 1, "x"), Edge(2, 3, "y"), Edge(3, 0, "y")))
    starred = TestGraph(4, tuple(e._replace(star=k % 2 == 0) for k, e in enumerate(plain.edges)))
    want = list(double_tree_quotients(plain))
    assert want
    assert list(double_tree_quotients(starred)) == want


def test_c4_has_two_double_tree_quotients():
    quotients = list(double_tree_quotients(directed_cycle(4)))
    assert len(quotients) == 2
    for blocks, q in quotients:
        assert classify_double_tree(q).is_double_tree
        assert canonical_key(q) == canonical_key(quotient(directed_cycle(4), blocks))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_quotient_scan_matches_lattice_filter(n, data):
    edges = []
    for _ in range(data.draw(st.integers(1, 5))):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        edges.append(Edge(u, v, data.draw(st.sampled_from("xy"))))
    for v in range(1, n):
        edges.append(Edge(data.draw(st.integers(0, v - 1)), v, "x"))
    g = TestGraph(n, tuple(edges))
    scanned = sorted(
        canonical_key(q) for _, q in double_tree_quotients(g)
    )
    filtered = sorted(
        canonical_key(quotient(g, pi))
        for pi in enumerate_partitions(n)
        if classify_double_tree(quotient(g, pi)).is_double_tree
    )
    assert scanned == filtered


def _blocks(partition):
    return tuple(sorted(tuple(sorted(b)) for b in partition))


@settings(max_examples=200, deadline=None)
@given(random_small_graphs())
def test_can_pair_refuses_only_graphs_without_double_tree_quotients(g):
    lattice = sorted(
        _blocks(pi) for pi in enumerate_partitions(g.n_vertices)
        if classify_double_tree(quotient(g, pi)).is_double_tree
    )
    assert sorted(_blocks(bl) for bl, _ in double_tree_quotients(g)) == lattice
    if not limits.can_pair(g):
        assert lattice == []


def test_ltd_trace_supports_agree_for_wigner():
    for g in (directed_cycle(4), pad2("congruent"), anti_cycle(4)):
        a = ltd_trace(g, wigner_ltd, support="double_tree")
        b = ltd_trace(g, wigner_ltd, support="all")
        assert a == b


def test_ltd_trace_full_lattice_matches_naive_sum():
    for g in (pad2("congruent"), pad2("opposing"), anti_cycle(4), directed_cycle(3)):
        got = ltd_trace(g, haar_ltd, support="all")
        assert got == naive_trace_sum(g, haar_ltd)


def test_ltd_trace_rejects_unknown_support():
    with pytest.raises(ValueError):
        ltd_trace(pad2(), wigner_ltd, support="everything")


def test_model_ltd_resolves_each_kind():
    star = TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(0, 2, "x"), Edge(2, 0, "x")))
    congruent = TestGraph(2, (Edge(0, 1, "x"), Edge(0, 1, "x")))
    assert model_ltd(MatrixModel({"x": "haar"})) is haar_ltd
    fixed = model_ltd(MatrixModel({"x": (BandProfile.parse("fixed:1"), EntrySpec.rademacher())}))
    assert fixed(star) == fixed_band_ltd(star, {"x": 1}, {"x": EntrySpec.rademacher()})
    half = Fraction(1, 2)
    prop = {"x": BandProfile("proportional", c=half)}
    assert model_ltd(MatrixModel(prop))(star) == rbm_ltd(star, prop) == Fraction(28, 27)
    rbm = model_ltd(MatrixModel({"x": (BandProfile.parse("wigner"), EntrySpec.gaussian(half))}))
    assert rbm(congruent) == half
    # an all-Wigner model takes complex pseudo-variances; one congruent pad gives Re(beta)
    beta = complex(half, half)
    wig = model_ltd(MatrixModel({"x": (BandProfile.parse("wigner"), EntrySpec.gaussian(beta))}))
    assert wig(congruent) == wigner_ltd(congruent, beta) == pytest.approx(half)
    # a fixed label beside a band label is refused up front: no limit covers the mix
    mixed = MatrixModel({"x": BandProfile.parse("fixed:1"), "y": BandProfile.parse("wigner")})
    with pytest.raises(ValueError, match="fixed bands on x mixed with other regimes on y"):
        model_ltd(mixed)
    assert model_ltd(MatrixModel({}))(TestGraph(1)) == 1


def test_model_ltd_refuses_haar_beside_another_regime():
    # rbm_ltd would score the Haar label as a band: 0 on the anti-directed
    # 4-cycle, whose Haar limit is -1
    mixed = MatrixModel({"x": "haar", "y": BandProfile.parse("wigner")})
    with pytest.raises(ValueError) as err:
        model_ltd(mixed)
    assert str(err.value) == (
        "haar on x mixed with other regimes on y: no exact limit covers the mix"
    )
    assert model_support(mixed) == "all"
    # a fixed band beside a Haar label keeps the fixed-band message
    fixed = MatrixModel({"x": "haar", "y": BandProfile.parse("fixed:1")})
    with pytest.raises(ValueError, match="^fixed bands on y mixed with other regimes on x: "):
        model_ltd(fixed)


# ---------------------------------------------------------------------------
# the double-tree code

def test_double_tree_code_classes_are_canonical_key_classes():
    candidates = list(_corpus_candidates(3, ("x", "y")))
    assert len(candidates) == 1383
    keys_of_code, codes_of_key = {}, {}
    for g in candidates:
        code = double_tree_code(g)
        assert (code is not None) == classify_double_tree(g).is_double_tree
        if code is not None:
            keys_of_code.setdefault(code, set()).add(canonical_key(g))
            codes_of_key.setdefault(canonical_key(g), set()).add(code)
    assert len(keys_of_code) == len(codes_of_key) == 198
    assert all(len(keys) == 1 for keys in keys_of_code.values())
    assert all(len(codes) == 1 for codes in codes_of_key.values())


def test_double_tree_code_survives_relabelling_and_stars():
    rng = random.Random(16)
    for g in _corpus_candidates(3, ("x", "y")):
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        assert double_tree_code(g.relabel(perm)) == double_tree_code(g)
    starred = TestGraph(2, (Edge(0, 1, "x", True), Edge(0, 1, "x")))
    assert double_tree_code(starred) == double_tree_code(pad2("congruent"))
    assert double_tree_code(TestGraph(1)) == ()


@pytest.mark.parametrize("g", [
    TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(1, 1, "x"), Edge(1, 1, "x"))),
    TestGraph(3, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(1, 2, "x"))),
    TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x"), Edge(0, 1, "x"))),
    TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "y"))),
    TestGraph(3, tuple(Edge(i, (i + 1) % 3, "x") for i in range(3) for _ in range(2))),
], ids=["loop", "class of one", "class of three", "mixed labels", "skeleton cycle"])
def test_double_tree_code_refuses_non_double_trees(g):
    assert not classify_double_tree(g).is_double_tree
    assert double_tree_code(g) is None


@pytest.mark.parametrize("evaluator", ["wigner", "rbm"])
def test_ltd_trace_matches_the_canonical_form_reference_on_the_corpus(evaluator):
    regimes = {"x": BandProfile.parse("proportional:1/2"), "y": BandProfile.parse("slow:0.5")}
    ltd = wigner_ltd if evaluator == "wigner" else (lambda T: rbm_ltd(T, regimes))
    for g in build_double_tree_corpus(3):
        got, want = ltd_trace(g, ltd), ltd_trace_reference(g, ltd)
        assert (got, type(got)) == (want, type(want))
