"""Traffic independence audits and the freeness bridge."""

import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traffics import ensembles, independence, moments
from traffics.engine import estimate_traffic_state
from traffics.ensembles import BandProfile, MatrixModel
from traffics.graphs import Edge, TestGraph, canonical_key, edge_monomial, serialize
from traffics.independence import (
    IndependenceReport,
    build_double_tree_corpus,
    chi_graph,
    colored_components,
    component_graph,
    free_cumulants,
    free_mixed_moment,
    freeness_moment_test,
    independent_prediction,
    is_free_product,
    noncrossing_partitions,
    verify_traffic_independence,
    witness_graphs,
)
from traffics.limits import closed_form_reference, rbm_ltd, wigner_ltd

from oracles import catalan_by_recurrence

CATALAN = catalan_by_recurrence(12)
SEMICIRCLE = [0, 1, 0, 2, 0, 5, 0, 14]


# ---------------------------------------------------------------------------
# colored components and the incidence graph

def test_colored_components_split_by_family():
    w = witness_graphs()
    comps = colored_components(w["three_pad_path"], {"x": "fx", "y": "fy"})
    assert [c.family for c in comps] == ["fx", "fx", "fy"]
    assert {c.vertices for c in comps} == {(0, 1), (2, 3), (1, 2)}
    one = colored_components(w["three_pad_path"], None)
    assert len(one) == 3  # labels are their own families by default


def test_component_graph_reindexes():
    w = witness_graphs()["three_pad_path"]
    comp = colored_components(w, {"x": "fx", "y": "fy"})[1]  # the (2, 3) pad
    sub = component_graph(w, comp)
    assert sub.n_vertices == 2
    assert {(e.src, e.tar) for e in sub.edges} == {(0, 1), (1, 0)}


def test_chi_tree_cases():
    w = witness_graphs()
    assert is_free_product(w["shared_loops"])[0]
    assert is_free_product(w["s_graph"])[0]
    assert is_free_product(w["three_pad_path"])[0]
    ok, cycle = is_free_product(w["chi_square"])
    assert not ok
    assert cycle is not None
    # alternating component/vertex nodes, both endpoints shared
    kinds = [kind for kind, _ in cycle]
    assert kinds[0] == "component" and kinds[-1] == "vertex"
    assert len(cycle) >= 4


def test_chi_graph_shared_vertices():
    chi = chi_graph(witness_graphs()["s_graph"])
    assert chi.shared_vertices == (0,)
    assert len(chi.components) == 2
    assert chi.is_tree


def test_single_family_is_trivially_free():
    g = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    assert is_free_product(g, {"x": "f"})[0]


# ---------------------------------------------------------------------------
# predictions and audits

def test_prediction_factorizes_over_components():
    w = witness_graphs()
    assert independent_prediction(w["s_graph"], None, wigner_ltd) == 1
    assert independent_prediction(w["chi_square"], None, wigner_ltd) == 0
    assert independent_prediction(w["three_pad_path"], None, wigner_ltd) == 1


def test_corpus_shape():
    corpus = build_double_tree_corpus(max_pads=3)
    assert len(corpus) == 200
    assert len(build_double_tree_corpus(max_pads=2)) == 31
    keys = [canonical_key(g) for g in corpus]
    assert len(set(keys)) == len(keys)
    assert corpus == build_double_tree_corpus(max_pads=3)
    assert max(g.n_vertices for g in corpus) == 8
    with pytest.raises(ValueError):
        build_double_tree_corpus(max_pads=0)
    with pytest.raises(ValueError, match="labels repeat: x"):
        build_double_tree_corpus(1, ("x", "y", "x"))


def test_wigner_families_pass_the_audit():
    corpus = build_double_tree_corpus(max_pads=3)
    report = verify_traffic_independence(wigner_ltd, None, corpus)
    assert report.all_match
    assert len(report.records) == len(corpus)


def test_proportional_bands_violate_independence():
    regimes = {
        "x": BandProfile.parse("proportional:1/2"),
        "y": BandProfile.parse("slow:1/2"),
    }
    ltd = lambda q: rbm_ltd(q, regimes)
    report = verify_traffic_independence(ltd, None, [witness_graphs()["three_pad_path"]])
    assert not report.all_match
    rec = report.violations[0]
    assert rec["chi_tree"]
    assert rec["expected"] == "1"
    assert Fraction(rec["actual"]) == closed_form_reference("pT_star", Fraction(1, 2))


def test_two_proportional_families_violate_independence():
    regimes = {
        "x": BandProfile.parse("proportional:1/4"),
        "y": BandProfile.parse("proportional:1/2"),
    }
    ltd = lambda q: rbm_ltd(q, regimes)
    report = verify_traffic_independence(ltd, None, [witness_graphs()["s_graph"]])
    assert Fraction(report.violations[0]["actual"]) == Fraction(65, 63)


def test_complex_pseudo_variance_violates_independence():
    ltd = lambda q: wigner_ltd(q, 1j)
    report = verify_traffic_independence(ltd, None, [witness_graphs()["congruent_path"]])
    rec = report.violations[0]
    assert complex(rec["expected"]) == 0
    assert complex(rec["actual"]) == pytest.approx(1 / 3)


def _reference_audit(ltd_fn, corpus):
    """The audit as a plain loop: chi(T) twice per graph, no memo."""
    records = []
    for T in corpus:
        chi = chi_graph(T, None)
        expected = independent_prediction(T, None, ltd_fn)
        actual = ltd_fn(T)
        records.append({
            "graph": serialize(T),
            "chi_tree": chi.is_tree,
            "components": len(chi.components),
            "expected": independence._value_repr(expected),
            "actual": independence._value_repr(actual),
            "match": independence._values_match(actual, expected),
        })
    return IndependenceReport(tuple(records))


@pytest.mark.parametrize("evaluator", ["wigner", "rbm", "complex beta"])
def test_audit_evaluates_each_distinct_graph_once(monkeypatch, evaluator):
    regimes = {"x": BandProfile.parse("proportional:1/2"), "y": BandProfile.parse("slow:0.5")}
    ltd = {
        "wigner": wigner_ltd,
        "rbm": lambda T: rbm_ltd(T, regimes),
        "complex beta": lambda T: wigner_ltd(T, {"x": 0.6j, "y": 0.3 + 0.4j}),
    }[evaluator]
    corpus = build_double_tree_corpus(3)
    calls = Counter()

    def counting(T):
        calls[T] += 1
        return ltd(T)

    reference = _reference_audit(counting, corpus)
    assert sum(calls.values()) == 569
    calls.clear()
    chi_calls = []
    real_chi_graph = chi_graph
    monkeypatch.setattr(
        independence, "chi_graph",
        lambda T, families=None: chi_calls.append(T) or real_chi_graph(T, families),
    )
    report = verify_traffic_independence(counting, None, corpus)
    assert sum(calls.values()) == len(calls) == 220
    assert chi_calls == list(corpus)
    assert report.to_json() == reference.to_json()


def test_report_json_round_trip():
    report = verify_traffic_independence(wigner_ltd, None, build_double_tree_corpus(max_pads=2))
    data = json.loads(report.to_json())
    assert data["graphs"] == 31
    assert data["violations"] == 0
    assert all({"graph", "chi_tree", "expected", "actual", "match"} <= set(r) for r in data["records"])


# ---------------------------------------------------------------------------
# noncrossing partitions and free moments

def is_noncrossing(pi):
    marks = {}
    for b, block in enumerate(pi):
        for i in block:
            marks[i] = b
    seq = [marks[i] for i in sorted(marks)]
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            for c in range(b + 1, len(seq)):
                for d in range(c + 1, len(seq)):
                    if seq[a] == seq[c] and seq[b] == seq[d] and seq[a] != seq[b]:
                        return False
    return True


@given(st.integers(0, 7))
def test_noncrossing_counts_are_catalan(m):
    assert len(noncrossing_partitions(m)) == CATALAN[m]


@given(st.integers(1, 6))
def test_noncrossing_partitions_are_valid(m):
    seen = set()
    for pi in noncrossing_partitions(m):
        assert sorted(i for b in pi for i in b) == list(range(m))
        assert is_noncrossing(pi)
        seen.add(tuple(sorted(tuple(sorted(b)) for b in pi)))
    assert len(seen) == CATALAN[m]


def test_noncrossing_guard():
    with pytest.raises(ValueError):
        noncrossing_partitions(13)


def test_semicircle_cumulants_vanish_above_two():
    assert free_cumulants(SEMICIRCLE) == [0, 1, 0, 0, 0, 0, 0, 0]


def test_gaussian_fourth_cumulant():
    assert free_cumulants([0, 1, 0, 3]) == [0, 1, 0, 1]


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=7))
def test_cumulants_invert_moment_recomposition(kappa):
    moments = []
    for k in range(1, len(kappa) + 1):
        total = 0
        for pi in noncrossing_partitions(k):
            term = 1
            for block in pi:
                term *= kappa[len(block) - 1]
            total += term
        moments.append(total)
    assert free_cumulants(moments) == kappa


def test_free_mixed_moments():
    marg = {"x": SEMICIRCLE[:6], "y": SEMICIRCLE[:6]}
    assert free_mixed_moment("xxxx", marg) == 2
    assert free_mixed_moment("xyxy", marg) == 0
    assert free_mixed_moment("xxyy", marg) == 1
    assert free_mixed_moment("xxyxxy", marg) == 1
    assert free_mixed_moment("x", {"x": [5]}) == 5


def test_free_mixed_moment_guards():
    with pytest.raises(ValueError):
        free_mixed_moment("xxx", {"x": [0, 1]})
    with pytest.raises(ValueError):
        free_mixed_moment("x" * 13, {"x": [0] * 13})


def test_single_letter_reduces_to_the_marginal():
    moments = [1, 3, 9, 30]
    for k in range(1, 5):
        assert free_mixed_moment("x" * k, {"x": moments}) == moments[k - 1]


# ---------------------------------------------------------------------------
# freeness against sampled traffic states

@pytest.mark.parametrize("word,expected", [("xy", 0), ("xxyy", 1)])
def test_wigner_letters_look_free(word, expected):
    out = freeness_moment_test(
        word,
        {"x": edge_monomial("x"), "y": edge_monomial("y")},
        {"x": BandProfile.parse("wigner"), "y": BandProfile.parse("wigner")},
        n=80,
        samples=60,
        seed=11,
    )
    assert out.free_prediction == expected
    assert out.traffic_value == expected
    assert out.free_matches_traffic
    assert out.z_free < 4
    assert out.z_traffic < 4


@pytest.mark.parametrize("model", [{"x": "haar"}, {"x": BandProfile.parse("fixed:2")}])
def test_freeness_needs_band_regimes(model):
    # the moment sums scan double-tree quotients, which miss Haar and
    # fixed-band limits
    with pytest.raises(ValueError, match="band regime other than fixed"):
        freeness_moment_test("xx", {"x": edge_monomial("x")}, model, n=10, samples=2)


XY = {"x": edge_monomial("x"), "y": edge_monomial("y")}
XY_WIGNER = {"x": BandProfile.parse("wigner"), "y": BandProfile.parse("wigner")}


@pytest.mark.parametrize("n,samples", [(0, 4), (-3, 4), (10, 0), (0, 0)])
def test_estimates_refuse_bad_sizes_before_any_draw(monkeypatch, n, samples):
    def refuse(*args, **kwargs):
        raise AssertionError("drew with a bad size")

    monkeypatch.setattr(MatrixModel, "sample", refuse)
    with pytest.raises(ValueError, match="need n >= 1 and samples >= 1"):
        freeness_moment_test("xy", XY, XY_WIGNER, n=n, samples=samples)
    # ahead of the early return of an injective estimate with n < |V|
    pad = TestGraph(2, (Edge(0, 1, "x"), Edge(1, 0, "x")))
    with pytest.raises(ValueError, match="need n >= 1 and samples >= 1"):
        estimate_traffic_state(pad, MatrixModel(XY_WIGNER), n, samples, 0, injective=True)


class _StandInLock:
    """Stand-in for ``ensembles.BLAS_LOCK`` that records whether it is held."""

    def __init__(self):
        self.held = False

    def __enter__(self):
        assert not self.held
        self.held = True

    def __exit__(self, *exc):
        self.held = False


def test_freeness_word_products_hold_the_blas_lock(monkeypatch):
    lock = _StandInLock()
    held = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                held.append(lock.held)
            inputs = tuple(np.asarray(a) for a in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    evaluate = moments.eval_polynomial_matrix
    monkeypatch.setattr(ensembles, "BLAS_LOCK", lock)
    monkeypatch.setattr(
        moments, "eval_polynomial_matrix", lambda a, mats: evaluate(a, mats).view(Watched)
    )
    freeness_moment_test("xxyy", XY, XY_WIGNER, n=8, samples=3, seed=1)
    assert held == [True] * 3  # one task, three products of the word
