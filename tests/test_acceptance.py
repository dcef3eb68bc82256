"""End-to-end acceptance runs at fixed seeds and stated tolerances.

Each test pins one headline guarantee of the package: exact trace identities
over an exhaustive corpus of small graphs, convergence of the Monte Carlo
estimators to the exact limit values at desk scale, the closed-form band
formulas, and the combinatorial bounds.  Statistical checks use three
standard errors unless a tighter figure is stated inline; every seed is
frozen so the suite is reproducible bit for bit.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    catalan_by_recurrence,
    degree_moment,
    haar_estimator_mean,
    haar_tau0_exact,
    mc_cut_volume,
    naive_graph_matrix,
    naive_trace,
    pS,
    pT_star,
)
from traffics.engine import (
    central_moment_estimate,
    estimate_traffic_state,
    eval_graph_matrix,
    trace_injective,
    trace_test_graph,
)
from traffics.ensembles import (
    BandProfile,
    EntrySpec,
    MatrixModel,
    degree_matrix,
    markov,
    stream,
)
from traffics.graphs import (
    Edge,
    GraphMonomial,
    TestGraph,
    canonical_key,
    delta_n,
    directed_cycle,
    edge_monomial,
    eta,
    quotient,
)
from traffics.independence import (
    build_double_tree_corpus,
    verify_traffic_independence,
    witness_graphs,
)
from traffics.limits import (
    cut_integral,
    cut_probability,
    fixed_band_count,
    fixed_band_density,
    haar_ltd,
    rbm_ltd,
    wigner_ltd,
)
from traffics.moments import markov_moments, traffic_moment
from traffics.partitions import enumerate_partitions


# ---------------------------------------------------------------------------
# shared builders

def small_graph_corpus(max_vertices=4, max_edges=4):
    """Every connected test graph with the stated vertex and edge budgets,
    one label, up to isomorphism (182 graphs)."""
    out, seen = [], set()
    for p in range(1, max_vertices + 1):
        pairs = [(u, v) for u in range(p) for v in range(p)]
        for q in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, q):
                try:
                    g = TestGraph(p, tuple(Edge(u, v, "x") for u, v in combo))
                except ValueError:  # skips the disconnected combinations
                    continue
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    out.append(g)
    return out


def pads(spec, label="x"):
    """Doubled tree from (u, v, orientation) adjacencies; 'c' doubles the
    edge in the same direction, 'o' in the opposite one."""
    edges = []
    for u, v, ori in spec:
        edges.append(Edge(u, v, label))
        edges.append(Edge(u, v, label) if ori == "c" else Edge(v, u, label))
    n = max(max(u, v) for u, v, _ in spec) + 1
    return TestGraph(n, tuple(edges))


def anti_cycle(m):
    edges = []
    for i in range(m):
        u, v = i, (i + 1) % m
        edges.append(Edge(u, v, "x") if i % 2 == 0 else Edge(v, u, "x"))
    return TestGraph(m, tuple(edges))


def hermitian_batch(rng, samples, n):
    z = rng.standard_normal((samples, n, n)) + 1j * rng.standard_normal((samples, n, n))
    return (z + np.conj(np.swapaxes(z, -1, -2))) / 2


WIGNER = BandProfile("wigner")


# ---------------------------------------------------------------------------
# exact identity suites

def test_trace_and_mobius_identities_on_all_small_graphs():
    """tr equals the partition sum of tr^0 over quotients, and the Mobius
    route to tr^0 equals direct injective enumeration, on 500 Hermitian 8x8
    samples for the full 182-graph corpus.  Relative error 1e-9, under a
    minute of wall time."""
    t0 = time.perf_counter()
    corpus = small_graph_corpus()
    assert len(corpus) == 182
    herm = hermitian_batch(stream(2024), 500, 8)
    mats = {"x": herm}
    worst_mobius = worst_injective = 0.0
    for g in corpus:
        full = trace_test_graph(g, mats)
        total = None
        for pi in enumerate_partitions(g.n_vertices):
            part = trace_injective(quotient(g, pi), mats)
            total = part if total is None else total + part
        scale = np.maximum(np.abs(full), 1e-12)
        worst_mobius = max(worst_mobius, float(np.max(np.abs(full - total) / scale)))
        direct = naive_trace(g, mats, injective=True)
        scale = np.maximum(np.abs(direct), 1e-12)
        gap = np.abs(trace_injective(g, mats) - direct)
        worst_injective = max(worst_injective, float(np.max(gap / scale)))
    wall = time.perf_counter() - t0
    assert worst_mobius <= 1e-9
    assert worst_injective <= 1e-9
    assert wall < 60.0
    print(f"PASS partition identities: mobius {worst_mobius:.2e}, "
          f"injective {worst_injective:.2e}, {wall:.1f} s")


def test_contraction_engine_matches_enumeration_oracles():
    """trace_test_graph and eval_graph_matrix agree with independent
    explicit-map enumeration on the full corpus at n = 12 (relative 1e-9)."""
    rng = np.random.default_rng(7)
    n = 12
    mats = {"x": rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))}
    worst_tr = worst_ev = 0.0
    for g in small_graph_corpus():
        got = trace_test_graph(g, mats)
        want = naive_trace(g, mats)
        worst_tr = max(worst_tr, abs(got - want) / max(abs(want), 1e-30))
        mono = GraphMonomial(g, 0, g.n_vertices - 1)
        gotm = eval_graph_matrix(mono, mats)
        wantm = naive_graph_matrix(g, mono.v_out, mono.v_in, mats)
        scale = max(float(np.max(np.abs(wantm))), 1e-30)
        worst_ev = max(worst_ev, float(np.max(np.abs(gotm - wantm))) / scale)
    assert worst_tr <= 1e-9
    assert worst_ev <= 1e-9
    print(f"PASS enumeration oracles: trace {worst_tr:.2e}, eval {worst_ev:.2e}")


# ---------------------------------------------------------------------------
# Wigner-regime convergence

@pytest.mark.slow
def test_wigner_injective_estimates_reach_their_limits():
    """Empirical tau^0 at n = 400 with 200 samples sits within 3 SE of the
    doubled-tree limit (product of pseudo-variances over congruent pads) for
    ten double trees, and within 3 SE of zero for ten non-double-trees.
    Under ten minutes of wall time."""
    E = Edge
    double_trees = [
        (pads([(0, 1, "o")]), 1),
        (pads([(0, 1, "c")]), 1),
        (pads([(0, 1, "c")]), 0),
        (pads([(0, 1, "o"), (0, 2, "o")]), 1),
        (pads([(0, 1, "o"), (1, 2, "c"), (2, 3, "o")]), 1),
        (pads([(0, 1, "c"), (1, 2, "c"), (2, 3, "c")]), 0),
        (pads([(0, 1, "o"), (0, 2, "o"), (0, 3, "o")]), 0),
        (pads([(0, 1, "c"), (0, 2, "c"), (0, 3, "o"), (0, 4, "o")]), 1),
        (pads([(0, 1, "o"), (1, 2, "c"), (1, 3, "o")]), 0),
        (pads([(0, 1, "o"), (1, 2, "o"), (2, 3, "o"), (3, 4, "o")]), 0),
    ]
    # odd entry multiplicities (or fully distinct entry classes) keep the
    # finite-n estimator mean at exactly zero, so 3 SE is the right yardstick
    non_double_trees = [
        (TestGraph(2, (E(0, 1, "x"),)), 1),
        (TestGraph(2, (E(0, 1, "x"), E(1, 0, "x"), E(0, 1, "x"))), 1),
        (TestGraph(4, (E(0, 1, "x"), E(0, 2, "x"), E(0, 3, "x"))), 1),
        (directed_cycle(3), 1),
        (anti_cycle(3), 0),
        (directed_cycle(4), 1),
        (anti_cycle(4), 0),
        (TestGraph(3, (E(0, 1, "x"), E(1, 2, "x"))), 0),
        (TestGraph(3, (E(0, 1, "x"), E(1, 0, "x"), E(1, 2, "x"))), 1),
        (TestGraph(3, tuple(E(i, (i + 1) % 3, "x") for i in range(3) for _ in range(2))), 0),
    ]
    t0 = time.perf_counter()
    n, samples, seed = 400, 200, 17
    worst = 0.0
    for g, beta in double_trees + non_double_trees:
        model = MatrixModel({"x": (WIGNER, EntrySpec.gaussian(beta))})
        est = estimate_traffic_state(g, model, n, samples, seed, injective=True)
        theory = complex(wigner_ltd(g, {"x": beta}))
        z = est.z(theory)
        worst = max(worst, z)
        assert z < 3.0, (g, beta, est.mean, theory, z)
    wall = time.perf_counter() - t0
    assert wall < 600.0
    print(f"PASS wigner limits: 20 graphs, worst z {worst:.2f}, {wall:.0f} s")


def test_semicircle_moments_exact_and_sampled():
    """Even moments of a single Wigner label are the Catalan numbers, exactly,
    against the recurrence oracle (k <= 5); E (1/n) tr W^6 at n = 1000 lands
    within 0.2 of C_3 = 5."""
    cat = catalan_by_recurrence(6)
    x = edge_monomial("x")
    for k in range(6):
        assert traffic_moment(x, 2 * k) == cat[k]
        if k:
            assert traffic_moment(x, 2 * k - 1) == 0
    model = MatrixModel({"x": WIGNER})
    est = estimate_traffic_state(directed_cycle(6), model, 1000, 12, 3)
    assert abs(est.mean.real - 5.0) < 0.2
    print(f"PASS semicircle moments: C_k exact to k=5, "
          f"tr W^6 mean {est.mean.real:.3f} (target 5 +/- 0.2)")


def test_markov_moments_match_spectral_monte_carlo():
    """markov_moments(1, -1, m) equals the sampled eigenvalue moments of
    M = W - deg(W) at n = 500 over 100 draws: 3 SE for m <= 7, relative 5%
    at m = 8, and m = 2 is exactly 2."""
    assert markov_moments(1, -1, 2) == 2
    theory = [markov_moments(1, -1, m) for m in range(1, 9)]
    assert theory == [0, 2, 0, 9, 0, 56, 0, 431]
    n, samples = 500, 100
    sampled = {m: [] for m in range(1, 9)}
    model = MatrixModel({"x": WIGNER})
    for i in range(samples):
        w = model.sample(n, stream(41, i))["x"]
        lam = np.linalg.eigvalsh(markov(1, -1, w))
        for m in sampled:
            sampled[m].append(np.mean(lam ** m))
    report = []
    for m in range(1, 9):
        arr = np.array(sampled[m])
        se = arr.std(ddof=1) / np.sqrt(samples)
        gap = abs(arr.mean() - float(theory[m - 1]))
        if m == 8:
            rel = gap / float(theory[7])
            assert rel <= 0.05, rel
            report.append(f"m=8 rel {rel:.3f}")
        else:
            assert gap < 3 * se, (m, arr.mean(), theory[m - 1])
            report.append(f"z{m}={gap / se:.1f}")
    print("PASS markov spectral moments: " + " ".join(report))


# ---------------------------------------------------------------------------
# proportional band regime

def test_proportional_cut_closed_forms_and_sampling():
    """cut_probability reproduces both branches of the one- and two-label
    star closed forms as exact rationals, equals 1 at full proportion,
    matches a 1e7-point Monte Carlo volume within 1e-3, and the RBM
    estimates at n = 1000 sit within 3 SE of the limit."""
    w = witness_graphs()
    star, s_graph = w["two_pad_star"], w["s_graph"]
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    for c in grid:
        assert cut_probability(star, c) == pT_star(c)
    for ci, cj in itertools.combinations_with_replacement(grid, 2):
        got = cut_probability(s_graph, {"x": ci, "y": cj})
        assert got == pS(ci, cj)
    assert cut_probability(star, Fraction(1, 2)) == Fraction(28, 27)
    assert cut_probability(s_graph, {"x": Fraction(1, 4), "y": Fraction(1, 2)}) == Fraction(65, 63)
    assert cut_probability(star, 1) == 1
    assert cut_probability(s_graph, {"x": 1, "y": 1}) == 1

    mc_star = mc_cut_volume(star, {"x": 0.5}, 10**7, seed=5)
    gap_star = abs(mc_star - float(cut_integral(star, Fraction(1, 2))))
    props = {"x": Fraction(1, 4), "y": Fraction(1, 2)}
    mc_s = mc_cut_volume(s_graph, props, 10**7, seed=6)
    gap_s = abs(mc_s - float(cut_integral(s_graph, props)))
    assert gap_star < 1e-3 and gap_s < 1e-3

    zs = []
    model = MatrixModel({"x": BandProfile("proportional", c=Fraction(1, 2))})
    est = estimate_traffic_state(star, model, 1000, 100, 33, injective=True)
    zs.append(est.z(float(pT_star(Fraction(1, 2)))))
    model = MatrixModel({
        "x": BandProfile("proportional", c=Fraction(1, 4)),
        "y": BandProfile("proportional", c=Fraction(1, 2)),
    })
    est = estimate_traffic_state(s_graph, model, 1000, 100, 33, injective=True)
    zs.append(est.z(float(pS(Fraction(1, 4), Fraction(1, 2)))))
    assert max(zs) < 3.0
    print(f"PASS proportional closed forms: exact branches, MC gaps "
          f"{gap_star:.1e}/{gap_s:.1e}, empirical z {zs[0]:.2f}/{zs[1]:.2f}")


def test_cut_probability_is_continuous_at_the_regime_boundaries():
    """Near c = 0 and c = 1 the cut probability approaches the value of the
    slow-regime (pad-contracted) and full-proportion (pad-deleted) limits,
    computed on the transformed graphs, within 1e-2."""
    w = witness_graphs()
    lo, hi = Fraction(1, 1000), Fraction(999, 1000)
    half = Fraction(1, 2)
    slow = BandProfile("slow", gamma=0.5)
    prop = BandProfile("proportional", c=half)

    def two_sided(g, label, others):
        cases = []
        for c_edge, regime in ((lo, slow), (hi, WIGNER)):
            proportions = dict(others)
            proportions[label] = c_edge
            regimes = {lab: prop for lab in others}
            regimes[label] = regime
            limit = rbm_ltd(g, regimes)
            cases.append((float(cut_probability(g, proportions)), float(limit)))
        return cases

    fixtures = [
        (pads([(0, 1, "o")]), "x", {}),
        (w["two_pad_star"], "x", {}),
        (pads([(0, 1, "o"), (1, 2, "o"), (2, 3, "o")]), "x", {}),
        (w["s_graph"], "x", {"y": half}),
        (w["three_pad_path"], "y", {"x": half}),
    ]
    worst = 0.0
    for g, label, others in fixtures:
        for got, want in two_sided(g, label, others):
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-2, (g, label, got, want)
    # the contracted middle pad of the three-pad path lands on the one-label
    # star value, a genuinely non-trivial limit
    assert rbm_ltd(w["three_pad_path"],
                   {"x": prop, "y": slow}) == Fraction(28, 27)
    print(f"PASS boundary continuity: 5 trees, worst gap {worst:.1e}")


def test_degree_moment_closed_forms_at_half_width():
    """Sampled moments of the normalized degree matrix at c = 1/2, n = 1000
    match the closed form within 3 SE for orders 1 to 4; odd orders vanish
    and the second moment is exactly 1 in the limit."""
    assert degree_moment(1, Fraction(1, 2)) == 0
    assert degree_moment(2, Fraction(1, 2)) == 1
    assert degree_moment(3, Fraction(1, 2)) == 0
    assert degree_moment(4, Fraction(1, 2)) == Fraction(28, 9)
    model = MatrixModel({"x": BandProfile("proportional", c=0.5)})
    rng = stream(21)
    draws = {m: [] for m in (1, 2, 3, 4)}
    for _ in range(100):
        d = np.diag(degree_matrix(model.sample(1000, rng)["x"]))
        for m in draws:
            draws[m].append(np.mean(d ** m))
    zs = []
    for m in (1, 2, 3, 4):
        arr = np.array(draws[m])
        se = arr.std(ddof=1) / 10
        z = abs(arr.mean() - float(degree_moment(m, Fraction(1, 2)))) / se
        zs.append(z)
        assert z < 3.0, (m, arr.mean(), z)
    print("PASS degree moments: z " + " ".join(f"{z:.2f}" for z in zs))


# ---------------------------------------------------------------------------
# Haar orthogonal regime

@pytest.mark.slow
def test_haar_orthogonal_limits_and_sampling():
    """Injective estimates for a Haar orthogonal label at n = 300 over 500
    samples: the anti-directed 2-pad sits within 3 SE of 1 and the directed
    2-cycle within 3 SE of 0 (their estimator means are exactly those
    values); the anti-directed 4-cycle and the 2-pad-plus-4-cycle cactus sit
    within 3 SE of their exact finite-n estimator means, which converge to
    the signed-Catalan product formula (-C_1 = -1 per 4-pad, so -1 for
    both graphs; the exact state at n = 1e6 is within 1e-4 of the limit)."""
    E = Edge
    pad2c = TestGraph(2, (E(0, 1, "x"), E(0, 1, "x")))
    dir2 = TestGraph(2, (E(0, 1, "x"), E(1, 0, "x")))
    anti4 = anti_cycle(4)
    cactus = TestGraph(5, anti4.edges + (E(0, 4, "x"), E(0, 4, "x")))

    # limit values and the product rule over pads of the cactus
    assert haar_ltd(pad2c) == 1
    assert haar_ltd(dir2) == 0
    assert haar_ltd(anti4) == -1
    assert haar_ltd(cactus) == haar_ltd(pad2c) * haar_ltd(anti4) == -1
    assert haar_estimator_mean(pad2c, 300) == 1
    assert haar_estimator_mean(dir2, 300) == 0

    model = MatrixModel({"x": "haar"})
    n, samples = 300, 500
    lines = []
    for name, g in (("2-pad", pad2c), ("2-cycle", dir2),
                    ("4-cycle", anti4), ("cactus", cactus)):
        est = estimate_traffic_state(g, model, n, samples, 9, injective=True)
        z = est.z(float(haar_estimator_mean(g, n)))
        assert z < 3.0, (name, est.mean, z)
        gap = abs(float(haar_tau0_exact(g, 10**6)) - haar_ltd(g))
        assert gap < 1e-4, (name, gap)
        lines.append(f"{name} z={z:.2f}")
    print("PASS haar limits: " + ", ".join(lines))


# ---------------------------------------------------------------------------
# concentration

def test_variance_decay_slopes():
    """log-log slope of Var((1/n) tr T(W)) over n in {50,..,400} with 500
    samples: -1 +/- 0.3 for the loopless single-edge tree and -2 +/- 0.3 for
    the directed 4-cycle."""
    model = MatrixModel({"x": WIGNER})
    ns = (50, 100, 200, 400)
    slopes = {}
    for name, g, target in (
        ("tree", TestGraph(2, (Edge(0, 1, "x"),)), -1.0),
        ("4-cycle", directed_cycle(4), -2.0),
    ):
        variances = [
            central_moment_estimate(g, model, n, 500, 2, 13).mean.real
            for n in ns
        ]
        slope = float(np.polyfit(np.log(ns), np.log(variances), 1)[0])
        slopes[name] = slope
        assert abs(slope - target) <= 0.3, (name, slope)
    print(f"PASS concentration slopes: tree {slopes['tree']:.2f}, "
          f"4-cycle {slopes['4-cycle']:.2f}")


# ---------------------------------------------------------------------------
# traffic independence

def test_independence_audit_and_documented_violations():
    """The factorization audit passes on the full double-tree corpus for a
    Wigner limit with real pseudo-variance, and flags the three documented
    failure modes: slow+proportional bands, two proportional bands, and a
    complex pseudo-variance."""
    corpus = build_double_tree_corpus(max_pads=4)
    report = verify_traffic_independence(wigner_ltd, None, corpus)
    assert report.all_match and not report.violations

    w = witness_graphs()
    regimes = {"x": BandProfile("proportional", c=Fraction(1, 2)),
               "y": BandProfile("slow", gamma=0.5)}
    rep1 = verify_traffic_independence(
        lambda q: rbm_ltd(q, regimes), None, [w["three_pad_path"]])
    assert not rep1.all_match
    assert rep1.violations[0]["expected"] == "1"
    assert Fraction(rep1.violations[0]["actual"]) == Fraction(28, 27)

    regimes2 = {"x": BandProfile("proportional", c=Fraction(1, 4)),
                "y": BandProfile("proportional", c=Fraction(1, 2))}
    rep2 = verify_traffic_independence(
        lambda q: rbm_ltd(q, regimes2), None, [w["s_graph"]])
    assert Fraction(rep2.violations[0]["actual"]) == Fraction(65, 63)

    rep3 = verify_traffic_independence(
        lambda q: wigner_ltd(q, 1j), None, [w["congruent_path"]])
    assert complex(rep3.violations[0]["expected"]) == 0
    assert complex(rep3.violations[0]["actual"]) == pytest.approx(1 / 3)
    print(f"PASS independence audit: {len(corpus)} graphs clean, "
          f"3 documented violations reproduced")


# ---------------------------------------------------------------------------
# fixed band widths

def test_fixed_band_superadditivity_bounds_and_vanishing():
    """Band-compatible injective map counts a_n are superadditive in n on
    five graphs; each stays at or below C n for the exact density C and
    equals C n minus a constant once n passes the graph's span; a star with
    more than 2b legs admits no compatible injective map at all."""
    E = Edge
    fixtures = [
        (pads([(0, 1, "o")]), {"x": 1}),
        (pads([(0, 1, "o"), (1, 2, "o")]), {"x": 2}),
        (pads([(0, 1, "o"), (0, 2, "o")]), {"x": 1}),
        (directed_cycle(3), {"x": 1}),
        (TestGraph(2, (E(0, 1, "x"), E(1, 0, "x"), E(0, 0, "x"))), {"x": 1}),
    ]
    for g, bands in fixtures:
        a = {n: fixed_band_count(g, bands, n) for n in range(3, 19)}
        for m in range(3, 10):
            for n in range(3, 10):
                assert a[m + n] >= a[m] + a[n], (g, m, n)
        C = fixed_band_density(g, bands)
        assert all(a[n] <= C * n for n in a)
        span = (g.n_vertices - 1) * max(bands.values())
        assert len({C * n - a[n] for n in a if n > span}) == 1

    for b in (1, 2):
        k = 2 * b + 1
        star = TestGraph(k + 1, tuple(E(0, i, "x") for i in range(1, k + 1)))
        assert all(fixed_band_count(star, {"x": b}, n) == 0 for n in (4, 8, 16, 32))
        fits = TestGraph(k, tuple(E(0, i, "x") for i in range(1, k)))
        assert fixed_band_count(fits, {"x": b}, 16) > 0
    print("PASS fixed band: superadditive on 5 graphs, a_n = C n - K past the span, "
          "overwide stars count zero")


# ---------------------------------------------------------------------------
# state axioms under sampling

def test_state_positivity_and_permutation_invariance():
    """tau applied to the positivity pairing of 50 random words is
    nonnegative sample by sample (hence within any -3 SE bound), and
    conjugating every matrix by one permutation leaves all traces and
    monomial evaluations unchanged."""
    rng = np.random.default_rng(5)
    letters = "xy"
    n = 30
    floor = 0.0
    for k in range(50):
        length = int(rng.integers(1, 5))
        word = " ".join(
            letters[int(rng.integers(2))] + ("*" if rng.random() < 0.4 else "")
            for _ in range(length))
        t = eta(word).as_ngraph()
        g = delta_n(t.adjoint(), t)
        vals = []
        for i in range(20):
            r = stream(100 + k, i)
            mats = {
                "x": (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))) / np.sqrt(n),
                "y": (r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))) / np.sqrt(n),
            }
            vals.append(trace_test_graph(g, mats) / n)
        arr = np.array(vals)
        assert np.max(np.abs(arr.imag)) <= 1e-10 * max(1.0, np.max(np.abs(arr)))
        assert arr.real.min() >= -1e-12
        se = arr.real.std(ddof=1) / np.sqrt(len(arr))
        assert arr.real.mean() >= -3 * se
        floor = min(floor, float(arr.real.min()))

    m = 8
    rng = np.random.default_rng(11)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p = np.eye(m)[rng.permutation(m)]
    conj = {"x": p @ a @ p.T, "y": p @ b @ p.T}
    plain = {"x": a, "y": b}
    w = witness_graphs()
    for g in (w["s_graph"], w["three_pad_path"], directed_cycle(4), anti_cycle(3)):
        np.testing.assert_allclose(
            trace_test_graph(g, conj), trace_test_graph(g, plain), rtol=1e-9)
    mono = GraphMonomial(w["s_graph"], 0, 2)
    np.testing.assert_allclose(
        eval_graph_matrix(mono, conj),
        p @ eval_graph_matrix(mono, plain) @ p.T, rtol=1e-9, atol=1e-12)
    print(f"PASS state axioms: 50 words nonnegative (floor {floor:.1e}), "
          f"permutation conjugation invariant")
