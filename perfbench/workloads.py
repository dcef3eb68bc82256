"""The four benchmark workloads.

Each workload builds its inputs in ``__init__`` (graphs, models, the
polynomial), runs one cold pass of public library calls in ``run``, and
checks a pass's outputs in ``check``.  ``run`` reaches the library through
module attributes at call time, so a tracer's wrappers see every call.
Why each workload exists, and which layer it loads, is in WORKLOADS.md.

A check is ``(name, ok, detail, statistical)``.  Statistical checks are the
3-SE z gates on Monte Carlo estimates; the worker enforces them at the
acceptance-test seeds (``default_seed``) and reports them at other seeds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from traffics import engine, graphs, independence, limits, moments
from traffics.ensembles import BandProfile, EntrySpec, MatrixModel
from traffics.graphs import Edge, TestGraph, directed_cycle

Z_LIMIT = 3.0  # the acceptance tests' yardstick, in standard errors


# held here so a tracer's wrappers in the module namespaces do not hide them
_CACHES = (graphs.canonical_key, graphs.canonical_form, engine._injective_terms)


def reset_caches() -> None:
    """Empty every cache a CLI invocation starts without."""
    for cached in _CACHES:
        cached.cache_clear()


def _estimate_checks(name: str, est, reference) -> list[tuple[str, bool, str, bool]]:
    finite = math.isfinite(abs(est.mean)) and math.isfinite(est.stderr)
    z = est.z(complex(reference)) if finite else math.inf
    detail = f"mean={est.mean!r} stderr={est.stderr!r} ref={reference} z={z:.3f}"
    return [(f"{name} finite", finite, detail, False),
            (f"{name} z<{Z_LIMIT:g}", z < Z_LIMIT, detail, True)]


def _pads(spec, label="x"):
    """Doubled tree from (u, v, 'c'|'o') adjacencies, as in the acceptance tests."""
    edges = []
    for u, v, ori in spec:
        edges.append(Edge(u, v, label))
        edges.append(Edge(u, v, label) if ori == "c" else Edge(v, u, label))
    return TestGraph(max(max(u, v) for u, v, _ in spec) + 1, tuple(edges))


def _anti_cycle(m):
    return TestGraph(m, tuple(
        Edge(i, (i + 1) % m, "x") if i % 2 == 0 else Edge((i + 1) % m, i, "x")
        for i in range(m)))


class BandStar:
    """Injective estimates at n=1000 on proportional-band Gaussian draws."""

    name = "band_star"
    default_seed = 33  # tests/test_acceptance.py, proportional sampling
    n, samples = 1000, 6

    def __init__(self, seed):
        self.seed = self.default_seed if seed is None else seed
        w = independence.witness_graphs()
        star_props = {"x": Fraction(1, 2)}
        s_props = {"x": Fraction(1, 4), "y": Fraction(1, 2)}
        self.cases = [
            ("two_pad_star", w["two_pad_star"], star_props, Fraction(28, 27)),
            ("s_graph", w["s_graph"], s_props, Fraction(65, 63)),
        ]
        self.models = [MatrixModel({k: BandProfile("proportional", c=c) for k, c in props.items()})
                       for _, _, props, _ in self.cases]

    def run(self, tracer):
        return [
            (name, engine.estimate_traffic_state(
                g, model, self.n, self.samples, self.seed, injective=True))
            for (name, g, _, _), model in zip(self.cases, self.models)
        ]

    def check(self, outputs):
        checks = []
        for (name, g, props, frozen), (_, est) in zip(self.cases, outputs):
            ref = limits.cut_probability(g, props)
            checks.append((f"{name} cut_probability", ref == frozen, f"{ref} vs {frozen}", False))
            checks += _estimate_checks(name, est, float(ref))
        return checks


class WignerHaarCorpus:
    """The 20 Wigner and 4 Haar acceptance graphs, injective estimates."""

    name = "wigner_haar_corpus"
    default_seed = (17, 9)  # the Wigner and Haar acceptance tests' seeds
    n_wigner, samples_wigner = 200, 8
    n_haar, samples_haar = 150, 24
    # exact means of the count-normalized estimator at n=150, frozen from
    # tests/oracles.py::haar_estimator_mean; the limit -1 is O(1/n) away
    haar_means = {"4-cycle": Fraction(-5625, 5662), "cactus": Fraction(-421875, 435974)}

    def __init__(self, seed):
        self.seeds = self.default_seed if seed is None else (seed, seed)
        E = Edge
        double_trees = [
            (_pads([(0, 1, "o")]), 1), (_pads([(0, 1, "c")]), 1), (_pads([(0, 1, "c")]), 0),
            (_pads([(0, 1, "o"), (0, 2, "o")]), 1),
            (_pads([(0, 1, "o"), (1, 2, "c"), (2, 3, "o")]), 1),
            (_pads([(0, 1, "c"), (1, 2, "c"), (2, 3, "c")]), 0),
            (_pads([(0, 1, "o"), (0, 2, "o"), (0, 3, "o")]), 0),
            (_pads([(0, 1, "c"), (0, 2, "c"), (0, 3, "o"), (0, 4, "o")]), 1),
            (_pads([(0, 1, "o"), (1, 2, "c"), (1, 3, "o")]), 0),
            (_pads([(0, 1, "o"), (1, 2, "o"), (2, 3, "o"), (3, 4, "o")]), 0),
        ]
        non_double_trees = [
            (TestGraph(2, (E(0, 1, "x"),)), 1),
            (TestGraph(2, (E(0, 1, "x"), E(1, 0, "x"), E(0, 1, "x"))), 1),
            (TestGraph(4, (E(0, 1, "x"), E(0, 2, "x"), E(0, 3, "x"))), 1),
            (directed_cycle(3), 1), (_anti_cycle(3), 0),
            (directed_cycle(4), 1), (_anti_cycle(4), 0),
            (TestGraph(3, (E(0, 1, "x"), E(1, 2, "x"))), 0),
            (TestGraph(3, (E(0, 1, "x"), E(1, 0, "x"), E(1, 2, "x"))), 1),
            (TestGraph(3, tuple(E(i, (i + 1) % 3, "x") for i in range(3) for _ in range(2))), 0),
        ]
        wigner = BandProfile("wigner")
        self.wigner = [
            (f"wigner{i}", g, beta, MatrixModel({"x": (wigner, EntrySpec.gaussian(beta))}))
            for i, (g, beta) in enumerate(double_trees + non_double_trees)
        ]
        anti4 = _anti_cycle(4)
        self.haar = [
            ("2-pad", TestGraph(2, (E(0, 1, "x"), E(0, 1, "x")))),
            ("2-cycle", TestGraph(2, (E(0, 1, "x"), E(1, 0, "x")))),
            ("4-cycle", anti4),
            ("cactus", TestGraph(5, anti4.edges + (E(0, 4, "x"), E(0, 4, "x")))),
        ]
        self.haar_model = MatrixModel({"x": "haar"})

    def run(self, tracer):
        wseed, hseed = self.seeds
        out = [
            (name, engine.estimate_traffic_state(
                g, model, self.n_wigner, self.samples_wigner, wseed, injective=True))
            for name, g, _, model in self.wigner
        ]
        out += [
            (name, engine.estimate_traffic_state(
                g, self.haar_model, self.n_haar, self.samples_haar, hseed, injective=True))
            for name, g in self.haar
        ]
        return out

    def check(self, outputs):
        refs = [limits.wigner_ltd(g, {"x": beta}) for _, g, beta, _ in self.wigner]
        # the 2-pad and 2-cycle estimator means equal their limits exactly
        refs += [self.haar_means.get(name, limits.haar_ltd(g)) for name, g in self.haar]
        return [c for (name, est), ref in zip(outputs, refs)
                for c in _estimate_checks(name, est, ref)]


class MarkovMoments:
    """``traffics moments --poly '1/2*x + 3/4*row(x) + 3/4*col(x)' --order 7``."""

    name = "markov_moments"
    default_seed = None  # exact: nothing is drawn
    order = 7
    expected = [Fraction(0), Fraction(5, 2), Fraction(0), Fraction(281, 16),
                Fraction(0), Fraction(1597, 8), Fraction(0)]

    def __init__(self, seed):
        self.poly = moments.parse_poly("1/2*x + 3/4*row(x) + 3/4*col(x)")

    def run(self, tracer):
        ltd = tracer.evaluator(limits.wigner_ltd)
        return [moments.traffic_moment(self.poly, k, ltd) for k in range(1, self.order + 1)]

    def check(self, outputs):
        return [(f"order {k}", got == want and isinstance(got, (int, Fraction)), f"{got!r}", False)
                for k, (got, want) in enumerate(zip(outputs, self.expected), start=1)]


class IndependenceAudit:
    """The `traffics independence` audit at max_pads=3, under wigner_ltd and rbm_ltd."""

    name = "independence_audit"
    default_seed = None  # exact: nothing is drawn
    max_pads = 3
    regimes = {"x": "proportional:1/2", "y": "slow:0.5"}

    def __init__(self, seed):
        self.rbm_regimes = {lab: BandProfile.parse(s) for lab, s in self.regimes.items()}

    def run(self, tracer):
        corpus = independence.build_double_tree_corpus(self.max_pads, ("x", "y"))
        regimes = self.rbm_regimes
        wig = independence.verify_traffic_independence(
            tracer.evaluator(limits.wigner_ltd), None, corpus)
        rbm = independence.verify_traffic_independence(
            tracer.evaluator(lambda T: limits.rbm_ltd(T, regimes)), None, corpus)
        return [len(corpus), len(wig.records), len(wig.violations),
                len(rbm.records), len(rbm.violations)]

    def check(self, outputs):
        corpus, wig_n, wig_v, rbm_n, rbm_v = outputs
        return [
            ("corpus graphs", corpus == 200, str(corpus), False),
            ("wigner audit graphs", wig_n == 200, str(wig_n), False),
            ("wigner violations", wig_v == 0, str(wig_v), False),
            ("rbm audit graphs", rbm_n == 200, str(rbm_n), False),
            ("rbm violations", rbm_v == 17, str(rbm_v), False),
        ]


WORKLOADS = {w.name: w for w in (BandStar, WignerHaarCorpus, MarkovMoments, IndependenceAudit)}


def summarize(outputs) -> list:
    """JSON-ready view of a pass's outputs; estimates keep every digit."""
    out = []
    for item in outputs:
        if isinstance(item, tuple) and isinstance(item[1], engine.Estimate):
            est = item[1]
            out.append([item[0], repr(complex(est.mean)), repr(est.stderr)])
        else:
            out.append(str(item))
    return out
