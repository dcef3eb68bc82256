"""Limiting traffic distributions of band ensembles.

Everything here computes limits of injective traffic states tau^0[T] as the
dimension grows:

* Hermitian ensembles with unit-variance band entries concentrate injective
  limits on *colored double trees*: loop-free graphs whose edge classes each
  hold exactly two same-labelled edges and whose skeleton is a tree.  A class
  is *opposing* when its edges point in opposite directions and *congruent*
  otherwise; congruent classes pick up the pseudo-variance beta of the label
  (``wigner_ltd``).  A non-real beta is averaged against its conjugate over
  the random relative order of the class's endpoints.
* Band regimes refine the picture: slowly growing bands contract, full-width
  bands delete, proportional bands keep their classes, and the surviving
  forest is scored by an exact cut-probability integral p_T.
* Fixed band widths stop concentrating; the limit is an integer count of
  band-compatible injective maps with one vertex pinned (the exact density
  of the finite-n counts) times a product of entry moments, normalized by
  the band widths.
* Haar orthogonal families live on anti-directed cacti and produce signed
  Catalan numbers.

``ltd_trace`` turns any of these injective limits into the limit of tau[T]
by summing it over the quotients of T, once per isomorphism class: double
trees are classed by ``double_tree_code``, a linear-time tree code, and the
full partition lattice by ``graphs.shape_sum``.  Cut integrals (integers on
one grid), closed forms and Mobius weights are exact; Monte Carlo enters
only in the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from .ensembles import BandProfile, EntrySpec, MatrixModel, _double_factorial_odd
from .graphs import Edge, TestGraph, _collapse, _UnionFind, edge_classes, quotient, shape_sum

Number = Union[int, float, Fraction, complex]

#: label -> band profile, one independent ensemble per label
RegimeAssignment = Mapping[str, BandProfile]

ORDERING_COMPONENT_CAP = 10
FIXED_BAND_WORK_LIMIT = 10**8


def _strip_stars(g: TestGraph) -> TestGraph:
    """Self-adjoint semantics: a starred edge equals its unstarred twin."""
    if not any(e.star for e in g.edges):
        return g
    return TestGraph(
        g.n_vertices, tuple(Edge(e.src, e.tar, e.label, False) for e in g.edges)
    )


def _beta_of(betas: Any, label: str) -> Number:
    if betas is None:
        return 1
    if isinstance(betas, Mapping):
        return betas.get(label, 1)
    return betas


def _is_real(x: Number) -> bool:
    return not (isinstance(x, complex) and x.imag != 0)


# ---------------------------------------------------------------------------
# double trees

@dataclass(frozen=True)
class Pad:
    """One doubled edge class of a double tree.

    ``u < v`` are the skeleton endpoints.  For a congruent pad both edges run
    ``src -> tar``; for an opposing pad src/tar record one of the two edges.
    """

    u: int
    v: int
    label: str
    orientation: str  # 'congruent' | 'opposing'
    src: int
    tar: int
    members: tuple[int, int]


@dataclass(frozen=True)
class DoubleTreeReport:
    is_double_tree: bool
    pads: tuple[Pad, ...] = ()
    reason: Optional[str] = None


def classify_double_tree(T: TestGraph) -> DoubleTreeReport:
    """Decide whether T is a colored double tree, with a reason when not.

    Stars are ignored (self-adjoint matrices).  Conditions: no loops, every
    edge class holds exactly two edges of one label, and the skeleton of
    classes is a tree.
    """
    g = _strip_stars(T)
    for e in g.edges:
        if e.src == e.tar:
            return DoubleTreeReport(False, reason=f"loop at vertex {e.src}")
    classes = edge_classes(g)
    pads = []
    for cls in classes:
        if len(cls.members) != 2:
            return DoubleTreeReport(
                False,
                reason=f"class {{{cls.u},{cls.v}}} has {len(cls.members)} edges",
            )
        e1, e2 = (g.edges[i] for i in cls.members)
        if e1.label != e2.label:
            return DoubleTreeReport(
                False,
                reason=f"class {{{cls.u},{cls.v}}} mixes labels {e1.label!r}, {e2.label!r}",
            )
        orientation = "congruent" if (e1.src, e1.tar) == (e2.src, e2.tar) else "opposing"
        pads.append(
            Pad(cls.u, cls.v, e1.label, orientation, e1.src, e1.tar, tuple(cls.members))
        )
    if len(classes) != g.n_vertices - 1:
        return DoubleTreeReport(False, reason="skeleton has a cycle")
    return DoubleTreeReport(True, tuple(pads))


def double_tree_code(T: TestGraph) -> Optional[tuple]:
    """Complete isomorphism invariant of a colored double tree, else None.

    The AHU code (Aho, Hopcroft & Ullman) of the pad skeleton rooted at a
    centre, the least over the one or two centres.  A vertex's code is the
    sorted tuple of ``(label, away, child code)`` over its child pads, where
    ``away`` counts the pad's edges that point from the parent to the child.
    Stars are ignored, as in :func:`classify_double_tree`.  A loop, a class
    of other than two edges, mixed labels in a class or a skeleton that is
    not a tree gives None.  Linear in the size of T, up to the sorts.
    """
    n = T.n_vertices
    pads: dict[tuple[int, int], list] = {}  # skeleton pair -> [label, src, src]
    for e in T.edges:
        s, t = e.src, e.tar
        if s == t:
            return None
        key = (s, t) if s < t else (t, s)
        pad = pads.get(key)
        if pad is None:
            pads[key] = [e.label, s]
        elif len(pad) == 2 and pad[0] == e.label:
            pad.append(s)
        else:
            return None
    if len(pads) != n - 1:  # T is connected, so n - 1 classes make a tree
        return None
    adj: list[list[tuple[int, str, int, int]]] = [[] for _ in range(n)]
    for (u, v), pad in pads.items():
        if len(pad) != 3:
            return None
        label, s1, s2 = pad
        adj[u].append((v, label, s1, s2))
        adj[v].append((u, label, s1, s2))
    # peel leaves layer by layer; the last one or two vertices are the centres
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for nb in adj[v]:
                w = nb[0]
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    root = layer[0]
    parent = [-1] * n
    order = [root]
    for v in order:
        for nb in adj[v]:
            w = nb[0]
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    code: list[tuple] = [()] * n
    for v in reversed(order):
        code[v] = tuple(sorted(
            (label, (s1 == v) + (s2 == v), code[w])
            for w, label, s1, s2 in adj[v]
            if w != parent[v]
        ))
    if len(layer) == 1:
        return code[root]
    # rooted at the other centre, the root hangs below it by the central pad
    # with every subtree but the other centre's
    other = layer[1]
    label, s1, s2 = pads[(root, other) if root < other else (other, root)]
    away = (s1 == root) + (s2 == root)
    rest = list(code[root])
    rest.remove((label, away, code[other]))
    return min(code[root], tuple(sorted(code[other] + ((label, 2 - away, tuple(rest)),))))


def wigner_ltd(T: TestGraph, betas: Any = None) -> Number:
    """Limit of tau^0[T] for a Wigner family: zero off colored double trees,
    otherwise the product of the pad weights.

    An opposing pad weighs 1.  A congruent pad of a label with real
    pseudo-variance beta weighs beta, so real betas give prod over labels of
    beta_i^(congruent pad count).  A congruent pad of a label with non-real
    beta weighs beta or conj(beta) according to the relative order of its
    endpoints under a uniformly random total order of the vertices; the
    average factorizes over the connected components of the subgraph of
    non-real-labelled pads, each averaged exactly over its |V|! orders.
    """
    rep = classify_double_tree(T)
    if not rep.is_double_tree:
        return 0
    return _pad_weight(T, rep, betas)


def _pad_weight(T: TestGraph, rep: DoubleTreeReport, betas: Any) -> Number:
    """The pad weights of :func:`wigner_ltd` on the double tree T."""
    counts: dict[str, int] = {}
    complex_pads = []
    for pad in rep.pads:
        if not _is_real(_beta_of(betas, pad.label)):
            complex_pads.append(pad)
        elif pad.orientation == "congruent":
            counts[pad.label] = counts.get(pad.label, 0) + 1
    total: Number = 1
    for lab, cnt in counts.items():
        total = total * _beta_of(betas, lab) ** cnt
    if not complex_pads:
        return total
    # components of the complex-labelled subgraph
    uf = _UnionFind(T.n_vertices)
    for p in complex_pads:
        uf.union(p.u, p.v)
    groups: dict[int, list] = {}
    for p in complex_pads:
        groups.setdefault(uf.find(p.u), []).append(p)
    for pads in groups.values():
        cverts = sorted({v for p in pads for v in (p.u, p.v)})
        if len(cverts) > ORDERING_COMPONENT_CAP:
            raise ValueError(
                f"ordering sum over {len(cverts)} vertices exceeds the cap "
                f"{ORDERING_COMPONENT_CAP}"
            )
        acc: complex = 0
        for order in permutations(cverts):
            pos = {v: i for i, v in enumerate(order)}  # later = smaller value
            w: complex = 1
            for p in pads:
                if p.orientation != "congruent":
                    continue
                beta = complex(_beta_of(betas, p.label))
                w *= beta if pos[p.tar] > pos[p.src] else beta.conjugate()
            acc += w
        total = total * (acc / math.factorial(len(cverts)))
    return total


# ---------------------------------------------------------------------------
# band regimes and the forest transform

def regime_role(profile: BandProfile) -> str:
    """What the forest transform does to a label: contract, delete or keep."""
    r = profile.regime
    if r == "slow" or (r == "periodic" and profile.gamma is not None):
        return "contract"
    if r == "wigner" or (r == "periodic" and profile.c is not None):
        return "delete"
    if r == "proportional":
        return "keep"
    raise ValueError(f"regime {r!r} has no forest role (use the fixed-band oracle)")


def forest_transform(T: TestGraph, regimes: RegimeAssignment) -> tuple[TestGraph, ...]:
    """Contract slow pads, delete full-width pads, keep proportional pads.

    T must be a colored double tree; the result is the list of connected
    components of the transformed graph (isolated vertices included), each a
    double tree over proportional labels only.
    """
    rep = classify_double_tree(T)
    if not rep.is_double_tree:
        raise ValueError(f"forest transform needs a colored double tree: {rep.reason}")
    g = _strip_stars(T)
    roles = {}
    for lab in g.labels():
        if lab not in regimes:
            raise ValueError(f"no regime assigned to label {lab!r}")
        roles[lab] = regime_role(regimes[lab])
    n = g.n_vertices
    uf = _UnionFind(n)
    for pad in rep.pads:
        if roles[pad.label] == "contract":
            uf.union(pad.u, pad.v)
    vmap, m = _collapse(uf, n)
    kept = [
        Edge(vmap[g.edges[i].src], vmap[g.edges[i].tar], g.edges[i].label)
        for pad in rep.pads
        if roles[pad.label] == "keep"
        for i in pad.members
    ]
    cuf = _UnionFind(m)
    for e in kept:
        cuf.union(e.src, e.tar)
    comp, k = _collapse(cuf, m)
    out = []
    for c in range(k):
        local = {v: i for i, v in enumerate(v for v in range(m) if comp[v] == c)}
        edges = tuple(Edge(local[e.src], local[e.tar], e.label) for e in kept if comp[e.src] == c)
        out.append(TestGraph(len(local), edges))
    return tuple(out)


# ---------------------------------------------------------------------------
# the cut integral, in integers on one grid
#
# A piecewise polynomial on [0, D] is a triple (breaks, pieces, den): integer
# breaks from 0 to D, one integer coefficient list per piece (low degree
# first, every piece the same length) and one positive denominator shared by
# all pieces.

def _horner(p: list[int], y: int) -> int:
    acc = 0
    for a in reversed(p):
        acc = acc * y + a
    return acc


def _taylor_shift(p: list[int], s: int) -> list[int]:
    """Coefficients of p(y + s), by repeated synthetic division."""
    q = list(p)
    for i in range(len(q) - 1):
        for k in range(len(q) - 2, i - 1, -1):
            q[k] += s * q[k + 1]
    return q


def _antiderivative(breaks: list[int], pieces: list[list[int]]) -> tuple[list[list[int]], int]:
    """L times the continuous antiderivative vanishing at 0, with L = lcm(1..deg+1)."""
    L = math.lcm(*range(1, len(pieces[0]) + 1))
    out, acc = [], 0
    for lo, hi, p in zip(breaks, breaks[1:], pieces):
        a = [0] + [c * (L // (k + 1)) for k, c in enumerate(p)]
        a[0] = acc - _horner(a, lo)
        acc = _horner(a, hi)
        out.append(a)
    return out, L


def _window(f: tuple, C: int, D: int) -> tuple:
    """y -> integral of f over [y - C, y + C] clamped to [0, D], in grid units
    (the caller owes the factor 1/D)."""
    breaks, pieces, den = f
    G, L = _antiderivative(breaks, pieces)
    top = [_horner(G[-1], D)] + [0] * len(pieces[0])
    cuts = sorted({0, D}.union(b + s for b in breaks for s in (C, -C) if 0 < b + s < D))
    out = []
    i = j = 0
    # no piece of the result straddles a shifted break, so its left end
    # locates the piece of G on either side of the window
    for lo, hi in zip(cuts, cuts[1:]):
        if lo + C >= D:
            up = top
        else:
            while breaks[i + 1] <= lo + C:
                i += 1
            up = _taylor_shift(G[i], C)
        if hi <= C:
            out.append(up)
            continue
        while breaks[j + 1] <= lo - C:
            j += 1
        out.append([a - b for a, b in zip(up, _taylor_shift(G[j], -C))])
    return cuts, out, den * L


def _times(f: tuple, g: tuple) -> tuple:
    """Pointwise product on the merged breaks, reduced by the common gcd."""
    (fb, fp, fd), (gb, gp, gd) = f, g
    breaks = sorted(set(fb).union(gb))
    pieces = []
    i = j = 0
    for lo in breaks[:-1]:
        while fb[i + 1] <= lo:
            i += 1
        while gb[j + 1] <= lo:
            j += 1
        r = [0] * (len(fp[i]) + len(gp[j]) - 1)
        for a, x in enumerate(fp[i]):
            if x:
                for b, y in enumerate(gp[j]):
                    r[a + b] += x * y
        pieces.append(r)
    den = fd * gd
    g = math.gcd(den, *(c for r in pieces for c in r))
    return breaks, [[c // g for c in r] for r in pieces], den // g


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise ValueError(f"cannot take {type(x).__name__} as an exact proportion")


def _pad_proportions(
    rep: DoubleTreeReport, proportions: Any
) -> dict[tuple[int, int], Fraction]:
    out = {}
    for pad in rep.pads:
        if isinstance(proportions, Mapping):
            if pad.label not in proportions:
                raise ValueError(f"no proportion for label {pad.label!r}")
            c = _as_fraction(proportions[pad.label])
        else:
            c = _as_fraction(proportions)
        if not 0 < c <= 1:
            raise ValueError(f"proportion for {pad.label!r} must be in (0, 1]")
        out[(pad.u, pad.v)] = c
    return out


def cut_integral(T: TestGraph, proportions: Any) -> Fraction:
    """Exact volume of band-compatible vertex positions.

    For a double tree with pad proportions c, this is the integral over
    [0,1]^V of the product over pads of 1{|x_u - x_v| <= c_pad}.  Skeleton
    leaves are eliminated on the grid 1/D, D the lcm of the proportions'
    denominators: with y = D x every pad width c D and every break is an
    integer, so the elimination runs in plain integers, and the result is
    one ``Fraction`` built at the end, divided by D^|V|.
    """
    rep = classify_double_tree(T)
    if not rep.is_double_tree:
        raise ValueError(f"cut integral needs a colored double tree: {rep.reason}")
    cs = _pad_proportions(rep, proportions)
    D = math.lcm(*(c.denominator for c in cs.values()))
    n = T.n_vertices
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for (u, v), c in cs.items():
        C = c.numerator * (D // c.denominator)
        adj[u].append((v, C))
        adj[v].append((u, C))
    f = {v: ([0, D], [[1]], 1) for v in range(n)}
    degree = {v: len(adj[v]) for v in range(n)}
    removed = set()
    leaves = [v for v in range(n) if degree[v] == 1]
    while leaves:
        u = leaves.pop()
        if u in removed or len(removed) == n - 1:
            continue
        removed.add(u)
        for w, C in adj[u]:
            if w in removed:
                continue
            f[w] = _times(f[w], _window(f[u], C, D))
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)
            break
    (root,) = (v for v in range(n) if v not in removed)
    breaks, pieces, den = f[root]
    G, L = _antiderivative(breaks, pieces)
    return Fraction(_horner(G[-1], D), den * L * D**n)


def norm_factor(T: TestGraph, proportions: Any) -> Fraction:
    """Product over pads of (2c - c^2), the single-pad cut volume."""
    rep = classify_double_tree(T)
    if not rep.is_double_tree:
        raise ValueError(f"norm factor needs a colored double tree: {rep.reason}")
    cs = _pad_proportions(rep, proportions)
    out = Fraction(1)
    for c in cs.values():
        out *= 2 * c - c * c
    return out


def cut_probability(T: TestGraph, proportions: Any) -> Fraction:
    """p_T = cut_integral / norm_factor, the pad-normalized cut volume."""
    return cut_integral(T, proportions) / norm_factor(T, proportions)


def rbm_ltd(T: TestGraph, regimes: RegimeAssignment, betas: Any = None) -> Number:
    """Limit of tau^0[T] for independent band families.

    Zero off double trees; otherwise the Wigner pad weight prod
    beta_i^(congruent count) times the cut probability p_F of the forest
    transform.  Betas must be real here (non-real pseudo-variances are a
    Wigner-regime refinement only).
    """
    rep = classify_double_tree(T)
    if not rep.is_double_tree:
        return 0
    for lab in T.labels():
        if not _is_real(_beta_of(betas, lab)):
            raise ValueError("rbm_ltd needs real betas")
    out = _pad_weight(T, rep, betas)
    for comp in forest_transform(T, regimes):
        if comp.n_edges == 0:
            continue
        props = {
            lab: regimes[lab].c for lab in comp.labels()
        }
        out = out * cut_probability(comp, props)
    return out


# ---------------------------------------------------------------------------
# closed forms

def closed_form_reference(name: str, *params) -> Fraction:
    """Frozen closed forms for regression tests and the CLI.

    * ``pT_star(c)``: cut probability of the two-pad star, one label
    * ``pS(ci, cj)``: cut probability of the two-pad star, two labels
    * ``degree_moment(ell, c)``: limit 2*ell-th moment of the normalized
      degree matrix of a proportional band (odd moments vanish)
    """
    if name == "pT_star":
        (c,) = map(_as_fraction, params)
        den = (2 * c - c * c) ** 2
        if c <= Fraction(1, 2):
            num = 8 * c * c * (Fraction(1, 2) - c) + Fraction(14, 3) * c**3
        else:
            num = 2 * c - 1 + Fraction(2, 3) * (1 - c**3)
        return num / den
    if name == "pS":
        ci, cj = sorted(map(_as_fraction, params))
        den = (2 * ci - ci * ci) * (2 * cj - cj * cj)
        if ci + cj <= 1:
            num = (
                -Fraction(1, 3) * ci**3 - ci**2 * cj - 2 * ci * cj**2 + 4 * ci * cj
            )
        else:
            num = (
                Fraction(1, 3) * cj**3
                - ci * cj**2
                - ci**2
                - cj**2
                + 2 * ci * cj
                + ci
                + cj
                - Fraction(1, 3)
            )
        return num / den
    if name == "degree_moment":
        ell, c = params
        ell = int(ell)
        c = _as_fraction(c)
        if ell < 0:
            raise ValueError("ell must be >= 0")
        if ell == 0:
            return Fraction(1)
        t = min(2 * c, Fraction(1))
        num = Fraction(2, ell + 1) * (t ** (ell + 1) - c ** (ell + 1)) + abs(
            2 * c - 1
        ) * t**ell
        return _double_factorial_odd(2 * ell) * num / (2 * c - c * c) ** ell
    raise ValueError(f"unknown closed form {name!r}")


def degree_moment_order(m: int, c) -> Fraction:
    """Moment of order m of the limiting degree law (odd orders vanish)."""
    if m % 2:
        return Fraction(0)
    return closed_form_reference("degree_moment", m // 2, c)


# ---------------------------------------------------------------------------
# fixed band width

def _band_maps(T: TestGraph, bands: Mapping[str, int], n: Optional[int]) -> int:
    """Injective maps phi: V -> {0..n-1}, or V -> Z with phi(0) = 0 when n
    is None, that keep every non-loop class within its band window (the
    tightest band width over the class's labels).

    Backtracks in breadth-first order from vertex 0, after checking that the
    product of the per-vertex choices stays within FIXED_BAND_WORK_LIMIT.
    """
    g = _strip_stars(T)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for cls in edge_classes(g):
        if cls.is_loop:
            continue
        ws = []
        for i in cls.members:
            lab = g.edges[i].label
            if lab not in bands:
                raise ValueError(f"no band width for label {lab!r}")
            ws.append(int(bands[lab]))
        adj[cls.u].append((cls.v, min(ws)))
        adj[cls.v].append((cls.u, min(ws)))
    order = [0]
    tree_w: dict[int, int] = {}  # window of the class each vertex is reached through
    for u in order:
        for v, w in sorted(adj[u]):
            if v != 0 and v not in tree_w:
                tree_w[v] = w
                order.append(v)
    if n is None:
        reach = sum(tree_w.values())
        box, first = (-reach, reach), (0, 0)
        work = math.prod(2 * w + 1 for w in tree_w.values())
    else:
        box = first = (0, n - 1)
        work = n * math.prod(min(2 * w + 1, n) for w in tree_w.values())
    if work > FIXED_BAND_WORK_LIMIT:
        raise ValueError(f"fixed-band count work bound exceeds {FIXED_BAND_WORK_LIMIT}")
    phi: list[Optional[int]] = [None] * g.n_vertices
    used: set[int] = set()
    total = 0

    def rec(k: int) -> None:
        nonlocal total
        if k == len(order):
            total += 1
            return
        v = order[k]
        lo, hi = box if k else first
        for u, w in adj[v]:
            if phi[u] is not None:
                lo = max(lo, phi[u] - w)
                hi = min(hi, phi[u] + w)
        for val in range(lo, hi + 1):
            if val in used:
                continue
            phi[v] = val
            used.add(val)
            rec(k + 1)
            used.discard(val)
        phi[v] = None

    rec(0)
    return total


def fixed_band_count(T: TestGraph, bands: Mapping[str, int], n: int) -> int:
    """Number of injective maps phi: V -> {0..n-1} with |phi(u) - phi(v)|
    bounded by the tightest band width over every non-loop class."""
    return _band_maps(T, bands, n)


def fixed_band_density(T: TestGraph, bands: Mapping[str, int]) -> int:
    """Number of injective maps phi: V -> Z with phi(0) = 0 and every
    non-loop class within its band window.

    It is the exact density lim a_n / n of a_n = fixed_band_count(T, bands,
    n): each such map fits in {0..n-1} at n - span(phi) offsets, so a_n =
    C n - K for every n past the largest span.
    """
    return _band_maps(T, bands, None)


def fixed_band_ltd(
    T: TestGraph, bands: Mapping[str, int], entries: Mapping[str, EntrySpec]
) -> Fraction:
    """Limit of tau^0[T] for fixed band widths and the real entry laws
    ``entries`` (label -> :class:`EntrySpec`), as an exact Fraction.

    The limit is C(T) S(T) / sqrt(P): C is :func:`fixed_band_density`, S(T)
    multiplies the entry laws' moments per (class, label) pair, and P =
    prod over edges (2 b + 1).  Both laws are symmetric, so S != 0 needs an
    even multiplicity for every pair; then every label has an even edge
    count and sqrt(P) = prod over labels (2 b + 1)^(count / 2).  An
    off-diagonal class of a label whose entries are not real-valued is a
    ``ValueError`` naming the label.
    """
    g = _strip_stars(T)
    for lab in g.labels():
        if lab not in bands:
            raise ValueError(f"no band width for label {lab!r}")
    s_factor = 1
    for cls in edge_classes(g):
        for lab, m in Counter(g.edges[i].label for i in cls.members).items():
            if not (cls.is_loop or entries[lab].is_real):
                raise ValueError(
                    f"label {lab!r} has beta {entries[lab].beta}: fixed-band limits need "
                    "real-valued entries (beta = 1 or rademacher)"
                )
            s_factor *= entries[lab].moment(m)
    if s_factor == 0:
        return Fraction(0)
    counts = Counter(e.label for e in g.edges)
    root = math.prod((2 * int(bands[lab]) + 1) ** (c // 2) for lab, c in counts.items())
    return Fraction(fixed_band_density(g, bands) * s_factor, root)


# ---------------------------------------------------------------------------
# Haar orthogonal families

def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class CactusReport:
    is_cactus: bool
    is_anti_directed: bool
    pad_sizes: tuple[int, ...] = ()
    reason: Optional[str] = None


def classify_orthogonal_cactus(T: TestGraph) -> CactusReport:
    """Cactus test for orthogonal families: every edge lies on exactly one
    simple cycle (no bridges) and every cycle alternates direction.

    Stars are resolved first: for an orthogonal matrix the starred edge
    equals the reversed plain edge.
    """
    edges = tuple(e.reversed() if e.star else Edge(*e[:3]) for e in T.edges)
    n = T.n_vertices
    if not edges:
        # the trivial graph: vacuously a cactus, empty pad product
        return CactusReport(True, True, ())
    # loops form their own single-edge blocks and never alternate direction
    loop_blocks = [[i] for i, e in enumerate(edges) if e.src == e.tar]
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for i, e in enumerate(edges):
        if e.src != e.tar:
            adj[e.src].append((e.tar, i))
            adj[e.tar].append((e.src, i))
    # biconnected components via DFS with an edge stack
    disc = [-1] * n
    low = [0] * n
    stack: list[int] = []
    blocks: list[list[int]] = []
    counter = [0]

    def dfs(u: int, parent_edge: int) -> None:
        disc[u] = low[u] = counter[0]
        counter[0] += 1
        for v, ei in adj[u]:
            if ei == parent_edge:
                continue
            if disc[v] == -1:
                stack.append(ei)
                dfs(v, ei)
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e2 = stack.pop()
                        block.append(e2)
                        if e2 == ei:
                            break
                    blocks.append(block)
            elif disc[v] < disc[u]:
                stack.append(ei)
                low[u] = min(low[u], disc[v])

    dfs(0, -1)
    blocks.extend(loop_blocks)
    covered = {i for b in blocks for i in b}
    if len(covered) != len(edges):
        return CactusReport(False, False, reason="graph is not biconnected-decomposable")
    sizes = []
    for block in blocks:
        vs = set()
        for i in block:
            vs.update((edges[i].src, edges[i].tar))
        if len(block) == 1 and edges[block[0]].src != edges[block[0]].tar:
            return CactusReport(False, False, reason="bridge edge outside every cycle")
        if len(block) != len(vs):
            return CactusReport(
                False, False, reason=f"block with {len(block)} edges on {len(vs)} vertices"
            )
        sizes.append(len(block))
    # anti-direction: within each pad every vertex is a source or a sink
    for block in blocks:
        io: dict[int, list[int]] = {}
        for i in block:
            e = edges[i]
            io.setdefault(e.src, []).append(+1)
            io.setdefault(e.tar, []).append(-1)
        for v, signs in io.items():
            if len(set(signs)) != 1:
                return CactusReport(
                    True, False, tuple(sorted(sizes)),
                    reason=f"vertex {v} is neither source nor sink on its pad",
                )
    return CactusReport(True, True, tuple(sorted(sizes)))


def haar_ltd(T: TestGraph) -> int:
    """Limit of tau^0[T] for a Haar orthogonal family: a product of signed
    Catalan numbers over the pads of an anti-directed cactus, else zero.

    A pad of length 2k carries the Weingarten coefficient (-1)^(k-1) C_(k-1),
    the Mobius weight of a join loop covering k column pairs.  The 2-pad is
    weight 1; the anti-directed 4-cycle is -C_1 = -1 (exact value at finite
    n: -(n-2)(n-3)/(n(n+2)), from the inverse of the 3x3 pairing Gram
    matrix)."""
    rep = classify_orthogonal_cactus(T)
    if not (rep.is_cactus and rep.is_anti_directed):
        return 0
    out = 1
    for size in rep.pad_sizes:
        k = size // 2
        out *= (-1) ** (k - 1) * catalan(k - 1)
    return out


# ---------------------------------------------------------------------------
# summing limits over quotients

def double_tree_quotients(
    T: TestGraph,
) -> Iterator[tuple[tuple[tuple[int, ...], ...], TestGraph]]:
    """All vertex partitions of T whose quotient is a colored double tree.

    Yields (blocks, quotient graph).  The scan assigns vertices to blocks in
    index order and prunes any prefix that already violates the double-tree
    conditions (a loop, a class of three edges, mixed labels in a class, or
    a cycle among completed classes), so it touches far fewer states than
    the full partition lattice while yielding exactly the same quotients.
    """
    g = _strip_stars(T)
    n = g.n_vertices
    if any(e.src == e.tar for e in g.edges):
        return
    later: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    for e in g.edges:
        a, b = (e.src, e.tar) if e.src < e.tar else (e.tar, e.src)
        later[b].append((a, e.label))
    remaining = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        remaining[k] = remaining[k + 1] + len(later[k])
    block_of = [-1] * n
    blocks: list[list[int]] = []
    cls_edges: dict[tuple[int, int], list[str]] = {}
    parent = list(range(n))  # skeleton union-find over block ids, no compression
    open_classes = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def try_place(v: int, b: int):
        """Returns an undo record, or None if the placement is pruned."""
        nonlocal open_classes
        undo_cls: list[tuple[int, int]] = []
        undo_union: list[int] = []
        opened = closed = 0
        ok = True
        for u, lab in later[v]:
            a = block_of[u]
            if a == b:
                ok = False  # quotient loop
                break
            key = (a, b) if a < b else (b, a)
            members = cls_edges.get(key)
            if members is None:
                ra, rb = find(key[0]), find(key[1])
                if ra == rb:
                    ok = False  # skeleton cycle
                    break
                parent[ra] = rb
                undo_union.append(ra)
                cls_edges[key] = [lab]
                undo_cls.append(key)
                opened += 1
            elif len(members) == 1:
                if members[0] != lab:
                    ok = False  # mixed labels
                    break
                members.append(lab)
                undo_cls.append(key)
                closed += 1
            else:
                ok = False  # third edge in a class
                break
        open_classes += opened - closed
        record = (undo_cls, undo_union, opened - closed)
        # a pad left open needs one of the edges still to come to close it
        if not ok or open_classes > remaining[v + 1]:
            undo(record)
            return None
        return record

    def undo(record) -> None:
        nonlocal open_classes
        undo_cls, undo_union, net = record
        for key in reversed(undo_cls):
            members = cls_edges[key]
            if len(members) == 2:
                members.pop()
            else:
                del cls_edges[key]
        for ra in reversed(undo_union):
            parent[ra] = ra
        open_classes -= net

    def rec(v: int) -> Iterator[tuple[tuple[tuple[int, ...], ...], TestGraph]]:
        if v == n:
            if open_classes == 0:
                bl = tuple(tuple(b) for b in blocks)
                q = TestGraph(
                    len(blocks),
                    tuple(
                        Edge(block_of[e.src], block_of[e.tar], e.label) for e in g.edges
                    ),
                )
                yield bl, q
            return
        for b in range(len(blocks) + 1):
            fresh = b == len(blocks)
            if fresh:
                blocks.append([])
            rec_state = try_place(v, b)
            if rec_state is not None:
                block_of[v] = b
                blocks[b].append(v)
                yield from rec(v + 1)
                blocks[b].pop()
                block_of[v] = -1
                undo(rec_state)
            if fresh:
                blocks.pop()

    yield from rec(0)


def ltd_trace(
    T: TestGraph,
    ltd_fn: Callable[[TestGraph], Number],
    *,
    support: str = "double_tree",
) -> Number:
    """Limit of tau[T]: the sum of ltd_fn over the quotients of T.

    ``ltd_fn`` gives the limiting injective value of a quotient (for example
    ``lambda q: wigner_ltd(q, betas)``); quotients are grouped up to
    isomorphism so ltd_fn runs once per shape, on one representative of it.
    The default scan visits only double-tree quotients, which carries every
    band-regime limit; they are grouped by :func:`double_tree_code`, summed
    in code order, and the representative is the first quotient of T the
    scan yields in each class.  A limit supported elsewhere (the orthogonal
    one lives on cacti) needs ``support="all"``, the full partition lattice,
    grouped by ``graphs.shape_sum`` with canonical forms as representatives.
    """
    if support == "double_tree":
        classes: dict[tuple, list] = {}
        for _, q in double_tree_quotients(T):
            code = double_tree_code(q)
            slot = classes.get(code)
            if slot is None:
                classes[code] = [q, 1]
            else:
                slot[1] += 1
        groups = [classes[code] for code in sorted(classes)]
    elif support == "all":
        from .partitions import enumerate_partitions

        groups = shape_sum(
            (quotient(T, pi), 1) for pi in enumerate_partitions(T.n_vertices)
        )
    else:
        raise ValueError(f"unknown support {support!r}")
    total: Number = 0
    for rep, count in groups:
        total = total + count * ltd_fn(rep)
    return total


# ---------------------------------------------------------------------------
# matrix models

def model_ltd(model: MatrixModel) -> Callable[[TestGraph], Number]:
    """The injective-limit evaluator of a matrix model.

    An all-Haar model gives :func:`haar_ltd`; an all-fixed-band model gives
    :func:`fixed_band_ltd`, an exact Fraction, with the model's entry laws;
    an all-Wigner model gives :func:`wigner_ltd`, which takes non-real
    pseudo-variances too; any other model gives :func:`rbm_ltd`.  Both take
    the pseudo-variances of the model's entry laws.  A model that mixes fixed
    bands with another regime is refused: no exact limit covers it.
    """
    profiles, entries = model.profiles(), model.entries()
    regime = {lab: profiles[lab].regime if lab in profiles else "haar" for lab in model.labels}
    kinds = set(regime.values())
    if "fixed" in kinds and kinds != {"fixed"}:
        fixed = ", ".join(lab for lab in sorted(regime) if regime[lab] == "fixed")
        other = ", ".join(lab for lab in sorted(regime) if regime[lab] != "fixed")
        raise ValueError(
            f"fixed bands on {fixed} mixed with other regimes on {other}: "
            "no exact limit covers the mix"
        )
    if kinds == {"haar"}:
        return haar_ltd
    if kinds == {"fixed"}:
        bands = {lab: p.b for lab, p in profiles.items()}
        return lambda T: fixed_band_ltd(T, bands, entries)
    betas = {lab: e.beta for lab, e in entries.items()}
    if kinds == {"wigner"}:
        return lambda T: wigner_ltd(T, betas)
    return lambda T: rbm_ltd(T, profiles, betas)


def model_support(model: MatrixModel) -> str:
    """Which quotients the limit of :func:`model_ltd` lives on, as the
    ``support`` of :func:`ltd_trace`.

    Band regimes other than fixed concentrate on double trees.  Haar limits
    live on cacti and fixed-band limits on every quotient, so any label
    without such a regime needs the full partition lattice.
    """
    profiles = model.profiles()
    if all(lab in profiles and profiles[lab].regime != "fixed" for lab in model.labels):
        return "double_tree"
    return "all"
