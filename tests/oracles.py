"""Independent reference implementations used by the test suite.

Everything here is written the slow, obvious way on purpose: permutation
scans, sums over every vertex map, direct lattice sums, Monte Carlo
volumes, frozen closed forms, and an exact Weingarten expectation from the
pair-partition Gram matrix.  None of it shares code with the package
internals it checks.
"""

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from traffics.graphs import Edge, TestGraph, substitute_graph
from traffics.partitions import enumerate_partitions, pair_partitions


def brute_isomorphic(g: TestGraph, h: TestGraph) -> bool:
    """Test isomorphism by trying every vertex bijection (|V| <= 8)."""
    if g.n_vertices != h.n_vertices or len(g.edges) != len(h.edges):
        return False
    target = sorted(h.edges)
    for perm in permutations(range(g.n_vertices)):
        moved = sorted(
            e._replace(src=perm[e.src], tar=perm[e.tar]) for e in g.edges
        )
        if moved == target:
            return True
    return False


def bell_numbers(limit: int) -> list[int]:
    """Bell triangle; bell_numbers(6) == [1, 1, 2, 5, 15, 52, 203]."""
    out = [1]
    row = [1]
    for _ in range(limit):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def catalan_by_recurrence(limit: int) -> list[int]:
    """C_0..C_limit via C_{k+1} = sum_i C_i C_{k-i}."""
    cs = [1]
    for k in range(limit):
        cs.append(sum(cs[i] * cs[k - i] for i in range(k + 1)))
    return cs


def double_factorial_odd(k: int) -> int:
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def naive_trace_sum(T: TestGraph, fn) -> complex:
    """Sum fn over the quotient of T by every vertex partition."""
    from traffics.graphs import quotient

    total = 0
    for pi in enumerate_partitions(T.n_vertices):
        total = total + fn(quotient(T, pi))
    return total


def ltd_trace_reference(T: TestGraph, ltd_fn) -> complex:
    """Sum ltd_fn over the double-tree quotients of T, grouped by canonical
    key and evaluated on each class's canonical form."""
    from traffics.graphs import shape_sum
    from traffics.limits import double_tree_quotients

    total = 0
    for form, count in shape_sum((q, 1) for _, q in double_tree_quotients(T)):
        total = total + count * ltd_fn(form)
    return total


def vertex_maps(n: int, k: int, injective: bool = False) -> np.ndarray:
    """Every map from k vertices into range(n) as the rows of a (maps, k)
    array, in lexicographic order; with ``injective`` only the one-to-one
    maps."""
    maps = np.indices((n,) * k).reshape(k, -1).T
    if injective:
        s = np.sort(maps, axis=1)
        maps = maps[(s[:, 1:] != s[:, :-1]).all(axis=1)]
    return maps


def map_products(T: TestGraph, mats, maps: np.ndarray) -> np.ndarray:
    """The product over the edges of T of A_e(phi(tar e), phi(src e)) for
    each map phi in the rows of ``maps``, with the conjugate transpose bound
    to starred edges: an array batch + (maps,)."""
    first = next(iter(mats.values()))
    vals = np.ones(first.shape[:-2] + (len(maps),))
    for e in T.edges:
        a = mats[e.label]
        if e.star:
            vals = vals * np.conj(a[..., maps[:, e.src], maps[:, e.tar]])
        else:
            vals = vals * a[..., maps[:, e.tar], maps[:, e.src]]
    return vals


def naive_trace(T: TestGraph, mats, injective: bool = False):
    """tr T(A), or tr^0 T(A) with ``injective``: the edge-entry product
    summed over every vertex map (every injective one)."""
    n = next(iter(mats.values())).shape[-1]
    return map_products(T, mats, vertex_maps(n, T.n_vertices, injective)).sum(axis=-1)


def naive_graph_matrix(T: TestGraph, v_out: int, v_in: int, mats) -> np.ndarray:
    """t(A)[..., i, j]: the edge-entry product summed over every vertex map
    with v_out -> i, v_in -> j."""
    n = next(iter(mats.values())).shape[-1]
    maps = vertex_maps(n, T.n_vertices)
    vals = map_products(T, mats, maps)
    out = np.zeros((n, n) + vals.shape[:-1], dtype=vals.dtype)
    np.add.at(out, (maps[:, v_out], maps[:, v_in]), np.moveaxis(vals, -1, 0))
    return np.moveaxis(out, (0, 1), (-2, -1))


def word_trace_terms(elements) -> tuple:
    """E (1/n) tr(a_1 ... a_m) as (coefficient, closed graph) pairs: a_j
    substituted into edge j of the directed m-cycle, the edge from vertex
    j + 1 into vertex j.  The elements must not use the labels ``slot<j>``."""
    m = len(elements)
    slots = [f"slot{j}" for j in range(m)]
    cycle = TestGraph(m, tuple(Edge((j + 1) % m, j, slots[j]) for j in range(m)))
    return substitute_graph(cycle, dict(zip(slots, elements)))


def closed_sum_reference(terms, ltd_fn):
    """Sum of coeff * ltd_trace(g) over (coeff, closed graph) pairs with one
    ltd_trace per canonical key, every graph keyed and scanned: the moment
    sums' loop before they skipped graphs that cannot pair."""
    from traffics.graphs import canonical_key
    from traffics.limits import ltd_trace

    memo = {}
    total = 0
    for coeff, g in terms:
        key = canonical_key(g)
        if key not in memo:
            memo[key] = ltd_trace(g, ltd_fn)
        total = total + coeff * memo[key]
    return total


def cyclic_word_reference(polys, ltd_fn):
    """E (1/n) tr(a_1 ... a_m) over rotation classes of cyclic words, in the
    order the moment sums use, with every class substituted and summed by
    :func:`closed_sum_reference`."""
    m = len(polys)
    ids = {}
    slot_ids = [tuple(ids.setdefault(t, len(ids)) for t in p.terms) for p in polys]
    terms = list(ids)
    classes = Counter(min(w[i:] + w[:i] for i in range(m)) for w in product(*slot_ids))
    slots = [f"slot{j}" for j in range(m)]
    cycle = TestGraph(m, tuple(Edge((j + 1) % m, j, slots[j]) for j in range(m)))

    def closed():
        for word, count in classes.items():
            coeff = count
            for i in word:
                coeff = coeff * terms[i][1]
            ((_, g),) = substitute_graph(cycle, {s: terms[i][0] for s, i in zip(slots, word)})
            yield coeff, g

    return closed_sum_reference(closed(), ltd_fn)


def mc_cut_volume(T: TestGraph, proportions, points: int, seed: int = 0) -> float:
    """Monte Carlo volume of the band-compatible region in [0,1]^V."""
    rng = np.random.default_rng(seed)
    ok = np.ones(points, dtype=bool)
    xs = rng.random((T.n_vertices, points))
    for e in T.edges:
        if e.src == e.tar:
            continue
        c = float(proportions[e.label])
        ok &= np.abs(xs[e.src] - xs[e.tar]) <= c
    return float(np.mean(ok))


def _poly_add(p: tuple, q: tuple) -> tuple:
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _poly_scale(p: tuple, a: Fraction) -> tuple:
    return tuple(a * x for x in p)


def _poly_mul(p: tuple, q: tuple) -> tuple:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_eval(p: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_antideriv(p: tuple) -> tuple:
    return (Fraction(0),) + tuple(Fraction(c, i + 1) for i, c in enumerate(p))


def _poly_shift(p: tuple, s: Fraction) -> tuple:
    """q with q(x) = p(x + s)."""
    out = [Fraction(0)] * len(p)
    for j, c in enumerate(p):
        # expand c (x+s)^j
        for k in range(j + 1):
            out[k] += c * math.comb(j, k) * s ** (j - k)
    return tuple(out)


@dataclass(frozen=True)
class PiecewisePoly:
    """Exact piecewise polynomial on [0, 1] with Fraction coefficients.

    ``breaks`` is an increasing tuple starting at 0 and ending at 1;
    ``pieces[i]`` holds the coefficients (low degree first) on
    [breaks[i], breaks[i+1]].
    """

    breaks: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def one() -> "PiecewisePoly":
        return PiecewisePoly((Fraction(0), Fraction(1)), ((Fraction(1),),))

    def _on(self, breaks: tuple[Fraction, ...]) -> tuple[tuple, ...]:
        """Pieces re-sampled on a refinement of the break grid."""
        out = []
        j = 0
        for lo, hi in zip(breaks, breaks[1:]):
            mid = (lo + hi) / 2
            while not (self.breaks[j] <= mid <= self.breaks[j + 1]):
                j += 1
            out.append(self.pieces[j])
        return tuple(out)

    def _zip(self, other: "PiecewisePoly", op) -> "PiecewisePoly":
        breaks = tuple(sorted(set(self.breaks) | set(other.breaks)))
        a, b = self._on(breaks), other._on(breaks)
        return PiecewisePoly(breaks, tuple(op(p, q) for p, q in zip(a, b)))

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._zip(other, _poly_mul)

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._zip(other, _poly_add)

    def __sub__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._zip(other, lambda p, q: _poly_add(p, _poly_scale(q, Fraction(-1))))

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        if not 0 <= x <= 1:
            raise ValueError("argument outside [0, 1]")
        for i in range(len(self.pieces)):
            if x <= self.breaks[i + 1]:
                return _poly_eval(self.pieces[i], x)
        return _poly_eval(self.pieces[-1], x)

    def integral(self) -> Fraction:
        total = Fraction(0)
        for lo, hi, p in zip(self.breaks, self.breaks[1:], self.pieces):
            anti = _poly_antideriv(p)
            total += _poly_eval(anti, hi) - _poly_eval(anti, lo)
        return total

    def antiderivative(self) -> "PiecewisePoly":
        """Continuous antiderivative F with F(0) = 0."""
        pieces = []
        acc = Fraction(0)
        for lo, p in zip(self.breaks, self.pieces):
            anti = _poly_antideriv(p)
            const = acc - _poly_eval(anti, lo)
            pieces.append(_poly_add(anti, (const,)))
            hi = self.breaks[len(pieces)]
            acc = _poly_eval(pieces[-1], hi)
        return PiecewisePoly(self.breaks, tuple(pieces))

    def compose_clamped(self, s: Fraction) -> "PiecewisePoly":
        """g(x) = self(clamp(x + s, 0, 1)) as a piecewise polynomial on [0, 1]."""
        cand = {Fraction(0), Fraction(1), -s, 1 - s}
        cand.update(b - s for b in self.breaks)
        breaks = tuple(sorted(c for c in cand if 0 <= c <= 1))
        lo_val = _poly_eval(self.pieces[0], Fraction(0))
        hi_val = _poly_eval(self.pieces[-1], Fraction(1))
        pieces = []
        for a, b in zip(breaks, breaks[1:]):
            t = (a + b) / 2 + s
            if t <= 0:
                pieces.append((lo_val,))
            elif t >= 1:
                pieces.append((hi_val,))
            else:
                j = 0
                while not (self.breaks[j] <= t <= self.breaks[j + 1]):
                    j += 1
                pieces.append(_poly_shift(self.pieces[j], s))
        return PiecewisePoly(breaks, tuple(pieces))

    def window(self, c: Fraction) -> "PiecewisePoly":
        """g(x) = integral of self over [x-c, x+c] intersected with [0, 1]."""
        F = self.antiderivative()
        return F.compose_clamped(c) - F.compose_clamped(-c)


def cut_integral_reference(T: TestGraph, proportions) -> Fraction:
    """Volume of {x in [0,1]^V : |x_u - x_v| <= c for every pad uv} of a
    double tree T, by eliminating skeleton leaves with Fraction piecewise
    polynomials on [0, 1].  ``proportions`` is one number or a label map."""
    adj = {v: {} for v in range(T.n_vertices)}
    for e in T.edges:
        c = proportions[e.label] if isinstance(proportions, Mapping) else proportions
        adj[e.src][e.tar] = adj[e.tar][e.src] = Fraction(c)
    f = {v: PiecewisePoly.one() for v in adj}
    while len(adj) > 1:
        u = next(v for v, nbrs in adj.items() if len(nbrs) == 1)
        ((w, c),) = adj.pop(u).items()
        del adj[w][u]
        f[w] = f[w] * f.pop(u).window(c)
    (root,) = adj
    return f[root].integral()


def pT_star(c) -> Fraction:
    """Frozen closed form of the cut probability of the two-pad star, one
    label at proportion c."""
    c = Fraction(c)
    if c <= Fraction(1, 2):
        num = 8 * c * c * (Fraction(1, 2) - c) + Fraction(14, 3) * c**3
    else:
        num = 2 * c - 1 + Fraction(2, 3) * (1 - c**3)
    return num / (2 * c - c * c) ** 2


def pS(ci, cj) -> Fraction:
    """Frozen closed form of the cut probability of the two-pad star with
    its pads at proportions ci and cj (two labels)."""
    ci, cj = sorted((Fraction(ci), Fraction(cj)))
    if ci + cj <= 1:
        num = -Fraction(1, 3) * ci**3 - ci**2 * cj - 2 * ci * cj**2 + 4 * ci * cj
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
    return num / ((2 * ci - ci * ci) * (2 * cj - cj * cj))


def degree_moment(m: int, c) -> Fraction:
    """Limit of the m-th moment of the normalized degree matrix of a
    proportional band at proportion c; odd moments vanish."""
    if m % 2:
        return Fraction(0)
    ell, c = m // 2, Fraction(c)
    t = min(2 * c, Fraction(1))
    num = Fraction(2, ell + 1) * (t ** (ell + 1) - c ** (ell + 1)) + abs(2 * c - 1) * t**ell
    return double_factorial_odd(ell) * num / (2 * c - c * c) ** ell


def forest_components(n_vertices: int, undirected_edges) -> int:
    """Union-find component count of an undirected graph."""
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in undirected_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n_vertices)})


def is_forest(n_vertices: int, undirected_edges) -> bool:
    comps = forest_components(n_vertices, undirected_edges)
    return len(list(undirected_edges)) == n_vertices - comps


# ---------------------------------------------------------------------------
# exact Haar orthogonal expectations

def _loops(p, q, m: int) -> int:
    return forest_components(m, list(p) + list(q))


def _solve_fraction(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Q."""
    m = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(m):
        piv = next(r for r in range(col, m) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(m):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][m] for r in range(m)]


def haar_injective_expectation(T: TestGraph, n: int) -> Fraction:
    """Exact E[prod of O-entries] for one injective vertex labelling.

    The Gram matrix of pair partitions is G(p, q) = n^{#loops(p v q)}; the
    Weingarten matrix is its inverse, and only pairings constant on rows
    (resp. columns) survive the index deltas.
    """
    edges = T.edges
    m = len(edges)
    if m % 2:
        return Fraction(0)
    rows = [e.src if e.star else e.tar for e in edges]
    cols = [e.tar if e.star else e.src for e in edges]
    pairings = [tuple(tuple(b) for b in p) for p in pair_partitions(m)]
    row_ok = [
        i
        for i, p in enumerate(pairings)
        if all(rows[a] == rows[b] for a, b in p)
    ]
    col_ok = [
        i
        for i, p in enumerate(pairings)
        if all(cols[a] == cols[b] for a, b in p)
    ]
    if not row_ok or not col_ok:
        return Fraction(0)
    flat = [
        [tuple(pair) for pair in pairings[i]] for i in range(len(pairings))
    ]
    G = [
        [Fraction(n) ** _loops(flat[i], flat[j], m) for j in range(len(pairings))]
        for i in range(len(pairings))
    ]
    total = Fraction(0)
    for q in col_ok:
        e_q = [Fraction(int(i == q)) for i in range(len(pairings))]
        wg_col = _solve_fraction(G, e_q)
        for p in row_ok:
            total += wg_col[p]
    return total


def haar_tau0_exact(T: TestGraph, n: int) -> Fraction:
    """Exact (1/n) E tr^0 T(O) for Haar orthogonal O at finite n."""
    per = haar_injective_expectation(T, n)
    count = Fraction(1)
    for j in range(T.n_vertices):
        count *= n - j
    return count * per / n


def haar_estimator_mean(T: TestGraph, n: int) -> Fraction:
    """Exact mean of the count-normalized injective estimator."""
    return Fraction(n) ** (T.n_vertices - 1) * haar_injective_expectation(T, n)


def sample_hermitian_reference(n: int, entry, rng) -> np.ndarray:
    """Hermitian draw assembled the obvious way: scatter the off-diagonal
    values at ``triu_indices``, add the conjugate transpose, set the
    diagonal."""
    iu = np.triu_indices(n, 1)
    off = entry.sample_offdiag(rng, iu[0].size)
    d = entry.sample_diag(rng, n)
    x = np.zeros((n, n), dtype=complex if np.iscomplexobj(off) else float)
    x[iu] = off
    x = x + x.conj().T
    x[np.arange(n), np.arange(n)] = d
    return x


def band_mask_reference(n: int, profile) -> np.ndarray:
    """0/1 band mask from the distance matrix |i - j| (circular if periodic)."""
    if profile.regime == "wigner":
        return np.ones((n, n))
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    if profile.is_periodic:
        d = np.minimum(d, n - d)
    return (d <= profile.width(n)).astype(float)


def sample_rbm_reference(n: int, profile, entry, rng) -> np.ndarray:
    """Band draw as normalization * band mask * Hermitian draw."""
    x = sample_hermitian_reference(n, entry, rng)
    return profile.normalization(n) * band_mask_reference(n, profile) * x
