"""Sampling layer: entry laws, band profiles, matrix models, determinism."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from traffics import ensembles
from traffics.ensembles import (
    BandProfile,
    EntrySpec,
    MatrixModel,
    band_mask,
    degree_matrix,
    markov,
    sample_haar_orthogonal,
    stream,
)
from oracles import band_mask_reference, sample_hermitian_reference, sample_rbm_reference

WIGNER = BandProfile("wigner")


def draw(n, profile, entry, rng):
    """One draw of a one-label model, the only public band sampler."""
    return MatrixModel({"x": (profile, entry)}).sample(n, rng)["x"]


# ---------------------------------------------------------------------------
# streams

def test_stream_reproducible():
    a = stream(7, 3).standard_normal(5)
    b = stream(7, 3).standard_normal(5)
    assert np.array_equal(a, b)


def test_streams_differ_by_index():
    a = stream(7, 0).standard_normal(5)
    b = stream(7, 1).standard_normal(5)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# entry laws

def test_gaussian_moments():
    s = EntrySpec.gaussian()
    assert s.is_real
    assert [s.moment(k) for k in (0, 1, 2, 3, 4, 6)] == [1, 0, 1, 0, 3, 15]
    with pytest.raises(ValueError, match="moment order"):
        s.moment(-1)


def test_rademacher_moments():
    s = EntrySpec.rademacher()
    moments = [s.moment(k) for k in (1, 2, 3, 4)]
    assert moments == [0, 1, 0, 1]
    assert all(type(m) is int for m in moments)


@pytest.mark.parametrize("kind", ["discrete", "bernoulli", "Gaussian", ""])
def test_law_kinds_are_gaussian_and_rademacher(kind):
    assert EntrySpec.gaussian(0.5) == EntrySpec(0.5, "gaussian")
    assert EntrySpec.rademacher() == EntrySpec(1, "rademacher")
    with pytest.raises(ValueError, match="unknown law"):
        EntrySpec(1, kind)


@pytest.mark.parametrize("beta", [0.5, Fraction(1, 2), 0, -1, 1j])
def test_rademacher_law_has_beta_one(beta):
    # +-1 entries have E[X^2] = 1: any other pseudo-variance contradicts the law
    with pytest.raises(ValueError, match="rademacher law has beta 1"):
        EntrySpec(beta, "rademacher")


def test_beta_bound():
    with pytest.raises(ValueError):
        EntrySpec.gaussian(beta=2.0)


@pytest.mark.parametrize("beta", [float("nan"), complex(0, float("nan")), float("inf")])
def test_beta_must_be_finite(beta):
    with pytest.raises(ValueError, match="finite"):
        EntrySpec.gaussian(beta=beta)


def test_complex_beta_allowed():
    s = EntrySpec.gaussian(beta=0.5j)
    assert not s.is_real


# ---------------------------------------------------------------------------
# band profiles

def test_parse_describe_round_trip():
    for text in ("wigner", "full", "fixed:2", "proportional:1/3", "slow:0.5",
                 "periodic-slow:0.5", "periodic-prop:1/4"):
        p = BandProfile.parse(text)
        assert BandProfile.parse(p.describe()) == p


def test_full_is_a_spelling_of_wigner():
    assert BandProfile.parse("full") == BandProfile.parse("wigner") == BandProfile("wigner")
    assert BandProfile.parse("full").describe() == "wigner"
    with pytest.raises(ValueError):
        BandProfile("full")
    with pytest.raises(ValueError, match="full takes no parameter"):
        BandProfile.parse("full:1")


def test_parse_rejects_junk():
    for text in ("wigner:1", "proportional", "proportional:0", "proportional:2",
                 "slow:1", "fixed:-1", "nonsense:3", "periodic-prop:0.75"):
        with pytest.raises(ValueError):
            BandProfile.parse(text)


def test_widths():
    assert BandProfile.parse("wigner").width(10) == 10
    assert BandProfile.parse("fixed:2").width(10) == 2
    assert BandProfile.parse("proportional:1/2").width(10) == 5
    assert BandProfile.parse("slow:0.5").width(100) == 10


def test_band_mask_symmetry_and_width():
    p = BandProfile.parse("fixed:2")
    m = band_mask(7, p)
    assert m.shape == (7, 7)
    assert np.array_equal(m, m.T)
    assert m[0, 2] and not m[0, 3]


def test_periodic_mask_wraps():
    p = BandProfile.parse("periodic-prop:1/4")
    m = band_mask(8, p)
    assert m[0, 7]  # circular distance 1
    assert np.array_equal(m, m.T)


def test_full_mask_is_all_ones():
    m = band_mask(6, BandProfile.parse("full"))
    assert m.all()


# ---------------------------------------------------------------------------
# samplers

def test_wigner_is_hermitian():
    w = draw(20, WIGNER, EntrySpec.gaussian(), stream(0))
    assert np.allclose(w, w.conj().T)


def test_rbm_respects_band():
    p = BandProfile.parse("fixed:1")
    a = draw(10, p, EntrySpec.gaussian(), stream(1))
    assert np.allclose(a, a.conj().T)
    assert a[0, 5] == 0
    assert a[0, 1] != 0 or a[1, 2] != 0  # overwhelmingly likely


ASSEMBLY_REGIMES = ("wigner", "fixed:0", "fixed:2", "proportional:1/4", "proportional:1/2",
                    "proportional:1", "slow:0.5", "periodic-slow:0.5", "periodic-prop:1/4")
ASSEMBLY_LAWS = {
    "beta=1": EntrySpec.gaussian(1),
    "beta=0": EntrySpec.gaussian(0),
    "beta=0.3+0.4i": EntrySpec.gaussian(0.3 + 0.4j),
    "beta=-1": EntrySpec.gaussian(-1),
    "rademacher": EntrySpec.rademacher(),
}
ASSEMBLY_NS = (1, 2, 3, 7, 50)


@pytest.mark.parametrize("law", sorted(ASSEMBLY_LAWS))
def test_rbm_matches_masked_hermitian_oracle(law):
    # the one-pass assembly equals normalization * band_mask * hermitian up
    # to the sign of zeros: out of band it writes +0.0, where 0 * x left -0.0
    entry = ASSEMBLY_LAWS[law]
    for text in ASSEMBLY_REGIMES:
        profile = BandProfile.parse(text)
        for n in ASSEMBLY_NS:
            got = draw(n, profile, entry, stream(5, n))
            want = sample_rbm_reference(n, profile, entry, stream(5, n))
            assert got.dtype == want.dtype, (text, n)
            assert np.array_equal(got, want), (text, n)
            outside = got[band_mask_reference(n, profile) == 0]
            assert not np.signbit(outside.real).any() and not np.signbit(outside.imag).any()
            assert np.array_equal(band_mask(n, profile), band_mask_reference(n, profile))


def test_rbm_builds_no_band_mask_or_index_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampling builds no band mask or triu indices")

    monkeypatch.setattr(ensembles, "band_mask", refuse)
    monkeypatch.setattr(np, "triu_indices", refuse)
    a = draw(9, BandProfile.parse("periodic-prop:1/4"), EntrySpec.gaussian(), stream(1))
    assert a.shape == (9, 9) and a[0, 8] != 0 and a[0, 4] == 0


@pytest.mark.parametrize("law", sorted(ASSEMBLY_LAWS))
def test_hermitian_and_wigner_draws_keep_their_bytes(law):
    # a Wigner draw is the unit-variance Hermitian oracle times n^(-1/2)
    entry = ASSEMBLY_LAWS[law]
    for n in ASSEMBLY_NS:
        want = sample_hermitian_reference(n, entry, stream(6, n)) * n**-0.5
        got = draw(n, WIGNER, entry, stream(6, n))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# sha256 over the one-label model draw of (profile, rademacher) from
# stream(5, n) for n = 1, 2, 7, 50: the Rademacher stream frozen independently
# of EntrySpec.sample_offdiag, which the reference assembly above shares with
# the package
RADEMACHER_DIGESTS = {
    "wigner": "1d7435581fdfcd08b095bb7a21b9637da40515f37574e12e1d901432c288be08",
    "fixed:2": "22f7b900a7c5ffcb97684893004f3044a417f5b73c32135dbcc197595f1dc071",
    "proportional:1/2": "24ed2962fa748619ce014d220791edde5b06e557b3b01b4ec1ed156b8648bab2",
    "slow:0.5": "587c3488c5c4ae8aa9f18f46e9ffd17eb66c061a476dcf05dd2e299fce6b43d1",
    "periodic-prop:1/4": "8534a539deb184c28a34735359abf13ad5796063b36721874ab1114cd20b6ebc",
}


@pytest.mark.parametrize("regime", sorted(RADEMACHER_DIGESTS))
def test_rademacher_draws_keep_their_frozen_bytes(regime):
    h = hashlib.sha256()
    for n in (1, 2, 7, 50):
        x = draw(n, BandProfile.parse(regime), EntrySpec.rademacher(), stream(5, n))
        h.update(x.tobytes())
    assert h.hexdigest() == RADEMACHER_DIGESTS[regime]


@pytest.mark.parametrize("call", [
    lambda: MatrixModel({"x": (WIGNER, EntrySpec.rademacher())}).sample(5),
    lambda: MatrixModel({"x": BandProfile.parse("fixed:1")}).sample(5),
    lambda: sample_haar_orthogonal(5),
], ids=["wigner", "rbm", "haar"])
def test_samplers_need_an_rng(call):
    with pytest.raises(TypeError):
        call()


def test_hermitian_complex_entries():
    spec = EntrySpec.gaussian(beta=0)
    h = draw(50, WIGNER, spec, stream(2))
    assert np.allclose(h, h.conj().T)
    assert np.iscomplexobj(h)


def test_degree_matrix_row_sums():
    w = draw(12, BandProfile.parse("proportional:1/2"), EntrySpec.gaussian(), stream(3))
    d = degree_matrix(w)
    assert np.allclose(np.diag(d), w.sum(axis=1))
    assert np.count_nonzero(d - np.diag(np.diag(d))) == 0


def test_degree_matrix_batched():
    w = np.stack([draw(6, WIGNER, EntrySpec.gaussian(), stream(s)) for s in (4, 5)])
    d = degree_matrix(w)
    assert d.shape == (2, 6, 6)
    assert np.allclose(np.diagonal(d, axis1=-2, axis2=-1), w.sum(axis=-1))


def test_markov_combination():
    w = draw(8, WIGNER, EntrySpec.gaussian(), stream(6))
    m = markov(2.0, 3.0, w)
    d = degree_matrix(w)
    assert np.allclose(m, 2.0 * w + 3.0 * d)


def test_haar_is_orthogonal():
    o = sample_haar_orthogonal(25, stream(7))
    assert np.allclose(o @ o.T, np.eye(25), atol=1e-10)
    assert abs(abs(np.linalg.det(o)) - 1) < 1e-10


def test_haar_entry_variance():
    # E O_ii^2 = 1/n; average the diagonal over samples
    n = 100
    vals = [n * np.mean(np.diag(sample_haar_orthogonal(n, stream(s))) ** 2)
            for s in range(50)]
    assert abs(np.mean(vals) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# models

def test_model_sample_keys_and_shapes():
    m = MatrixModel({
        "x": BandProfile.parse("wigner"),
        "o": "haar",
        "b": (BandProfile.parse("fixed:1"), EntrySpec.rademacher()),
    })
    assert m.labels == ("b", "o", "x")
    out = m.sample(9, stream(11))
    assert set(out) == {"x", "o", "b"}
    assert all(v.shape == (9, 9) for v in out.values())


def test_model_sampling_is_label_order_independent():
    a = MatrixModel({"x": BandProfile.parse("wigner"), "y": BandProfile.parse("full")})
    b = MatrixModel({"y": BandProfile.parse("full"), "x": BandProfile.parse("wigner")})
    sa = a.sample(6, stream(3))
    sb = b.sample(6, stream(3))
    assert np.array_equal(sa["x"], sb["x"])
    assert np.array_equal(sa["y"], sb["y"])


def test_model_rejects_unknown_assignment():
    with pytest.raises((TypeError, ValueError)):
        MatrixModel({"x": "spectral"}).sample(4, stream(0))


@pytest.mark.parametrize("value", [
    "ab",
    "spectral",
    (BandProfile.parse("wigner"), "gaussian"),
], ids=["string", "unknown-name", "entry-not-a-spec"])
def test_model_assignment_errors_name_the_label(value):
    with pytest.raises(ValueError, match="label 'x' is assigned"):
        MatrixModel({"x": value, "y": "haar"})


def test_model_dtypes_follow_the_entry_law():
    m = MatrixModel({
        "h": "haar",
        "r": (BandProfile.parse("fixed:1"), EntrySpec.rademacher()),
        "g": BandProfile.parse("wigner"),
        "c": (BandProfile.parse("wigner"), EntrySpec.gaussian(0.5j)),
    })
    assert m.dtypes() == {"c": complex, "g": float, "h": float, "r": float}
    draws = m.sample(5, stream(2))
    assert all(draws[lab].dtype == np.dtype(dt) for lab, dt in m.dtypes().items())


def test_model_draws_into_given_slots_bit_for_bit():
    m = MatrixModel({
        "h": "haar",
        "p": (BandProfile.parse("periodic-prop:1/4"), EntrySpec.gaussian(-1)),
        "r": (BandProfile.parse("proportional:1/3"), EntrySpec.rademacher()),
        "w": (BandProfile.parse("wigner"), EntrySpec.gaussian(0.3 + 0.4j)),
    })
    n = 11
    fresh = m.sample(n, stream(8, 3))
    # slots full of garbage: every entry must be written
    slots = {lab: np.full((n, n), np.nan, dtype=dt) for lab, dt in m.dtypes().items()}
    drawn = m.sample(n, stream(8, 3), out=slots)
    for lab in m.labels:
        assert drawn[lab] is slots[lab]
        assert slots[lab].tobytes() == fresh[lab].tobytes()
    # a label without a slot is drawn fresh, and the stream stays in step
    partial = m.sample(n, stream(8, 3), out={"r": np.empty((n, n))})
    assert all(partial[lab].tobytes() == fresh[lab].tobytes() for lab in m.labels)
