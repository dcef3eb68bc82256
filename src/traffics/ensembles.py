"""Random matrix ensembles: entry laws, band profiles, samplers.

Entries are always centered with unit absolute second moment; the parameter
``beta = E[X^2]`` (|beta| <= 1) controls the pseudo-variance of off-diagonal
entries.  Band profiles describe how the band width b(n) scales with the
dimension and carry the matching normalization.

An :class:`EntrySpec` holds one entry law, ``gaussian`` (with
pseudo-variance beta) or ``rademacher`` (+-1 with equal weights), and a
:class:`MatrixModel` assigns a band profile and entry law, or Haar, to each
label.  :meth:`MatrixModel.sample` is the one way to draw band and Wigner
matrices.  It and :func:`sample_haar_orthogonal` take an explicit ``rng``,
normally ``stream(seed, index)``: each sample index gets its own
counter-based Philox stream, so estimates are reproducible regardless of
batching or thread count.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Mapping, Optional, Union

import numpy as np

Number = Union[int, float, Fraction]


# (path, get, set) for the thread count of each OpenBLAS mapped into the
# process: None until the first pooled estimate looks for them, () where there
# is none (MKL, Accelerate)
_openblas: Optional[tuple] = None


def _find_openblas() -> tuple:
    """(path, get, set) for the thread count of every OpenBLAS already mapped
    into this process, numpy's among them; () if none is found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({f[5].strip() for f in (line.split(None, 5) for line in maps)
                            if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((path, get, put))
                break
    return tuple(found)


class _BlasLock:
    """Held around every multithreaded BLAS or LAPACK call a sampling thread
    makes: OpenBLAS already runs on every core, and two such calls at once
    oversubscribe them.  While :meth:`one_thread` pins OpenBLAS to one
    thread, the pool threads of the pinned estimate (marked by
    :meth:`pass_this_thread`) pass the lock without holding it, so they,
    not BLAS, take the cores."""

    def __init__(self):
        self._lock = threading.Lock()
        self._passing = threading.local()  # marks the pool threads of a pinned estimate
        self._pin_lock = threading.Lock()  # guards the two below
        self._pins = 0
        self._saved: list[int] = []  # each library's thread count before the first pin

    def __enter__(self) -> None:
        if not getattr(self._passing, "on", False):
            self._lock.acquire()

    def __exit__(self, *exc) -> None:
        if not getattr(self._passing, "on", False):
            self._lock.release()

    def pass_this_thread(self) -> None:
        """Let the calling thread pass the lock from now on: for the pool
        threads of a pinned estimate, which end before its pin does."""
        self._passing.on = True

    @contextmanager
    def one_thread(self) -> Iterator[bool]:
        """Pin every OpenBLAS in the process to one thread for the block,
        and yield True; yield False and pin nothing where no OpenBLAS is
        found.  The count is process-wide, so it holds for every thread
        while the block runs.  Pins overlap across threads: the counts
        OpenBLAS had before the first come back when the last exits, by
        return or by exception, undoing any change made in between.

        The counts change only while this lock is held, so never during a
        locked call.  A call that passes the lock runs on a pool thread of
        a pinned estimate, while a pin holds and the count stays 1."""
        global _openblas
        with self._pin_lock:
            if _openblas is None:
                _openblas = _find_openblas()
            libs = _openblas
            if libs:
                if not self._pins:
                    with self._lock:
                        self._saved = [get() for _, get, _ in libs]
                        for _, _, put in libs:
                            put(1)
                self._pins += 1
        if not libs:
            yield False
            return
        try:
            yield True
        finally:
            with self._pin_lock:
                self._pins -= 1
                if not self._pins:
                    with self._lock:
                        for (_, _, put), count in zip(libs, self._saved):
                            put(count)


BLAS_LOCK = _BlasLock()


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent Philox stream for (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# entry laws

def _double_factorial_odd(k: int) -> int:
    # (k-1)!! for even k
    out = 1
    for j in range(1, k, 2):
        out *= j
    return out


@dataclass(frozen=True)
class EntrySpec:
    """Entry distribution of a Hermitian random matrix: a pseudo-variance
    and one law, ``"gaussian"`` or ``"rademacher"`` (+-1), the same on and
    off the diagonal.

    ``beta = E[X^2]`` for off-diagonal entries (E|X|^2 = 1).  Diagonal
    entries are real draws of the law.  For the complex Gaussian case the
    real and imaginary parts have variances (1+Re beta)/2 and (1-Re beta)/2
    with covariance Im(beta)/2, one consistent choice.  A Rademacher law is
    real, so its beta is 1.
    """

    beta: complex
    law: str

    def __post_init__(self):
        if self.law not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown law {self.law!r}")
        b = complex(self.beta)
        if not (math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if abs(b) > 1 + 1e-12:
            raise ValueError(f"|beta| must be <= 1, got {abs(b)}")
        if self.law == "rademacher" and not self.is_real:
            raise ValueError(f"a rademacher law has beta 1, got {self.beta}")

    @staticmethod
    def gaussian(beta: complex = 1) -> "EntrySpec":
        return EntrySpec(beta, "gaussian")

    @staticmethod
    def rademacher() -> "EntrySpec":
        return EntrySpec(1, "rademacher")

    @property
    def is_real(self) -> bool:
        b = complex(self.beta)
        return b.imag == 0 and abs(b.real - 1) < 1e-12

    def moment(self, k: int) -> int:
        """Exact k-th moment of the real law: that of the diagonal entries,
        and of the off-diagonal ones when ``is_real``."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if k % 2:
            return 0
        return _double_factorial_odd(k) if self.law == "gaussian" else 1

    def _sample_real(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.law == "gaussian":
            return rng.standard_normal(size)
        return np.array([-1.0, 1.0])[rng.choice(2, size=size, p=[0.5, 0.5])]

    def sample_offdiag(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.is_real:
            return self._sample_real(rng, size)
        b = complex(self.beta)
        vr, vi, cv = (1 + b.real) / 2, (1 - b.real) / 2, b.imag / 2
        l11 = math.sqrt(vr)
        l21 = cv / l11 if l11 > 0 else 0.0
        l22 = math.sqrt(max(vi - l21 * l21, 0.0))
        z1 = rng.standard_normal(size)
        z2 = rng.standard_normal(size)
        return l11 * z1 + 1j * (l21 * z1 + l22 * z2)

    def sample_diag(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._sample_real(rng, size)


# ---------------------------------------------------------------------------
# band profiles

_REGIMES = ("wigner", "periodic", "slow", "proportional", "fixed")


@dataclass(frozen=True)
class BandProfile:
    """Band-width scaling regime plus its parameters.

    * ``wigner``: no band, normalization n^(-1/2); ``parse`` also reads it
      as ``full``
    * ``slow``: b(n) = floor(n^gamma) -> infinity, o(n); normalization (2b)^(-1/2)
    * ``proportional``: b(n) = floor(c n), 0 < c <= 1; normalization ((2c-c^2) n)^(-1/2)
    * ``fixed``: constant b; normalization (2b+1)^(-1/2)
    * ``periodic``: circular distance; slow (gamma) or proportional (c)
      growth, normalization (2b)^(-1/2) either way
    """

    regime: str
    c: Optional[Number] = None
    b: Optional[int] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        r = self.regime
        if r not in _REGIMES:
            raise ValueError(f"unknown regime {r!r}")
        if r == "wigner":
            if (self.c, self.b, self.gamma) != (None, None, None):
                raise ValueError("wigner takes no parameters")
        elif r == "slow":
            if self.gamma is None or not 0 < self.gamma < 1:
                raise ValueError("slow regime needs 0 < gamma < 1")
        elif r == "proportional":
            if self.c is None or not 0 < self.c <= 1:
                raise ValueError("proportional regime needs 0 < c <= 1")
        elif r == "fixed":
            if self.b is None or self.b < 0:
                raise ValueError("fixed regime needs b >= 0")
        elif r == "periodic":
            if (self.gamma is None) == (self.c is None):
                raise ValueError("periodic regime needs exactly one of gamma, c")
            if self.gamma is not None and not 0 < self.gamma < 1:
                raise ValueError("periodic-slow needs 0 < gamma < 1")
            if self.c is not None and not 0 < self.c <= Fraction(1, 2):
                raise ValueError("periodic-proportional needs 0 < c <= 1/2")

    @staticmethod
    def parse(text: str) -> "BandProfile":
        """Parse e.g. 'wigner', 'fixed:2', 'proportional:1/3', 'slow:0.5',
        'periodic-slow:0.5', 'periodic-prop:0.25'."""
        head, _, arg = text.strip().partition(":")
        head = head.lower()
        if head in ("wigner", "full"):
            if arg:
                raise ValueError(f"{head} takes no parameter")
            return BandProfile("wigner")
        if not arg:
            raise ValueError(f"regime {head!r} needs a parameter")
        try:
            if head == "fixed":
                return BandProfile("fixed", b=int(arg))
            if head == "proportional":
                return BandProfile("proportional", c=Fraction(arg))
            if head == "slow":
                return BandProfile("slow", gamma=float(Fraction(arg)))
            if head == "periodic-slow":
                return BandProfile("periodic", gamma=float(Fraction(arg)))
            if head in ("periodic-prop", "periodic-proportional"):
                return BandProfile("periodic", c=Fraction(arg))
        except ZeroDivisionError:
            raise ValueError(f"regime parameter {arg!r} divides by zero") from None
        raise ValueError(f"unknown regime {head!r}")

    def describe(self) -> str:
        if self.regime == "wigner":
            return "wigner"
        if self.regime == "fixed":
            return f"fixed:{self.b}"
        if self.regime == "proportional":
            return f"proportional:{self.c}"
        if self.regime == "slow":
            return f"slow:{self.gamma}"
        kind = "slow" if self.gamma is not None else "prop"
        arg = self.gamma if self.gamma is not None else self.c
        return f"periodic-{kind}:{arg}"

    @property
    def is_periodic(self) -> bool:
        return self.regime == "periodic"

    def width(self, n: int) -> int:
        if self.regime == "wigner":
            return n
        if self.regime == "fixed":
            return self.b
        if self.gamma is not None:
            return max(1, int(n**self.gamma))
        return max(1, int(self.c * n))

    def normalization(self, n: int) -> float:
        if self.regime == "wigner":
            return n**-0.5
        if self.regime == "fixed":
            return (2 * self.b + 1) ** -0.5
        if self.regime == "proportional":
            cf = float(self.c)
            return ((2 * cf - cf * cf) * n) ** -0.5
        return (2 * self.width(n)) ** -0.5


def _outside_band(n: int, profile: BandProfile) -> np.ndarray:
    """Boolean mask of the entries above the diagonal that lie outside the
    band: j - i > b(n), and n - (j - i) > b(n) too if the band is periodic.
    Under ``wigner`` (b(n) = n) it is all False."""
    b = profile.width(n)
    outside = ~np.tri(n, k=b, dtype=bool)
    if profile.is_periodic:
        outside &= np.tri(n, k=n - b - 1, dtype=bool)
    return outside


def band_mask(n: int, profile: BandProfile) -> np.ndarray:
    """0/1 float mask of the band, diagonal always included.  It is the band
    :meth:`MatrixModel.sample` keeps, from the same helper; sampling does
    not build it."""
    outside = _outside_band(n, profile)
    return (~(outside | outside.T)).astype(float)


# ---------------------------------------------------------------------------
# samplers

def _assemble(
    n: int,
    entry: EntrySpec,
    rng: np.random.Generator,
    profile: BandProfile,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Band matrix in one pass over the draws, written into ``out`` if
    given (an ``n x n`` array of the entry law's dtype, which is returned).

    Draws the n(n-1)/2 off-diagonal values in ``triu_indices`` order, then
    the n diagonal ones, scales them by the ``profile``'s normalization,
    and writes them through the strict-upper-triangle mask of the matrix
    and, conjugated, of its transpose.  The entries outside the profile's
    band are then cleared to +0.0 through one mask on both.  The two
    triangles and the diagonal cover every entry, so ``out`` need not be
    zeroed."""
    off = entry.sample_offdiag(rng, n * (n - 1) // 2)
    d = entry.sample_diag(rng, n)
    scale = profile.normalization(n)
    off *= scale
    d *= scale
    if np.iscomplexobj(off):
        off.real += 0.0  # zero real parts (beta = -1) are +0.0, as in the sum x + x^H
    x = np.empty((n, n), dtype=off.dtype) if out is None else out
    upper = ~np.tri(n, dtype=bool)
    x[upper] = off
    x.T[upper] = off.conj()
    outside = _outside_band(n, profile)
    x[outside] = 0
    x.T[outside] = 0
    np.fill_diagonal(x, d)
    return x


def degree_matrix(w: np.ndarray) -> np.ndarray:
    """Diagonal matrix of row sums."""
    d = w.sum(axis=-1)
    out = np.zeros_like(w)
    idx = np.arange(w.shape[-1])
    out[..., idx, idx] = d
    return out


def markov(p: float, q: float, w: np.ndarray) -> np.ndarray:
    """p w + q deg(w); at (1, -1) rows sum to zero (Markov generator shape)."""
    return p * w + q * degree_matrix(w)


def sample_haar_orthogonal(
    n: int, rng: np.random.Generator, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction,
    written into ``out`` (a float ``n x n`` array) if given."""
    g = rng.standard_normal((n, n))
    with BLAS_LOCK:
        q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return np.multiply(q, d / np.abs(d), out=out)


# ---------------------------------------------------------------------------
# label -> ensemble models

class MatrixModel:
    """Assignment of an independent ensemble to each label.

    Values of ``assignments`` are a :class:`BandProfile` (Gaussian entries),
    a ``(BandProfile, EntrySpec)`` pair, or the string ``"haar"``; anything
    else is a ``ValueError`` naming the label.  Sampling draws labels in
    sorted order from a single stream, so a (seed, index) pair pins the
    whole family.
    """

    def __init__(self, assignments: Mapping[str, Any]):
        parts = []
        for label in sorted(assignments):
            val = assignments[label]
            if isinstance(val, BandProfile):
                val = (val, EntrySpec.gaussian())
            if val == "haar":
                parts.append((label, "haar", None, None))
            elif (isinstance(val, tuple) and len(val) == 2
                  and isinstance(val[0], BandProfile) and isinstance(val[1], EntrySpec)):
                parts.append((label, "rbm") + val)
            else:
                raise ValueError(
                    f"label {label!r} is assigned {val!r}; expected 'haar', a BandProfile "
                    "or a (BandProfile, EntrySpec) pair"
                )
        self.parts = tuple(parts)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p[0] for p in self.parts)

    def profiles(self) -> dict[str, BandProfile]:
        return {lab: prof for lab, kind, prof, _ in self.parts if kind == "rbm"}

    def entries(self) -> dict[str, EntrySpec]:
        return {lab: ent for lab, kind, _, ent in self.parts if kind == "rbm"}

    def dtypes(self) -> dict[str, type]:
        """Dtype of each label's draws: float for Haar and real entry laws."""
        return {lab: float if kind == "haar" or ent.is_real else complex
                for lab, kind, _, ent in self.parts}

    def sample(
        self, n: int, rng: np.random.Generator, out: Optional[Mapping[str, np.ndarray]] = None
    ) -> dict[str, np.ndarray]:
        """One draw of every label.  A label with an array in ``out`` (``n x n``,
        of the label's :meth:`dtypes` entry) is drawn into it; that array is
        what the returned dict holds for it."""
        draws = {}
        for label, kind, profile, entry in self.parts:
            slot = None if out is None else out.get(label)
            if kind == "haar":
                draws[label] = sample_haar_orthogonal(n, rng, out=slot)
            else:
                draws[label] = _assemble(n, entry, rng, profile, out=slot)
        return draws
