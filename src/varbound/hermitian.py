"""Small dense complex Hermitian algebra: observables and eigensystems.

Everything here is exact-enough double precision for dimensions up to ~8.
Eigensystems are LAPACK's (``numpy.linalg.eigh``: ascending, orthonormal),
with each eigenvector's phase fixed afterwards (largest-magnitude component
real and positive), so non-degenerate eigenvectors do not depend on LAPACK's
phase convention.  Each Observable also carries its scale ``max_std``, half
its spectrum's width, and its ``resolution``, the rounding of a computed
one.  The built-in spin-1 observables, stored in the pairing order
(-1, 1, 0), are built once per process and shared, as an Observable is
frozen and its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

MATRIX_TOL = 1e-10
NORM_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# A psi rounds by up to d ulps of the largest |eigenvalue| (each entry is a
# length-d sum), and LAPACK's eigenvectors leave A v - lambda v at up to 2.6 d
# (30,000 random matrices, d = 2..8): a std below RESOLVED_ULPS d is rounding
RESOLVED_ULPS = 8


class NonHermitianError(ValueError):
    """Input matrix is not equal to its conjugate transpose."""


class EigenFailure(RuntimeError):
    """Eigensystem fails validation: its eigenvectors are not orthonormal,
    or it does not reconstruct the matrix."""


class DimensionMismatch(ValueError):
    """Operands live in different Hilbert-space dimensions."""


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray
    label: str | None = None

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError("state must be a vector of length >= 2")
        if not np.isfinite(amp).all():
            raise ValueError("state amplitudes must be finite")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        amp = amp / norm
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self):
        return self.amplitudes.size


def _matrix_tol(scale):
    """Hermiticity and reconstruction tolerance, relative to ``scale``, the
    largest entry's magnitude."""
    return MATRIX_TOL * max(1.0, float(scale))


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a phase-fixed eigensystem, checked once here.

    Column ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``, in the
    order given (``make_observable``'s is ascending).
    The arrays are read-only, so the check covers every later use.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    name: str = ""
    # half the spectrum's width, the largest std any state has (the scale of
    # the verdicts), and RESOLVED_ULPS d ulps of the largest |eigenvalue|,
    # the rounding of a computed A psi - <A> psi and so of a computed std
    max_std: float = field(init=False)
    resolution: float = field(init=False)

    def __post_init__(self):
        for key, dtype in (("matrix", complex), ("eigenvalues", float), ("eigenvectors", complex)):
            arr = np.array(getattr(self, key), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, key, arr)
        m, w, v = self.matrix, self.eigenvalues, self.eigenvectors
        if w.ndim != 1 or not m.shape == v.shape == (w.size, w.size):
            raise EigenFailure(f"shapes {m.shape}, {w.shape}, {v.shape} do not form an eigensystem")
        vh = v.conj().T
        gram = vh @ v
        gram.flat[:: w.size + 1] -= 1.0
        # "not <=" so that a NaN from overflow (entries near 1e308) also fails
        if not abs(gram).max() <= NORM_TOL:
            raise EigenFailure(f"eigenvectors are not orthonormal to {NORM_TOL}")
        if not abs((v * w) @ vh - m).max() <= _matrix_tol(abs(m).max()):
            raise EigenFailure("eigensystem does not reconstruct the matrix")
        values = w.tolist()  # a short list's min and max cost less than numpy's
        lo, hi = min(values), max(values)
        object.__setattr__(self, "max_std", (hi - lo) / 2)
        object.__setattr__(self, "resolution", RESOLVED_ULPS * w.size * EPS * max(-lo, hi))

    @property
    def dim(self):
        return self.matrix.shape[0]


def make_observable(matrix, name="") -> Observable:
    """Build an Observable from a Hermitian matrix, its eigensystem ascending
    and phase-fixed; the Observable checks it on construction.  A stored
    order of the caller's is an ``Observable(...)`` built directly."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("matrix must be square with dimension >= 2")
    scale = abs(m).max()
    # |m_ij| overflows for finite parts near 1e308, so only then look closer
    if not np.isfinite(scale) and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    mh = m.conj().T
    dev = abs(m - mh).max()
    if dev > _matrix_tol(scale):
        raise NonHermitianError(f"max |M - M^dag| entry = {dev:g}")
    m = 0.5 * (m + mh)

    w, v = np.linalg.eigh(m)
    # largest-magnitude component of each column real and positive
    pivot = v[abs(v).argmax(0), np.arange(w.size)]
    v = v * (pivot.conj() / abs(pivot))
    return Observable(matrix=m, eigenvalues=w, eigenvectors=v, name=name)


SPIN1_EIGENVALUE_ORDER = (-1.0, 1.0, 0.0)


@cache
def builtin_spin1():
    """The four spin-1 observables Lx, Ly, Lz and Lp = LxLy + LyLx.

    Each stores its eigensystem in the pairing order (-1, 1, 0): the ascending
    one, last two columns swapped.  Built once per process: every caller
    shares the one tuple of frozen, read-only Observables.
    """
    lx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    ly = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    lz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    lp = lx @ ly + ly @ lx
    p = [0, 2, 1]
    ascending = (make_observable(m, name) for m, name in
                 ((lx, "Lx"), (ly, "Ly"), (lz, "Lz"), (lp, "Lp")))
    return tuple(Observable(o.matrix, o.eigenvalues[p], o.eigenvectors[:, p], o.name)
                 for o in ascending)


def _centre(psi, matrices):
    """The one centring: Obar psi = O psi - <O> psi (k, ..., d) and <O> = Re<psi|O psi>
    (k, ...) of states psi (..., d) for k matrices (k, d, d), row i with matrix i's own bits."""
    psi = np.asarray(psi)
    # (k, 1, ..., 1, d, d), each matrix over the batch: matrix axis first, rows contiguous
    o_psi = np.matvec(np.asarray(matrices)[(slice(None),) + (None,) * (psi.ndim - 1)], psi)
    means = np.vecdot(psi, o_psi).real
    return o_psi - means[..., None] * psi, means


def haar_random_state(dim, rng) -> PureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))
