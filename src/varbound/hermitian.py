"""Small dense complex Hermitian algebra: observables, eigensystems, moments.

Everything here is exact-enough double precision for dimensions up to ~8.
Eigensystems come from LAPACK (``numpy.linalg.eigh``); degenerate clusters
are re-orthonormalized and each eigenvector's phase is fixed afterwards
(largest-magnitude component real and positive), so non-degenerate
eigenvectors do not depend on LAPACK's phase convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MATRIX_TOL = 1e-10
NORM_TOL = 1e-12
DEGENERACY_TOL = 1e-9


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
        if not (np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))):
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

    def density(self):
        """Rank-one projector |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _matrix_tol(m):
    """Hermiticity and reconstruction tolerance, relative to the largest entry."""
    return MATRIX_TOL * max(1.0, float(np.max(np.abs(m))))


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a phase-fixed eigensystem, checked once here.

    Column ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``; the
    ordering is the one requested at construction (ascending by default).
    The arrays are read-only, so the check covers every later use.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    name: str = ""

    def __post_init__(self):
        for key, dtype in (("matrix", complex), ("eigenvalues", float), ("eigenvectors", complex)):
            arr = np.array(getattr(self, key), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, key, arr)
        m, w, v = self.matrix, self.eigenvalues, self.eigenvectors
        if w.ndim != 1 or not m.shape == v.shape == (w.size, w.size):
            raise EigenFailure(f"shapes {m.shape}, {w.shape}, {v.shape} do not form an eigensystem")
        # "not <=" so that a NaN from overflow (entries near 1e308) also fails
        if not np.max(np.abs(v.conj().T @ v - np.eye(w.size))) <= NORM_TOL:
            raise EigenFailure(f"eigenvectors are not orthonormal to {NORM_TOL}")
        if not np.max(np.abs((v * w) @ v.conj().T - m)) <= _matrix_tol(m):
            raise EigenFailure("eigensystem does not reconstruct the matrix")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def eigenvector_matrix(self):
        """Eigenvectors as columns, in stored order (read-only)."""
        return self.eigenvectors


@dataclass(frozen=True)
class MomentStats:
    """First and second moments of an observable in a pure state."""

    mean: float
    second_moment: float
    variance: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "variance", self.second_moment - self.mean**2)

    @property
    def std(self):
        return float(np.sqrt(max(self.variance, 0.0)))


def _fix_phases(vectors):
    """Make the largest-magnitude component of each column real positive."""
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, k])))
        piv = out[i, k]
        if abs(piv) > 0:
            out[:, k] *= np.conj(piv) / abs(piv)
    return out


def _orthonormalize_clusters(w, vectors):
    """Modified Gram-Schmidt inside each degenerate eigenvalue cluster."""
    out = np.array(vectors, dtype=complex)
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or abs(w[k] - w[start]) > DEGENERACY_TOL:
            for i in range(start, k):
                for j in range(start, i):
                    out[:, i] -= np.vdot(out[:, j], out[:, i]) * out[:, j]
                out[:, i] /= np.linalg.norm(out[:, i])
            start = k
    return out


def _match_order(sorted_values, target_order):
    """Permutation mapping sorted eigenvalues onto requested values, to 1e-8 relative."""
    tol = 1e-8 * max(1.0, float(np.max(np.abs(sorted_values))))
    remaining = list(range(len(sorted_values)))
    perm = []
    for t in target_order:
        k = min(remaining, key=lambda i: abs(sorted_values[i] - t))
        if abs(sorted_values[k] - t) > tol:
            raise ValueError(f"requested eigenvalue {t} not present in spectrum {sorted_values}")
        perm.append(k)
        remaining.remove(k)
    return perm


def make_observable(matrix, name="", eigenvalue_order=None) -> Observable:
    """Build an Observable from a Hermitian matrix; the Observable checks
    the eigensystem on construction.

    ``eigenvalue_order`` optionally re-permutes the (ascending-sorted)
    spectrum to a caller-supplied value sequence, e.g. (-1, 1, 0) for the
    spin-1 components.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError("matrix must be square with dimension >= 2")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    dev = np.max(np.abs(m - m.conj().T))
    if dev > _matrix_tol(m):
        raise NonHermitianError(f"max |M - M^dag| entry = {dev:g}")
    m = 0.5 * (m + m.conj().T)

    w, v = np.linalg.eigh(m)
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    v = _orthonormalize_clusters(w, v)
    if eigenvalue_order is not None:
        perm = _match_order(w, eigenvalue_order)
        w, v = w[perm], v[:, perm]
    v = _fix_phases(v)
    return Observable(matrix=m, eigenvalues=w, eigenvectors=v, name=name)


SPIN1_EIGENVALUE_ORDER = (-1.0, 1.0, 0.0)


def builtin_spin1():
    """The four spin-1 observables Lx, Ly, Lz and Lp = LxLy + LyLx.

    Eigensystems use the pairing order (-1, 1, 0).
    """
    lx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    ly = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    lz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    lp = lx @ ly + ly @ lx
    order = SPIN1_EIGENVALUE_ORDER
    return (
        make_observable(lx, "Lx", order),
        make_observable(ly, "Ly", order),
        make_observable(lz, "Lz", order),
        make_observable(lp, "Lp", order),
    )


def _check_dims(state, *observables):
    for obs in observables:
        if obs.dim != state.dim:
            raise DimensionMismatch(f"state dim {state.dim} vs observable dim {obs.dim}")


def moments(state: PureState, obs: Observable) -> MomentStats:
    """Mean <psi|M|psi>, second moment ||M psi||^2 and variance of ``obs``
    in ``state``."""
    _check_dims(state, obs)
    psi = state.amplitudes
    m_psi = obs.matrix @ psi
    return MomentStats(
        mean=float(np.real(np.vdot(psi, m_psi))),
        second_moment=float(np.real(np.vdot(m_psi, m_psi))),
    )


def _centre(psi, obs):
    """Obar|psi> = O psi - <O> psi with <O> = Re<psi|O psi>, from raw
    normalized amplitudes of shape (..., d); the bounds, the basis search
    and the sampled columns all centre through here."""
    o_psi = np.matvec(obs.matrix, psi)
    return o_psi - np.vecdot(psi, o_psi, keepdims=True).real * psi


def covariance(state: PureState, a: Observable, b: Observable) -> float:
    """Quantum covariance Cov(A,B) = Re<Abar psi|Bbar psi> = <{A,B}>/2 - <A><B>."""
    _check_dims(state, a, b)
    psi = state.amplitudes
    return float(np.real(np.vdot(_centre(psi, a), _centre(psi, b))))


def commutator(a: Observable, b: Observable):
    """AB - BA (anti-Hermitian)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def anticommutator(a: Observable, b: Observable):
    """AB + BA (Hermitian)."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    return a.matrix @ b.matrix + b.matrix @ a.matrix


def family_state(theta, label=None) -> PureState:
    """The swept qutrit family (cos t, -sin t, 0)."""
    if label is None:
        label = f"theta={theta:.4f}"
    return PureState(np.array([np.cos(theta), -np.sin(theta), 0.0], dtype=complex), label)


def haar_random_state(dim, rng) -> PureState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))
