"""The seven variance relations: forward product and sum bounds plus the
reverse (upper) bound on the variance sum.

Each right-hand side is written once, as a pure function ``rhs_eqN`` of
what its relation reads.  The ``eqN_*`` evaluators feed it quantities of a
state; the sweep feeds it estimates from counts and the basis search a
trial basis.  They accept leading batch axes (sums run over the last axis).

All evaluators return a :class:`BoundResult` carrying both sides, the slack
and any intermediates, so a harness can serialize every term.  Lower bounds
use slack = lhs - rhs; the reverse bound uses slack = rhs - lhs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    DimensionMismatch,
    Observable,
    PureState,
    _centre,
    commutator,
    covariance,
    moments,
)

SLACK_TOL = 1e-9
ROUTE_TOL = 1e-10
EQ7_EPS = 1e-9


class IncompleteBasis(ValueError):
    """Supplied basis does not span the space orthonormally."""


class InvalidPairing(ValueError):
    """Eigenvalue pairing is not a permutation of the index set."""


@dataclass(frozen=True)
class OrthonormalBasis:
    """Complete orthonormal basis {|psi_n>} used by the basis-dependent bounds."""

    vectors: tuple[PureState, ...]

    def __post_init__(self):
        d = self.vectors[0].dim
        mat = self.matrix()
        if len(self.vectors) != d:
            raise IncompleteBasis(f"{len(self.vectors)} vectors for dimension {d}")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(d))) > 1e-10:
            raise IncompleteBasis("vectors are not orthonormal to 1e-10")

    @classmethod
    def computational(cls, dim):
        eye = np.eye(dim, dtype=complex)
        return cls(tuple(PureState(eye[:, k]) for k in range(dim)))

    @classmethod
    def from_matrix(cls, unitary):
        u = np.asarray(unitary, dtype=complex)
        return cls(tuple(PureState(u[:, k]) for k in range(u.shape[1])))

    @property
    def dim(self):
        return self.vectors[0].dim

    def matrix(self):
        return np.column_stack([v.amplitudes for v in self.vectors])


@dataclass(frozen=True)
class BasisBoundTerms:
    """Per-basis-vector coefficients of the rewritten basis bounds.

    C_n = <Psi|A|psi_n><psi_n|B|Psi>, D_n = <Psi|psi_n><psi_n|B|Psi>,
    E_n = <psi_n|A|Psi>, F_n = <psi_n|Psi>, G_n = <psi_n|B|Psi>.
    """

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class FidelityTerms:
    """Eigenvalue/fidelity data entering the optimization-free bounds."""

    a_values: np.ndarray
    b_values: np.ndarray
    a_shifted: np.ndarray
    b_shifted: np.ndarray
    fid_a: np.ndarray
    fid_b: np.ndarray
    pairing: tuple[int, ...]


@dataclass(frozen=True)
class BoundResult:
    """One evaluated relation side."""

    relation_id: str
    direction: str  # "lower" or "upper"
    lhs: float
    rhs: float | None
    satisfied: bool
    slack: float | None
    defined: bool = True
    reason: str | None = None
    intermediates: object = None


def _slack_tol(lhs, rhs):
    """Tolerance on a relation's slack, relative to the size of its sides
    (the relations are scale-covariant)."""
    return SLACK_TOL * max(1.0, abs(lhs), abs(rhs))


def _result(relation_id, direction, lhs, rhs, intermediates=None):
    margin = slack(direction, lhs, rhs)
    return BoundResult(
        relation_id=relation_id,
        direction=direction,
        lhs=float(lhs),
        rhs=float(rhs),
        satisfied=bool(margin >= -_slack_tol(lhs, rhs)),
        slack=float(margin),
        intermediates=intermediates,
    )


def _undefined(relation_id, direction, lhs, reason):
    return BoundResult(
        relation_id=relation_id,
        direction=direction,
        lhs=float(lhs),
        rhs=None,
        satisfied=True,
        slack=None,
        defined=False,
        reason=reason,
    )


def _check(state, a, b):
    if a.dim != state.dim or b.dim != state.dim:
        raise DimensionMismatch(
            f"state dim {state.dim} vs observables {a.dim}, {b.dim}"
        )


def _normalize_pairing(pairing, dim):
    if pairing is None:
        pairing = tuple(range(dim))
    pairing = tuple(int(i) for i in pairing)
    if sorted(pairing) != list(range(dim)):
        raise InvalidPairing(f"{pairing} is not a permutation of 0..{dim - 1}")
    return pairing


def slack(direction, lhs, rhs):
    """Margin by which a relation holds: lhs - rhs for a lower bound,
    rhs - lhs for the upper one."""
    return lhs - rhs if direction == "lower" else rhs - lhs


def rhs_eq1(comm_abs, cov):
    """Robertson-Schroedinger: |<[A,B]>|^2 / 4 + Cov(A,B)^2."""
    return (0.5 * comm_abs) ** 2 + cov**2


def rhs_eq2(pa, pb):
    """Basis product bound (sum_n |pa_n| |pb_n|)^2 from the projections
    pa_n = <psi_n|Abar|Psi>, pb_n = <psi_n|Bbar|Psi>."""
    return np.abs(pa.conj() * pb).sum(-1) ** 2


def rhs_eq3(a_shifted, b_shifted, fid_a, fid_b):
    """Fidelity product bound (sum_i sqrt(F_i G_i) a_i b_i)^2 over paired
    shifted eigenvalues a_i, b_i with eigenstate fidelities F_i, G_i."""
    return (np.sqrt(fid_a) * np.sqrt(fid_b) * a_shifted * b_shifted).sum(-1) ** 2


def rhs_eq4(var_apb):
    """Sum bound: half the variance of A + B."""
    return 0.5 * var_apb


def rhs_eq5(pa, pb):
    """Basis sum bound (1/2) sum_n (|pa_n| + |pb_n|)^2; projections as in
    :func:`rhs_eq2`."""
    return 0.5 * ((np.abs(pa) + np.abs(pb)) ** 2).sum(-1)


def rhs_eq6(a_shifted, b_shifted, fid_a, fid_b):
    """Fidelity sum bound (1/2) sum_i (a_i sqrt(F_i) + b_i sqrt(G_i))^2;
    arguments as in :func:`rhs_eq3`."""
    return 0.5 * ((a_shifted * np.sqrt(fid_a) + b_shifted * np.sqrt(fid_b)) ** 2).sum(-1)


def rhs_eq7(var_a, var_b, cov, var_amb):
    """Reverse sum bound 2 var(A-B) / (1 - Cov/(dA dB)) - 2 dA dB.

    Undefined when a standard deviation is at most EQ7_EPS or the
    denominator lies within EQ7_EPS of zero.  Scalars give ``(rhs, None)`` or
    ``(None, reason)``; arrays give ``(rhs, undefined)``, NaN where undefined
    (a separate branch, so evaluate_all's scalar call stays cheap).
    """
    if isinstance(var_a, np.ndarray):
        undefined = np.minimum(var_a, var_b) <= EQ7_EPS**2
        da_db = np.sqrt(np.where(undefined, 1.0, var_a * var_b))
        denom = 1.0 - cov / da_db
        undefined |= np.abs(denom) <= EQ7_EPS
        rhs = 2.0 * var_amb / np.where(undefined, 1.0, denom) - 2.0 * da_db
        return np.where(undefined, np.nan, rhs), undefined
    if min(var_a, var_b) <= EQ7_EPS**2:
        return None, "degenerate variance"
    da_db = np.sqrt(var_a * var_b)
    denom = 1.0 - cov / da_db
    if abs(denom) <= EQ7_EPS:
        return None, "singular denominator"
    return float(2.0 * var_amb / denom - 2.0 * da_db), None


def _centred(state, a, b):
    """Moments of A and B, and the vectors Abar|Psi>, Bbar|Psi>."""
    _check(state, a, b)
    psi = state.amplitudes
    return moments(state, a), moments(state, b), _centre(psi, a), _centre(psi, b)


def _sq_norm(w):
    return float(np.real(np.vdot(w, w)))


def eq1_product_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Robertson-Schroedinger product bound."""
    _check(state, a, b)
    psi = state.amplitudes
    ma, mb = moments(state, a), moments(state, b)
    comm = complex(np.vdot(psi, commutator(a, b) @ psi))
    rhs = rhs_eq1(abs(comm), covariance(state, a, b))
    return _result("eq1", "lower", ma.variance * mb.variance, rhs)


def _basis_terms(state, a, b, basis):
    psi = state.amplitudes
    bm = basis.matrix()
    a_psi = a.matrix @ psi
    b_psi = b.matrix @ psi
    e = bm.conj().T @ a_psi
    f = bm.conj().T @ psi
    g = bm.conj().T @ b_psi
    c = (bm.conj().T @ a_psi).conj() * g  # <Psi|A|psi_n><psi_n|B|Psi>
    d = f.conj() * g
    return BasisBoundTerms(c=c, d=d, e=e, f=f, g=g)


def _basis_projections(state, a, b, basis):
    """Moments of A and B and the projections of Abar|Psi>, Bbar|Psi> onto
    the basis."""
    ma, mb, u, v = _centred(state, a, b)
    if basis.dim != state.dim:
        raise IncompleteBasis("basis dimension does not match the state")
    bh = basis.matrix().conj().T
    return ma, mb, bh @ u, bh @ v


def eq2_product_bound(
    state: PureState, a: Observable, b: Observable, basis: OrthonormalBasis
) -> BoundResult:
    """Basis-dependent product bound (sum over |<Psi|Abar|psi_n><psi_n|Bbar|Psi>|)^2."""
    ma, mb, pa, pb = _basis_projections(state, a, b, basis)
    terms = _basis_terms(state, a, b, basis)
    rhs = rhs_eq2(pa, pb)
    # rewritten route (sum_n |C_n - D_n <A>|)^2, valid when <B> = 0
    if abs(mb.mean) < ROUTE_TOL:
        alt = float(np.sum(np.abs(terms.c - terms.d * ma.mean))) ** 2
        if abs(alt - rhs) > ROUTE_TOL * max(1.0, abs(rhs)):
            raise ArithmeticError(f"eq2 route disagreement: {rhs} vs {alt}")
    return _result("eq2", "lower", ma.variance * mb.variance, rhs, terms)


def _fidelity_terms(state, a, b, pairing, mean_a, mean_b):
    pairing = _normalize_pairing(pairing, state.dim)
    psi = state.amplitudes
    fid_a = np.abs(a.eigenvector_matrix().conj().T @ psi) ** 2
    fid_b_all = np.abs(b.eigenvector_matrix().conj().T @ psi) ** 2
    b_vals = b.eigenvalues[list(pairing)]
    fid_b = fid_b_all[list(pairing)]
    return FidelityTerms(
        a_values=a.eigenvalues.copy(),
        b_values=b_vals,
        a_shifted=a.eigenvalues - mean_a,
        b_shifted=b_vals - mean_b,
        fid_a=fid_a,
        fid_b=fid_b,
        pairing=pairing,
    )


def eq3_product_bound(
    state: PureState, a: Observable, b: Observable, pairing=None
) -> BoundResult:
    """Optimization-free product bound from eigenstate fidelities."""
    _check(state, a, b)
    ma, mb = moments(state, a), moments(state, b)
    t = _fidelity_terms(state, a, b, pairing, ma.mean, mb.mean)
    rhs = rhs_eq3(t.a_shifted, t.b_shifted, t.fid_a, t.fid_b)
    return _result("eq3", "lower", ma.variance * mb.variance, rhs, t)


def eq4_sum_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Sum bound: half the variance of A + B, var(A+B) = ||Abar Psi + Bbar Psi||^2."""
    ma, mb, u, v = _centred(state, a, b)
    return _result("eq4", "lower", ma.variance + mb.variance, rhs_eq4(_sq_norm(u + v)))


def eq5_sum_bound(
    state: PureState, a: Observable, b: Observable, basis: OrthonormalBasis
) -> BoundResult:
    """Basis-dependent sum bound with the factor 1/2 of the un-rewritten form."""
    ma, mb, pa, pb = _basis_projections(state, a, b, basis)
    terms = _basis_terms(state, a, b, basis)
    rhs = rhs_eq5(pa, pb)
    # rewritten route |E_n - F_n <A>| + |G_n - F_n <B>|, valid when <B> = 0
    if abs(mb.mean) < ROUTE_TOL:
        alt = 0.5 * float(
            np.sum((np.abs(terms.e - terms.f * ma.mean) + np.abs(terms.g)) ** 2)
        )
        if abs(alt - rhs) > ROUTE_TOL * max(1.0, abs(rhs)):
            raise ArithmeticError(f"eq5 route disagreement: {rhs} vs {alt}")
    return _result("eq5", "lower", ma.variance + mb.variance, rhs, terms)


def eq6_sum_bound(
    state: PureState, a: Observable, b: Observable, pairing=None
) -> BoundResult:
    """Optimization-free sum bound from eigenstate fidelities."""
    _check(state, a, b)
    ma, mb = moments(state, a), moments(state, b)
    t = _fidelity_terms(state, a, b, pairing, ma.mean, mb.mean)
    rhs = rhs_eq6(t.a_shifted, t.b_shifted, t.fid_a, t.fid_b)
    return _result("eq6", "lower", ma.variance + mb.variance, rhs, t)


def eq7_reverse_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Reverse (upper) bound on the variance sum, var(A-B) = ||Abar Psi - Bbar Psi||^2.

    Degenerate variances or a correlation ratio at 1 make the bound
    undefined; an explicit undefined result is returned rather than raising.
    """
    ma, mb, u, v = _centred(state, a, b)
    lhs = ma.variance + mb.variance
    rhs, reason = rhs_eq7(ma.variance, mb.variance, covariance(state, a, b), _sq_norm(u - v))
    if rhs is None:
        return _undefined("eq7", "upper", lhs, reason)
    return _result("eq7", "upper", lhs, rhs)


@dataclass(frozen=True)
class UncertaintyReport:
    """All seven relations evaluated on one state."""

    state_label: str | None
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    product_lhs: float
    sum_lhs: float
    results: dict[str, BoundResult]


def evaluate_all(
    state: PureState,
    a: Observable,
    b: Observable,
    basis: OrthonormalBasis | None = None,
    pairing=None,
) -> UncertaintyReport:
    """Evaluate eq1..eq7 on one state; eq7 degeneracy degrades to undefined."""
    _check(state, a, b)
    if basis is None:
        basis = OrthonormalBasis.computational(state.dim)
    ma, mb = moments(state, a), moments(state, b)
    results = {
        "eq1": eq1_product_bound(state, a, b),
        "eq2": eq2_product_bound(state, a, b, basis),
        "eq3": eq3_product_bound(state, a, b, pairing),
        "eq4": eq4_sum_bound(state, a, b),
        "eq5": eq5_sum_bound(state, a, b, basis),
        "eq6": eq6_sum_bound(state, a, b, pairing),
        "eq7": eq7_reverse_bound(state, a, b),
    }
    return UncertaintyReport(
        state_label=state.label,
        mean_a=ma.mean,
        mean_b=mb.mean,
        var_a=ma.variance,
        var_b=mb.variance,
        product_lhs=ma.variance * mb.variance,
        sum_lhs=ma.variance + mb.variance,
        results=results,
    )
