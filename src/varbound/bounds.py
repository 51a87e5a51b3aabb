"""The seven variance relations: forward product and sum bounds plus the
reverse (upper) bound on the variance sum.

Each right-hand side is written once, as a pure function ``rhs_eqN`` of
what its relation reads; they accept leading batch axes (sums run over the
last axis).  :func:`evaluate_states`, the one place the quantities of a
state are computed, feeds them a stack of states in one pass; the sweep
feeds them estimates from counts and the basis search a trial basis.

:func:`evaluate_all` is its one-state wrapper: every relation yields a
:class:`BoundResult` carrying both sides and the slack; eq3 and eq6 also
carry their :class:`FidelityTerms`.  Lower bounds use slack = lhs - rhs;
the reverse bound uses slack = rhs - lhs.  The ``eqN_*`` evaluators return
one relation of :func:`evaluate_all`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import DimensionMismatch, Observable, PureState

SLACK_TOL = 1e-9
EQ7_EPS = 1e-9


class IncompleteBasis(ValueError):
    """Supplied basis does not span the space orthonormally."""


class InvalidPairing(ValueError):
    """Eigenvalue pairing is not a permutation of the index set."""


@dataclass(frozen=True)
class OrthonormalBasis:
    """Complete orthonormal basis {|psi_n>} used by the basis-dependent
    bounds: the columns of a unitary ``matrix`` (read-only, checked here)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise IncompleteBasis(f"basis matrix of shape {m.shape} is not square of size >= 2")
        # "not <=" so that a NaN also fails
        if not np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) <= 1e-10:
            raise IncompleteBasis("columns are not orthonormal to 1e-10")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def computational(cls, dim):
        return cls(np.eye(dim))

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FidelityTerms:
    """Shifted eigenvalues and eigenstate fidelities entering the
    optimization-free bounds, B's already in the pairing order."""

    a_shifted: np.ndarray
    b_shifted: np.ndarray
    fid_a: np.ndarray
    fid_b: np.ndarray


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
    (the relations are scale-covariant); elementwise on arrays."""
    return SLACK_TOL * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


def _normalize_pairing(pairing, dim):
    pairing = [int(i) for i in pairing]
    if sorted(pairing) != list(range(dim)):
        raise InvalidPairing(f"{tuple(pairing)} is not a permutation of 0..{dim - 1}")
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


def rhs_eq7(var_a, var_b, var_amb):
    """Reverse sum bound 2 var(A-B) / (1 - Cov/(dA dB)) - 2 dA dB.

    var(A-B) = var(A) + var(B) - 2 Cov gives the denominator as
    (var(A-B) - (dA - dB)^2) / (2 dA dB), which keeps its relative accuracy
    where Cov/(dA dB) nears 1 and 1 - Cov/(dA dB) would cancel.  Undefined
    when a standard deviation is at most EQ7_EPS or the denominator lies
    within EQ7_EPS of zero.  Scalars give ``(rhs, None)`` or
    ``(None, reason)``; arrays give ``(rhs, undefined)``, NaN where undefined
    (evaluate_all reads the reason from the scalar branch).
    """
    if isinstance(var_a, np.ndarray):
        undefined = np.minimum(var_a, var_b) <= EQ7_EPS**2
        da, db = np.sqrt(np.where(undefined, 1.0, [var_a, var_b]))
        # diff * diff, not diff ** 2: a scalar ** 2 is libm's pow, which is
        # off by an ulp now and then, so the scalar branch would round apart
        two_da_db, diff = 2.0 * da * db, da - db
        denom = (var_amb - diff * diff) / two_da_db
        undefined |= np.abs(denom) <= EQ7_EPS
        rhs = 2.0 * var_amb / np.where(undefined, 1.0, denom) - two_da_db
        return np.where(undefined, np.nan, rhs), undefined
    if min(var_a, var_b) <= EQ7_EPS**2:
        return None, "degenerate variance"
    da, db = np.sqrt(var_a), np.sqrt(var_b)
    two_da_db, diff = 2.0 * da * db, da - db
    denom = (var_amb - diff * diff) / two_da_db
    if abs(denom) <= EQ7_EPS:
        return None, "singular denominator"
    return float(2.0 * var_amb / denom - two_da_db), None


def evaluate_states(psi, a, b, basis=None, pairing=None, means=None):
    """Evaluate eq1..eq7 on normalized states ``psi`` (..., d) in one pass.

    With u = Abar|Psi> = A psi - <A> psi and v = Bbar|Psi>:
    var(A) = ||u||^2, var(B) = ||v||^2, Cov(A,B) = Re<u|v>,
    |<[A,B]>| = 2 |Im<u|v>|, var(A +- B) = ||u +- v||^2, and the basis
    bounds read <psi_n|u>, <psi_n|v> (u, v for ``basis=None``).  Returns
    ({name: array}, FidelityTerms) with names mean_a, mean_b, var_a, var_b,
    lhs_prod, lhs_sum, cov, var_amb, eq1..eq7 (NaN where eq7 is undefined)
    and each name of ``means`` ({name: observable O}) with <O>.
    """
    d = np.shape(psi)[-1]
    if a.dim != d or b.dim != d:
        raise DimensionMismatch(f"state dim {d} vs observables {a.dim}, {b.dim}")
    if basis is not None and basis.dim != d:
        raise IncompleteBasis("basis dimension does not match the state")
    a_psi, b_psi = np.matvec(a.matrix, psi), np.matvec(b.matrix, psi)
    mean_a, mean_b = np.vecdot(psi, a_psi).real, np.vecdot(psi, b_psi).real
    u, v = a_psi - mean_a[..., None] * psi, b_psi - mean_b[..., None] * psi
    # var = ||u||^2, not ||A psi||^2 - <A>^2: on an eigenvector the
    # difference rounds to about 1e-16, which eq7's degeneracy rule (a
    # variance at most EQ7_EPS**2 = 1e-18) would miss by chance
    var_a, var_b = np.vecdot(u, u).real, np.vecdot(v, v).real
    uv = np.vecdot(u, v)
    pa, pb = (u, v) if basis is None else (np.matvec(basis.matrix.conj().T, w) for w in (u, v))
    b_shifted = b.eigenvalues - mean_b[..., None]
    fid_b = np.abs(np.matvec(b.eigenvectors.conj().T, psi)) ** 2
    if pairing is not None:
        pairing = _normalize_pairing(pairing, d)
        b_shifted, fid_b = b_shifted[..., pairing], fid_b[..., pairing]
    fid = FidelityTerms(
        a_shifted=a.eigenvalues - mean_a[..., None],
        b_shifted=b_shifted,
        fid_a=np.abs(np.matvec(a.eigenvectors.conj().T, psi)) ** 2,
        fid_b=fid_b,
    )
    fid_args = (fid.a_shifted, fid.b_shifted, fid.fid_a, fid.fid_b)
    out = {
        "mean_a": mean_a, "mean_b": mean_b, "var_a": var_a, "var_b": var_b,
        "lhs_prod": var_a * var_b, "lhs_sum": var_a + var_b,
        "cov": uv.real, "var_amb": np.vecdot(u - v, u - v).real,
        "eq1": rhs_eq1(2.0 * np.abs(uv.imag), uv.real),
        "eq2": rhs_eq2(pa, pb),
        "eq3": rhs_eq3(*fid_args),
        "eq4": rhs_eq4(np.vecdot(u + v, u + v).real),
        "eq5": rhs_eq5(pa, pb),
        "eq6": rhs_eq6(*fid_args),
    }
    out["eq7"] = rhs_eq7(np.asarray(var_a), np.asarray(var_b), out["var_amb"])[0]
    for name, obs in (means or {}).items():
        out[name] = np.vecdot(psi, np.matvec(obs.matrix, psi)).real
    return out, fid


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
    """Evaluate eq1..eq7 on one state (:func:`evaluate_states` of one
    vector); eq7 degeneracy degrades to undefined, with the reason
    :func:`rhs_eq7` gives."""
    t, fid = evaluate_states(state.amplitudes, a, b, basis, pairing)
    # both sides, margins and verdicts of the seven relations as arrays:
    # eq1..eq3 bound the product and eq4..eq6 the sum from below, eq7 the
    # sum from above (see ``slack``)
    ids = [f"eq{i}" for i in range(1, 8)]
    lhs = np.array([t["lhs_prod"]] * 3 + [t["lhs_sum"]] * 4)
    rhs = np.array([t[rid] for rid in ids])
    margin = lhs - rhs
    margin[6] = rhs[6] - lhs[6]
    satisfied = margin >= -_slack_tol(lhs, rhs)
    results = {
        rid: BoundResult(rid, "upper" if rid == "eq7" else "lower", left, right, ok, gap,
                         intermediates=fid if rid in ("eq3", "eq6") else None)
        for rid, left, right, gap, ok in zip(
            ids, lhs.tolist(), rhs.tolist(), margin.tolist(), satisfied.tolist())
    }
    if math.isnan(results["eq7"].rhs):
        results["eq7"] = BoundResult(
            "eq7", "upper", results["eq7"].lhs, None, True, None, defined=False,
            reason=rhs_eq7(*(float(t[k]) for k in ("var_a", "var_b", "var_amb")))[1],
        )
    return UncertaintyReport(
        state_label=state.label,
        **{k: float(t[k]) for k in ("mean_a", "mean_b", "var_a", "var_b")},
        product_lhs=results["eq1"].lhs, sum_lhs=results["eq4"].lhs,
        results=results,
    )


def eq1_product_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Robertson-Schroedinger product bound."""
    return evaluate_all(state, a, b).results["eq1"]


def eq2_product_bound(
    state: PureState, a: Observable, b: Observable, basis: OrthonormalBasis
) -> BoundResult:
    """Basis-dependent product bound (sum over |<Psi|Abar|psi_n><psi_n|Bbar|Psi>|)^2."""
    return evaluate_all(state, a, b, basis).results["eq2"]


def eq3_product_bound(
    state: PureState, a: Observable, b: Observable, pairing=None
) -> BoundResult:
    """Optimization-free product bound from eigenstate fidelities."""
    return evaluate_all(state, a, b, pairing=pairing).results["eq3"]


def eq4_sum_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Sum bound: half the variance of A + B."""
    return evaluate_all(state, a, b).results["eq4"]


def eq5_sum_bound(
    state: PureState, a: Observable, b: Observable, basis: OrthonormalBasis
) -> BoundResult:
    """Basis-dependent sum bound with the factor 1/2 of the un-rewritten form."""
    return evaluate_all(state, a, b, basis).results["eq5"]


def eq6_sum_bound(
    state: PureState, a: Observable, b: Observable, pairing=None
) -> BoundResult:
    """Optimization-free sum bound from eigenstate fidelities."""
    return evaluate_all(state, a, b, pairing=pairing).results["eq6"]


def eq7_reverse_bound(state: PureState, a: Observable, b: Observable) -> BoundResult:
    """Reverse (upper) bound on the variance sum.

    Degenerate variances or a correlation ratio at 1 make the bound
    undefined; an explicit undefined result is returned rather than raising.
    """
    return evaluate_all(state, a, b).results["eq7"]
