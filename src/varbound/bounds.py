"""The seven variance relations: forward product and sum bounds plus the
reverse (upper) bound on the variance sum.

Each right-hand side is written once, as a pure function ``rhs_eqN`` of
what its relation reads; they accept leading batch axes (sums run over the
last axis).  :func:`relation_sides` feeds all but the basis bounds eq2 and
eq5 from second moments of any source: :func:`evaluate_states`, the one
place the quantities of a state are computed, passes a stack of states'
moments in one pass and the sweep estimates from counts.  eq2 and eq5 read
Abar psi and Bbar psi, which the kernel, the sweep's plug-in state and the
basis search all take from one function, ``hermitian._centre``.

:data:`RELATIONS` names each relation once: its id, the side it bounds
(the product lhs_prod or the sum lhs_sum) and its direction.  One rule,
:func:`verdicts`, reads that table and gives the margins (lhs - rhs for a
lower bound, rhs - lhs for the upper one), tolerances and status codes of
any batch of relation columns; :func:`evaluate_all`, the kernel's one-state
wrapper, and the sweep's report both call it.  Every rule of a verdict
scales with the observables: eq7 calls a variance degenerate when dA is at
most EQ7_EPS of A's largest standard deviation ``max_std`` or within A's
``resolution``, and the slack tolerance's floor (:func:`_slack_floors`) is
the size, in those scales, that the sides can reach, or their rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import DimensionMismatch, Observable, PureState, _centre

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


# The seven relations, each written once: (id, left side, direction).  eq1..
# eq3 bound the product lhs_prod = var(A) var(B) and eq4..eq6 the sum
# lhs_sum = var(A) + var(B) from below; eq7 bounds the sum from above.
RELATIONS = (
    ("eq1", "lhs_prod", "lower"),
    ("eq2", "lhs_prod", "lower"),
    ("eq3", "lhs_prod", "lower"),
    ("eq4", "lhs_sum", "lower"),
    ("eq5", "lhs_sum", "lower"),
    ("eq6", "lhs_sum", "lower"),
    ("eq7", "lhs_sum", "upper"),
)
RELATION_IDS = tuple(rid for rid, _, _ in RELATIONS)
# (bounds the sum, bounds from above) of each relation
_MASKS = np.array([(side == "lhs_sum", direction == "upper") for _, side, direction in RELATIONS]).T
# a verdict's status codes, by name: a margin's status is undefined where it
# is NaN, violated below -tolerance, tight within +-tolerance, else satisfied
STATUSES = ("satisfied", "tight", "violated", "undefined")
SATISFIED, TIGHT, VIOLATED, UNDEFINED = range(len(STATUSES))
# the reason codes of an undefined reverse bound, eq7; 0 for none
REASONS = (None, "degenerate variance", "singular denominator")


def _slack_tol(lhs, rhs, floor):
    """Tolerance on a relation's slack, relative to the size of its sides
    or to ``floor``, whichever is larger (the relations are scale-
    covariant); elementwise on arrays."""
    return SLACK_TOL * np.maximum(floor, np.maximum(abs(lhs), abs(rhs)))


def _slack_floors(a, b):
    """The slack tolerance's floors (product, sum) for observables a, b:
    (w_a w_b)^2 and max(w_a, w_b)^2 with w = ``max_std``, or where larger
    the margin's rounding over SLACK_TOL.  A side is g^2, |g| <= w_a w_b
    (or w_a + w_b), of vectors that round by r = ``resolution``, so it
    rounds by up to (s_a s_b)^2 - (w_a w_b)^2 (or (s_a + s_b)^2 -
    (w_a + w_b)^2), s = w + r, and the margin by twice that: linear in r.
    Raises ValueError, naming the scales, where a floor is not finite."""
    w_a, w_b, r_a, r_b = a.max_std, b.max_std, a.resolution, b.resolution
    s_a, s_b = w_a + r_a, w_b + r_b
    prod_rounding = (r_a * s_b + w_a * r_b) * (s_a * s_b + w_a * w_b)
    sum_rounding = (r_a + r_b) * (s_a + s_b + w_a + w_b)
    try:
        floors = (max((w_a * w_b) ** 2, 2.0 * prod_rounding / SLACK_TOL),
                  max(max(w_a, w_b) ** 2, 2.0 * sum_rounding / SLACK_TOL))
    except OverflowError:  # a Python float's ** 2 beyond the float range
        floors = (math.inf,)
    if not all(map(math.isfinite, floors)):
        raise ValueError(f"observables of max_std {w_a:.3g}, {w_b:.3g} and resolution {r_a:.3g}, "
                         f"{r_b:.3g} are too large for a finite slack tolerance")
    return floors


def _degenerate_std(obs):
    """The std at or below which eq7 calls a variance degenerate: EQ7_EPS
    of ``max_std``, or the ``resolution`` where larger (a shift c I rounds
    A psi at about c ulps but leaves the spread)."""
    return max(EQ7_EPS * obs.max_std, obs.resolution)


def verdicts(sides, rhs, floors, relations=slice(None), degenerate=None):
    """The verdict rule on right sides ``rhs`` (..., k) of ``relations``
    (indices into RELATIONS, all seven by default; one may repeat), NaN
    where undefined.  ``sides`` maps lhs_prod and lhs_sum to arrays of the
    batch shape (...); ``floors`` is (product, sum) of :func:`_slack_floors`.
    Returns (lhs, margin, tolerance, status, reason), each (..., k): status
    codes of STATUSES, and with eq7's ``degenerate`` array (...) the codes
    of REASONS, else None."""
    on_sum, upper = _MASKS[:, relations]
    lhs = np.where(on_sum, sides["lhs_sum"][..., None], sides["lhs_prod"][..., None])
    margin = np.where(upper, rhs - lhs, lhs - rhs)
    tol = _slack_tol(lhs, rhs, np.where(on_sum, floors[1], floors[0]))
    undefined = np.isnan(margin)
    # int first: two bool arrays would add as a logical or
    status = 3 * undefined + (margin <= tol) + (margin < -tol)
    # eq7 is the one upper bound; reason 1 where degenerate, else 2
    reason = None if degenerate is None else (upper & undefined) * (2 - degenerate[..., None])
    return lhs, margin, tol, status, reason


def rhs_eq1(comm_abs, cov):
    """Robertson-Schroedinger: |<[A,B]>|^2 / 4 + Cov(A,B)^2."""
    return (0.5 * comm_abs) ** 2 + cov**2


def rhs_eq2(pa, pb):
    """Basis product bound (sum_n |pa_n| |pb_n|)^2 from the projections
    pa_n = <psi_n|Abar|Psi>, pb_n = <psi_n|Bbar|Psi>."""
    return np.abs(pa.conj() * pb).sum(-1) ** 2


def rhs_eq3(a_shifted, b_shifted, amp_a, amp_b):
    """Fidelity product bound (sum_i sqrt(F_i G_i) a_i b_i)^2 over paired
    shifted eigenvalues a_i, b_i, given amp_a = sqrt(F), amp_b = sqrt(G) of
    the eigenstate fidelities F_i, G_i."""
    return (amp_a * amp_b * a_shifted * b_shifted).sum(-1) ** 2


def rhs_eq4(var_apb):
    """Sum bound: half the variance of A + B."""
    return 0.5 * var_apb


def rhs_eq5(pa, pb):
    """Basis sum bound (1/2) sum_n (|pa_n| + |pb_n|)^2; projections as in
    :func:`rhs_eq2`."""
    return 0.5 * ((np.abs(pa) + np.abs(pb)) ** 2).sum(-1)


def rhs_eq6(a_shifted, b_shifted, amp_a, amp_b):
    """Fidelity sum bound (1/2) sum_i (a_i sqrt(F_i) + b_i sqrt(G_i))^2;
    arguments as in :func:`rhs_eq3`."""
    return 0.5 * ((a_shifted * amp_a + b_shifted * amp_b) ** 2).sum(-1)


def rhs_eq7(var_a, var_b, var_amb, min_std_a, min_std_b):
    """Reverse sum bound 2 var(A-B) / (1 - Cov/(dA dB)) - 2 dA dB.

    var(A-B) = var(A) + var(B) - 2 Cov gives the denominator as
    (var(A-B) - (dA - dB)^2) / (2 dA dB), which keeps its relative accuracy
    where Cov/(dA dB) nears 1 and 1 - Cov/(dA dB) would cancel.  Undefined
    where a variance is degenerate, dA <= min_std_a or dB <= min_std_b
    (:func:`_degenerate_std` of each observable), or where the denominator
    lies within EQ7_EPS of zero.  Returns (rhs, degenerate), rhs NaN where
    undefined and ``degenerate`` the mask of the first reason.
    """
    degenerate = (var_a <= min_std_a * min_std_a) | (var_b <= min_std_b * min_std_b)
    # |var|: a degenerate variance may round below zero; NaN marks its rows
    da, db = np.sqrt(np.abs(var_a)), np.sqrt(np.abs(var_b))
    two_da_db, diff = np.where(degenerate, np.nan, 2.0 * da * db), da - db
    denom = (var_amb - diff * diff) / two_da_db
    denom = np.where(np.abs(denom) <= EQ7_EPS, np.nan, denom)
    return 2.0 * var_amb / denom - two_da_db, degenerate


def relation_sides(var_a, var_b, cov, comm_abs, var_apb, var_amb, fid, a, b):
    """The sides of every relation but eq2 and eq5 from second moments of any
    source, a state or counts: var(A), var(B), Cov(A,B), |<[A,B]>|,
    var(A +- B), eq3's and eq6's inputs ``fid`` ({a_shifted, b_shifted,
    fid_a, fid_b}) and the observables, whose degeneracy stds eq7 reads.
    Returns them, lhs_prod, lhs_sum, eq1, eq3, eq4, eq6, eq7 and
    eq7_degenerate (:func:`rhs_eq7`'s) as one {name: array} dict."""
    fid_in = fid["a_shifted"], fid["b_shifted"], np.sqrt(fid["fid_a"]), np.sqrt(fid["fid_b"])
    sides = {
        "var_a": var_a, "var_b": var_b, "lhs_prod": var_a * var_b, "lhs_sum": var_a + var_b,
        "cov": cov, "var_amb": var_amb, **fid, "eq1": rhs_eq1(comm_abs, cov),
        "eq3": rhs_eq3(*fid_in), "eq4": rhs_eq4(var_apb), "eq6": rhs_eq6(*fid_in),
    }
    sides["eq7"], sides["eq7_degenerate"] = rhs_eq7(
        var_a, var_b, var_amb, _degenerate_std(a), _degenerate_std(b))
    return sides


def evaluate_states(psi, a, b, basis=None, pairing=None):
    """Evaluate eq1..eq7 on normalized states ``psi`` (..., d) in one pass.

    With u = Abar|Psi> = A psi - <A> psi and v = Bbar|Psi> (one ``_centre``):
    var(A) = ||u||^2, var(B) = ||v||^2, Cov(A,B) = Re<u|v>,
    |<[A,B]>| = 2 |Im<u|v>|, var(A +- B) = ||u +- v||^2, and the basis
    bounds read <psi_n|u>, <psi_n|v> (u, v for ``basis=None``).  Returns
    :func:`relation_sides` of those moments, with mean_a, mean_b, eq2 and
    eq5, all of shape (...); eq3's and eq6's inputs are (..., d), B's in the
    pairing order.
    """
    d = np.shape(psi)[-1]
    if a.dim != d or b.dim != d:
        raise DimensionMismatch(f"state dim {d} vs observables {a.dim}, {b.dim}")
    if basis is not None and basis.dim != d:
        raise IncompleteBasis("basis dimension does not match the state")
    (u, v), (mean_a, mean_b) = _centre(psi, (a.matrix, b.matrix))
    # var = ||u||^2, not ||A psi||^2 - <A>^2: on an eigenvector the
    # difference rounds to about 1e-16 of A's scale, which eq7's degeneracy
    # rule (dA at most EQ7_EPS = 1e-9 of it) would miss by chance
    var_a, var_b = np.vecdot(u, u).real, np.vecdot(v, v).real
    uv = np.vecdot(u, v)
    pa, pb = (u, v) if basis is None else (np.matvec(basis.matrix.conj().T, w) for w in (u, v))
    # the inputs of eq3 and eq6, B's in the pairing order
    fid = {
        "a_shifted": a.eigenvalues - mean_a[..., None],
        "b_shifted": b.eigenvalues - mean_b[..., None],
        "fid_a": np.abs(np.matvec(a.eigenvectors.conj().T, psi)) ** 2,
        "fid_b": np.abs(np.matvec(b.eigenvectors.conj().T, psi)) ** 2,
    }
    if pairing is not None:
        order = list(pairing)
        if not (all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in order)
                and sorted(order) == list(range(d))):
            raise InvalidPairing(f"{pairing!r} is not a permutation of 0..{d - 1}")
        fid["b_shifted"], fid["fid_b"] = fid["b_shifted"][..., order], fid["fid_b"][..., order]
    out = relation_sides(var_a, var_b, uv.real, 2.0 * np.abs(uv.imag), np.vecdot(u + v, u + v).real,
                         np.vecdot(u - v, u - v).real, fid, a, b)
    out.update(mean_a=mean_a, mean_b=mean_b, eq2=rhs_eq2(pa, pb), eq5=rhs_eq5(pa, pb))
    return out


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
    vector) with :func:`verdicts`, the slack tolerance's floors those of
    :func:`_slack_floors` (checked before the kernel runs); an undefined
    eq7 has no rhs or slack and carries its reason."""
    floors = _slack_floors(a, b)
    t = evaluate_states(state.amplitudes, a, b, basis, pairing)
    rhs = np.array([t[rid] for rid in RELATION_IDS])
    lhs, margin, _, status, reason = verdicts(t, rhs, floors, degenerate=t["eq7_degenerate"])
    results = {}
    for (rid, _, direction), left, right, gap, code, why in zip(
            RELATIONS, lhs.tolist(), rhs.tolist(), margin.tolist(), status.tolist(), reason.tolist()):
        defined = code != UNDEFINED
        results[rid] = BoundResult(rid, direction, left, right if defined else None,
                                   code != VIOLATED, gap if defined else None, defined, REASONS[why])
    return UncertaintyReport(
        state_label=state.label,
        **{k: float(t[k]) for k in ("mean_a", "mean_b", "var_a", "var_b")},
        product_lhs=float(t["lhs_prod"]), sum_lhs=float(t["lhs_sum"]),
        results=results,
    )
