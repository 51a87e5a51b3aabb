"""Derivative-free maximization of the basis-dependent bounds over the
unitary group.

The objectives contain absolute values, so a compass (coordinate) search
over a phase/angle parametrization of U(d) is used instead of anything
gradient-based.  It takes the first improving move, scoring the moves of a
sweep as one batch of unitaries.  Restarts are independently seeded and
merged by max, so the result is deterministic for a given config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import OrthonormalBasis, evaluate_all, rhs_eq2, rhs_eq5
from .hermitian import _centre, _check_dims


class BadParameterCount(ValueError):
    """Parameter vector length does not match the dimension."""


def param_count(dim):
    """Angles + relative phases per plane, plus d-1 diagonal phases."""
    pairs = dim * (dim - 1) // 2
    return 2 * pairs + (dim - 1)


def unitary_from_params(params, dim):
    """Unitaries of shape (..., d, d) from parameters of shape (..., n).

    U = R_1 ... R_m D: phased plane rotations, then diagonal phases.  R_j
    updates columns p and q of the running product by one (d, 2) @ (2, 2)
    product, which rounds as the full (d, d) product does.  Zero parameters
    give the identity; any give a unitary to machine precision.
    """
    params = np.asarray(params, dtype=float)
    if params.shape[-1:] != (param_count(dim),):
        raise BadParameterCount(f"expected {param_count(dim)} parameters, got shape {params.shape}")
    m = dim * (dim - 1) // 2
    thetas, phases = params[..., :m], np.exp(1j * params[..., m : 2 * m])
    cos, sin = np.cos(thetas), np.sin(thetas)
    # plane j's block [[R_pp, R_pq], [R_qp, R_qq]] = [[c, -s e^{i phi}], [s e^{-i phi}, c]]
    blocks = np.empty(params.shape[:-1] + (m, 2, 2), dtype=complex)
    blocks[..., 0, 0] = blocks[..., 1, 1] = cos
    blocks[..., 0, 1], blocks[..., 1, 0] = -sin * phases, sin * phases.conj()
    u = np.empty(params.shape[:-1] + (dim, dim), dtype=complex)
    u[...] = np.eye(dim)
    planes = ((p, q) for p in range(dim - 1) for q in range(p + 1, dim))
    for j, (p, q) in enumerate(planes):
        cols = slice(p, q + 1, q - p)
        u[..., cols] = u[..., cols] @ blocks[..., j, :, :]
    u[..., :-1] *= np.exp(1j * params[..., 2 * m :])[..., None, :]
    return u


def haar_basis(dim, seed) -> OrthonormalBasis:
    """Haar-distributed orthonormal basis, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return OrthonormalBasis(q)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 2000
    initial_step: float = 0.3
    shrink_factor: float = 0.5
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be positive")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class OptimizationTrace:
    """Per-restart best-value histories and the winning restart index."""

    restart_histories: list = field(default_factory=list)
    winner: int = -1


def _objective_fn(objective, state, a, b):
    """rhs of eq2 or eq5 of basis matrices, shape (..., d, d) to (...); a
    stack row has the bits of its own call (matvec projects per matrix)."""
    rhs = {"eq2": rhs_eq2, "eq5": rhs_eq5}.get(objective)
    if rhs is None:
        raise ValueError(f"unknown objective {objective!r} (expected 'eq2' or 'eq5')")
    _check_dims(state, a, b)
    w = np.stack([_centre(state.amplitudes, o) for o in (a, b)])  # Abar psi, Bbar psi

    def fn(bm):
        # a length-one axis: rhs squares an array (x * x) for one matrix too, never pow
        proj = np.matvec(bm.conj().mT[..., None, None, :, :], w)
        return rhs(proj[..., 0, :], proj[..., 1, :])[..., 0]

    return fn


def _compass_search(fn, x0, dim, config):
    """Maximize fn(U(params)) by +-step coordinate moves with step shrinking.

    First improvement, as a move-by-move loop: a sweep tries k+, k-, (k+1)+,
    ... and takes the first move that beats ``best``, then goes on from the
    next coordinate.  The moves left are scored from x as one batch, so a
    sweep with no improvement costs one call.
    """
    x = np.array(x0, dtype=float)
    moves = np.kron(np.eye(x.size), [[1.0], [-1.0]])  # rows +e_0, -e_0, +e_1, ...
    best = fn(unitary_from_params(x, dim))
    history = [best]
    step = config.initial_step
    for _ in range(config.max_iters):
        start, improved = 0, False
        while start < len(moves):
            # x + (+-0.0) == x as x never holds -0.0: each row moves one coordinate
            trials = x + step * moves[start:]
            vals = fn(unitary_from_params(trials, dim))
            i = int(np.argmax(vals > best))
            if not vals[i] > best:
                break
            best, x, improved = vals[i], trials[i], True
            start = 2 * ((start + i) // 2 + 1)
        history.append(best)
        if not improved:
            step *= config.shrink_factor
            if step < config.tolerance:
                break
    return x, best, history


def optimize_bound(objective, state, a, b, config: OptimizerConfig | None = None):
    """Maximize the eq2 or eq5 bound over complete orthonormal bases.

    Returns (basis, best_value, trace).  Restart 0 starts from the
    computational basis, so the result never falls below it.
    """
    if config is None:
        config = OptimizerConfig()
    dim = state.dim
    n = param_count(dim)
    fn = _objective_fn(objective, state, a, b)

    trace = OptimizationTrace()
    best_val, best_x = -np.inf, None
    for r in range(config.restarts):
        rng = np.random.default_rng(config.seed + r)
        x0 = rng.uniform(-np.pi, np.pi, size=n) if r else np.zeros(n)
        x, val, history = _compass_search(fn, x0, dim, config)
        trace.restart_histories.append(history)
        if val > best_val:
            best_val, best_x = val, x
            trace.winner = r

    basis = OrthonormalBasis(unitary_from_params(best_x, dim))
    # report the exact bound-module value at the winning basis
    best_val = evaluate_all(state, a, b, basis).results[objective].rhs
    return basis, float(best_val), trace
