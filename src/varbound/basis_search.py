"""Derivative-free maximization of the basis-dependent bounds over the
unitary group.

The objectives contain absolute values, so a compass (coordinate) search
over a phase/angle parametrization of U(d) is used instead of anything
gradient-based.  Restarts are independently seeded and merged by max, so
the result is deterministic for a given config.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import OrthonormalBasis, _check, evaluate_all, rhs_eq2, rhs_eq5
from .hermitian import _centre


class BadParameterCount(ValueError):
    """Parameter vector length does not match the dimension."""


def param_count(dim):
    """Angles + relative phases per plane, plus d-1 diagonal phases."""
    pairs = dim * (dim - 1) // 2
    return 2 * pairs + (dim - 1)


def unitary_from_params(params, dim):
    """Unitary from plane rotations with phases and a diagonal phase tail.

    All-zero parameters give the identity.  Any parameter values give a
    matrix unitary to machine precision by construction.
    """
    params = np.asarray(params, dtype=float)
    if params.size != param_count(dim):
        raise BadParameterCount(f"expected {param_count(dim)} parameters, got {params.size}")
    pairs = [(p, q) for p in range(dim - 1) for q in range(p + 1, dim)]
    thetas = params[: len(pairs)]
    phis = params[len(pairs) : 2 * len(pairs)]
    diag = params[2 * len(pairs) :]
    u = np.eye(dim, dtype=complex)
    for (p, q), theta, phi in zip(pairs, thetas, phis):
        rot = np.eye(dim, dtype=complex)
        c, s = np.cos(theta), np.sin(theta)
        rot[p, p] = c
        rot[p, q] = -s * np.exp(1j * phi)
        rot[q, p] = s * np.exp(-1j * phi)
        rot[q, q] = c
        u = u @ rot
    u = u @ np.diag(np.exp(1j * np.concatenate([diag, [0.0]])))
    return u


def haar_basis(dim, seed) -> OrthonormalBasis:
    """Haar-distributed orthonormal basis, deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return OrthonormalBasis.from_matrix(q)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 2000
    initial_step: float = 0.3
    shrink_factor: float = 0.5
    tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 0 or self.initial_step <= 0:
            raise ValueError("restarts and initial_step must be positive, max_iters >= 0")
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("shrink_factor must lie in (0, 1)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class OptimizationTrace:
    """Per-restart best-value histories and the winning restart index."""

    restart_histories: list = field(default_factory=list)
    winner: int = -1

    @property
    def best_values(self):
        return self.restart_histories[self.winner]


def _objective_fn(objective, state, a, b):
    """Fast path: rhs of eq2 or eq5 as a function of a raw basis matrix."""
    rhs = {"eq2": rhs_eq2, "eq5": rhs_eq5}.get(objective)
    if rhs is None:
        raise ValueError(f"unknown objective {objective!r} (expected 'eq2' or 'eq5')")
    _check(state, a, b)
    psi = state.amplitudes
    abar_psi, bbar_psi = _centre(psi, a), _centre(psi, b)

    def fn(bm):
        bh = bm.conj().T
        return rhs(bh @ abar_psi, bh @ bbar_psi)

    return fn


def _compass_search(fn, x0, dim, config):
    """Maximize fn(U(params)) by +-step coordinate moves with step shrinking."""
    x = np.array(x0, dtype=float)
    best = fn(unitary_from_params(x, dim))
    history = [best]
    step = config.initial_step
    for _ in range(config.max_iters):
        improved = False
        for k in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[k] += delta
                val = fn(unitary_from_params(trial, dim))
                if val > best:
                    best, x = val, trial
                    improved = True
                    break
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
        if r == 0:
            x0 = np.zeros(n)
        else:
            rng = np.random.default_rng(config.seed + r)
            x0 = rng.uniform(-np.pi, np.pi, size=n)
        x, val, history = _compass_search(fn, x0, dim, config)
        trace.restart_histories.append(history)
        if val > best_val:
            best_val, best_x = val, x
            trace.winner = r

    basis = OrthonormalBasis.from_matrix(unitary_from_params(best_x, dim))
    # report the exact bound-module value at the winning basis
    best_val = evaluate_all(state, a, b, basis).results[objective].rhs
    return basis, float(best_val), trace
