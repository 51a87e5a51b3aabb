"""Derivative-free maximization of the basis-dependent bounds over the
unitary group.

The objectives contain absolute values, so a compass (coordinate) search
over a phase/angle parametrization of U(d) is used instead of anything
gradient-based.  Every (state, restart) pair is one search taking the first
improving move, and all run in lockstep: one batch of unitaries scores the
moves each search has left in its sweep.  Restarts are independently seeded
and merged by max per state, so the result is deterministic for a config.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for name, high in (("initial_step", np.inf), ("tolerance", np.inf), ("shrink_factor", 1.0)):
            # "not 0 < value < high" so that a NaN also fails
            if not 0.0 < getattr(self, name) < high:
                raise ValueError(f"{name} must lie in (0, {high}), got {getattr(self, name)!r}")


@dataclass
class OptimizationTrace:
    """Each search's best-value history and each state's winning restart."""

    restart_histories: list
    winner: list


def _objective_fn(objective, states, a, b):
    """rhs of eq2 or eq5 of basis matrices, shape (..., d, d) to (...), each
    on state ``owner`` (shape (...), default 0) of the sequence ``states``,
    with Abar psi and Bbar psi stacked as w, shape (states, 2, d); a stack
    row has the bits of its own call (matvec projects per matrix)."""
    rhs = {"eq2": rhs_eq2, "eq5": rhs_eq5}.get(objective)
    if rhs is None:
        raise ValueError(f"unknown objective {objective!r} (expected 'eq2' or 'eq5')")
    for state in states:
        _check_dims(state, a, b)
    w = np.array([[_centre(s.amplitudes, o) for o in (a, b)] for s in states])

    def fn(bm, owner=0):
        # a length-one axis: rhs squares an array (x * x) for one matrix too, never pow
        proj = np.matvec(bm.conj().mT[..., None, None, :, :], w[owner][..., None, :, :])
        return rhs(proj[..., 0, :], proj[..., 1, :])[..., 0]

    return fn


def _compass_search(fn, x0, dim, config):
    """Maximize fn(U(params), s) from each start x0[s], shape (S, n), by
    +-step coordinate moves with step shrinking: S searches in lockstep.

    Each search is the move-by-move first-improvement loop: a sweep tries
    k+, k-, (k+1)+, ... and takes the first move that beats the search's
    ``best``, then goes on from the next coordinate.  A round scores the
    moves that every running search has left in its sweep, each from its own
    x and step, as one batch; a search whose sweep finds no improvement ends
    that sweep.  Returns x (S, n), best (S,) and each search's history of
    ``best`` after every sweep.
    """
    x = np.array(x0, dtype=float)
    moves = np.kron(np.eye(x.shape[1]), [[1.0], [-1.0]])  # rows +e_0, -e_0, +e_1, ...
    n_moves, every = len(moves), np.arange(len(x))
    best = fn(unitary_from_params(x, dim), every)
    histories = [[v] for v in best]
    step = np.full(len(x), config.initial_step, dtype=float)
    # each search's first move left in its sweep; n_moves once it has stopped
    start = np.full(len(x), 0 if config.max_iters else n_moves)
    while (ran := start < n_moves).any():
        s, k = np.nonzero(np.arange(n_moves) >= start[:, None])
        # x + (+-0.0) == x as x never holds -0.0: each row moves one coordinate
        trials = x[s] + step[s, None] * moves[k]
        vals = np.full((len(x), n_moves), np.nan)
        vals[s, k] = fn(unitary_from_params(trials, dim), s)
        better = vals > best[:, None]
        first = better.argmax(1)
        hit = better[every, first]
        best = np.where(hit, vals[every, first], best)
        x += np.where(hit, step, 0.0)[:, None] * moves[first]  # x + (+-0.0) == x where no hit
        start = np.where(hit, 2 * (first // 2 + 1), n_moves)
        for e in np.flatnonzero(ran & (start == n_moves)):
            # an accepted move raises best: the sweep improved iff best rose
            improved = best[e] > histories[e][-1]
            histories[e].append(best[e])
            if not improved:
                step[e] *= config.shrink_factor
            if len(histories[e]) <= config.max_iters and (improved or step[e] >= config.tolerance):
                start[e] = 0
    return x, best, histories


def optimize_bound(objective, states, a, b, config: OptimizerConfig | None = None):
    """Maximize the eq2 or eq5 bound over complete orthonormal bases, for
    each of a sequence of states.

    Every (state, restart) pair is one search, and one
    :func:`_compass_search` call runs them all in lockstep.  Restart r
    starts every state from the same point, restart 0 from the computational
    basis, so no result falls below it.  Returns (bases, values, trace), a
    list of one basis and one value per state; each value is the exact
    ``evaluate_all`` one at its basis.  The trace lists every search's
    history, state by state, and each state's winning restart.
    """
    if config is None:
        config = OptimizerConfig()
    states = list(states)
    if not states:
        raise ValueError("no states to optimize")
    restarts, dim = config.restarts, states[0].dim
    # search j * restarts + r optimizes state j from restart r
    fn = _objective_fn(objective, [s for s in states for _ in range(restarts)], a, b)
    n = param_count(dim)
    x0 = [np.random.default_rng(config.seed + r).uniform(-np.pi, np.pi, n) if r else np.zeros(n)
          for r in range(restarts)]
    x, best, histories = _compass_search(fn, np.tile(x0, (len(states), 1)), dim, config)

    winners = best.reshape(len(states), restarts).argmax(1)
    picks = x[winners + np.arange(0, len(x), restarts)]
    bases = [OrthonormalBasis(u) for u in unitary_from_params(picks, dim)]
    # report the exact bound-module value at each winning basis
    values = [float(evaluate_all(s, a, b, m).results[objective].rhs) for s, m in zip(states, bases)]
    return bases, values, OptimizationTrace(histories, winners.tolist())
