"""Derivative-free maximization of the basis-dependent bounds over the
unitary group.

The objectives contain absolute values, so a compass (coordinate) search
over a phase/angle parametrization of U(d) is used instead of anything
gradient-based.  Every (objective, state, restart) triple is one search
taking the first improving move, and all run in lockstep: one batch of
unitaries scores the moves each search has left in its sweep by its own
objective (Abar psi, Bbar psi of every state from one ``_centre`` call).
The search has no settings: its restarts, sweep cap, step, shrink factor
and tolerance are private constants.  Restarts are independently seeded
and merged by max per (objective, state), so the result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import OrthonormalBasis, evaluate_states, rhs_eq2, rhs_eq5
from .hermitian import DimensionMismatch, _centre


# searches per (objective, state) pair; sweeps per search at most; first step,
# its factor after a sweep without improvement, and the step below which a
# search ends
_RESTARTS, _MAX_ITERS = 6, 400
_INITIAL_STEP, _SHRINK, _TOLERANCE = 0.3, 0.5, 1e-8


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
    phases = np.exp(1j * params[..., m:])  # each plane's relative phase, then the diagonal's
    cos, sin = np.cos(params[..., :m]), np.sin(params[..., :m])
    # plane j's block [[R_pp, R_pq], [R_qp, R_qq]] = [[c, -s e^{i phi}], [s e^{-i phi}, c]]
    blocks = np.empty(params.shape[:-1] + (m, 2, 2), dtype=complex)
    blocks[..., 0, 0] = blocks[..., 1, 1] = cos
    blocks[..., 0, 1], blocks[..., 1, 0] = -sin * phases[..., :m], sin * phases[..., :m].conj()
    u = np.empty(params.shape[:-1] + (dim, dim), dtype=complex)
    u[...] = np.eye(dim)
    planes = ((p, q) for p in range(dim - 1) for q in range(p + 1, dim))
    for j, (p, q) in enumerate(planes):
        cols = slice(p, q + 1, q - p)
        u[..., cols] = u[..., cols] @ blocks[..., j, :, :]
    u[..., :-1] *= phases[..., None, m:]
    return u


@dataclass
class OptimizationTrace:
    """Each search's best-value history and each pair's winning restart."""

    restart_histories: list
    winner: list


def _objective_fn(objectives, states, a, b):
    """rhs of eq2 or eq5 of basis matrices, shape (..., d, d) to (...), for
    pair ``owner``: objective owner // S of ``objectives`` on state owner % S
    of the S ``states``, one pair (default 0) or one per matrix of a (rows, d,
    d) stack, never decreasing.  Abar psi, Bbar psi of each state come from
    one centring; a stack row has the bits of its own call."""
    rhss = [{"eq2": rhs_eq2, "eq5": rhs_eq5}.get(o) for o in objectives]
    if None in rhss:
        raise ValueError(f"unknown objective in {objectives!r} (expected 'eq2' or 'eq5')")
    if any(s.dim != o.dim for s in states for o in (a, b)):
        raise DimensionMismatch(f"state dims {sorted({s.dim for s in states})} vs observables "
                                f"{a.dim}, {b.dim}")
    w = np.stack(_centre(np.array([s.amplitudes for s in states]), (a.matrix, b.matrix))[0], 1)
    w = np.tile(w, (len(rhss), 1, 1))  # row j for pair j
    firsts = len(states) * np.arange(1, len(rhss))  # each later objective's first pair

    def fn(bm, owner=0):
        # (..., 1, 2, d): a length-one axis, so rhs squares an array (x * x), never pow
        proj = np.matvec(bm.conj().mT[..., None, None, :, :], w[owner][..., None, :, :])
        if np.ndim(owner) == 0:
            return rhss[owner // len(states)](proj[..., 0, :], proj[..., 1, :])[..., 0]
        # owner never decreases, so each objective's rows are one run
        pa, pb, vals = proj[:, 0, 0], proj[:, 0, 1], np.empty(len(owner))
        edges = [0, *owner.searchsorted(firsts).tolist(), len(owner)]
        for rhs, i, j in zip(rhss, edges, edges[1:]):
            vals[i:j] = rhs(pa[i:j], pb[i:j])
        return vals

    return fn


def _compass_search(fn, x0, dim):
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
    n_moves, every, order = len(moves), np.arange(len(x)), np.arange(len(moves))
    best = fn(unitary_from_params(x, dim), every)
    histories = [[v] for v in best]
    step = np.full(len(x), _INITIAL_STEP, dtype=float)
    # each search's first move left in its sweep; n_moves once it has stopped
    start = np.full(len(x), 0 if _MAX_ITERS else n_moves)
    while (ran := start < n_moves).any():
        s, k = np.nonzero(order >= start[:, None])
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
                step[e] *= _SHRINK
            if len(histories[e]) <= _MAX_ITERS and (improved or step[e] >= _TOLERANCE):
                start[e] = 0
    return x, best, histories


def optimize_bound(objective, states, a, b):
    """Maximize the eq2 or eq5 bound (``objective``, or a sequence of both)
    over complete orthonormal bases, for each of a sequence of states.

    Every (objective, state, restart) triple is one search, and one
    :func:`_compass_search` call runs them all in lockstep, each state
    centred once.  Restart r starts every search from the same point,
    restart 0 from the computational basis, so no result falls below it.
    Returns (bases, values, trace), a list of one basis and one value per
    (objective, state) pair; each value is the ``evaluate_states`` one at
    its basis.  The trace lists every search's history and each pair's
    winning restart, all in (objective, state, restart) order.
    """
    objectives = [objective] if isinstance(objective, str) else list(objective)
    states = list(states)
    if not states or not objectives:
        raise ValueError("no states or no objectives to optimize")
    pairs, dim = [(o, s) for o in objectives for s in states], states[0].dim
    fn, n = _objective_fn(objectives, states, a, b), param_count(dim)
    # restart r seeded by r; search j * _RESTARTS + r optimizes pair j from restart r
    x0 = [np.random.default_rng(r).uniform(-np.pi, np.pi, n) if r else np.zeros(n)
          for r in range(_RESTARTS)]
    x, best, histories = _compass_search(lambda u, s: fn(u, s // _RESTARTS),
                                         np.tile(x0, (len(pairs), 1)), dim)
    winners = best.reshape(len(pairs), _RESTARTS).argmax(1)
    picks = x[winners + np.arange(0, len(x), _RESTARTS)]
    bases = [OrthonormalBasis(u) for u in unitary_from_params(picks, dim)]
    values = [float(evaluate_states(s.amplitudes, a, b, m)[o]) for (o, s), m in zip(pairs, bases)]
    return bases, values, OptimizationTrace(histories, winners.tolist())
