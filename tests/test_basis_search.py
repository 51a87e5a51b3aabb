"""Tests for the unitary parametrization and the compass-search maximizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound.basis_search import (
    BadParameterCount,
    OptimizerConfig,
    _compass_search,
    _objective_fn,
    haar_basis,
    optimize_bound,
    param_count,
    unitary_from_params,
)
from varbound.bounds import OrthonormalBasis, evaluate_all
from varbound.hermitian import builtin_spin1, family_state, haar_random_state, make_observable

LX, LY, LZ, LP = builtin_spin1()
COMP = OrthonormalBasis.computational(3)


class TestUnitaryFromParams:
    def test_zero_params_identity(self):
        u = unitary_from_params(np.zeros(param_count(3)), 3)
        assert np.allclose(u, np.eye(3), atol=1e-14)

    def test_single_plane_rotation(self):
        params = np.zeros(param_count(3))
        params[0] = np.pi / 4  # (0,1) plane
        u = unitary_from_params(params, 3)
        c = np.cos(np.pi / 4)
        assert np.allclose(np.abs(u[:, 0]), [c, c, 0], atol=1e-12)
        assert np.allclose(np.abs(u[:, 1]), [c, c, 0], atol=1e-12)
        assert np.allclose(np.abs(u[:, 2]), [0, 0, 1], atol=1e-12)

    def test_random_params_unitary(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = unitary_from_params(rng.uniform(-np.pi, np.pi, param_count(3)), 3)
            assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_bad_parameter_count(self):
        with pytest.raises(BadParameterCount):
            unitary_from_params(np.zeros(3), 3)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_stack_rows_are_single_calls(self, dim):
        n = param_count(dim)
        params = np.random.default_rng(dim).uniform(-np.pi, np.pi, (7, n))
        stack = unitary_from_params(params, dim)
        assert stack.shape == (7, dim, dim)
        for row, u in zip(params, stack):
            assert u.tobytes() == unitary_from_params(row, dim).tobytes()
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12
        for bad in (np.zeros((7, n + 1)), np.zeros((n, 7)), np.zeros((2, n - 1))):
            with pytest.raises(BadParameterCount):
                unitary_from_params(bad, dim)


class TestHaarBasis:
    def test_seed_determinism(self):
        a = haar_basis(3, 123).matrix
        b = haar_basis(3, 123).matrix
        assert np.array_equal(a, b)

    def test_orthonormality(self):
        for seed in range(50):
            m = haar_basis(3, seed).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-10

    def test_haar_first_moment(self):
        # E |<psi_1|e_1>|^2 = 1/d for Haar-distributed bases
        overlaps = [abs(haar_basis(3, seed).matrix[0, 0]) ** 2 for seed in range(1000)]
        assert np.mean(overlaps) == pytest.approx(1 / 3, abs=0.02)


class TestOptimizerConfig:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "2"])
    def test_restarts_rejected(self, bad):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, True, "2"])
    def test_max_iters_rejected(self, bad):
        with pytest.raises(ValueError, match="max_iters"):
            OptimizerConfig(max_iters=bad)

    @pytest.mark.parametrize("bad", [-3, 1.5, False, "0"])
    def test_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=bad)

    @pytest.mark.parametrize("name", ["initial_step", "tolerance", "shrink_factor"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
    def test_step_fields_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: bad})


def _random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return make_observable(0.5 * (z + z.conj().T))


def _serial_compass(fn, x0, dim, config):
    """Reference: first-improvement compass search scoring one move per call."""
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


class TestCompassSearch:
    @settings(max_examples=80, deadline=None)
    @given(d=st.integers(2, 4), family=st.booleans(), objective=st.sampled_from(["eq2", "eq5"]),
           seed=st.integers(0, 2**32 - 1), max_iters=st.integers(0, 60),
           zero_starts=st.lists(st.booleans(), min_size=1, max_size=4))
    def test_batch_is_serial_search(self, d, family, objective, seed, max_iters, zero_starts):
        """1-4 (state, start) searches run in lockstep each take the serial
        loop's path bit for bit: same x, best and history.  Family states
        are qutrits with Lx and Ly (d is then 3); Haar states share a
        random Hermitian pair in d."""
        rng = np.random.default_rng(seed)
        if family:
            states, a, b = [family_state(rng.uniform(0, np.pi)) for _ in zero_starts], LX, LY
        else:
            states = [haar_random_state(d, rng) for _ in zero_starts]
            a, b = (_random_hermitian(rng, d) for _ in range(2))
        dim = states[0].dim
        n = param_count(dim)
        x0 = np.array([np.zeros(n) if z else rng.uniform(-np.pi, np.pi, n) for z in zero_starts])
        cfg = OptimizerConfig(restarts=1, max_iters=max_iters)
        x, best, histories = _compass_search(_objective_fn(objective, states, a, b), x0, dim, cfg)
        assert len(histories) == len(states)
        for s, state in enumerate(states):
            fn = _objective_fn(objective, state, a, b)
            ref_x, ref_best, ref_history = _serial_compass(fn, x0[s], dim, cfg)
            assert x[s].tobytes() == ref_x.tobytes()
            assert best[s].tobytes() == np.float64(ref_best).tobytes()
            assert np.array(histories[s]).tobytes() == np.array(ref_history).tobytes()

    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_objective_stack_rows_are_single_calls(self, objective):
        """A lone basis matrix gets the bits of its row in a stack, also
        where a float64 scalar's pow(x, 2) and x * x round apart."""
        rng = np.random.default_rng(4)
        fn = _objective_fn(objective, family_state(0.3), LX, LY)
        stack = unitary_from_params(rng.uniform(-np.pi, np.pi, (2000, param_count(3))), 3)
        values = fn(stack)
        assert values.shape == (2000,)
        assert values.tobytes() == np.array([fn(u) for u in stack]).tobytes()


class TestOptimizeBound:
    def test_no_iterations_returns_initial_value(self):
        cfg = OptimizerConfig(restarts=1, max_iters=0)
        _, value, trace = optimize_bound("eq2", family_state(0.3), LX, LY, cfg)
        comp_value = evaluate_all(family_state(0.3), LX, LY, COMP).results["eq2"].rhs
        assert value == pytest.approx(comp_value, abs=1e-12)
        assert trace.winner == 0

    def test_eq2_theta_zero_reaches_product_lhs(self):
        s = family_state(0.0)
        _, value, _ = optimize_bound("eq2", s, LX, LY, OptimizerConfig(restarts=4, max_iters=300))
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_eq5_theta_half_pi_reaches_sum_lhs(self):
        s = family_state(np.pi / 2)
        _, value, _ = optimize_bound("eq5", s, LX, LY, OptimizerConfig(restarts=4, max_iters=300))
        assert value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_never_exceeds_lhs_and_dominates_computational(self, objective):
        cfg = OptimizerConfig(restarts=4, max_iters=200, seed=5)
        rng = np.random.default_rng(17)
        for theta in rng.uniform(0.05, np.pi - 0.05, size=5):
            s = family_state(theta)
            basis, value, trace = optimize_bound(objective, s, LX, LY, cfg)
            computational = evaluate_all(s, LX, LY, COMP).results[objective]
            lhs, comp = computational.lhs, computational.rhs
            assert value <= lhs + 1e-9
            assert value >= comp - 1e-12
            for history in trace.restart_histories:
                assert all(b >= a for a, b in zip(history, history[1:]))

    def test_seed_determinism_bitwise(self):
        cfg = OptimizerConfig(restarts=3, max_iters=100, seed=21)
        s = family_state(0.7)
        r1 = optimize_bound("eq2", s, LX, LY, cfg)
        r2 = optimize_bound("eq2", s, LX, LY, cfg)
        assert r1[1] == r2[1]
        assert r1[2].restart_histories == r2[2].restart_histories
        assert np.array_equal(r1[0].matrix, r2[0].matrix)

    def test_states_batch_is_one_state_calls(self):
        """A sequence of states gives each state's basis, value, restart
        histories (state by state) and winner of its one-state call."""
        cfg = OptimizerConfig(restarts=3, max_iters=40, seed=2)
        states = [family_state(t) for t in (0.2, 1.1, 2.5)]
        bases, values, trace = optimize_bound("eq5", states, LX, LY, cfg)
        assert len(bases) == len(values) == len(trace.winner) == 3
        for j, s in enumerate(states):
            basis, value, one = optimize_bound("eq5", s, LX, LY, cfg)
            assert bases[j].matrix.tobytes() == basis.matrix.tobytes()
            assert values[j] == value and trace.winner[j] == one.winner
            assert trace.restart_histories[3 * j : 3 * j + 3] == one.restart_histories

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_bound("eq9", family_state(0.1), LX, LY, OptimizerConfig(restarts=1))
