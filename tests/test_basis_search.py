"""Tests for the unitary parametrization and the compass-search maximizer."""

import numpy as np
import pytest

from varbound.basis_search import (
    BadParameterCount,
    OptimizerConfig,
    haar_basis,
    optimize_bound,
    param_count,
    unitary_from_params,
)
from varbound.bounds import OrthonormalBasis, evaluate_all
from varbound.hermitian import builtin_spin1, family_state

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

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_bound("eq9", family_state(0.1), LX, LY, OptimizerConfig(restarts=1))
