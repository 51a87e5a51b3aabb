"""Tests for the unitary parametrization and the compass-search maximizer."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound import basis_search
from varbound.basis_search import (
    BadParameterCount,
    _compass_search,
    _objective_fn,
    optimize_bound,
    param_count,
    unitary_from_params,
)
from varbound.bounds import OrthonormalBasis, evaluate_all, evaluate_states
from varbound.hermitian import DimensionMismatch, builtin_spin1, haar_random_state, make_observable
from varbound.photonics import prepare_state
from varbound.sweep import theta_grid

from support import haar_basis

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


def _random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return make_observable(0.5 * (z + z.conj().T))


def _serial_compass(fn, x0, dim):
    """Reference: first-improvement compass search scoring one move per call,
    with the module's step, shrink factor, tolerance and sweep cap."""
    x = np.array(x0, dtype=float)
    best = fn(unitary_from_params(x, dim))
    history = [best]
    step = basis_search._INITIAL_STEP
    for _ in range(basis_search._MAX_ITERS):
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
            step *= basis_search._SHRINK
            if step < basis_search._TOLERANCE:
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
        random Hermitian pair in d.  The sweep cap is patched to 0-60 on
        both sides, to keep the draws short."""
        rng = np.random.default_rng(seed)
        if family:
            states, a, b = [prepare_state(rng.uniform(0, np.pi)) for _ in zero_starts], LX, LY
        else:
            states = [haar_random_state(d, rng) for _ in zero_starts]
            a, b = (_random_hermitian(rng, d) for _ in range(2))
        dim = states[0].dim
        n = param_count(dim)
        x0 = np.array([np.zeros(n) if z else rng.uniform(-np.pi, np.pi, n) for z in zero_starts])
        with mock.patch.object(basis_search, "_MAX_ITERS", max_iters):
            x, best, histories = _compass_search(_objective_fn([objective], states, a, b), x0, dim)
            refs = [_serial_compass(_objective_fn([objective], [state], a, b), x0[s], dim)
                    for s, state in enumerate(states)]
        assert len(histories) == len(states)
        for s, (ref_x, ref_best, ref_history) in enumerate(refs):
            assert x[s].tobytes() == ref_x.tobytes()
            assert best[s].tobytes() == np.float64(ref_best).tobytes()
            assert np.array(histories[s]).tobytes() == np.array(ref_history).tobytes()

    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_objective_stack_rows_are_single_calls(self, objective):
        """A lone basis matrix gets the bits of its row in a stack, also
        where a float64 scalar's pow(x, 2) and x * x round apart."""
        rng = np.random.default_rng(4)
        fn = _objective_fn([objective], [prepare_state(0.3)], LX, LY)
        stack = unitary_from_params(rng.uniform(-np.pi, np.pi, (2000, param_count(3))), 3)
        values = fn(stack)
        assert values.shape == (2000,)
        assert values.tobytes() == np.array([fn(u) for u in stack]).tobytes()


# the eq2 and eq5 optima at theta = 0.3: (basis matrix bytes, value, winner,
# sweeps of each restart), as the sweep's former settings gave them (6
# restarts of at most 400 sweeps, first step 0.3, shrink factor 0.5,
# tolerance 1e-8, restart r seeded by r)
PINNED = {
    "eq2": (bytes.fromhex(
        "900ce86396f596bf9a7e775498bccfbf4fe5e9905815e9bf01be2554cd7d983f"
        "0a25a76fa611d73fac81ce0f881fdc3f640e09a33369cc3fa8fb282edb14e3bf"
        "13f677931222ccbfc9fab626383ecdbfc43bdd3e8bcf5cbf5fa140a89981e6bf"
        "ad184acf56a1e63f569c70662f46c73fb3e11708daa1d0bf8b08749c7bcfdd3f"
        "bb649c09c053dbbf0000000000000000"), float.fromhex("0x1.abd74786fb08bp-3"), 2,
        [88, 371, 53, 198, 42, 53]),
    "eq5": (bytes.fromhex(
        "ec489573c86ebdbfe73b71a72578b33f5b2df646c013e13f16423d2fa8cbe6bf"
        "af34df663a04ab3fe6cf779d5199dbbf8511838adf91e0bf71f722ba78b9cfbf"
        "e690f0d6d875b23f8df4fd57716cd5bfe48707d0f403a83f32bc519dd6c0e73f"
        "797b8b485922dfbfe6213112ff9be43f73d65f370ebec63f027aa5535f12cf3f"
        "cbd4872f8041e0bf0000000000000000"), float.fromhex("0x1.d790736b526f7p-1"), 5,
        [84, 356, 52, 197, 41, 56]),
}


class TestOptimizeBound:
    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_pinned_optimum(self, objective):
        """One state's basis, value, winning restart and sweep counts keep
        their bits."""
        [basis], [value], trace = optimize_bound(objective, [prepare_state(0.3)], LX, LY)
        matrix, pinned, winner, sweeps = PINNED[objective]
        assert basis.matrix.tobytes() == matrix
        assert np.float64(value).tobytes() == np.float64(pinned).tobytes()
        assert trace.winner == [winner]
        assert [len(h) - 1 for h in trace.restart_histories] == sweeps

    def test_sweep_cap_binds(self):
        """At theta = 2.5 eq5's restart 0 stops at the 400-sweep cap, as
        with the sweep's former settings; the other restarts end on the step
        tolerance first."""
        [_], [value], trace = optimize_bound("eq5", [prepare_state(2.5)], LX, LY)
        assert [len(h) - 1 for h in trace.restart_histories] == [400, 79, 62, 58, 52, 61]
        assert value == float.fromhex("0x1.ab94f4583bc62p-1") and trace.winner == [2]

    def test_no_iterations_returns_initial_value(self, monkeypatch):
        """One restart with no sweeps stays at the computational basis."""
        monkeypatch.setattr(basis_search, "_RESTARTS", 1)
        monkeypatch.setattr(basis_search, "_MAX_ITERS", 0)
        _, [value], trace = optimize_bound("eq2", [prepare_state(0.3)], LX, LY)
        comp_value = evaluate_all(prepare_state(0.3), LX, LY, COMP).results["eq2"].rhs
        assert value == pytest.approx(comp_value, abs=1e-12)
        assert trace.winner == [0]

    def test_eq2_theta_zero_reaches_product_lhs(self):
        s = prepare_state(0.0)
        _, [value], _ = optimize_bound("eq2", [s], LX, LY)
        assert value == pytest.approx(0.25, abs=1e-6)

    def test_eq5_theta_half_pi_reaches_sum_lhs(self):
        s = prepare_state(np.pi / 2)
        _, [value], _ = optimize_bound("eq5", [s], LX, LY)
        assert value == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_never_exceeds_lhs_and_dominates_computational(self, objective):
        rng = np.random.default_rng(17)
        for theta in rng.uniform(0.05, np.pi - 0.05, size=5):
            s = prepare_state(theta)
            [basis], [value], trace = optimize_bound(objective, [s], LX, LY)
            computational = evaluate_all(s, LX, LY, COMP).results[objective]
            lhs, comp = computational.lhs, computational.rhs
            assert value <= lhs + 1e-9
            assert value >= comp - 1e-12
            for history in trace.restart_histories:
                assert all(b >= a for a, b in zip(history, history[1:]))

    def test_seed_determinism_bitwise(self):
        s = prepare_state(0.7)
        r1 = optimize_bound("eq2", [s], LX, LY)
        r2 = optimize_bound("eq2", [s], LX, LY)
        assert r1[1] == r2[1]
        assert r1[2].restart_histories == r2[2].restart_histories
        assert np.array_equal(r1[0][0].matrix, r2[0][0].matrix)

    def test_states_batch_is_one_state_calls(self):
        """A sequence of states gives each state's basis, value, restart
        histories (state by state) and winner of its one-state call."""
        states = [prepare_state(t) for t in (0.2, 1.1, 2.5)]
        bases, values, trace = optimize_bound("eq5", states, LX, LY)
        assert len(bases) == len(values) == len(trace.winner) == 3
        r = basis_search._RESTARTS
        for j, s in enumerate(states):
            [basis], [value], one = optimize_bound("eq5", [s], LX, LY)
            assert bases[j].matrix.tobytes() == basis.matrix.tobytes()
            assert values[j] == value and [trace.winner[j]] == one.winner
            assert trace.restart_histories[r * j : r * j + r] == one.restart_histories

    def test_each_state_centred_once(self, monkeypatch):
        """A search over three states centres three state rows, one
        ``_centre`` call before the first round, not one row per restart."""
        rows = []

        def counted(psi, matrices, _fn=basis_search._centre):
            rows.append(np.shape(psi)[:-1])
            return _fn(psi, matrices)

        monkeypatch.setattr(basis_search, "_centre", counted)
        optimize_bound("eq2", [prepare_state(t) for t in (0.2, 1.1, 2.5)], LX, LY)
        assert rows == [(3,)]

    @pytest.mark.parametrize("objective", ["eq2", "eq5"])
    def test_values_are_the_kernel_at_each_basis(self, objective):
        """Each value is ``evaluate_states``' entry at its basis, bit for
        bit, for family states and for Haar states of d = 4."""
        rng = np.random.default_rng(8)
        a, b = (_random_hermitian(rng, 4) for _ in range(2))
        for states, x, y in (([prepare_state(t) for t in (0.3, 1.4, 2.9)], LX, LY),
                             ([haar_random_state(4, rng) for _ in range(3)], a, b)):
            bases, values, _ = optimize_bound(objective, states, x, y)
            for s, basis, value in zip(states, bases, values):
                kernel = evaluate_states(s.amplitudes, x, y, basis)[objective]
                assert np.float64(value).tobytes() == np.float64(kernel).tobytes()

    def test_unknown_objective(self):
        """An unknown objective is rejected, alone or beside a known one,
        and so is an empty sequence of objectives."""
        for objective in ("eq9", ("eq2", "eq9"), ("eq5", "EQ2"), ()):
            with pytest.raises(ValueError):
                optimize_bound(objective, [prepare_state(0.1)], LX, LY)

    @pytest.mark.parametrize("objective", ["eq2", ("eq2", "eq5")], ids=["eq2", "joint"])
    def test_dimension_mismatch(self, objective):
        """States whose dimension is not the observables' are rejected, one
        among matching ones too."""
        rng = np.random.default_rng(3)
        for states in ([haar_random_state(4, rng)], [prepare_state(0.1), haar_random_state(2, rng)]):
            with pytest.raises(DimensionMismatch):
                optimize_bound(objective, states, LX, LY)


def _joint_case(case):
    """(states, a, b): the family at theta_grid(5) with Lx and Ly, or three
    Haar states of d = ``case`` with a random Hermitian pair."""
    if case == "family":
        return [prepare_state(t) for t in theta_grid(5)], LX, LY
    rng = np.random.default_rng(40 + case)
    states = [haar_random_state(case, rng) for _ in range(3)]
    return states, _random_hermitian(rng, case), _random_hermitian(rng, case)


class TestJointSearch:
    """The eq2 and eq5 searches run as one lockstep search, as the sweep
    runs them, and each takes its one-objective path bit for bit."""

    @pytest.mark.parametrize("case", ["family", 3])
    def test_objective_rows_are_lone_one_objective_calls(self, case):
        """A stack scored over both objectives, its owners in order, has in
        each row the bits of a lone call for that row's pair, and of a lone
        call of that objective's own function."""
        states, a, b = _joint_case(case)
        rng = np.random.default_rng(5)
        owner = np.sort(rng.integers(0, 2 * len(states), 300))
        stack = unitary_from_params(rng.uniform(-np.pi, np.pi, (300, param_count(3))), 3)
        fn = _objective_fn(["eq2", "eq5"], states, a, b)
        ones = [_objective_fn([objective], states, a, b) for objective in ("eq2", "eq5")]
        values = fn(stack, owner)
        assert values.shape == (300,)
        assert values.tobytes() == np.array([fn(u, o) for u, o in zip(stack, owner)]).tobytes()
        assert values.tobytes() == np.array(
            [ones[o // len(states)](u, o % len(states)) for u, o in zip(stack, owner)]).tobytes()

    @pytest.mark.parametrize("case", ["family", 2, 3, 4])
    def test_compass_is_the_one_objective_searches(self, short_search, case):
        """x, best and every history of one joint _compass_search call equal
        those of one call per objective, from the same starts."""
        states, a, b = _joint_case(case)
        dim, k = states[0].dim, len(states)
        x0 = np.random.default_rng(7).uniform(-np.pi, np.pi, (2 * k, param_count(dim)))
        x, best, histories = _compass_search(_objective_fn(["eq2", "eq5"], states, a, b), x0, dim)
        for i, objective in enumerate(("eq2", "eq5")):
            rows = slice(i * k, (i + 1) * k)
            one = _compass_search(_objective_fn([objective], states, a, b), x0[rows], dim)
            assert x[rows].tobytes() == one[0].tobytes()
            assert best[rows].tobytes() == one[1].tobytes()
            assert [np.array(h).tobytes() for h in histories[rows]] == [
                np.array(h).tobytes() for h in one[2]]

    @pytest.mark.parametrize("case", ["family", 2, 3, 4])
    def test_optimize_bound_is_the_one_objective_calls(self, short_search, case):
        """One optimize_bound call over ("eq2", "eq5") gives, objective by
        objective, the bases, values, histories and winners of the
        one-objective calls, in (objective, state, restart) order."""
        states, a, b = _joint_case(case)
        bases, values, trace = optimize_bound(("eq2", "eq5"), states, a, b)
        searches = len(states) * basis_search._RESTARTS
        assert len(bases) == len(values) == len(trace.winner) == 2 * len(states)
        assert len(trace.restart_histories) == 2 * searches
        for i, objective in enumerate(("eq2", "eq5")):
            rows = slice(i * len(states), (i + 1) * len(states))
            one_bases, one_values, one = optimize_bound(objective, states, a, b)
            assert [m.matrix.tobytes() for m in bases[rows]] == [
                m.matrix.tobytes() for m in one_bases]
            assert values[rows] == one_values and trace.winner[rows] == one.winner
            assert [np.array(h).tobytes() for h in
                    trace.restart_histories[i * searches : (i + 1) * searches]] == [
                np.array(h).tobytes() for h in one.restart_histories]
