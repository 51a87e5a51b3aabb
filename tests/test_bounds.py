"""Tests for the seven relations, their oracles and their invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varbound.bounds as bounds
from varbound.basis_search import haar_basis
from varbound.bounds import (
    EQ7_EPS,
    IncompleteBasis,
    InvalidPairing,
    OrthonormalBasis,
    eq1_product_bound,
    eq2_product_bound,
    eq3_product_bound,
    eq4_sum_bound,
    eq5_sum_bound,
    eq6_sum_bound,
    eq7_reverse_bound,
    evaluate_all,
    rhs_eq1,
    rhs_eq2,
    rhs_eq3,
    rhs_eq4,
    rhs_eq5,
    rhs_eq6,
    rhs_eq7,
)
from varbound.hermitian import (
    PureState,
    _centre,
    builtin_spin1,
    covariance,
    family_state,
    haar_random_state,
    make_observable,
    moments,
)

LX, LY, LZ, LP = builtin_spin1()
COMP = OrthonormalBasis.computational(3)
SWEEP_THETAS = [j * np.pi / 10 for j in range(11)]


class TestEq1:
    def test_theta_zero_equality(self):
        # <Lz> = 1, <Lp> = 0: rhs = 1/4 = (1/2)(1/2) = lhs
        r = eq1_product_bound(family_state(0.0), LX, LY)
        assert r.lhs == pytest.approx(0.25, abs=1e-12)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi(self):
        r = eq1_product_bound(family_state(np.pi / 2), LX, LY)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)

    def test_equal_observables_collapse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq1_product_bound(s, LX, LX)
            var = moments(s, LX).variance
            assert r.lhs == pytest.approx(var**2, abs=1e-10)
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_rewritten_route_on_family(self):
        # rhs must equal |<Lz>/2|^2 + |<Lp>/2 - <Lx><Ly>|^2
        for theta in SWEEP_THETAS:
            s = family_state(theta)
            r = eq1_product_bound(s, LX, LY)
            mz = moments(s, LZ).mean
            mp = moments(s, LP).mean
            mx, my = moments(s, LX).mean, moments(s, LY).mean
            assert r.rhs == pytest.approx((mz / 2) ** 2 + (mp / 2 - mx * my) ** 2, abs=1e-10)


class TestEq2:
    def test_theta_zero_tight(self):
        r = eq2_product_bound(family_state(0.0), LX, LY, COMP)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi_tight(self):
        r = eq2_product_bound(family_state(np.pi / 2), LX, LY, COMP)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_equal_observables_own_eigenbasis(self):
        basis = OrthonormalBasis.from_matrix(LX.eigenvector_matrix())
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq2_product_bound(s, LX, LX, basis)
            var = moments(s, LX).variance
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_incomplete_basis_rejected(self):
        with pytest.raises(IncompleteBasis):
            eq2_product_bound(family_state(0.2), LX, LY, OrthonormalBasis.computational(4))


class TestEq3:
    def test_theta_zero(self):
        # fidelities (1/4, 1/4, 1/2) per observable
        r = eq3_product_bound(family_state(0.0), LX, LY)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(r.intermediates.fid_a, [0.25, 0.25, 0.5], atol=1e-12)
        assert np.allclose(r.intermediates.fid_b, [0.25, 0.25, 0.5], atol=1e-12)

    def test_theta_half_pi(self):
        r = eq3_product_bound(family_state(np.pi / 2), LX, LY)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r.intermediates.fid_a, [0.5, 0.5, 0.0], atol=1e-12)

    def test_equal_observables_identity_pairing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq3_product_bound(s, LX, LX)
            var = moments(s, LX).variance
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_invalid_pairing(self):
        with pytest.raises(InvalidPairing):
            eq3_product_bound(family_state(0.0), LX, LY, pairing=(0, 0, 1))

    def test_paper_pairing_satisfied_on_sweep(self):
        for theta in SWEEP_THETAS:
            r = eq3_product_bound(family_state(theta), LX, LY, pairing=(0, 1, 2))
            assert r.satisfied, theta


class TestEq4:
    def test_family_anchors(self):
        r = eq4_sum_bound(family_state(0.0), LX, LY)
        assert (r.lhs, r.rhs) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.5, abs=1e-12))
        r = eq4_sum_bound(family_state(np.pi / 2), LX, LY)
        assert (r.lhs, r.rhs) == (pytest.approx(2.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_equal_observables_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq4_sum_bound(s, LX, LX)
            var = moments(s, LX).variance
            assert r.lhs == pytest.approx(2 * var, abs=1e-10)
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)


class TestEq5:
    def test_theta_zero_tight(self):
        # single surviving term n=2: (sqrt(1/2) + sqrt(1/2))^2 / 2 = 1
        r = eq5_sum_bound(family_state(0.0), LX, LY, COMP)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi_tight(self):
        r = eq5_sum_bound(family_state(np.pi / 2), LX, LY, COMP)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_equal_observables_own_eigenbasis(self):
        basis = OrthonormalBasis.from_matrix(LX.eigenvector_matrix())
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq5_sum_bound(s, LX, LX, basis)
            var = moments(s, LX).variance
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)


class TestEq6:
    def test_family_anchors(self):
        r = eq6_sum_bound(family_state(0.0), LX, LY)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        r = eq6_sum_bound(family_state(np.pi / 2), LX, LY)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)

    def test_equal_observables(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = eq6_sum_bound(s, LX, LX)
            var = moments(s, LX).variance
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)

    def test_paper_pairing_satisfied_on_sweep(self):
        for theta in SWEEP_THETAS:
            assert eq6_sum_bound(family_state(theta), LX, LY).satisfied, theta


class TestEq7:
    def test_theta_zero_equality(self):
        # Cov = 0, Delta(Lx-Ly)^2 = 1, DeltaLx DeltaLy = 1/2
        r = eq7_reverse_bound(family_state(0.0), LX, LY)
        assert r.direction == "upper"
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)

    def test_theta_half_pi_equality(self):
        r = eq7_reverse_bound(family_state(np.pi / 2), LX, LY)
        assert r.lhs == pytest.approx(2.0, abs=1e-12)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_variance_undefined(self):
        r = eq7_reverse_bound(family_state(0.0), LZ, LX)
        assert not r.defined
        assert r.rhs is None
        assert "variance" in r.reason

    def test_degeneracy_rule_is_std_at_most_eps(self):
        # one rule for the ideal and the sampled path: a std <= EQ7_EPS = 1e-9
        assert rhs_eq7(1e-16, 1.0, 0.0, 1.0)[0] is not None  # std 1e-8
        assert rhs_eq7(1e-19, 1.0, 0.0, 1.0) == (None, "degenerate variance")
        assert rhs_eq7(1.0, 1.0, 1.0 - 1e-10, 1.0) == (None, "singular denominator")

    def test_rewritten_route_on_family(self):
        for theta in SWEEP_THETAS:
            s = family_state(theta)
            r = eq7_reverse_bound(s, LX, LY)
            if not r.defined:
                continue
            mx, my = moments(s, LX), moments(s, LY)
            mp = moments(s, LP).mean
            cov = 0.5 * mp - mx.mean * my.mean
            var_diff = mx.second_moment + my.second_moment - mp - (mx.mean - my.mean) ** 2
            expected = 2 * var_diff / (1 - cov / (mx.std * my.std)) - 2 * mx.std * my.std
            assert r.rhs == pytest.approx(expected, abs=1e-10)


def _family_eq1(theta):
    return np.cos(theta) ** 4 / 4


def _family_eq2_canon(theta):
    return (abs(np.cos(2 * theta)) + np.sin(theta) ** 2) ** 2 / 4


def _family_eq3(theta):
    c, s = np.cos(theta), np.sin(theta)
    r = np.sin(2 * theta) / np.sqrt(2)
    terms = abs(c / 2 + s / np.sqrt(2)) * (1 - r) + abs(c / 2 - s / np.sqrt(2)) * (1 + r)
    return (1 + s**2) / 4 * terms**2


class TestFamilyClosedForms:
    """eq1, eq2 (computational basis) and eq3 (pairing (-1, 1, 0)) on the
    family (cos t, -sin t, 0), and where the fidelity bound sits against RS."""

    def test_dense_grid(self):
        for theta in np.linspace(0.0, np.pi, 401):
            s = family_state(theta)
            assert eq1_product_bound(s, LX, LY).rhs == pytest.approx(_family_eq1(theta), abs=1e-12)
            assert eq2_product_bound(s, LX, LY, COMP).rhs == pytest.approx(
                _family_eq2_canon(theta), abs=1e-12
            )
            assert eq3_product_bound(s, LX, LY).rhs == pytest.approx(_family_eq3(theta), abs=1e-12)

    def test_eq3_below_rs_at_pi_over_10_for_every_pairing(self):
        s = family_state(np.pi / 10)
        rs = eq1_product_bound(s, LX, LY).rhs
        assert rs == pytest.approx(0.2045339, abs=1e-7)
        best = 0.0
        for pairing in itertools.permutations(range(3)):
            r = eq3_product_bound(s, LX, LY, pairing=pairing)
            t = r.intermediates
            abs_form = float(
                np.sum(np.abs(np.sqrt(t.fid_a * t.fid_b) * t.a_shifted * t.b_shifted))
            ) ** 2
            assert r.rhs <= abs_form + 1e-12
            best = max(best, abs_form)
        assert best == pytest.approx(0.1621351, abs=1e-7)
        assert best < rs

    def test_eq3_rs_crossover(self):
        def gap(frac):
            s = family_state(frac * np.pi)
            return eq3_product_bound(s, LX, LY).rhs - eq1_product_bound(s, LX, LY).rhs

        for below, above in ((0.237, 0.239), (0.763, 0.761)):
            assert gap(below) < 0 < gap(above)


class TestEvaluateAll:
    def test_theta_zero_all_tight_but_eq4(self):
        rep = evaluate_all(family_state(0.0), LX, LY)
        for rid in ("eq1", "eq2", "eq3", "eq5", "eq6", "eq7"):
            assert abs(rep.results[rid].slack) < 1e-9, rid
        assert rep.results["eq4"].satisfied

    def test_theta_half_pi_eq1_slack(self):
        rep = evaluate_all(family_state(np.pi / 2), LX, LY)
        assert all(r.satisfied for r in rep.results.values())
        assert rep.results["eq1"].slack == pytest.approx(1.0, abs=1e-12)

    def test_validity_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rep = evaluate_all(haar_random_state(3, rng), LX, LY)
            for rid, r in rep.results.items():
                if r.defined:
                    assert r.satisfied, (rid, r)

    def test_scale_invariance_of_satisfaction(self):
        rng = np.random.default_rng(6)
        for c in (0.5, 2.0, 7.3):
            scaled = make_observable(c * LX.matrix, eigenvalue_order=tuple(c * v for v in (-1, 1, 0)))
            for _ in range(50):
                s = haar_random_state(3, rng)
                base = evaluate_all(s, LX, LY)
                mod = evaluate_all(s, scaled, LY)
                assert mod.var_a == pytest.approx(c**2 * base.var_a, rel=1e-9)
                assert mod.results["eq1"].rhs == pytest.approx(
                    c**2 * base.results["eq1"].rhs, rel=1e-9, abs=1e-12
                )
                for rid in base.results:
                    if base.results[rid].defined and mod.results[rid].defined:
                        assert base.results[rid].satisfied == mod.results[rid].satisfied


def _random_hermitian(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (z + z.conj().T)


class TestAnyDimension:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_every_relation_holds_or_is_undefined(self, d, seed):
        """Haar state, random Hermitian pair, Haar basis and random pairing."""
        rng = np.random.default_rng(seed)
        a = make_observable(_random_hermitian(rng, d))
        b = make_observable(_random_hermitian(rng, d))
        s = haar_random_state(d, rng)
        rep = evaluate_all(s, a, b, haar_basis(d, seed), tuple(rng.permutation(d)))
        for rid, r in rep.results.items():
            if r.defined:
                assert r.satisfied, (rid, r)
            else:
                assert r.rhs is None and r.reason, (rid, r)

    def test_sum_and_reverse_match_eigensolve_route(self):
        """var(A+B), var(A-B) from ||Abar Psi +- Bbar Psi||^2 agree with an
        eigensolve of A+-B, also for B = U A U^dag with U = exp(i eps Y)
        close to the identity, where the eq7 denominator nearly vanishes."""
        rng = np.random.default_rng(17)
        checked = 0
        for d in (2, 3, 4, 5, 6):
            for eps in (None, *np.logspace(-4.5, -2, 6)):
                for _ in range(4):
                    a = _random_hermitian(rng, d)
                    if eps is None:
                        b = _random_hermitian(rng, d)
                    else:
                        w, v = np.linalg.eigh(_random_hermitian(rng, d))
                        u = (v * np.exp(1j * eps * w)) @ v.conj().T
                        b = u @ a @ u.conj().T
                        b = 0.5 * (b + b.conj().T)
                    oa, ob = make_observable(a), make_observable(b)
                    s = haar_random_state(d, rng)
                    ma, mb = moments(s, oa), moments(s, ob)
                    var_apb = moments(s, make_observable(a + b)).variance
                    var_amb = moments(s, make_observable(a - b)).variance
                    assert eq4_sum_bound(s, oa, ob).rhs == pytest.approx(0.5 * var_apb, rel=1e-9)
                    ref, _ = rhs_eq7(ma.variance, mb.variance, covariance(s, oa, ob), var_amb)
                    r = eq7_reverse_bound(s, oa, ob)
                    assert (r.rhs is None) == (ref is None)
                    if ref is not None:
                        assert r.rhs == pytest.approx(ref, rel=1e-9)
                        checked += 1
        assert checked >= 120

    @pytest.mark.parametrize("scale", [1e5, 1e8])
    def test_large_entries_build_and_hold(self, scale):
        """The eigensystem checks are relative to the largest entry, so
        scaled random matrices build, and every relation holds on them."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = make_observable(scale * _random_hermitian(rng, 4))
            b = make_observable(scale * _random_hermitian(rng, 4))
            rep = evaluate_all(haar_random_state(4, rng), a, b)
            for rid, r in rep.results.items():
                assert r.satisfied, (rid, r)

    @pytest.mark.parametrize("scale", [30.0, 1e3, 1e5])
    def test_equal_observables_hold_at_any_scale(self, scale):
        """A = B makes eq1-eq6 tight; the slack tolerance is relative to the
        two sides, so rounding at a large scale is not a violation."""
        a = make_observable(scale * np.diag([1.0, 2.0, -3.0]))
        rng = np.random.default_rng(1)
        for _ in range(200):
            rep = evaluate_all(haar_random_state(3, rng), a, a)
            for rid, r in rep.results.items():
                assert r.satisfied, (rid, r)


class TestReferenceRoutes:
    """Second routes to eq1, eq2 and eq5, kept here as references for the
    one-pass evaluation: eq1 from the operator products AB -+ BA, and the
    rewritten basis forms of Maccone & Pati, PRL 113, 260401 (2014), which
    hold when <B> = 0."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_routes_agree(self, d, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_hermitian(rng, d), _random_hermitian(rng, d)
        psi = haar_random_state(d, rng).amplitudes
        basis = haar_basis(d, seed)
        mean_a, mean_b = (np.vdot(psi, m @ psi).real for m in (a, b))

        comm = np.vdot(psi, (a @ b - b @ a) @ psi)
        anti = np.vdot(psi, (a @ b + b @ a) @ psi).real
        eq1 = 0.25 * abs(comm) ** 2 + (0.5 * anti - mean_a * mean_b) ** 2
        rep = evaluate_all(PureState(psi), make_observable(a), make_observable(b), basis)
        assert rep.results["eq1"].rhs == pytest.approx(eq1, rel=1e-12, abs=0)

        b = b - mean_b * np.eye(d)
        bh = basis.matrix().conj().T
        e, f, g = bh @ (a @ psi), bh @ psi, bh @ (b @ psi)
        c, dn = e.conj() * g, f.conj() * g
        eq2 = np.sum(np.abs(c - dn * mean_a)) ** 2
        eq5 = 0.5 * np.sum((np.abs(e - f * mean_a) + np.abs(g)) ** 2)
        rep = evaluate_all(PureState(psi), make_observable(a), make_observable(b), basis)
        assert rep.results["eq2"].rhs == pytest.approx(eq2, rel=1e-12, abs=0)
        assert rep.results["eq5"].rhs == pytest.approx(eq5, rel=1e-12, abs=0)


class TestSinglePass:
    def test_each_state_quantity_computed_once(self, monkeypatch):
        """evaluate_all computes the moments and the centred vectors of A
        and B once each, and every relation reads them."""
        calls = {"moments": 0, "_centre": 0}
        for name in calls:
            def counted(*args, _fn=getattr(bounds, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(bounds, name, counted)
        rng = np.random.default_rng(9)
        a, b = (make_observable(_random_hermitian(rng, 4)) for _ in range(2))
        evaluate_all(haar_random_state(4, rng), a, b, haar_basis(4, 3), (3, 1, 0, 2))
        assert calls == {"moments": 2, "_centre": 2}


def _rhs_inputs(d, seed, rows=6):
    """Per-row arguments of every rhs_eqN, stacked along a leading axis, for
    Haar states of a random Hermitian pair in a Haar basis and a random
    pairing.  Row 0 feeds eq7 a variance at the degeneracy rule's edge, row 1
    the arguments of B = A (singular denominator)."""
    rng = np.random.default_rng(seed)
    a = make_observable(_random_hermitian(rng, d))
    b = make_observable(_random_hermitian(rng, d))
    bh = haar_basis(d, seed).matrix().conj().T
    perm = rng.permutation(d)
    args = {k: [] for k in ("eq1", "eq2", "eq3", "eq4", "eq7")}
    for s in (haar_random_state(d, rng) for _ in range(rows)):
        ma, mb = moments(s, a), moments(s, b)
        u, v = _centre(s.amplitudes, a), _centre(s.amplitudes, b)
        cov = covariance(s, a, b)
        comm = abs(np.vdot(s.amplitudes, (a.matrix @ b.matrix - b.matrix @ a.matrix) @ s.amplitudes))
        fid_a = np.abs(a.eigenvectors.conj().T @ s.amplitudes) ** 2
        fid_b = np.abs(b.eigenvectors.conj().T @ s.amplitudes) ** 2
        args["eq1"].append((comm, cov))
        args["eq2"].append((bh @ u, bh @ v))
        args["eq3"].append((a.eigenvalues - ma.mean, b.eigenvalues[perm] - mb.mean, fid_a, fid_b[perm]))
        args["eq4"].append((np.vdot(u + v, u + v).real,))
        args["eq7"].append((ma.variance, mb.variance, cov, np.vdot(u - v, u - v).real))
    args["eq7"][0] = (EQ7_EPS**2,) + args["eq7"][0][1:]
    var_a = args["eq7"][1][0]
    args["eq7"][1] = (var_a, var_a, var_a, 0.0)
    return {k: tuple(np.array(x) for x in zip(*per_row)) for k, per_row in args.items()}


class TestBatchedRhs:
    """Each rhs_eqN on a stack of inputs equals its per-row scalar calls, so
    the sampled path can evaluate all perturbed count vectors at once."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_rows(self, d, seed):
        inputs = _rhs_inputs(d, seed)
        cases = (
            (rhs_eq1, inputs["eq1"]), (rhs_eq2, inputs["eq2"]), (rhs_eq3, inputs["eq3"]),
            (rhs_eq4, inputs["eq4"]), (rhs_eq5, inputs["eq2"]), (rhs_eq6, inputs["eq3"]),
        )
        for fn, args in cases:
            per_row = [fn(*(x[i] for x in args)) for i in range(6)]
            np.testing.assert_allclose(fn(*args), per_row, rtol=1e-15, atol=0)
            # any number of leading axes
            stacked = fn(*(x.reshape(2, 3, *x.shape[1:]) for x in args))
            np.testing.assert_allclose(stacked.ravel(), per_row, rtol=1e-15, atol=0)

        args = inputs["eq7"]
        rhs, undefined = rhs_eq7(*args)
        per_row = [rhs_eq7(*(float(x[i]) for x in args)) for i in range(6)]
        assert [r[1] for r in per_row[:2]] == ["degenerate variance", "singular denominator"]
        assert undefined.tolist() == [r[0] is None for r in per_row]
        assert np.all(np.isnan(rhs[undefined]))
        defined = [r[0] for r in per_row if r[0] is not None]
        np.testing.assert_allclose(rhs[~undefined], defined, rtol=1e-15, atol=0)
