"""Tests for the seven relations, their oracles and their invariants."""

import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varbound.bounds as bounds
import varbound.hermitian as hermitian
from support import haar_basis
from varbound.bounds import (
    EQ7_EPS,
    BoundResult,
    IncompleteBasis,
    InvalidPairing,
    OrthonormalBasis,
    UncertaintyReport,
    evaluate_all,
    evaluate_states,
    rhs_eq1,
    rhs_eq2,
    rhs_eq3,
    rhs_eq4,
    rhs_eq5,
    rhs_eq6,
    rhs_eq7,
)
from varbound.hermitian import (
    Observable,
    PureState,
    builtin_spin1,
    haar_random_state,
    make_observable,
)
from varbound.photonics import prepare_state

LX, LY, LZ, LP = builtin_spin1()
COMP = OrthonormalBasis.computational(3)
SWEEP_THETAS = [j * np.pi / 10 for j in range(11)]


def _result(rid, state, a, b, basis=None, pairing=None):
    """One relation of evaluate_all."""
    return evaluate_all(state, a, b, basis, pairing).results[rid]


def _moments(state, obs):
    """Mean, second moment ||M psi||^2 and variance ||M psi||^2 - <M>^2 of
    ``obs``: a second route to the kernel's variance ||Mbar psi||^2."""
    psi = state.amplitudes
    m_psi = obs.matrix @ psi
    mean, second = np.vdot(psi, m_psi).real, np.vdot(m_psi, m_psi).real
    return mean, second, second - mean**2


class TestOrthonormalBasis:
    def test_matrix_checked_and_read_only(self):
        basis = OrthonormalBasis(LX.eigenvectors)
        assert np.array_equal(basis.matrix, LX.eigenvectors) and basis.dim == 3
        assert not basis.matrix.flags.writeable
        assert np.array_equal(COMP.matrix, np.eye(3))

    @pytest.mark.parametrize("matrix", [
        (), np.eye(3)[:, :2], np.eye(3)[:2], [[1.0]], np.eye(2) * np.array([1.0, 1.0 + 1e-9]),
        [[np.nan, 0], [0, 1]], np.full((2, 2), np.nan), np.zeros((2, 2, 2)),
    ])
    def test_rejects_incomplete_or_nonorthonormal(self, matrix):
        with pytest.raises(IncompleteBasis):
            OrthonormalBasis(matrix)


class TestEq1:
    def test_theta_zero_equality(self):
        # <Lz> = 1, <Lp> = 0: rhs = 1/4 = (1/2)(1/2) = lhs
        r = _result("eq1", prepare_state(0.0), LX, LY)
        assert r.lhs == pytest.approx(0.25, abs=1e-12)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi(self):
        r = _result("eq1", prepare_state(np.pi / 2), LX, LY)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.0, abs=1e-12)

    def test_equal_observables_collapse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq1", s, LX, LX)
            var = _moments(s, LX)[2]
            assert r.lhs == pytest.approx(var**2, abs=1e-10)
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_rewritten_route_on_family(self):
        # rhs must equal |<Lz>/2|^2 + |<Lp>/2 - <Lx><Ly>|^2
        for theta in SWEEP_THETAS:
            s = prepare_state(theta)
            r = _result("eq1", s, LX, LY)
            mz, mp = _moments(s, LZ)[0], _moments(s, LP)[0]
            mx, my = _moments(s, LX)[0], _moments(s, LY)[0]
            assert r.rhs == pytest.approx((mz / 2) ** 2 + (mp / 2 - mx * my) ** 2, abs=1e-10)


class TestEq2:
    def test_theta_zero_tight(self):
        r = _result("eq2", prepare_state(0.0), LX, LY, COMP)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi_tight(self):
        r = _result("eq2", prepare_state(np.pi / 2), LX, LY, COMP)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_equal_observables_own_eigenbasis(self):
        basis = OrthonormalBasis(LX.eigenvectors)
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq2", s, LX, LX, basis)
            var = _moments(s, LX)[2]
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_incomplete_basis_rejected(self):
        with pytest.raises(IncompleteBasis):
            _result("eq2", prepare_state(0.2), LX, LY, OrthonormalBasis.computational(4))


class TestEq3:
    def test_theta_zero(self):
        # fidelities (1/4, 1/4, 1/2) per observable
        r = _result("eq3", prepare_state(0.0), LX, LY)
        t = evaluate_states(prepare_state(0.0).amplitudes, LX, LY)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(t["fid_a"], [0.25, 0.25, 0.5], atol=1e-12)
        assert np.allclose(t["fid_b"], [0.25, 0.25, 0.5], atol=1e-12)

    def test_theta_half_pi(self):
        r = _result("eq3", prepare_state(np.pi / 2), LX, LY)
        t = evaluate_states(prepare_state(np.pi / 2).amplitudes, LX, LY)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(t["fid_a"], [0.5, 0.5, 0.0], atol=1e-12)

    def test_equal_observables_identity_pairing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq3", s, LX, LX)
            var = _moments(s, LX)[2]
            assert r.rhs == pytest.approx(var**2, abs=1e-10)

    def test_invalid_pairing(self):
        with pytest.raises(InvalidPairing):
            _result("eq3", prepare_state(0.0), LX, LY, pairing=(0, 0, 1))

    @pytest.mark.parametrize("pairing", [(0.9, 1.2, 2.7), (True, False, 2), "012", (0, 1, None)])
    def test_non_integer_pairing_named(self, pairing):
        """Floats (int() would truncate them to 0, 1, 2), bools, a string of
        digits and None are no indices: each is named in the error."""
        with pytest.raises(InvalidPairing, match=re.escape(repr(pairing))):
            _result("eq3", prepare_state(0.0), LX, LY, pairing=pairing)

    def test_numpy_integer_pairing_accepted(self):
        """numpy integers are indices: an array and a tuple of np.int64 give
        the pairing of the same Python ints."""
        want = _result("eq3", prepare_state(0.3), LX, LY, pairing=(2, 0, 1)).rhs
        for pairing in (np.array([2, 0, 1]), tuple(np.array([2, 0, 1], dtype=np.int64))):
            assert _result("eq3", prepare_state(0.3), LX, LY, pairing=pairing).rhs == want

    def test_paper_pairing_satisfied_on_sweep(self):
        for theta in SWEEP_THETAS:
            r = _result("eq3", prepare_state(theta), LX, LY, pairing=(0, 1, 2))
            assert r.satisfied, theta


class TestEq4:
    def test_family_anchors(self):
        r = _result("eq4", prepare_state(0.0), LX, LY)
        assert (r.lhs, r.rhs) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.5, abs=1e-12))
        r = _result("eq4", prepare_state(np.pi / 2), LX, LY)
        assert (r.lhs, r.rhs) == (pytest.approx(2.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_equal_observables_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq4", s, LX, LX)
            var = _moments(s, LX)[2]
            assert r.lhs == pytest.approx(2 * var, abs=1e-10)
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)


class TestEq5:
    def test_theta_zero_tight(self):
        # single surviving term n=2: (sqrt(1/2) + sqrt(1/2))^2 / 2 = 1
        r = _result("eq5", prepare_state(0.0), LX, LY, COMP)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_theta_half_pi_tight(self):
        r = _result("eq5", prepare_state(np.pi / 2), LX, LY, COMP)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)
        assert abs(r.slack) < 1e-9

    def test_equal_observables_own_eigenbasis(self):
        basis = OrthonormalBasis(LX.eigenvectors)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq5", s, LX, LX, basis)
            var = _moments(s, LX)[2]
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)


class TestEq6:
    def test_family_anchors(self):
        r = _result("eq6", prepare_state(0.0), LX, LY)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        r = _result("eq6", prepare_state(np.pi / 2), LX, LY)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)

    def test_equal_observables(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = haar_random_state(3, rng)
            r = _result("eq6", s, LX, LX)
            var = _moments(s, LX)[2]
            assert r.rhs == pytest.approx(2 * var, abs=1e-10)

    def test_paper_pairing_satisfied_on_sweep(self):
        for theta in SWEEP_THETAS:
            assert _result("eq6", prepare_state(theta), LX, LY).satisfied, theta


class TestEq7:
    def test_theta_zero_equality(self):
        # Cov = 0, Delta(Lx-Ly)^2 = 1, DeltaLx DeltaLy = 1/2
        r = _result("eq7", prepare_state(0.0), LX, LY)
        assert r.direction == "upper"
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)

    def test_theta_half_pi_equality(self):
        r = _result("eq7", prepare_state(np.pi / 2), LX, LY)
        assert r.lhs == pytest.approx(2.0, abs=1e-12)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_variance_undefined(self):
        r = _result("eq7", prepare_state(0.0), LZ, LX)
        assert not r.defined
        assert r.rhs is None
        assert "variance" in r.reason

    def test_degeneracy_rule_is_std_at_most_eps(self):
        """One rule for the ideal and the sampled path: a std at most
        EQ7_EPS = 1e-9 of its observable's max_std w, whatever the scale,
        or within its resolution where a shift makes that the larger."""
        for w in (1e-12, 1.0, 1e12):
            m = bounds._degenerate_std(make_observable(w * np.diag([1.0, -1.0])))
            assert m == EQ7_EPS * w
            v = w * w
            rhs, degenerate = rhs_eq7(1e-16 * v, v, v, m, m)  # std 1e-8 w
            assert not np.isnan(rhs) and not degenerate
            for args in ((1e-19 * v, v, v, m, m), (v, 1e-19 * v, v, m, m)):  # std 3e-10 w
                rhs, degenerate = rhs_eq7(*args)
                assert np.isnan(rhs) and degenerate
            # unit variances and Cov = 1 - 1e-10, so var(A - B) = 2e-10: the
            # denominator's rule is dimensionless
            rhs, degenerate = rhs_eq7(v, v, 2e-10 * v, m, m)
            assert np.isnan(rhs) and not degenerate
        # the same std (1e-8) is degenerate against its own, wider spectrum
        assert [bool(rhs_eq7(*args)[1]) for args in (
            (1e-16, 1.0, 1.0, 1e-9, 1e-7), (1e-16, 1.0, 1.0, 1e-7, 1e-9),
            (1.0, 1e-16, 1.0, 1e-7, 1e-9), (1.0, 1e-16, 1.0, 1e-9, 1e-7),
        )] == [False, True, False, True]
        # A + 1e12 I rounds A psi - <A> psi at about 1e-4, far above 1e-9 w
        shifted = make_observable(np.diag([1.0, -1.0]) + 1e12 * np.eye(2))
        assert bounds._degenerate_std(shifted) == shifted.resolution > 1e-4

    def test_undefined_on_exact_eigenstates(self):
        """On an eigenvector of A, var(A) = ||Abar psi||^2 is rounding
        (about 1e-31 of A's scale squared), far below the degeneracy rule's
        (EQ7_EPS max_std)**2."""
        rng = np.random.default_rng(23)
        reasons = []
        for i in range(300):
            d = 2 + i % 5
            a = _random_hermitian(rng, d)
            b = make_observable(_random_hermitian(rng, d))
            psi = np.linalg.eigh(a)[1][:, rng.integers(d)]
            reasons.append(_result("eq7", PureState(psi), make_observable(a), b).reason)
        assert reasons == ["degenerate variance"] * 300

    def test_rewritten_route_on_family(self):
        for theta in SWEEP_THETAS:
            s = prepare_state(theta)
            r = _result("eq7", s, LX, LY)
            if not r.defined:
                continue
            (mx, mx2, var_x), (my, my2, var_y) = _moments(s, LX), _moments(s, LY)
            mp = _moments(s, LP)[0]
            cov = 0.5 * mp - mx * my
            var_diff = mx2 + my2 - mp - (mx - my) ** 2
            std_prod = np.sqrt(var_x * var_y)
            expected = 2 * var_diff / (1 - cov / std_prod) - 2 * std_prod
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
            s = prepare_state(theta)
            assert _result("eq1", s, LX, LY).rhs == pytest.approx(_family_eq1(theta), abs=1e-12)
            assert _result("eq2", s, LX, LY, COMP).rhs == pytest.approx(
                _family_eq2_canon(theta), abs=1e-12
            )
            assert _result("eq3", s, LX, LY).rhs == pytest.approx(_family_eq3(theta), abs=1e-12)

    def test_eq3_below_rs_at_pi_over_10_for_every_pairing(self):
        s = prepare_state(np.pi / 10)
        rs = _result("eq1", s, LX, LY).rhs
        assert rs == pytest.approx(0.2045339, abs=1e-7)
        best = 0.0
        for pairing in itertools.permutations(range(3)):
            r = _result("eq3", s, LX, LY, pairing=pairing)
            t = evaluate_states(s.amplitudes, LX, LY, pairing=pairing)
            abs_form = float(
                np.sum(np.abs(np.sqrt(t["fid_a"] * t["fid_b"]) * t["a_shifted"] * t["b_shifted"]))
            ) ** 2
            assert r.rhs <= abs_form + 1e-12
            best = max(best, abs_form)
        assert best == pytest.approx(0.1621351, abs=1e-7)
        assert best < rs

    def test_eq3_rs_crossover(self):
        def gap(frac):
            s = prepare_state(frac * np.pi)
            return _result("eq3", s, LX, LY).rhs - _result("eq1", s, LX, LY).rhs

        for below, above in ((0.237, 0.239), (0.763, 0.761)):
            assert gap(below) < 0 < gap(above)


class TestEvaluateAll:
    def test_theta_zero_all_tight_but_eq4(self):
        rep = evaluate_all(prepare_state(0.0), LX, LY)
        for rid in ("eq1", "eq2", "eq3", "eq5", "eq6", "eq7"):
            assert abs(rep.results[rid].slack) < 1e-9, rid
        assert rep.results["eq4"].satisfied

    def test_theta_half_pi_eq1_slack(self):
        rep = evaluate_all(prepare_state(np.pi / 2), LX, LY)
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
            # ascending (-c, 0, c); the pairing meets LY's (-1, 1, 0) as LX does
            scaled = make_observable(c * LX.matrix)
            for _ in range(50):
                s = haar_random_state(3, rng)
                base = evaluate_all(s, LX, LY)
                mod = evaluate_all(s, scaled, LY, pairing=(0, 2, 1))
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


def _exact_variance(matrix, psi):
    """var(M) in the state psi/||psi||, exact in rationals from the float
    entries of the Hermitian ``matrix`` and ``psi``."""
    m = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in matrix]
    p = [(Fraction(z.real), Fraction(z.imag)) for z in psi]
    mp = [(sum(x * pr - y * pi for (x, y), (pr, pi) in zip(row, p)),
           sum(x * pi + y * pr for (x, y), (pr, pi) in zip(row, p))) for row in m]
    norm = sum(x * x + y * y for x, y in p)
    mean = sum(x * mx + y * my for (x, y), (mx, my) in zip(p, mp)) / norm
    return sum(x * x + y * y for x, y in mp) / norm - mean * mean


def _exact_eq7(a, b, psi, min_std_a, min_std_b):
    """eq7 from exact var(A), var(B), var(A - B) (Cov = (var(A) + var(B) -
    var(A - B)) / 2) and dA dB to 2**-200 relative; None where the
    relation is undefined (a std at most ``min_std_a`` or ``min_std_b``, or
    a denominator within EQ7_EPS of zero)."""
    var_a, var_b, var_amb = (_exact_variance(m, psi) for m in (a, b, a - b))
    if var_a <= Fraction(min_std_a) ** 2 or var_b <= Fraction(min_std_b) ** 2:
        return None
    prod = var_a * var_b
    da_db = Fraction(isqrt(prod.numerator * prod.denominator * 4**200), prod.denominator * 2**200)
    denom = 1 - (var_a + var_b - var_amb) / (2 * da_db)
    if abs(denom) <= Fraction(EQ7_EPS):
        return None
    return float(2 * var_amb / denom - 2 * da_db)


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
        """var(A+B) from ||Abar Psi + Bbar Psi||^2 agrees with an eigensolve
        of A+B, and eq7 with its exact value, also for B = U A U^dag with
        U = exp(i eps Y) close to the identity, where the eq7 denominator
        nearly vanishes."""
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
                    var_apb = _moments(s, make_observable(a + b))[2]
                    rep = evaluate_all(s, oa, ob)
                    assert rep.results["eq4"].rhs == pytest.approx(0.5 * var_apb, rel=1e-9)
                    ref = _exact_eq7(oa.matrix, ob.matrix, s.amplitudes,
                                     bounds._degenerate_std(oa), bounds._degenerate_std(ob))
                    r = rep.results["eq7"]
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


class TestScaleCovariance:
    """The relations are scale-covariant, and so is every rule of their
    verdicts: eq7's degeneracy rule and the slack tolerance's floors scale
    with the observables' max_std and resolution."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["haar", "eigenstate of A", "eigenstate of B"]))
    def test_verdicts_keep_their_state_at_every_scale(self, d, seed, kind):
        """With A and B scaled by 10^k, k in [-12, 12], each relation keeps
        its k = 0 state: defined or undefined (with its reason), and
        satisfied or not.  The state is a Haar state or an exact ``eigh``
        eigenvector of A or B; the basis is a Haar basis, the pairing
        random."""
        rng = np.random.default_rng(seed)
        a, b = _random_hermitian(rng, d), _random_hermitian(rng, d)
        if kind == "haar":
            psi = haar_random_state(d, rng).amplitudes
        else:
            psi = np.linalg.eigh(a if kind == "eigenstate of A" else b)[1][:, rng.integers(d)]
        state, basis, pairing = PureState(psi), haar_basis(d, seed), tuple(rng.permutation(d))

        def verdicts(k):
            scale = 10.0**k
            rep = evaluate_all(state, make_observable(scale * a), make_observable(scale * b),
                               basis, pairing)
            return {rid: (r.defined, r.reason, r.satisfied) for rid, r in rep.results.items()}

        at_one = verdicts(0)
        if kind != "haar":
            assert at_one["eq7"][:2] == (False, "degenerate variance")
        for k in range(-12, 13):
            assert verdicts(k) == at_one, k


    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e8, 1e12])
    def test_shifted_and_identity_observables(self, shift):
        """A + shift I and a multiple of the identity: A psi - <A> psi
        rounds at about 1e-16 of the shift, which the observable's
        resolution covers in eq7's degeneracy rule and in the slack floors.
        Every defined relation holds, on Haar states and on exact
        eigenstates of A, where eq7 is degenerate, as it is for the
        identity on every state."""
        rng = np.random.default_rng(31)
        for i in range(100):
            d = 2 + i % 5
            a = _random_hermitian(rng, d) + shift * np.eye(d)
            b = make_observable(_random_hermitian(rng, d))
            ident = make_observable((1.0 + shift) * np.eye(d))
            eigenstate = PureState(np.linalg.eigh(a)[1][:, rng.integers(d)])
            a = make_observable(a)
            for state, obs in ((haar_random_state(d, rng), a), (eigenstate, a),
                               (haar_random_state(d, rng), ident)):
                rep = evaluate_all(state, obs, b)
                for rid, r in rep.results.items():
                    assert r.satisfied, (i, rid, r)
                if obs is ident or state is eigenstate:
                    assert rep.results["eq7"].reason == "degenerate variance", i

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e8, 1e12])
    def test_violation_beyond_rounding_shows(self, shift, monkeypatch):
        """The slack tolerance on A + shift I grows with the shift's
        rounding, not with its square.  With B = A, eq1 and eq4 hold with
        equality; raising their right-hand sides by 1e-7 + 1e4 eps shift
        (relative) makes both read violated at every shift (2e-4 at 1e8)."""
        a = make_observable(np.diag([1.0, 0.0, -1.0]) + shift * np.eye(3))
        state = PureState(np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0))  # var(A) = 1
        rep = evaluate_all(state, a, a)
        assert rep.var_a == pytest.approx(1.0, rel=1e-3)
        assert rep.results["eq1"].satisfied and rep.results["eq4"].satisfied
        excess = 1.0 + 1e-7 + 1e4 * np.finfo(float).eps * shift
        for name in ("rhs_eq1", "rhs_eq4"):
            monkeypatch.setattr(bounds, name, lambda *args, _fn=getattr(bounds, name):
                                excess * _fn(*args))
        rep = evaluate_all(state, a, a)
        assert not rep.results["eq1"].satisfied and not rep.results["eq4"].satisfied


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
        bh = basis.matrix.conj().T
        e, f, g = bh @ (a @ psi), bh @ psi, bh @ (b @ psi)
        c, dn = e.conj() * g, f.conj() * g
        eq2 = np.sum(np.abs(c - dn * mean_a)) ** 2
        eq5 = 0.5 * np.sum((np.abs(e - f * mean_a) + np.abs(g)) ** 2)
        rep = evaluate_all(PureState(psi), make_observable(a), make_observable(b), basis)
        assert rep.results["eq2"].rhs == pytest.approx(eq2, rel=1e-12, abs=0)
        assert rep.results["eq5"].rhs == pytest.approx(eq5, rel=1e-12, abs=0)


class TestSinglePass:
    def test_each_state_quantity_computed_once(self, monkeypatch):
        """evaluate_all is one evaluate_states call, which centres A psi and
        B psi in one call of the shared ``hermitian._centre``, and every
        relation reads them."""
        assert bounds._centre is hermitian._centre
        calls = {"evaluate_states": 0, "_centre": 0}
        for name in calls:
            def counted(*args, _fn=getattr(bounds, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(bounds, name, counted)
        rng = np.random.default_rng(9)
        a, b = (make_observable(_random_hermitian(rng, 4)) for _ in range(2))
        evaluate_all(haar_random_state(4, rng), a, b, haar_basis(4, 3), (3, 1, 0, 2))
        assert calls == {"evaluate_states": 1, "_centre": 1}
        assert "intermediates" not in {f.name for f in dataclasses.fields(BoundResult)}


def _reference_result(relation_id, direction, lhs, rhs, floor):
    margin = lhs - rhs if direction == "lower" else rhs - lhs
    return BoundResult(
        relation_id=relation_id,
        direction=direction,
        lhs=float(lhs),
        rhs=float(rhs),
        satisfied=bool(margin >= -bounds._slack_tol(lhs, rhs, floor)),
        slack=float(margin),
    )


def _reference_undefined(relation_id, direction, lhs, reason):
    return BoundResult(
        relation_id=relation_id,
        direction=direction,
        lhs=float(lhs),
        rhs=None,
        satisfied=True,
        slack=None,
        defined=False,
        reason=reason,
    )


def _reference_report(state, a, b, basis=None, pairing=None):
    """evaluate_all assembled relation by relation, on the kernel's scalar
    values: the slack floors are ``_slack_floors`` (product, sum), and eq7
    is undefined for a degenerate variance when a std is at most
    ``_degenerate_std`` of its observable."""
    t = evaluate_states(state.amplitudes, a, b, basis, pairing)
    prod, total = t["lhs_prod"], t["lhs_sum"]
    fp, fs = bounds._slack_floors(a, b)
    m_a, m_b = bounds._degenerate_std(a), bounds._degenerate_std(b)
    degenerate = t["var_a"] <= m_a * m_a or t["var_b"] <= m_b * m_b
    results = {
        "eq1": _reference_result("eq1", "lower", prod, t["eq1"], fp),
        "eq2": _reference_result("eq2", "lower", prod, t["eq2"], fp),
        "eq3": _reference_result("eq3", "lower", prod, t["eq3"], fp),
        "eq4": _reference_result("eq4", "lower", total, t["eq4"], fs),
        "eq5": _reference_result("eq5", "lower", total, t["eq5"], fs),
        "eq6": _reference_result("eq6", "lower", total, t["eq6"], fs),
        "eq7": (
            _reference_result("eq7", "upper", total, t["eq7"], fs)
            if not np.isnan(t["eq7"])
            else _reference_undefined("eq7", "upper", total, "degenerate variance" if degenerate
                                      else "singular denominator")
        ),
    }
    return UncertaintyReport(
        state_label=state.label,
        **{k: float(t[k]) for k in ("mean_a", "mean_b", "var_a", "var_b")},
        product_lhs=float(prod), sum_lhs=float(total),
        results=results,
    )


def _bits(x):
    """A value as its type and exact bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    return type(x).__name__, repr(x)


def _report_bits(rep):
    out = [_bits(getattr(rep, k)) for k in ("state_label", "mean_a", "mean_b", "var_a",
                                             "var_b", "product_lhs", "sum_lhs")]
    for rid, r in rep.results.items():
        out.append(rid)
        out += [_bits(getattr(r, k)) for k in ("relation_id", "direction", "lhs", "rhs", "slack",
                                               "satisfied", "defined", "reason")]
    return out


class TestReportMatchesReference:
    """evaluate_all takes every margin, tolerance and verdict in one array
    expression; the relation-by-relation assembly is the reference, and
    every field of the report agrees with it bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), with_basis=st.booleans(),
           with_pairing=st.booleans())
    def test_report_bit_identical(self, d, seed, with_basis, with_pairing):
        """A Haar state, an exact eigenstate of A (eq7: degenerate variance)
        and the pair (A, A) (eq7: singular denominator)."""
        rng = np.random.default_rng(seed)
        a = make_observable(_random_hermitian(rng, d))
        b = make_observable(_random_hermitian(rng, d))
        basis = haar_basis(d, seed) if with_basis else None
        pairing = tuple(rng.permutation(d)) if with_pairing else None
        haar = haar_random_state(d, rng)
        reasons = set()
        for state, bb in ((haar, b), (PureState(a.eigenvectors[:, 0], "eigenstate"), b),
                          (haar, a)):
            rep = evaluate_all(state, a, bb, basis, pairing)
            assert _report_bits(rep) == _report_bits(_reference_report(state, a, bb, basis, pairing))
            reasons.add(rep.results["eq7"].reason)
        assert reasons == {None, "degenerate variance", "singular denominator"}


def _status_codes(state, a, b, pairing=None):
    """Each relation's status and reason code by ``bounds.verdicts``."""
    t = evaluate_states(state.amplitudes, a, b, pairing=pairing)
    rhs = np.array([t[rid] for rid in bounds.RELATION_IDS])
    out = bounds.verdicts(t, rhs, bounds._slack_floors(a, b), degenerate=t["eq7_degenerate"])
    return out[3].tolist(), out[4].tolist()


class TestPairingReachesStoredOrders:
    """``pairing`` is the one way to pair eigenvalues: A and B stored in any
    orders sigma_A, sigma_B give the report of their ascending eigensystems
    under the pairing pi with pi[sigma_A] = sigma_B.  eq3 and eq6 then sum
    the same terms in another order, so they agree within the slack
    tolerance; every other field, status and reason is bit-equal."""

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), degenerate=st.booleans(),
           data=st.data())
    def test_pairing_reaches_every_stored_order(self, d, seed, degenerate, data):
        rng = np.random.default_rng(seed)
        matrices = [_random_hermitian(rng, d) for _ in "ab"]
        if degenerate:
            # integer spectra with a repeated value, the repeat's columns
            # reordered like any others
            for i, q in enumerate((haar_basis(d, seed).matrix, haar_basis(d, seed + 1).matrix)):
                values = data.draw(st.lists(st.integers(-2, 2), min_size=d - 1, max_size=d - 1))
                matrices[i] = (q * np.array(values + values[:1], float)) @ q.conj().T
        a0, b0 = (make_observable(m) for m in matrices)
        sigma_a = data.draw(st.permutations(range(d)))
        sigma_b = data.draw(st.permutations(range(d)))
        a, b = (Observable(o.matrix, o.eigenvalues[s], o.eigenvectors[:, s])
                for o, s in ((a0, sigma_a), (b0, sigma_b)))
        pairing = [0] * d
        for i, j in zip(sigma_a, sigma_b):
            pairing[i] = j
        floors = bounds._slack_floors(a0, b0)
        assert bounds._slack_floors(a, b) == floors
        for state in (haar_random_state(d, rng), PureState(a0.eigenvectors[:, 0])):
            stored, paired = evaluate_all(state, a, b), evaluate_all(state, a0, b0, pairing=pairing)
            results = dict(stored.results)
            for rid, floor in (("eq3", floors[0]), ("eq6", floors[1])):
                s, p = stored.results[rid], paired.results[rid]
                tol = bounds._slack_tol(p.lhs, p.rhs, floor)
                assert abs(s.rhs - p.rhs) <= tol and abs(s.slack - p.slack) <= tol
                results[rid] = dataclasses.replace(s, rhs=p.rhs, slack=p.slack)
            stored = dataclasses.replace(stored, results=results)
            assert _report_bits(stored) == _report_bits(paired)
            assert _status_codes(state, a, b) == _status_codes(state, a0, b0, pairing)


# each relation's side and direction, written out here so that the
# references below do not read the program's relation table
REFERENCE_TABLE = {
    "eq1": ("lhs_prod", "lower"), "eq2": ("lhs_prod", "lower"), "eq3": ("lhs_prod", "lower"),
    "eq4": ("lhs_sum", "lower"), "eq5": ("lhs_sum", "lower"), "eq6": ("lhs_sum", "lower"),
    "eq7": ("lhs_sum", "upper"),
}


def _reference_verdict(rid, sides, rhs, floors, degenerate):
    """(lhs, margin, tolerance, status, reason) of one relation cell, one
    scalar at a time."""
    side, direction = REFERENCE_TABLE[rid]
    lhs, floor = sides[side], floors[side == "lhs_sum"]
    margin = lhs - rhs if direction == "lower" else rhs - lhs
    tol = bounds._slack_tol(lhs, rhs, floor)
    if math.isnan(margin):
        reason = None
        if rid == "eq7":
            reason = "degenerate variance" if degenerate else "singular denominator"
        return lhs, margin, tol, "undefined", reason
    if margin < -tol:
        return lhs, margin, tol, "violated", None
    return lhs, margin, tol, "tight" if abs(margin) <= tol else "satisfied", None


@st.composite
def _verdict_inputs(draw):
    """(sides, rhs, floors, relation indices, degenerate) of a few rows.  A
    cell's rhs is NaN, any value, exactly +-tolerance from a zero lhs or
    one ulp beyond it (that cell's side is then zero in its row)."""
    rows = draw(st.integers(1, 4))
    relations = draw(st.lists(st.integers(0, 6), min_size=1, max_size=9))
    floors = tuple(draw(st.floats(1e-6, 1e6)) for _ in range(2))
    value = st.floats(-1e3, 1e3) | st.just(0.0)
    sides = {k: np.array([draw(value) for _ in range(rows)]) for k in ("lhs_prod", "lhs_sum")}
    rhs = np.empty((rows, len(relations)))
    for i, j in itertools.product(range(rows), range(len(relations))):
        side = REFERENCE_TABLE[f"eq{relations[j] + 1}"][0]
        kind = draw(st.sampled_from(["nan", "any", "edge", "beyond"]))
        if kind == "nan":
            rhs[i, j] = np.nan
        elif kind == "any":
            rhs[i, j] = draw(value)
        else:
            sides[side][i] = 0.0
            edge = draw(st.sampled_from([-1.0, 1.0])) * bounds.SLACK_TOL * floors[side == "lhs_sum"]
            rhs[i, j] = edge if kind == "edge" else np.nextafter(edge, np.copysign(np.inf, edge))
    degenerate = np.array([draw(st.booleans()) for _ in range(rows)])
    return sides, rhs, floors, relations, degenerate


def _verdict_bits(out):
    """The five outputs of bounds.verdicts as exact bits."""
    return [_bits(np.asarray(x)) for x in out]


class TestVerdicts:
    """bounds.verdicts is the one verdict rule of evaluate_all and the
    sweep's report."""

    def test_relation_table(self):
        assert {rid: (side, d) for rid, side, d in bounds.RELATIONS} == REFERENCE_TABLE
        assert bounds.RELATION_IDS == tuple(REFERENCE_TABLE)

    @settings(max_examples=300, deadline=None)
    @given(inputs=_verdict_inputs())
    def test_rows_are_one_row_calls_and_reference(self, inputs):
        """A (rows, relations) call gives, row by row, the bits of one-row
        calls and of the scalar reference, NaN rhs, margins at
        +-tolerance and eq7's two undefined reasons included."""
        sides, rhs, floors, relations, degenerate = inputs
        out = bounds.verdicts(sides, rhs, floors, relations, degenerate)
        assert all(np.shape(x) == rhs.shape for x in out)
        for i in range(len(rhs)):
            row = {k: v[i] for k, v in sides.items()}
            one = bounds.verdicts(row, rhs[i], floors, relations, degenerate[i])
            assert _verdict_bits(one) == _verdict_bits([x[i] for x in out])
            for j, rel in enumerate(relations):
                ref = _reference_verdict(f"eq{rel + 1}", row, rhs[i, j], floors, degenerate[i])
                got = (out[0][i, j], out[1][i, j], out[2][i, j],
                       bounds.STATUSES[out[3][i, j]], bounds.REASONS[out[4][i, j]])
                assert [_bits(np.float64(x)) for x in got[:3]] == [_bits(np.float64(x)) for x in ref[:3]]
                assert got[3:] == ref[3:], (rel, rhs[i, j], row)

    def test_ties_and_reasons(self):
        """The edges of the rule at fixed points: a margin of exactly
        -tolerance is tight, one ulp below it violated; an undefined eq7
        reads its reason from ``degenerate``."""
        tol = bounds.SLACK_TOL * 4.0
        sides = {"lhs_prod": np.zeros(2), "lhs_sum": np.zeros(2)}
        rhs = np.array([[tol, np.nextafter(tol, 1.0), -tol, np.nan, np.nan]] * 2)
        _, margin, t, status, reason = bounds.verdicts(sides, rhs, (4.0, 4.0), [0, 0, 6, 6, 3],
                                                       np.array([True, False]))
        assert (t[:, :3] == tol).all() and margin[0, 0] == margin[0, 2] == -tol
        assert [[bounds.STATUSES[c] for c in row] for row in status] == [
            ["tight", "violated", "tight", "undefined", "undefined"]] * 2
        assert [[bounds.REASONS[c] for c in row] for row in reason] == [
            [None, None, None, "degenerate variance", None],
            [None, None, None, "singular denominator", None]]
        assert bounds.verdicts(sides, rhs, (4.0, 4.0), [0, 0, 6, 6, 3])[4] is None

    @pytest.mark.parametrize("scale_a, scale_b, gap, product_ok", [(3.0, 2.0, 2e-8, True),
                                                                  (0.5, 1.0, 8e-10, False)])
    def test_product_and_sum_floors(self, monkeypatch, scale_a, scale_b, gap, product_ok):
        """With a Lx and b Ly the floors differ: (36, 9) for a, b = 3, 2 and
        (0.25, 1) for 0.5, 1, each above its side at theta = 0.  Each right
        side is planted ``gap`` on the wrong side of its lhs, a gap that the
        product floor's tolerance covers and the sum floor's does not (the
        reverse in the second case), so the verdicts show that eq1-eq3 read
        the product floor and eq4-eq7 the sum floor."""
        lx, ly = builtin_spin1()[:2]
        a, b = make_observable(scale_a * lx.matrix), make_observable(scale_b * ly.matrix)
        fp, fs = bounds._slack_floors(a, b)
        assert fp != fs

        def planted(*args, _fn=bounds.evaluate_states):
            t = dict(_fn(*args))
            for rid, (side, direction) in REFERENCE_TABLE.items():
                t[rid] = t[side] + (gap if direction == "lower" else -gap)
            return t

        monkeypatch.setattr(bounds, "evaluate_states", planted)
        rep = evaluate_all(prepare_state(0.0), a, b)
        assert rep.product_lhs < fp and rep.sum_lhs < fs
        assert {rid: r.satisfied for rid, r in rep.results.items()} == {
            rid: product_ok if side == "lhs_prod" else not product_ok
            for rid, (side, _) in REFERENCE_TABLE.items()}


class TestHugeObservables:
    """Observables too large for a finite slack tolerance are rejected with
    a ValueError that names their scale, before the kernel runs."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 300))
    @example(k=77)
    @example(k=78)
    def test_result_or_value_error(self, k):
        """s diag(1, -1, 0) and s diag(0, 1, -1), s = 10^k: the product floor
        (s^2)^2 is finite up to k = 77, and then the report is the
        reference's; from k = 78 a ValueError, never an OverflowError or
        a RuntimeWarning."""
        s = 10.0**k
        state = PureState(np.ones(3) / np.sqrt(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = make_observable(s * np.diag([1.0, -1.0, 0.0]))
            b = make_observable(s * np.diag([0.0, 1.0, -1.0]))
            if k >= 78:
                with pytest.raises(ValueError, match="max_std 1e\\+.* too large"):
                    evaluate_all(state, a, b)
            else:
                rep = evaluate_all(state, a, b)
                assert _report_bits(rep) == _report_bits(_reference_report(state, a, b))
                assert all(r.satisfied for r in rep.results.values())

    @pytest.mark.parametrize("shift", [1e200, 1e290])
    def test_huge_shift_rejected(self, shift):
        """A shift's rounding makes the floors infinite; before, the
        infinite tolerance read every relation as satisfied."""
        a = make_observable(np.diag([1.0, -1.0, 0.0]) + shift * np.eye(3))
        b = make_observable(np.diag([0.0, 1.0, -1.0]))
        with pytest.raises(ValueError, match="resolution .* too large"):
            evaluate_all(PureState(np.ones(3) / np.sqrt(3)), a, b)


def _report_values(rep):
    """Means, variances, both sides and the rhs (None where undefined) of
    every relation of one report."""
    values = [rep.mean_a, rep.mean_b, rep.var_a, rep.var_b, rep.product_lhs, rep.sum_lhs]
    return values + [rep.results[f"eq{i}"].rhs for i in range(1, 8)]


def _kernel_values(values, index):
    return [float(values[k][index]) for k in ("mean_a", "mean_b", "var_a", "var_b",
                                              "lhs_prod", "lhs_sum")] + [
        None if np.isnan(values[f"eq{i}"][index]) else float(values[f"eq{i}"][index])
        for i in range(1, 8)
    ]


class TestStateKernel:
    """evaluate_states on a stack of states equals evaluate_all state by
    state, so the sweep's dense grid can be one kernel call."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_batch_equals_rows(self, d, seed, n):
        """Haar states of a random Hermitian pair in a Haar basis and a
        random pairing.  A has e_0 as an exact eigenvector, and state 0 is
        e_0 (eq7: degenerate variance); the pair (A, A) makes the eq7
        denominator singular."""
        rng = np.random.default_rng(seed)
        a = _random_hermitian(rng, d)
        a[0, 1:] = a[1:, 0] = 0.0
        a = make_observable(a)
        b = make_observable(_random_hermitian(rng, d))
        basis, pairing = haar_basis(d, seed), tuple(rng.permutation(d))
        states = [PureState(np.eye(d)[0])] + [haar_random_state(d, rng) for _ in range(7)]
        psi = np.array([s.amplitudes for s in states])
        reasons = set()
        for bb in (b, a):
            for shape, stack in (((n,), psi[:n]), ((2, 3), psi[:6].reshape(2, 3, d))):
                values = evaluate_states(stack, a, bb, basis, pairing)
                for k, v in values.items():
                    per_level = k in ("a_shifted", "b_shifted", "fid_a", "fid_b")
                    assert v.shape == (shape + (d,) if per_level else shape), k
                fid = [values["a_shifted"], values["b_shifted"],
                       np.sqrt(values["fid_a"]), np.sqrt(values["fid_b"])]
                for rid, rhs in (("eq3", rhs_eq3), ("eq6", rhs_eq6)):
                    assert rhs(*fid).tobytes() == values[rid].tobytes(), rid
                flat = {k: v.ravel() for k, v in values.items()}
                for i in range(int(np.prod(shape))):
                    rep = evaluate_all(states[i], a, bb, basis, pairing)
                    reasons.add(rep.results["eq7"].reason)
                    got, want = _kernel_values(flat, i), _report_values(rep)
                    for j, (x, y) in enumerate(zip(got, want)):
                        if y is None:
                            assert x is None, (i, j)
                        else:
                            rtol = 1e-12 if j == 12 else 1e-14
                            assert x == pytest.approx(y, rel=rtol, abs=0), (i, j)
        assert {"degenerate variance", "singular denominator"} <= reasons


def _centre(psi, obs):
    """``hermitian._centre`` before it took a stack: one observable's
    A psi - <A> psi, kept as the reference's own centring."""
    o_psi = np.matvec(obs.matrix, psi)
    return o_psi - np.vecdot(psi, o_psi, keepdims=True).real * psi


def _rhs_inputs(d, seed, rows=6):
    """Per-row arguments of every rhs_eqN, stacked along a leading axis, for
    Haar states of a random Hermitian pair in a Haar basis and a random
    pairing.  Row 0 feeds eq7 a variance at the degeneracy rule's edge, row 1
    the arguments of B = A (singular denominator)."""
    rng = np.random.default_rng(seed)
    a = make_observable(_random_hermitian(rng, d))
    b = make_observable(_random_hermitian(rng, d))
    bh = haar_basis(d, seed).matrix.conj().T
    perm = rng.permutation(d)
    m_a, m_b = bounds._degenerate_std(a), bounds._degenerate_std(b)
    args = {k: [] for k in ("eq1", "eq2", "eq3", "eq4", "eq7")}
    for s in (haar_random_state(d, rng) for _ in range(rows)):
        mean_a, mean_b = (np.vdot(s.amplitudes, m.matrix @ s.amplitudes).real for m in (a, b))
        u, v = _centre(s.amplitudes, a), _centre(s.amplitudes, b)
        cov = np.vdot(u, v).real
        comm = abs(np.vdot(s.amplitudes, (a.matrix @ b.matrix - b.matrix @ a.matrix) @ s.amplitudes))
        fid_a = np.abs(a.eigenvectors.conj().T @ s.amplitudes) ** 2
        fid_b = np.abs(b.eigenvectors.conj().T @ s.amplitudes) ** 2
        args["eq1"].append((comm, cov))
        args["eq2"].append((bh @ u, bh @ v))
        args["eq3"].append((a.eigenvalues - mean_a, b.eigenvalues[perm] - mean_b, np.sqrt(fid_a),
                            np.sqrt(fid_b[perm])))
        args["eq4"].append((np.vdot(u + v, u + v).real,))
        args["eq7"].append((np.vdot(u, u).real, np.vdot(v, v).real, np.vdot(u - v, u - v).real,
                            m_a, m_b))
    args["eq7"][0] = (m_a * m_a,) + args["eq7"][0][1:]
    var_a = args["eq7"][1][0]
    args["eq7"][1] = (var_a, var_a, 0.0, m_a, m_a)
    return {k: tuple(np.array(x) for x in zip(*per_row)) for k, per_row in args.items()}


class TestBatchedRhs:
    """Each rhs_eqN on a stack of inputs equals its per-row calls, so the
    sampled path can evaluate all perturbed count vectors at once."""

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    # row 3's eq7 denominator lies within EQ7_EPS of zero at this draw
    @example(d=2, seed=42553)
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

        # eq7 has one path: 0-d rows, a stack and a (2, 3) stack agree, NaN
        # exactly in the rows that rhs_eq7's rule, applied here to each row's
        # own inputs, leaves undefined: the planted rows 0 (degenerate
        # variance) and 1 (singular denominator), and any drawn row with a
        # degenerate variance or a denominator within EQ7_EPS of zero
        args = inputs["eq7"]
        rhs, degenerate = rhs_eq7(*args)
        per_row = [rhs_eq7(*(np.asarray(x[i]) for x in args)) for i in range(6)]
        expected_degenerate, expected_nan = [], []
        for var_a, var_b, var_amb, min_a, min_b in zip(*(x.tolist() for x in args)):
            expected_degenerate.append(var_a <= min_a * min_a or var_b <= min_b * min_b)
            da, db = math.sqrt(var_a), math.sqrt(var_b)
            expected_nan.append(expected_degenerate[-1] or abs(
                (var_amb - (da - db) * (da - db)) / (2.0 * da * db)) <= EQ7_EPS)
        assert expected_degenerate[:2] == [True, False] and expected_nan[:2] == [True, True]
        assert np.isnan(rhs).tolist() == expected_nan
        assert degenerate.tolist() == expected_degenerate
        assert [bool(r[1]) for r in per_row] == degenerate.tolist()
        np.testing.assert_allclose([r[0] for r in per_row], rhs, rtol=1e-15, atol=0)
        stacked, stacked_degenerate = rhs_eq7(*(x.reshape(2, 3) for x in args))
        np.testing.assert_allclose(stacked.ravel(), rhs, rtol=1e-15, atol=0)
        assert stacked_degenerate.ravel().tolist() == degenerate.tolist()
