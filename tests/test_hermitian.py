"""Tests for the Hermitian core: states, observables and eigensystems, and
the moments and covariance that the one-pass kernel takes of them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound.bounds import evaluate_all, evaluate_states
from varbound.hermitian import (
    EPS,
    RESOLVED_ULPS,
    DimensionMismatch,
    EigenFailure,
    NonHermitianError,
    Observable,
    PureState,
    builtin_spin1,
    haar_random_state,
    make_observable,
)
from varbound.photonics import prepare_state

LX, LY, LZ, LP = builtin_spin1()

# Reference eigensystem post-processing: the re-sort, cluster-wise
# Gram-Schmidt, greedy eigenvalue matching and per-column phase fix that
# ``make_observable`` applied to ``eigh`` before it took LAPACK's output as is.
DEGENERACY_TOL = 1e-9


def _fix_phases(vectors):
    """Make the largest-magnitude component of each column real positive."""
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, k])))
        piv = out[i, k]
        if abs(piv) > 0:
            out[:, k] *= np.conj(piv) / abs(piv)
    return out


def _orthonormalize_clusters(w, vectors):
    """Modified Gram-Schmidt inside each degenerate eigenvalue cluster."""
    out = np.array(vectors, dtype=complex)
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or abs(w[k] - w[start]) > DEGENERACY_TOL:
            for i in range(start, k):
                for j in range(start, i):
                    out[:, i] -= np.vdot(out[:, j], out[:, i]) * out[:, j]
                out[:, i] /= np.linalg.norm(out[:, i])
            start = k
    return out


def _match_order(sorted_values, target_order):
    """Permutation mapping sorted eigenvalues onto requested values, to 1e-8 relative."""
    tol = 1e-8 * max(1.0, float(np.max(np.abs(sorted_values))))
    remaining = list(range(len(sorted_values)))
    perm = []
    for t in target_order:
        k = min(remaining, key=lambda i: abs(sorted_values[i] - t))
        if abs(sorted_values[k] - t) > tol:
            raise ValueError(f"requested eigenvalue {t} not present in spectrum {sorted_values}")
        perm.append(k)
        remaining.remove(k)
    return perm


def _reference_eigensystem(m, eigenvalue_order=None):
    """(eigenvalues, eigenvectors, permutation of eigh's columns)."""
    w, v = np.linalg.eigh(m)
    perm = np.argsort(w)
    w, v = w[perm], v[:, perm]
    v = _orthonormalize_clusters(w, v)
    if eigenvalue_order is not None:
        order = _match_order(w, eigenvalue_order)
        w, v, perm = w[order], v[:, order], perm[order]
    return w, _fix_phases(v), perm


def _hermitian(d, seed, spectrum):
    """Random Hermitian matrix, or U diag(spectrum) U^dag for a Haar U (so
    repeated values give degenerate eigenvalues)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if spectrum is None:
        return z + z.conj().T
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nonfinite(self):
        for bad in (np.nan, complex(0, np.nan), complex(0, np.inf), np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                PureState(np.array([bad, 0.0, 0.0]))

    def test_family(self):
        s = prepare_state(0.0)
        assert np.allclose(s.amplitudes, [1, 0, 0])
        s = prepare_state(np.pi / 2)
        assert np.allclose(s.amplitudes, [0, -1, 0])


class TestMakeObservable:
    def test_lx_eigenvalues_pairing_order(self):
        assert np.allclose(LX.eigenvalues, [-1, 1, 0])
        assert np.allclose(LY.eigenvalues, [-1, 1, 0])

    def test_identity_degenerate(self):
        obs = make_observable(np.eye(3), "id")
        assert np.allclose(obs.eigenvalues, [1, 1, 1])
        v = obs.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_diagonal_lz(self):
        obs = make_observable(np.diag([1.0, 0.0, -1.0]), "Lz", eigenvalue_order=(-1, 1, 0))
        assert np.allclose(obs.eigenvalues, [-1, 1, 0])
        # eigenvectors of a diagonal matrix are basis vectors
        v = obs.eigenvectors
        assert np.allclose(np.abs(v), np.eye(3)[:, [2, 0, 1]], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            make_observable(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)]
    )
    def test_rejects_nonfinite(self, bad):
        for pos in ((0, 0), (0, 1)):
            m = np.array([[0, 1], [1, 1]], dtype=complex)
            m[pos] = bad
            with pytest.raises(ValueError, match="finite"):
                make_observable(m)

    def test_overflow_fails_reconstruction(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EigenFailure):
            make_observable(np.array([[1e308, 0], [0, 1]], dtype=complex))

    def test_overflowing_magnitude_is_not_nonfinite(self):
        """|1.5e308 (1 + 1j)| overflows although both parts are finite, so
        the eigensystem check fails, not the finiteness check."""
        m = np.array([[0, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EigenFailure):
            make_observable(m)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                h = z + z.conj().T
                obs = make_observable(h)
                v = obs.eigenvectors
                recon = (v * obs.eigenvalues) @ v.conj().T
                assert np.max(np.abs(recon - h)) < 1e-10
                # agrees with the LAPACK spectrum
                assert np.allclose(np.sort(obs.eigenvalues), np.linalg.eigvalsh(h), atol=1e-10)

    @pytest.mark.parametrize("scale", [1e8, 1e9])
    def test_eigenvalue_order_matched_relative_to_scale(self, scale):
        obs = make_observable(scale * LX.matrix, eigenvalue_order=(-scale, scale, 0))
        assert np.allclose(obs.eigenvalues, [-scale, scale, 0], rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_eigenvalue_order_rejects_absent_value(self, scale):
        for order in ((-scale, 2 * scale, 0), (-scale, scale * (1 + 1e-7), 0)):
            with pytest.raises(ValueError, match="not present"):
                make_observable(scale * LX.matrix, eigenvalue_order=order)

    @pytest.mark.parametrize("order", [(-1, 1, 0, 2), (-1, 1), (np.nan, 1, 0), 0.0])
    def test_malformed_eigenvalue_order_rejected(self, order):
        with pytest.raises(ValueError, match="not present"):
            make_observable(LX.matrix, eigenvalue_order=order)

    def test_phase_fix_reproducible(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        a = make_observable(h).eigenvectors
        b = make_observable(h).eigenvectors
        assert np.array_equal(a, b)
        for k in range(4):
            i = int(np.argmax(np.abs(a[:, k])))
            assert a[i, k].real > 0 and abs(a[i, k].imag) < 1e-12


class TestMatchesReference:
    """make_observable equals the reference post-processing of the same
    eigh call: bit-equal eigenvalues, the same column permutation and
    eigenvectors within 1e-14, degenerate spectra included.  A column whose
    two largest magnitudes tie to rounding (|v| = (1, 1)/sqrt 2 in a
    degenerate pair) has no well-defined phase-fix pivot, so it is compared
    up to phase."""

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        order=st.sampled_from([None, "sorted", "permuted"]),
        data=st.data(),
    )
    def test_eigensystem_matches_reference(self, d, seed, degenerate, order, data):
        spectrum = (
            data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)) if degenerate else None
        )
        m = _hermitian(d, seed, spectrum)
        h = 0.5 * (m + m.conj().T)
        target = None
        if order is not None:
            # eigh's own values (eigvalsh rounds differently), so the
            # greedy reference meets each request exactly
            w = np.linalg.eigh(h)[0]
            target = w if order == "sorted" else w[data.draw(st.permutations(range(d)))]
        w_ref, v_ref, perm_ref = _reference_eigensystem(h, target)
        obs = make_observable(m, eigenvalue_order=target)
        assert np.array_equal(obs.eigenvalues, w_ref)
        # which eigh column each eigenvector is (they differ only in phase)
        _, v_eigh = np.linalg.eigh(obs.matrix)
        perm = np.argmax(np.abs(v_eigh.conj().T @ obs.eigenvectors), axis=0)
        assert np.array_equal(perm, perm_ref)
        overlap = np.abs(np.vecdot(v_ref, obs.eigenvectors, axis=0))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-14
        mags = np.sort(np.abs(v_ref), axis=0)
        pivot_clear = mags[-1] - mags[-2] > 1e-12
        assert np.max(np.abs(obs.eigenvectors - v_ref)[:, pivot_clear], initial=0.0) <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_nominal_degenerate_order_accepted(self, d, seed, data):
        """Requested exact values (e.g. integers) match a computed spectrum
        that carries rounding, as the reference matching does."""
        spectrum = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        m = _hermitian(d, seed, spectrum)
        obs = make_observable(m, eigenvalue_order=spectrum)
        w_ref, _, _ = _reference_eigensystem(0.5 * (m + m.conj().T), spectrum)
        assert np.max(np.abs(obs.eigenvalues - np.asarray(spectrum, dtype=float))) <= 1e-8 * 2
        assert np.allclose(obs.eigenvalues, w_ref, rtol=0, atol=1e-12)


class TestObservable:
    """Every Observable checks its eigensystem once, on construction."""

    def test_direct_construction_checked_and_read_only(self):
        obs = Observable(LX.matrix, LX.eigenvalues, LX.eigenvectors, "copy")
        assert not obs.eigenvectors.flags.writeable
        assert np.array_equal(obs.eigenvectors, LX.eigenvectors)

    def test_permuted_eigenvalues_rejected(self):
        with pytest.raises(EigenFailure, match="reconstruct"):
            Observable(LX.matrix, LX.eigenvalues[[1, 0, 2]], LX.eigenvectors)

    def test_non_orthonormal_columns_rejected(self):
        v = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2)])
        with pytest.raises(EigenFailure, match="orthonormal"):
            Observable(np.eye(2), np.ones(2), v)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(EigenFailure, match="shapes"):
            Observable(LX.matrix, LX.eigenvalues[:2], LX.eigenvectors)


class TestBuiltinSpin1:
    def test_lp_entry(self):
        assert LP.matrix[0, 2] == pytest.approx(-1j)

    def test_lz_from_commutator(self):
        assert np.allclose(-1j * (LX.matrix @ LY.matrix - LY.matrix @ LX.matrix), LZ.matrix,
                           atol=1e-12)

    def test_lp_from_anticommutator(self):
        assert np.allclose(LX.matrix @ LY.matrix + LY.matrix @ LX.matrix, LP.matrix, atol=1e-12)


def _kernel_moments(state, obs, other=LX):
    """Mean and variance of ``obs`` in ``state`` as the one-pass kernel
    takes them (``other`` is the second observable it needs)."""
    t = evaluate_states(state.amplitudes, obs, other)
    return float(t["mean_a"]), float(t["var_a"])


def _covariance(state, a, b):
    t = evaluate_states(state.amplitudes, a, b)
    return float(t["cov"])


class TestMoments:
    def test_eigenstate(self):
        mean, var = _kernel_moments(prepare_state(0.0), LZ)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_lx_on_basis_state(self):
        # direct 3x3 arithmetic: <Lx> = 0, <Lx^2> = 1/2 for (1,0,0)
        mean, var = _kernel_moments(prepare_state(0.0), LX)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_lx_on_middle_state(self):
        mean, var = _kernel_moments(prepare_state(np.pi / 2), LX)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_all(PureState(np.array([1.0, 0.0])), LX, LY)

    def test_projective_equals_quadratic_form(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = rng.choice([2, 3, 4])
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            obs = make_observable(z + z.conj().T)
            s = haar_random_state(d, rng)
            psi = s.amplitudes
            proj = float(np.dot(
                obs.eigenvalues,
                np.abs(obs.eigenvectors.conj().T @ psi) ** 2,
            ))
            direct = float(np.real(np.vdot(psi, obs.matrix @ psi)))
            assert abs(proj - direct) < 1e-10
            mean, var = _kernel_moments(s, obs, obs)
            assert mean == pytest.approx(direct, abs=1e-10)
            assert var >= -1e-12


class TestCovariance:
    def test_self_covariance_is_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = haar_random_state(3, rng)
            assert _covariance(s, LX, LX) == pytest.approx(_kernel_moments(s, LX)[1], abs=1e-12)

    def test_family_lx_ly_uncorrelated(self):
        # <Lp> = 0 and <Ly> = 0 for every real state in the family
        for theta in np.linspace(0, np.pi, 23):
            assert _covariance(prepare_state(theta), LX, LY) == pytest.approx(0.0, abs=1e-12)

    def test_lx_lz_on_basis_state(self):
        assert _covariance(prepare_state(0.0), LX, LZ) == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = haar_random_state(3, rng)
            cov = _covariance(s, LX, LY)
            bound = np.sqrt(_kernel_moments(s, LX)[1] * _kernel_moments(s, LY)[1])
            assert abs(cov) <= bound + 1e-10


class TestCommutators:
    def test_self_commutator_zero(self):
        assert np.allclose(LX.matrix @ LX.matrix - LX.matrix @ LX.matrix, 0, atol=1e-14)

    def test_commutator_gives_i_lz(self):
        assert np.allclose(LX.matrix @ LY.matrix - LY.matrix @ LX.matrix, 1j * LZ.matrix,
                           atol=1e-12)

    def test_anticommutator_gives_lp(self):
        assert np.allclose(LX.matrix @ LY.matrix + LY.matrix @ LX.matrix, LP.matrix, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_all(prepare_state(0.0), LX, make_observable(np.eye(2)))


class TestMaxStd:
    """An observable's scale in the verdicts, half its spectrum's width, and
    its resolution, RESOLVED_ULPS d ulps of its largest |eigenvalue|."""

    def test_spin1_components_have_unit_scale(self):
        assert LX.max_std == LY.max_std == LZ.max_std == 1.0

    def test_scale_covariant_and_shift_invariant(self):
        a = make_observable(np.diag([-2.0, 0.5, 3.0]))
        assert a.max_std == 2.5
        assert make_observable(1e-6 * a.matrix).max_std == pytest.approx(2.5e-6, rel=1e-15)
        shifted = make_observable(a.matrix + 10.0 * np.eye(3))
        assert shifted.max_std == pytest.approx(2.5, rel=1e-14)

    def test_resolution_follows_the_largest_eigenvalue(self):
        """The spread is exact, also for a multiple of the identity or a
        shifted narrow spectrum; the resolution grows with the shift."""
        ident = make_observable(-3.0 * np.eye(4))
        assert ident.max_std == 0.0
        assert ident.resolution == RESOLVED_ULPS * 4 * EPS * 3.0
        near = make_observable(np.diag([1e8, 1e8 + 1.0]))
        assert near.max_std == 0.5
        assert near.resolution == pytest.approx(RESOLVED_ULPS * 2 * EPS * (1e8 + 1.0), rel=1e-15)
        assert LX.resolution == pytest.approx(RESOLVED_ULPS * 3 * EPS, rel=1e-15)
        assert make_observable(np.zeros((2, 2))).resolution == 0.0
