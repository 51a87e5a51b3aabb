"""Tests for the Hermitian core: eigensystems, moments, covariance."""

import numpy as np
import pytest

from varbound.hermitian import (
    DimensionMismatch,
    EigenFailure,
    NonHermitianError,
    Observable,
    PureState,
    anticommutator,
    builtin_spin1,
    commutator,
    covariance,
    family_state,
    haar_random_state,
    make_observable,
    moments,
)

LX, LY, LZ, LP = builtin_spin1()


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PureState(np.array([np.nan, 0.0, 0.0]))

    def test_family(self):
        s = family_state(0.0)
        assert np.allclose(s.amplitudes, [1, 0, 0])
        s = family_state(np.pi / 2)
        assert np.allclose(s.amplitudes, [0, -1, 0])


class TestMakeObservable:
    def test_lx_eigenvalues_pairing_order(self):
        assert np.allclose(LX.eigenvalues, [-1, 1, 0])
        assert np.allclose(LY.eigenvalues, [-1, 1, 0])

    def test_identity_degenerate(self):
        obs = make_observable(np.eye(3), "id")
        assert np.allclose(obs.eigenvalues, [1, 1, 1])
        v = obs.eigenvector_matrix()
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_diagonal_lz(self):
        obs = make_observable(np.diag([1.0, 0.0, -1.0]), "Lz", eigenvalue_order=(-1, 1, 0))
        assert np.allclose(obs.eigenvalues, [-1, 1, 0])
        # eigenvectors of a diagonal matrix are basis vectors
        v = obs.eigenvector_matrix()
        assert np.allclose(np.abs(v), np.eye(3)[:, [2, 0, 1]], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            make_observable(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_nonfinite(self, bad):
        for pos in ((0, 0), (0, 1)):
            m = np.array([[0, 1], [1, 1]], dtype=complex)
            m[pos] = bad
            with pytest.raises(ValueError, match="finite"):
                make_observable(m)

    def test_overflow_fails_reconstruction(self):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EigenFailure):
            make_observable(np.array([[1e308, 0], [0, 1]], dtype=complex))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 5):
            for _ in range(20):
                z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                h = z + z.conj().T
                obs = make_observable(h)
                v = obs.eigenvector_matrix()
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

    def test_phase_fix_reproducible(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        a = make_observable(h).eigenvector_matrix()
        b = make_observable(h).eigenvector_matrix()
        assert np.array_equal(a, b)
        for k in range(4):
            i = int(np.argmax(np.abs(a[:, k])))
            assert a[i, k].real > 0 and abs(a[i, k].imag) < 1e-12


class TestObservable:
    """Every Observable checks its eigensystem once, on construction."""

    def test_direct_construction_checked_and_read_only(self):
        obs = Observable(LX.matrix, LX.eigenvalues, LX.eigenvectors, "copy")
        assert obs.eigenvector_matrix() is obs.eigenvectors
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
        assert np.allclose(-1j * commutator(LX, LY), LZ.matrix, atol=1e-12)

    def test_lp_from_anticommutator(self):
        assert np.allclose(anticommutator(LX, LY), LP.matrix, atol=1e-12)


class TestMoments:
    def test_eigenstate(self):
        m = moments(family_state(0.0), LZ)
        assert m.mean == pytest.approx(1.0, abs=1e-12)
        assert m.variance == pytest.approx(0.0, abs=1e-12)

    def test_lx_on_basis_state(self):
        # direct 3x3 arithmetic: <Lx> = 0, <Lx^2> = 1/2 for (1,0,0)
        m = moments(family_state(0.0), LX)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.variance == pytest.approx(0.5, abs=1e-12)

    def test_lx_on_middle_state(self):
        m = moments(family_state(np.pi / 2), LX)
        assert m.mean == pytest.approx(0.0, abs=1e-12)
        assert m.variance == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            moments(PureState(np.array([1.0, 0.0])), LX)

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
                np.abs(obs.eigenvector_matrix().conj().T @ psi) ** 2,
            ))
            direct = float(np.real(np.vdot(psi, obs.matrix @ psi)))
            assert abs(proj - direct) < 1e-10
            assert moments(s, obs).variance >= -1e-12


class TestCovariance:
    def test_self_covariance_is_variance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = haar_random_state(3, rng)
            assert covariance(s, LX, LX) == pytest.approx(moments(s, LX).variance, abs=1e-12)

    def test_family_lx_ly_uncorrelated(self):
        # <Lp> = 0 and <Ly> = 0 for every real state in the family
        for theta in np.linspace(0, np.pi, 23):
            assert covariance(family_state(theta), LX, LY) == pytest.approx(0.0, abs=1e-12)

    def test_lx_lz_on_basis_state(self):
        assert covariance(family_state(0.0), LX, LZ) == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            s = haar_random_state(3, rng)
            cov = covariance(s, LX, LY)
            bound = moments(s, LX).std * moments(s, LY).std
            assert abs(cov) <= bound + 1e-10


class TestCommutators:
    def test_self_commutator_zero(self):
        assert np.allclose(commutator(LX, LX), 0, atol=1e-14)

    def test_commutator_gives_i_lz(self):
        assert np.allclose(commutator(LX, LY), 1j * LZ.matrix, atol=1e-12)

    def test_anticommutator_gives_lp(self):
        assert np.allclose(anticommutator(LX, LY), LP.matrix, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator(LX, make_observable(np.eye(2)))
