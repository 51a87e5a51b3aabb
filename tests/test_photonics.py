"""Tests for the optical-circuit twin: elements, preparation, measurement
circuits and count sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbound import photonics
from varbound.hermitian import PureState, builtin_spin1, haar_random_state
from varbound.photonics import (
    BadProbabilities,
    EMBED,
    LEAKAGE_MODE,
    LeakageDetected,
    MeasurementSetting,
    NotProjectiveRealization,
    OpticalElement,
    builtin_settings,
    compose,
    decompose_lx,
    hwp_matrix,
    measurement_unitary,
    prepare_amplitudes,
    prepare_state,
    projection_probabilities,
    qwp_matrix,
    sample_counts,
)

LX, LY, LZ, LP = builtin_spin1()
OBS = {"Lx": LX, "Ly": LY, "Lz": LZ, "Lp": LP}
SETTINGS = builtin_settings()
SWEEP_THETAS = [j * np.pi / 10 for j in range(11)]


class TestWavePlates:
    def test_hwp_22_5(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(hwp_matrix(np.deg2rad(22.5)), expected, atol=1e-12)

    def test_hwp_45_exchanges_polarizations(self):
        assert np.allclose(hwp_matrix(np.deg2rad(45)), [[0, 1], [1, 0]], atol=1e-12)

    def test_qwp_at_zero(self):
        assert np.allclose(qwp_matrix(0.0), np.diag([1, 1j]), atol=1e-12)

    def test_all_elements_unitary(self):
        rng = np.random.default_rng(23)
        for kind in ("HWP", "QWP"):
            for target in ("upper", "lower", "both"):
                m = OpticalElement(kind, rng.uniform(0, np.pi), target).matrix()
                assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12
        for kind in ("BDH", "BDV"):
            m = OpticalElement(kind).matrix()
            assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-12

    @pytest.mark.parametrize("kind", ["HWP", "QWP"])
    def test_unknown_target_rejected(self, kind):
        """A misspelled rail raises instead of leaving the plate out."""
        with pytest.raises(ValueError, match="'uper'"):
            OpticalElement(kind, 0.3, "uper").matrix()


class TestPrepareState:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, [1, 0, 0]),
            (np.pi / 10, [np.cos(np.pi / 10), -np.sin(np.pi / 10), 0]),
            (np.pi / 2, [0, -1, 0]),
        ],
    )
    def test_family_preparation(self, theta, expected):
        s = prepare_state(theta)
        assert np.allclose(s.amplitudes, expected, atol=1e-12)

    # HWP(theta/2) reads cos(2 (theta/2)): halving is exact for every normal
    # float, while a subnormal angle can lose its last bit
    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False))
    def test_circuit_is_the_family(self, theta):
        """The circuit prepares exactly (cos t, -sin t, 0), the family's
        closed form, at any finite angle that is not subnormal."""
        closed_form = np.array([np.cos(theta), -np.sin(theta), 0.0])
        assert np.array_equal(prepare_amplitudes(theta), closed_form)
        assert np.array_equal(prepare_state(theta).amplitudes, PureState(closed_form).amplitudes)

    def test_batch_is_one_angle_calls(self):
        """Each row of a batch, flat or stacked, has the bits of its own
        one-angle preparation."""
        thetas = np.concatenate([SWEEP_THETAS, np.random.default_rng(3).uniform(-7, 7, 40)])
        batch = prepare_amplitudes(thetas)
        assert batch.shape == (51, 3)
        assert prepare_amplitudes(thetas.reshape(3, 17)).tobytes() == batch.tobytes()
        for theta, row in zip(thetas, batch):
            assert prepare_amplitudes(theta).tobytes() == row.tobytes()
            assert prepare_state(theta).amplitudes.tobytes() == PureState(row).amplitudes.tobytes()

    def test_nan_angle_raises(self):
        """A NaN amplitude in (lower,H) is a leak, not a pass."""
        with pytest.raises(LeakageDetected, match="amplitude nan"):
            prepare_amplitudes([np.nan, 0.3])

    def test_planted_leak_raises_from_the_batch(self, monkeypatch):
        """The leakage check covers every state of a batch: with a tolerance
        below zero, even an empty (lower,H) mode counts as a leak."""
        monkeypatch.setattr(photonics, "LEAKAGE_TOL", -1.0)
        with pytest.raises(LeakageDetected):
            prepare_amplitudes(SWEEP_THETAS)


class TestMeasurementCircuits:
    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_rows_match_eigenbras(self, name):
        """Row i of the circuit is the eigenbra <m_i| up to a phase: |V M| = I,
        which equal magnitudes entry by entry do not imply."""
        v = measurement_unitary(SETTINGS[name])
        assert np.max(np.abs(np.abs(v @ OBS[name].eigenvectors) - np.eye(3))) < 1e-10

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_haar_probabilities_are_the_eigensystem_s(self, name):
        """On states with complex amplitudes and a third component, which the
        real swept family lacks, the ports give |<m_i|psi>|^2."""
        rng = np.random.default_rng(0)
        psi = np.array([haar_random_state(3, rng).amplitudes for _ in range(200)])
        ref = np.abs(psi @ OBS[name].eigenvectors.conj()) ** 2
        assert np.max(np.abs(projection_probabilities(psi, SETTINGS[name]) - ref)) < 1e-12

    def test_lx_unitary_is_the_published_u(self):
        assert np.max(np.abs(measurement_unitary(SETTINGS["Lx"]) - decompose_lx()[0])) < 1e-15

    @pytest.mark.parametrize("name, ports", [("Lx", (1, 0, 3)), ("Ly", (0, 1, 3))])
    def test_port_swap_rejected_when_built(self, name, ports):
        """Swapping the -1 and +1 ports keeps every entry's magnitude, yet
        measures the wrong observable; the setting refuses to be built."""
        with pytest.raises(NotProjectiveRealization, match=name):
            MeasurementSetting(name, SETTINGS[name].elements, ports)

    def test_nan_plate_angle_rejected_when_built(self):
        elements = (OpticalElement("HWP", np.nan, "upper"),) + SETTINGS["Lx"].elements
        with pytest.raises(LeakageDetected, match="amplitude nan"):
            MeasurementSetting("Lx", elements, SETTINGS["Lx"].ports)

    def test_unitary_composed_once(self, monkeypatch):
        """A built setting holds its checked, read-only unitary; measuring
        with it composes no circuit."""
        setting, amps = builtin_settings()["Lp"], prepare_amplitudes([0.1, 0.2, 0.3])
        calls = []
        monkeypatch.setattr(photonics, "compose", lambda *a: calls.append(a))
        for psi in amps:
            projection_probabilities(psi, setting)
        assert calls == []
        assert measurement_unitary(setting) is setting.unitary
        assert not setting.unitary.flags.writeable
        assert setting == SETTINGS["Lp"] and hash(setting) == hash(SETTINGS["Lp"])

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_composed_circuit_unitary(self, name):
        c = compose(SETTINGS[name].elements)
        assert np.max(np.abs(c.conj().T @ c - np.eye(4))) < 1e-10

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_no_leakage_into_lower_h(self, name):
        c = compose(SETTINGS[name].elements)
        out = c @ EMBED
        assert np.max(np.abs(out[LEAKAGE_MODE])) < 1e-10

    def test_lz_identity_routing(self):
        p = projection_probabilities(prepare_state(0.3).amplitudes, SETTINGS["Lz"])
        # outcomes in eigenvalue order (-1, 1, 0) pick components (3, 1, 2)
        assert np.allclose(p, [0.0, np.cos(0.3) ** 2, np.sin(0.3) ** 2], atol=1e-12)

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_circuit_equals_eigensystem_probabilities(self, name):
        for theta in SWEEP_THETAS:
            s = prepare_state(theta)
            p = projection_probabilities(s.amplitudes, SETTINGS[name])
            ref = np.abs(OBS[name].eigenvectors.conj().T @ s.amplitudes) ** 2
            assert np.max(np.abs(p - ref)) < 1e-10

    def test_lx_probabilities_anchors(self):
        assert np.allclose(
            projection_probabilities(prepare_state(0.0).amplitudes, SETTINGS["Lx"]),
            [0.25, 0.25, 0.5], atol=1e-12,
        )
        assert np.allclose(
            projection_probabilities(prepare_state(np.pi / 2).amplitudes, SETTINGS["Lx"]),
            [0.5, 0.5, 0.0], atol=1e-12,
        )


class TestDecomposition:
    def test_residual_and_unitarity(self):
        u, u1, u2, u3, residual = decompose_lx()
        assert residual <= 1e-12
        for m in (u, u1, u2, u3):
            assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < 1e-12

    def test_corrected_middle_factor(self):
        s = 1 / np.sqrt(2)
        _, _, u2, _, _ = decompose_lx()
        expected = np.array([[-1, 0, 0], [0, s, s], [0, -s, s]])
        assert np.allclose(u2, expected, atol=1e-12)

    def test_rows_of_u_are_lx_eigenbras(self):
        u = decompose_lx()[0]
        bras = LX.eigenvectors.conj().T
        assert np.max(np.abs(np.abs(u) - np.abs(bras))) < 1e-10


class TestSampling:
    def test_deterministic_outcome(self):
        counts = sample_counts([1.0, 0.0, 0.0], 5000, seed=1)
        assert counts.dtype == np.int64
        assert counts[1] == 0 and counts[2] == 0

    def test_seed_reproducibility(self):
        a = sample_counts([0.2, 0.3, 0.5], 10_000, seed=99)
        b = sample_counts([0.2, 0.3, 0.5], 10_000, seed=99)
        assert np.array_equal(a, b)

    def test_law_of_large_numbers(self):
        fractions = []
        for seed in range(200):
            counts = sample_counts([0.5, 0.5, 0.0], 10_000, seed=seed)
            fractions.append(counts[0] / (counts[0] + counts[1]))
        assert np.mean(fractions) == pytest.approx(0.5, abs=0.01)

    def test_bad_probabilities(self):
        with pytest.raises(BadProbabilities):
            sample_counts([0.5, 0.2, 0.2], 1000, seed=0)
        with pytest.raises(BadProbabilities):
            sample_counts([1.0, 0.0, 0.0], 0, seed=0)

    @pytest.mark.parametrize("bad_block", [[0.5, 0.2, 0.2], [1.1, -0.1, 0.0], [np.nan, 0.5, 0.5]])
    def test_bad_block_in_a_stack(self, bad_block):
        """One bad (..., k) block anywhere in a stack rejects the stack."""
        stack = np.full((2, 3, 4, 3), 1 / 3)
        stack[1, 2, 3] = bad_block
        with pytest.raises(BadProbabilities):
            sample_counts(stack, 1000, seed=0)

    @pytest.mark.parametrize("total", [0, -5])
    def test_non_positive_total(self, total):
        with pytest.raises(BadProbabilities):
            sample_counts(np.full((2, 4, 3), 1 / 3), total, seed=0)

    def test_stack_from_one_generator(self):
        """A stack is one Poisson draw over the whole array, in C order."""
        p = np.stack([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]] * 3).reshape(3, 2, 3)
        counts = sample_counts(p, 10_000, seed=5)
        assert counts.shape == p.shape and counts.dtype == np.int64
        assert np.array_equal(counts, np.random.default_rng(5).poisson(10_000 * p))
        assert np.all(counts[:, 1, 1:] == 0)


class TestBatchedProbabilities:
    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_batch_equals_per_state_calls(self, name):
        amps = prepare_amplitudes(SWEEP_THETAS)
        batch = projection_probabilities(amps, SETTINGS[name])
        assert batch.shape == (11, 3)
        for psi, row in zip(amps, batch):
            assert np.array_equal(row, projection_probabilities(psi, SETTINGS[name]))

    def test_unnormalized_row_rejected(self):
        amps = prepare_amplitudes(SWEEP_THETAS)
        amps[4] *= 1.01
        with pytest.raises(BadProbabilities):
            projection_probabilities(amps, SETTINGS["Lx"])


def _mean_and_sigma(counts, values):
    """Count mean sum(values * n) / sum(n) and its first-order Poisson
    sigma sqrt(sum n_i (values_i - mean)^2) / sum(n)."""
    n = np.asarray(counts, dtype=float)
    mean = values @ n / n.sum()
    return mean, np.sqrt(n @ (values - mean) ** 2) / n.sum()


class TestEstimation:
    def test_sigma_matches_binomial_oracle(self):
        # theta = pi/2 under the Lx setting: P = (1/2, 1/2, 0), outcomes +-1
        p = projection_probabilities(prepare_state(np.pi / 2).amplitudes, SETTINGS["Lx"])
        n = 10_000
        oracle = np.sqrt(0.5 * 0.5 * (1 - (-1)) ** 2 / n)
        values, sigmas = [], []
        for seed in range(50):
            value, sigma = _mean_and_sigma(sample_counts(p, n, seed), LX.eigenvalues)
            values.append(value)
            sigmas.append(sigma)
        assert np.mean(sigmas) == pytest.approx(oracle, rel=0.05)
        assert abs(np.mean(values)) < 3 * oracle

    def test_error_shrinks_as_sqrt_n(self):
        p = projection_probabilities(prepare_state(0.3).amplitudes, SETTINGS["Lx"])
        errors = {}
        for n in (10**3, 10**5):
            errs = [
                abs(_mean_and_sigma(sample_counts(p, n, seed), LX.eigenvalues)[0]
                    - float(p @ LX.eigenvalues))
                for seed in range(100)
            ]
            errors[n] = np.mean(errs)
        assert errors[10**3] / errors[10**5] == pytest.approx(10.0, rel=0.4)
