"""Tests for the sweep harness: configs, datasets, verification, CLI."""

import json

import numpy as np
import pytest

import varbound.sweep as sweep
from varbound.basis_search import OptimizerConfig
from varbound.bounds import OrthonormalBasis, evaluate_all
from varbound.cli import main
from varbound.hermitian import builtin_spin1, family_state, haar_random_state, make_observable
from varbound.photonics import builtin_settings, projection_probabilities, sample_counts
from varbound.sweep import (
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    VALUE_COLUMNS,
    build_report,
    config_from_file,
    emit,
    run_sweep,
    theta_grid,
    verify_dataset,
)

LX, LY, LZ, LP = builtin_spin1()


class TestConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert len(cfg.thetas) == 11
        assert cfg.thetas[-1] == pytest.approx(np.pi)
        assert cfg.counts == 10_000 and cfg.seed == 7 and cfg.trials == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SweepConfig(thetas=())
        with pytest.raises(ConfigError):
            SweepConfig(counts=0)
        with pytest.raises(ConfigError):
            SweepConfig(formats=("csv", "xml"))

    def test_hash_changes_with_config(self):
        assert SweepConfig().hash() != SweepConfig(seed=8).hash()
        assert SweepConfig().hash() == SweepConfig().hash()

    def test_config_file_roundtrip(self, tmp_path):
        p = tmp_path / "sweep.cfg"
        p.write_text(
            "# comment\n"
            "theta_steps = 5\n"
            "counts = 2000\n"
            "seed = 3\n"
            "optimize_basis = true\n"
            "formats = csv\n"
        )
        cfg = config_from_file(p)
        assert len(cfg.thetas) == 5
        assert cfg.counts == 2000 and cfg.seed == 3
        assert cfg.optimize_basis is True
        assert cfg.formats == ("csv",)

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            config_from_file(tmp_path / "missing.cfg")
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery_key = 1\n")
        with pytest.raises(ConfigError):
            config_from_file(bad)
        bad.write_text("no equals sign\n")
        with pytest.raises(ConfigError):
            config_from_file(bad)
        for line in (
            "counts = ten\n", "theta_steps = 0\n", "theta_steps = 2.5\n",
            "optimize_basis = ture\n", "dense = -5\n",
        ):
            bad.write_text(line)
            with pytest.raises(ConfigError):
                config_from_file(bad)
        with pytest.raises(ConfigError):
            SweepConfig(dense=-5)

    def test_optimize_basis_values(self, tmp_path):
        p = tmp_path / "flag.cfg"
        for value, expected in (("1", True), ("TRUE", True), ("Yes", True),
                                ("0", False), ("False", False), ("NO", False)):
            p.write_text(f"optimize_basis = {value}\n")
            assert config_from_file(p).optimize_basis is expected, value

    def test_theta_grid(self):
        # exact j*pi/(n-1): the dense grid merges sweep angles by float equality
        for n in (2, 3, 11, 101):
            assert theta_grid(n) == tuple(j * np.pi / (n - 1) for j in range(n))
        assert theta_grid(11) == SweepConfig().thetas
        assert theta_grid(1) == (0.0,)
        with pytest.raises(ConfigError):
            theta_grid(0)

    def test_single_theta_step_config(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text("theta_steps = 1\n")
        assert config_from_file(p).thetas == (0.0,)


@pytest.fixture(scope="module")
def default_run():
    return run_sweep(SweepConfig(counts=4000, dense=20))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emit")
    cfg = SweepConfig(counts=4000, dense=10, out_dir=str(out))
    rows, report, dense = run_sweep(cfg)
    paths = emit(rows, report, cfg, dense)
    return out, paths


class TestRunSweep:
    def test_row_count_and_thetas(self, default_run):
        rows, _, dense = default_run
        assert len(rows) == 11
        assert [r.j for r in rows] == list(range(11))
        assert rows[5].theta == pytest.approx(np.pi / 2)
        assert len(dense) >= 21

    def test_no_violations_in_default_run(self, default_run):
        _, report, _ = default_run
        assert report.ok
        assert report.worst_slack > -1e-9
        for statuses in report.statuses:
            assert "violated" not in statuses.values()

    def test_reverse_bound_undefined_at_endpoints_only_when_degenerate(self, default_run):
        rows, _, _ = default_run
        for r in rows:
            assert r.statuses["eq7"] in ("tight", "satisfied")

    def test_sampled_columns_have_sigmas(self, default_run):
        rows, _, _ = default_run
        for r in rows:
            for col, v in r.sampled.items():
                assert np.isfinite(v)
                assert col in r.sigma and r.sigma[col] >= 0.0

    def test_dense_rows_agree_at_shared_thetas(self, default_run):
        rows, _, dense = default_run
        by_theta = {round(d.theta, 12): d for d in dense}
        for r in rows:
            d = by_theta[round(r.theta, 12)]
            for col in ("var_lx", "var_ly", "rhs_eq1", "rhs_eq3", "rhs_eq4", "rhs_eq6"):
                assert d.ideal[col] == pytest.approx(r.ideal[col], abs=1e-12)

    def test_optimized_columns_present_when_requested(self):
        rows, _, _ = run_sweep(SweepConfig(thetas=(0.3,), counts=2000, optimize_basis=True))
        r = rows[0]
        assert r.ideal["rhs_eq2_opt"] >= r.ideal["rhs_eq2_canon"] - 1e-12
        assert r.ideal["rhs_eq5_opt"] >= r.ideal["rhs_eq5_canon"] - 1e-12
        assert "rhs_eq2_opt" in r.sampled and "rhs_eq5_opt" in r.sampled

    def test_trials_reduce_reported_sigma(self):
        one = run_sweep(SweepConfig(thetas=(0.8,), counts=2000, trials=1))[0][0]
        nine = run_sweep(SweepConfig(thetas=(0.8,), counts=2000, trials=9))[0][0]
        assert nine.sigma["mean_lx"] == pytest.approx(one.sigma["mean_lx"] / 3, rel=0.2)


class TestEmitAndVerify:
    def test_csv_schema(self, emitted):
        out, _ = emitted
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert len(CSV_COLUMNS) == 2 + 3 * len(VALUE_COLUMNS) == 53
        assert len(lines) == 12
        dense_lines = (out / "dense.csv").read_text().splitlines()
        assert dense_lines[0] == lines[0]

    def test_json_payload(self, emitted):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["seed"] == 7
        assert len(payload["rows"]) == 11
        assert payload["report"]["ok"] is True
        assert len(payload["config_hash"]) == 16

    def test_determinism_modulo_timestamp(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            cfg = SweepConfig(counts=2000, thetas=(0.0, 0.6), out_dir=str(tmp_path / name))
            rows, report, dense = run_sweep(cfg)
            emit(rows, report, cfg, dense)
            payload = json.loads((tmp_path / name / "sweep.json").read_text())
            payload.pop("timestamp")
            payload.pop("config_hash")
            payload["config"].pop("out_dir")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_verify_accepts_good_dataset(self, emitted):
        out, _ = emitted
        assert verify_dataset(out / "sweep.json") == 0

    def test_verify_flags_violation(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        payload["rows"][3]["rhs_eq3"] = payload["rows"][3]["lhs_prod"] + 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 1

    def test_verify_flags_statistical_outlier(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        # row 1 has a non-degenerate setting so sigma_mean_lz > 0 there
        payload["rows"][1]["sampled_mean_lz"] = payload["rows"][1]["mean_lz"] + 1.0
        bad = tmp_path / "outlier.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 1

    def test_verify_config_errors(self, tmp_path):
        assert verify_dataset(tmp_path / "nope.json") == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert verify_dataset(garbage) == 2

    @pytest.mark.parametrize("payload", [
        {}, [], {"rows": None}, {"rows": []}, {"rows": [{"theta": 0}]},
        {"rows": [{"lhs_prod": 0.25}]}, {"rows": [{"lhs_prod": 0.25, "lhs_sum": "1.0"}]},
    ])
    def test_verify_rejects_malformed_dataset(self, tmp_path, payload):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 2

    @pytest.mark.parametrize("column", ["lhs_prod", "lhs_sum", "rhs_eq1", "sampled_var_lx",
                                        "sigma_rhs_eq4"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_verify_flags_non_finite_value(self, emitted, tmp_path, column, value):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        payload["rows"][2][column] = value
        bad = tmp_path / "nonfinite.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 1

    def test_verify_rejects_negative_sigma(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        payload["rows"][1]["sampled_mean_lx"] = payload["rows"][1]["mean_lx"] + 1.0
        payload["rows"][1]["sigma_mean_lx"] = -1e-3
        bad = tmp_path / "negative_sigma.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 2

    def test_verify_tolerance_is_relative(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        row = payload["rows"][4]
        row["sigma_lhs_prod"] = row["sigma_rhs_eq1"] = None
        scaled = tmp_path / "scaled.json"
        for rel, status in ((-1e-11, 0), (-1e-8, 1)):
            row["lhs_prod"], row["rhs_eq1"] = 1e4, 1e4 * (1 - rel)
            scaled.write_text(json.dumps(payload))
            assert verify_dataset(scaled) == status, rel

    def test_verify_checks_optimized_columns(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["rows"][4]["rhs_eq5_opt"] is None  # null stays allowed
        payload["rows"][4]["rhs_eq5_opt"] = payload["rows"][4]["lhs_sum"] + 1.0
        bad = tmp_path / "opt.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 1


class TestPropagateSigmas:
    def test_sigma_of_a_mean_is_poisson(self):
        """For m = sum n_k l_k / N the first-order Poisson error is
        sqrt(var / N); a zero count contributes nothing."""
        counts, values = np.array([300.0, 0.0, 700.0]), np.array([-1.0, 1.0, 0.0])
        base, sig = sweep._propagate_sigmas(counts, lambda c: {"m": c @ values / c.sum(axis=-1)})
        var = counts @ (values - base["m"]) ** 2 / counts.sum()
        assert sig["m"] == pytest.approx(np.sqrt(var / counts.sum()), rel=1e-5)

    def test_undefined_side_adds_nothing(self):
        """A count whose -1 vector leaves a column undefined adds nothing to
        that column's error bar; a column undefined at the base gets none."""
        counts, values = np.array([300.0, 0.0, 700.0]), np.array([-1.0, 1.0, 0.0])

        def fn(c):
            m = c @ values / c.sum(axis=-1)
            never = np.full(m.shape, np.nan)
            return {"m": m, "cut": np.where(c[..., 0] < 300, np.nan, m), "never": never, "none": None}

        base, sig = sweep._propagate_sigmas(counts, fn)
        assert base == {"m": base["m"], "cut": base["m"], "never": None, "none": None}
        assert set(sig) == {"m", "cut"}
        m = lambda c: c @ values / c.sum()
        deriv = (m(counts + [0, 0, 1]) - m(counts - [0, 0, 1])) / 2
        assert sig["cut"] == pytest.approx(np.sqrt(700 * deriv**2), rel=1e-12)
        assert sig["m"] > sig["cut"]


def _loop_propagate_sigmas(counts_flat, column_fn):
    """The per-perturbation loop that _propagate_sigmas replaced, kept as
    its reference: one scalar column_fn call per +-1 count vector."""
    base = column_fn(counts_flat)
    var = {k: 0.0 for k, v in base.items() if v is not None}
    n = np.asarray(counts_flat, dtype=float)
    for k in np.flatnonzero(n):
        hi, lo = n.copy(), n.copy()
        hi[k] += 1.0
        lo[k] -= 1.0
        up, dn = column_fn(hi), column_fn(lo)
        for col in var:
            if up.get(col) is None or dn.get(col) is None:
                continue
            deriv = (up[col] - dn[col]) / 2.0
            var[col] += n[k] * deriv**2
    return base, {col: float(np.sqrt(v)) for col, v in var.items()}


class TestBatchedSigmas:
    def test_matches_per_perturbation_loop(self):
        """20 seeds at the 11 sweep points, including theta = pi/2, where
        the 0-outcome ports of Lx and Ly are dark and count zero."""
        basis = OrthonormalBasis.computational(3)
        settings = builtin_settings()
        dark = 0
        for j, theta in enumerate(theta_grid(11)):
            state = family_state(theta)
            _, _, bases = sweep._ideal_columns(state, LX, LY, LZ, LP, basis, False)
            fn = lambda c: sweep._sampled_columns(c, LX, LY, bases)
            probs = [projection_probabilities(state, settings[n]) for n in sweep.SETTING_NAMES]
            for seed in range(20):
                counts = np.concatenate([
                    sample_counts(p, 10_000, 1000 * seed + 10 * j + si).counts
                    for si, p in enumerate(probs)
                ])
                dark += np.count_nonzero(counts == 0)
                base, sig = sweep._propagate_sigmas(counts, fn)
                ref_base, ref_sig = _loop_propagate_sigmas(counts, fn)
                assert base.keys() == ref_base.keys() and sig.keys() == ref_sig.keys()
                for col, ref in ref_base.items():
                    if ref is None:
                        assert base[col] is None, (theta, seed, col)
                    else:
                        assert base[col] == pytest.approx(ref, rel=1e-15, abs=0), (theta, seed, col)
                for col, ref in ref_sig.items():
                    assert sig[col] == pytest.approx(ref, rel=1e-10, abs=0), (theta, seed, col)
        assert dark > 0


class TestTrials:
    def test_trials_keep_their_draws(self):
        """Trial t of seed s draws what trial 0 of seed s + 10 t draws."""
        s = 4
        rows, _, _ = run_sweep(SweepConfig(seed=s, trials=3))
        singles = [run_sweep(SweepConfig(seed=s + 10 * t))[0] for t in range(3)]
        for j, row in enumerate(rows):
            cols = set().union(*(r[j].sampled for r in singles))
            assert set(row.sampled) == cols
            for col in cols:
                vals = [r[j].sampled[col] for r in singles if col in r[j].sampled]
                assert row.sampled[col] == pytest.approx(np.mean(vals), rel=1e-15, abs=0), (j, col)

    @pytest.mark.parametrize("trials", [1, 4])
    def test_probabilities_once_per_setting_and_row(self, monkeypatch, trials):
        calls = []

        def counted(state, setting):
            calls.append(setting)
            return projection_probabilities(state, setting)

        monkeypatch.setattr(sweep, "projection_probabilities", counted)
        run_sweep(SweepConfig(thetas=theta_grid(3), trials=trials))
        assert len(calls) == 4 * 3


class TestStatus:
    def test_tolerance_is_relative(self):
        """A = B makes eq1-eq6 tight at any scale; eq7 is undefined."""
        a = make_observable(1e5 * np.diag([1.0, 2.0, -3.0]))
        rep = evaluate_all(haar_random_state(3, np.random.default_rng(1)), a, a)
        statuses = {rid: sweep._status(r) for rid, r in rep.results.items()}
        assert statuses == dict.fromkeys(("eq1", "eq2", "eq3", "eq4", "eq5", "eq6"), "tight") | {
            "eq7": "undefined"
        }


class TestCalibration:
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.35 * np.pi])
    def test_two_sigma_coverage(self, theta):
        """Error bars are calibrated: ~95% of estimates land within 2 sigma."""
        inside = total = 0
        for seed in range(40):
            cfg = SweepConfig(thetas=(theta,), counts=10_000, seed=seed)
            rows, _, _ = run_sweep(cfg)
            r = rows[0]
            for col, v in r.sampled.items():
                ideal, sig = r.ideal.get(col), r.sigma[col]
                if ideal is None or sig <= 0:
                    continue
                total += 1
                inside += abs(v - ideal) <= 2 * sig
        assert 0.90 <= inside / total <= 1.00


class TestBuildReport:
    def test_z_limit_enforced(self):
        rows, report, _ = run_sweep(SweepConfig(thetas=(0.4,), counts=4000))
        assert report.ok
        rows[0].sampled["mean_lx"] = rows[0].ideal["mean_lx"] + 1.0
        assert not build_report(rows).ok

    def test_worst_slack_reads_optimized_columns(self):
        rows, report, _ = run_sweep(SweepConfig(thetas=(0.4,), counts=4000))
        assert report.worst_slack > -1e-9
        rows[0].ideal["rhs_eq2_opt"] = rows[0].ideal["lhs_prod"] + 0.5
        assert build_report(rows).worst_slack == pytest.approx(-0.5)


def _noise_free_counts(state, n):
    settings = builtin_settings()
    return np.concatenate([
        n * projection_probabilities(state, settings[name]) for name in sweep.SETTING_NAMES
    ])


class TestWrittenOnce:
    """The sampled path feeds counts to the same rhs functions the ideal
    path feeds state quantities to, so at noise-free counts they agree."""

    @pytest.mark.parametrize("optimize", [False, True])
    def test_noise_free_counts_reproduce_ideal_columns(self, monkeypatch, optimize):
        monkeypatch.setattr(sweep, "OPTIMIZER", OptimizerConfig(restarts=2, max_iters=15))
        basis = OrthonormalBasis.computational(3)
        for theta in theta_grid(11):
            state = family_state(theta)
            ideal, _, bases = sweep._ideal_columns(state, LX, LY, LZ, LP, basis, optimize)
            sampled = sweep._sampled_columns(
                _noise_free_counts(state, 10_000), LX, LY, bases
            )
            assert set(sampled) == set(VALUE_COLUMNS)
            for col in VALUE_COLUMNS:
                if ideal[col] is None:
                    assert sampled[col] is None, (theta, col)
                else:
                    assert sampled[col] == pytest.approx(ideal[col], abs=1e-12), (theta, col)
            assert (ideal["rhs_eq2_opt"] is None) == (not optimize)

    def test_state_estimate_from_counts_alone(self):
        """Noise-free counts give +-psi(theta) at every sweep point; the
        relative sign comes from the sampled <Lx>, not from theta."""
        for theta in theta_grid(11):
            psi = family_state(theta).amplitudes
            probs = _noise_free_counts(family_state(theta), 10_000).reshape(4, 3) / 10_000
            est = sweep._state_estimate(probs[2], float(probs[0] @ LX.eigenvalues))
            assert min(np.max(np.abs(est - psi)), np.max(np.abs(est + psi))) < 1e-12, theta


class TestCli:
    def test_sweep_and_verify(self, tmp_path, capsys):
        out = tmp_path / "run"
        status = main([
            "sweep", "--theta-steps", "3", "--counts", "2000", "--out", str(out),
        ])
        assert status == 0
        text = capsys.readouterr().out
        assert "verdict: ok" in text
        assert main(["verify", str(out / "sweep.json")]) == 0

    def test_sweep_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"theta_steps = 3\ncounts = 2000\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
        cfg = tmp_path / "bad.cfg"
        for line in (
            "counts = ten\n", "theta_steps = 0\n", "pairing = -1,1,0\n",
            "optimize_basis = ture\n", "dense = -5\n",
        ):
            cfg.write_text(line)
            assert main(["sweep", "--config", str(cfg)]) == 2
        assert main(["sweep", "--theta-steps", "0", "--out", str(tmp_path / "o")]) == 2
        assert main(["sweep", "--dense", "-3", "--out", str(tmp_path / "o")]) == 2

    def test_verify_missing_dataset(self, tmp_path):
        assert main(["verify", str(tmp_path / "none.json")]) == 2

    def test_verify_names_a_malformed_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rows": []}')
        for path in (tmp_path / "none.json", bad):
            assert main(["verify", str(path)]) == 2
            assert capsys.readouterr().out.strip() == "malformed dataset"

    def test_decompose(self, capsys):
        assert main(["decompose", "--observable", "Lx"]) == 0
        text = capsys.readouterr().out
        assert "U2 (corrected)" in text
        assert "max |U - U3 U2 U1|" in text
