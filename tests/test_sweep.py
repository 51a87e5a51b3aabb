"""Tests for the sweep harness: configs, datasets, verification, CLI."""

import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varbound.hermitian as hermitian
import varbound.sweep as sweep
from varbound.basis_search import OptimizerConfig, haar_basis, optimize_bound
from varbound.bounds import (
    _degenerate_std,
    _slack_floors,
    _slack_tol,
    evaluate_all,
    relation_sides,
    rhs_eq2,
    rhs_eq5,
    rhs_eq7,
)
import varbound.cli as cli
from varbound.cli import main
from varbound.hermitian import builtin_spin1, haar_random_state, make_observable
from varbound import photonics
from varbound.photonics import (
    builtin_settings, prepare_amplitudes, prepare_state, projection_probabilities, sample_counts,
)
from varbound.sweep import (
    CSV_COLUMNS,
    ConfigError,
    DATA_COLUMNS,
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
# the slack tolerance's floors for Lx and Ly by the relation's lhs column;
# the sigma = 0 check takes the sum's
FLOOR = dict(zip(("lhs_prod", "lhs_sum"), _slack_floors(LX, LY)))
# (relation, lhs column, rhs column, direction) of every checked column,
# written out here so that the references below do not read the program's
# relation table
RELATION_COLUMNS = (
    ("eq1", "lhs_prod", "rhs_eq1", "lower"),
    ("eq2", "lhs_prod", "rhs_eq2_canon", "lower"),
    ("eq2", "lhs_prod", "rhs_eq2_opt", "lower"),
    ("eq3", "lhs_prod", "rhs_eq3", "lower"),
    ("eq4", "lhs_sum", "rhs_eq4", "lower"),
    ("eq5", "lhs_sum", "rhs_eq5_canon", "lower"),
    ("eq5", "lhs_sum", "rhs_eq5_opt", "lower"),
    ("eq6", "lhs_sum", "rhs_eq6", "lower"),
    ("eq7", "lhs_sum", "rhs_eq7", "upper"),
)


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

    def test_counts_above_poisson_ceiling_rejected(self):
        # numpy's Poisson sampler refuses means near 9.2e18; a rejected
        # value draws nothing
        assert SweepConfig(counts=sweep.MAX_COUNTS).counts == sweep.MAX_COUNTS
        for counts in (sweep.MAX_COUNTS + 1, 10**19, 10**400):
            with pytest.raises(ConfigError, match="counts"):
                SweepConfig(counts=counts)

    @pytest.mark.parametrize("field", ["trials", "dense"])
    def test_oversized_tables_rejected(self, field):
        # building a config allocates nothing, so the limit itself is tried
        rows, width = len(SweepConfig().thetas), len(CSV_COLUMNS)
        limit = {"trials": sweep.MAX_CELLS // (rows * 12),
                 "dense": sweep.MAX_CELLS // width - 1 - rows}
        assert getattr(SweepConfig(**{field: limit[field]}), field) == limit[field]
        for value in (limit[field] + 1, 10**15, 10**400):
            with pytest.raises(ConfigError, match=f"{field} = {value} makes a"):
                SweepConfig(**{field: value})

    def test_oversized_theta_grid_rejected(self):
        for steps in (10**15, 10**400):
            with pytest.raises(ConfigError, match=f"theta_steps = {steps} makes a sweep table"):
                theta_grid(steps)
        with pytest.raises(ConfigError, match=f"{10**15} thetas makes a sweep table"):
            SweepConfig(thetas=range(10**15))

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

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            SweepConfig(seed=-1)
        p = tmp_path / "seed.cfg"
        p.write_text("seed = -1\n")
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from_file(p)
        assert SweepConfig(seed=0).seed == 0

    @pytest.mark.parametrize("thetas", [(math.nan,), (0.1, math.inf), (-math.inf, 0.3)])
    def test_nonfinite_theta_rejected(self, thetas):
        with pytest.raises(ConfigError, match="thetas must be finite"):
            SweepConfig(thetas=thetas)

    def test_theta_forms_share_one_hash(self):
        """A range, int tuple, list or array of the same angles becomes one
        tuple of floats, so all hash as the float tuple did before (whose
        hash, like the CLI's configs, is unchanged)."""
        configs = [SweepConfig(thetas=t, counts=100)
                   for t in (range(3), (0, 1, 2), [0, 1, 2], np.arange(3), (0.0, 1.0, 2.0))]
        assert {c.hash() for c in configs} == {"bf5ab40509523a24"}
        for c in configs:
            assert c.thetas == (0.0, 1.0, 2.0) and {type(t) for t in c.thetas} == {float}
            assert hash(c) == hash(configs[-1])
        assert SweepConfig().hash() == "0fc3391ddde0894a"

    @pytest.mark.parametrize("thetas", [("a",), (0.1, None), (1j,), ("0.5",), np.zeros((2, 2))])
    def test_non_numeric_theta_rejected(self, thetas):
        with pytest.raises(ConfigError, match="thetas must be finite real numbers"):
            SweepConfig(thetas=thetas)

    def test_theta_beyond_float_range_rejected(self):
        with pytest.raises(ConfigError, match="thetas must be finite"):
            SweepConfig(thetas=(0.1, 10**400))

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("dense", True, "dense must be an integer, got True"),
        ("counts", "5", "counts must be an integer, got '5'"),
        ("optimize_basis", "no", "optimize_basis must be true or false, got 'no'"),
        ("thetas", 5, "thetas must be a sized sequence, got 5"),
        ("thetas", iter((0.1, 0.2)), "thetas must be a sized sequence"),
        ("thetas", np.array(0.3), "thetas must be a sized sequence"),
        ("formats", "csv", "formats must be a tuple or list of 'csv' and 'json', got 'csv'"),
        ("out_dir", 3, "out_dir must be a str or an os.PathLike, got 3"),
    ])
    def test_bad_field_rejected_when_built(self, field, value, message):
        """Each field's type is checked when the config is built, with a
        ConfigError that names the field, not later in run_sweep or emit."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepConfig(**{field: value})

    def test_field_forms_share_one_hash(self, tmp_path):
        """numpy integers, a format list and a path object are stored as
        ints, a tuple and a str, so the config hashes and is written as the
        plain form is."""
        plain = SweepConfig(counts=100, seed=3, trials=2, dense=4, formats=("csv", "json"),
                            out_dir=str(tmp_path))
        forms = SweepConfig(counts=np.int64(100), seed=np.uint8(3), trials=np.int32(2),
                            dense=np.int16(4), formats=["csv", "json"], out_dir=tmp_path)
        assert forms == plain and hash(forms) == hash(plain) and forms.hash() == plain.hash()
        assert {type(getattr(forms, f)) for f in ("counts", "seed", "trials", "dense")} == {int}
        assert forms.formats == ("csv", "json") and forms.out_dir == str(tmp_path)
        assert SweepConfig(counts=np.int64(100)).hash() == "80ef3a2f6be25e60"
        assert SweepConfig(counts=100).hash() == "80ef3a2f6be25e60"
        table, report, dense = run_sweep(forms)
        emit(table, report, forms, dense)
        assert json.loads((tmp_path / "sweep.json").read_text())["config_hash"] == plain.hash()

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

    @pytest.mark.parametrize("steps", [2.5, "3", None, True, 0])
    def test_theta_grid_names_a_bad_argument(self, steps):
        """theta_grid takes theta_steps by SweepConfig's integer rule: a
        non-integer, a bool or a count below 1 is a named ConfigError."""
        with pytest.raises(ConfigError, match="^theta_steps must be "):
            theta_grid(steps)

    def test_single_theta_step_config(self, tmp_path):
        p = tmp_path / "one.cfg"
        p.write_text("theta_steps = 1\n")
        assert config_from_file(p).thetas == (0.0,)


GOOD_ROW = {"j": 0, "theta": 0.0, "lhs_prod": 0.25, "lhs_sum": 1.0}
NO_J = {k: v for k, v in GOOD_ROW.items() if k != "j"}


def _cells(keys, values):
    """{key: value} of one table row, None where the row holds NaN."""
    return {k: None if math.isnan(v) else v for k, v in zip(keys, values.tolist(), strict=True)}


def _split(row):
    """The ideal {column: value or None}, and the sampled and sigma {column:
    value} of the defined cells, of one (CSV_COLUMNS) sweep row."""
    cells = _cells(CSV_COLUMNS, row)
    ideal = {c: cells[c] for c in VALUE_COLUMNS}
    sampled, sigma = (
        {c: cells[p + c] for c in VALUE_COLUMNS if cells[p + c] is not None}
        for p in ("sampled_", "sigma_")
    )
    return ideal, sampled, sigma


def _col(name):
    return CSV_COLUMNS.index(name)


@pytest.fixture(scope="module")
def default_run():
    return run_sweep(SweepConfig(counts=4000, dense=20))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emit")
    cfg = SweepConfig(counts=4000, dense=10, out_dir=str(out))
    table, report, dense = run_sweep(cfg)
    paths = emit(table, report, cfg, dense)
    return out, paths


class TestRunSweep:
    def test_row_count_and_thetas(self, default_run):
        table, _, dense = default_run
        assert table.shape == (11, len(CSV_COLUMNS))
        assert table[:, 0].tolist() == list(range(11))
        assert table[5, 1] == pytest.approx(np.pi / 2)
        assert len(dense) >= 21

    def test_no_violations_in_default_run(self, default_run):
        _, report, _ = default_run
        assert report.ok
        assert report.worst_slack > -1e-9
        for statuses in report.statuses:
            assert "violated" not in statuses.values()

    def test_reverse_bound_undefined_at_endpoints_only_when_degenerate(self, default_run):
        _, report, _ = default_run
        for statuses in report.statuses:
            assert statuses["eq7"] in ("tight", "satisfied")

    def test_sampled_columns_have_sigmas(self, default_run):
        table, _, _ = default_run
        for row in table:
            _, sampled, sigma = _split(row)
            for col, v in sampled.items():
                assert np.isfinite(v)
                assert col in sigma and sigma[col] >= 0.0

    def test_dense_rows_agree_at_shared_thetas(self, default_run):
        table, _, dense = default_run
        by_theta = {round(d["theta"], 12): d for d in (_cells(CSV_COLUMNS, d) for d in dense)}
        for r in (_cells(CSV_COLUMNS, row) for row in table):
            d = by_theta[round(r["theta"], 12)]
            for col in ("var_lx", "var_ly", "rhs_eq1", "rhs_eq3", "rhs_eq4", "rhs_eq6"):
                assert d[col] == pytest.approx(r[col], abs=1e-12)

    def test_ideal_columns_from_one_kernel_call(self, monkeypatch):
        """The sweep points and the dense grid, which holds them, get their
        ideal columns from one evaluate_states call; each row of the dense
        table holds evaluate_all of its state and no sampled columns."""
        calls = []

        def counted(psi, *args, _fn=sweep.evaluate_states, **kwargs):
            calls.append(psi.shape)
            return _fn(psi, *args, **kwargs)

        monkeypatch.setattr(sweep, "evaluate_states", counted)
        _, _, dense = run_sweep(SweepConfig(counts=2000, dense=50))
        assert calls == [(len(dense), 3)] and len(dense) >= 51
        assert dense.shape == (len(dense), len(CSV_COLUMNS))
        for d in (_cells(CSV_COLUMNS, d) for d in dense):
            state = prepare_state(d["theta"])
            rep, zp = evaluate_all(state, LX, LY), evaluate_all(state, LZ, LP)
            expected = {
                "mean_lz": zp.mean_a, "mean_lp": zp.mean_b,
                "mean_lx": rep.mean_a, "mean_ly": rep.mean_b, "var_lx": rep.var_a,
                "var_ly": rep.var_b, "lhs_prod": rep.product_lhs, "lhs_sum": rep.sum_lhs,
                "rhs_eq2_canon": rep.results["eq2"].rhs, "rhs_eq5_canon": rep.results["eq5"].rhs,
            } | {f"rhs_eq{i}": rep.results[f"eq{i}"].rhs for i in (1, 3, 4, 6, 7)}
            assert set(expected) | {"rhs_eq2_opt", "rhs_eq5_opt"} == set(VALUE_COLUMNS)
            for col, value in expected.items():
                if value is None:
                    assert d[col] is None, (d["theta"], col)
                else:
                    assert d[col] == pytest.approx(value, rel=1e-14, abs=1e-15), (d["theta"], col)
            assert d["rhs_eq2_opt"] is None and d["rhs_eq5_opt"] is None
            assert all(d[col] is None for col in DATA_COLUMNS[len(VALUE_COLUMNS):])

    def test_builtin_observables_built_once(self, monkeypatch, tmp_path):
        """builtin_spin1 returns one shared tuple, so once it is built a
        sweep, its report and the emitted dataset's verify build no
        eigensystem."""
        assert builtin_spin1() is builtin_spin1()
        calls = []

        def counted(*args, _fn=hermitian.make_observable, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(hermitian, "make_observable", counted)
        config = SweepConfig(thetas=theta_grid(3), counts=2000, out_dir=str(tmp_path))
        table, report, dense = run_sweep(config)
        build_report(table, dense)
        emit(table, report, config, dense)
        assert verify_dataset(tmp_path / "sweep.json") == 0
        assert calls == []

    def test_optimized_columns_present_when_requested(self):
        table, _, _ = run_sweep(SweepConfig(thetas=(0.3,), counts=2000, optimize_basis=True))
        ideal, sampled, _ = _split(table[0])
        assert ideal["rhs_eq2_opt"] >= ideal["rhs_eq2_canon"] - 1e-12
        assert ideal["rhs_eq5_opt"] >= ideal["rhs_eq5_canon"] - 1e-12
        assert "rhs_eq2_opt" in sampled and "rhs_eq5_opt" in sampled

    def test_every_state_from_one_preparation(self, monkeypatch):
        """One prepare_amplitudes call over the merged grid gives every state
        the sweep uses: with the circuit's angles shifted by 0.05, the
        ideal, sampled and searched columns all carry the bits of an
        unpatched sweep at the shifted angles."""
        monkeypatch.setattr(sweep, "OPTIMIZER", OptimizerConfig(restarts=2, max_iters=15))
        calls = []

        def shifted(thetas, _fn=sweep.prepare_amplitudes):
            calls.append(thetas)
            return _fn(thetas + 0.05)

        thetas = theta_grid(5)
        kwargs = dict(counts=2000, trials=2, optimize_basis=True)
        expected, _, _ = run_sweep(SweepConfig(thetas=[t + 0.05 for t in thetas], **kwargs))
        monkeypatch.setattr(sweep, "prepare_amplitudes", shifted)
        table, _, dense = run_sweep(SweepConfig(thetas=thetas, dense=8, **kwargs))
        assert len(calls) == 1 and np.array_equal(calls[0], dense[:, 1])
        assert set(thetas) <= set(calls[0])
        assert table[:, 2:].tobytes() == expected[:, 2:].tobytes()

    def test_one_basis_search_per_objective(self, monkeypatch):
        """A sweep over five angles makes one optimize_bound call per
        objective, and each row's optimized column has the bits of a
        one-state search."""
        cfg = OptimizerConfig(restarts=2, max_iters=15)
        monkeypatch.setattr(sweep, "OPTIMIZER", cfg)
        calls = []

        def counted(objective, states, *args, _fn=sweep.optimize_bound):
            calls.append((objective, states))
            return _fn(objective, states, *args)

        monkeypatch.setattr(sweep, "optimize_bound", counted)
        thetas = theta_grid(5)
        table, _, _ = run_sweep(SweepConfig(thetas=thetas, counts=2000, optimize_basis=True))
        assert len(calls) == 2
        assert [(objective, len(states)) for objective, states in calls] == [("eq2", 5), ("eq5", 5)]
        for row, theta in zip(table, thetas):
            for objective in ("eq2", "eq5"):
                _, [value], _ = optimize_bound(objective, [prepare_state(theta)], LX, LY, cfg)
                assert row[_col(f"rhs_{objective}_opt")].tobytes() == np.float64(value).tobytes()

    def test_trials_reduce_reported_sigma(self):
        one = _split(run_sweep(SweepConfig(thetas=(0.8,), counts=2000, trials=1))[0][0])[2]
        nine = _split(run_sweep(SweepConfig(thetas=(0.8,), counts=2000, trials=9))[0][0])[2]
        assert nine["mean_lx"] == pytest.approx(one["mean_lx"] / 3, rel=0.2)


_BAD_J_THETA = (
    {"theta": "abc"}, {"theta": math.nan}, {"theta": [1]}, {"theta": math.inf}, {"theta": None},
    {"theta": True}, {"j": 1}, {"j": 0.0}, {"j": False}, {"j": "0"}, {"j": None},
)


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

    def test_compact_json_records_versions(self, emitted):
        out, _ = emitted
        text = (out / "sweep.json").read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        payload = json.loads(text)
        assert payload["python"] == platform.python_version()
        assert payload["numpy"] == np.__version__

    def test_written_values_equal_rows_bit_for_bit(self, tmp_path):
        """Every cell of sweep.json, sweep.csv and dense.csv is the sweep
        row's or the dense table's value bit for bit; null and the empty
        string mark the same cells."""
        cfg = SweepConfig(counts=4000, dense=50, out_dir=str(tmp_path))
        table, report, dense = run_sweep(cfg)
        emit(table, report, cfg, dense)
        payload = json.loads((tmp_path / "sweep.json").read_text())
        sweep_cells = [_cells(CSV_COLUMNS, row) for row in table]
        dense_cells = [_cells(CSV_COLUMNS, d) for d in dense]
        for name, kind, mem in (("sweep.csv", "rows", sweep_cells), ("dense.csv", "dense", dense_cells)):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) - 1 == len(payload[kind]) == len(mem) >= 11
            for i, (expected, line, rec) in enumerate(zip(mem, lines[1:], payload[kind])):
                cells = dict(zip(CSV_COLUMNS, line.split(","), strict=True))
                assert int(cells["j"]) == rec["j"] == expected["j"] == i and type(rec["j"]) is int
                for col in CSV_COLUMNS[1:]:
                    value = expected[col]
                    if value is None:
                        assert cells[col] == "" and rec[col] is None, (kind, i, col)
                    else:
                        bits = repr(float(value))
                        assert repr(float(cells[col])) == bits == repr(rec[col]), (kind, i, col)
                if kind == "rows":
                    assert rec["statuses"] == report.statuses[i]

    def test_loaded_table_is_the_emitted_table(self, tmp_path):
        """verify reads back run_sweep's sweep and dense tables bit for bit,
        NaN exactly where a cell is null; sweep.json is compact JSON with
        sorted keys."""
        cfg = SweepConfig(counts=4000, dense=50, out_dir=str(tmp_path))
        table, report, dense = run_sweep(cfg)
        emit(table, report, cfg, dense)
        expected = np.vstack([table[:, 2:], dense[:, 2:]])
        rows, dense_rows = sweep._load_rows(tmp_path / "sweep.json")
        assert len(rows) == len(table) and len(dense_rows) == len(dense)
        loaded = np.vstack([rows, dense_rows])
        assert loaded.shape == expected.shape == (len(table) + len(dense), len(DATA_COLUMNS))
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(loaded), nan) and nan.any() and not nan.all()
        assert np.array_equal(loaded[~nan].view(np.uint64), expected[~nan].view(np.uint64))
        text = (tmp_path / "sweep.json").read_text()
        payload = json.loads(text)
        null = [[rec[col] is None for col in DATA_COLUMNS] for rec in payload["rows"] + payload["dense"]]
        assert np.array_equal(nan, null)
        assert text == json.dumps(payload, sort_keys=True) + "\n"

    def test_nan_literal_loads_as_inf(self, tmp_path):
        """A NaN in the loaded table marks a null cell only; a NaN literal
        reads as a non-finite value."""
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"rows": [GOOD_ROW | {"rhs_eq1": math.nan, "rhs_eq3": None}],
                                    "dense": [GOOD_ROW | {"rhs_eq4": -math.inf}]}))
        table = np.vstack(sweep._load_rows(path))
        expected = np.full((2, len(DATA_COLUMNS)), np.nan)
        expected[:, DATA_COLUMNS.index("lhs_prod")] = 0.25
        expected[:, DATA_COLUMNS.index("lhs_sum")] = 1.0
        expected[0, DATA_COLUMNS.index("rhs_eq1")] = math.inf
        expected[1, DATA_COLUMNS.index("rhs_eq4")] = -math.inf
        np.testing.assert_array_equal(table, expected)
        assert verify_dataset(path) == 1

    def test_determinism_modulo_timestamp(self, tmp_path):
        payloads = []
        for name in ("a", "b"):
            cfg = SweepConfig(counts=2000, thetas=(0.0, 0.6), out_dir=str(tmp_path / name))
            table, report, dense = run_sweep(cfg)
            emit(table, report, cfg, dense)
            payload = json.loads((tmp_path / name / "sweep.json").read_text())
            payload.pop("timestamp")
            payload.pop("config_hash")
            payload["config"].pop("out_dir")
            payloads.append(payload)
        assert payloads[0] == payloads[1]
        csv = [(tmp_path / name / "sweep.csv").read_bytes() for name in ("a", "b")]
        assert csv[0] == csv[1]

    def test_verify_accepts_good_dataset(self, emitted):
        out, _ = emitted
        assert verify_dataset(out / "sweep.json") == 0

    def test_verify_flags_violation(self, emitted, tmp_path):
        """A violated relation in a sweep row or in a dense row."""
        out, _ = emitted
        for kind, col, lhs, offset in (("rows", "rhs_eq3", "lhs_prod", 1.0),
                                       ("dense", "rhs_eq3", "lhs_prod", 1.0),
                                       ("dense", "rhs_eq7", "lhs_sum", -1.0)):
            payload = json.loads((out / "sweep.json").read_text())
            payload[kind][3][col] = payload[kind][3][lhs] + offset
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(payload))
            assert verify_dataset(bad) == 1, (kind, col)

    def test_verify_flags_statistical_outlier(self, emitted, tmp_path):
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        # row 1 has a non-degenerate setting so sigma_mean_lz > 0 there
        payload["rows"][1]["sampled_mean_lz"] = payload["rows"][1]["mean_lz"] + 1.0
        bad = tmp_path / "outlier.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 1

    def test_verify_checks_zero_sigma_columns(self, emitted, tmp_path):
        """A column with zero sigma must equal its ideal value to the slack
        tolerance, relative to the larger value: lhs_sum is 2 at theta =
        pi/2, so the tolerance there is 2e-9."""
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        row = payload["rows"][5]
        assert row["lhs_sum"] == pytest.approx(2.0)
        row["sigma_lhs_sum"] = 0.0
        bad = tmp_path / "zero_sigma.json"
        for offset, status in ((1.5e-9, 0), (-1.5e-9, 0), (1e-6, 1), (-1e-6, 1)):
            row["sampled_lhs_sum"] = row["lhs_sum"] + offset
            bad.write_text(json.dumps(payload))
            assert verify_dataset(bad) == status, offset

    def test_verify_accepts_a_minimal_dataset(self, tmp_path):
        """The malformed-dense cases below differ from this dataset only in
        their dense entry."""
        good = tmp_path / "minimal.json"
        good.write_text(json.dumps({"rows": [GOOD_ROW], "dense": [GOOD_ROW]}))
        assert verify_dataset(good) == 0

    def test_verify_config_errors(self, tmp_path):
        assert verify_dataset(tmp_path / "nope.json") == 2
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert verify_dataset(garbage) == 2

    @pytest.mark.parametrize("payload", [
        {}, [], {"rows": None}, {"rows": []}, {"rows": [{"theta": 0}]},
        {"rows": [{"lhs_prod": 0.25}]}, {"rows": [{"lhs_prod": 0.25, "lhs_sum": "1.0"}]},
        # a well-formed row with a missing, non-list or malformed dense entry
        {"rows": [GOOD_ROW]}, {"rows": [GOOD_ROW], "dense": 5},
        {"rows": [GOOD_ROW], "dense": None}, {"rows": [GOOD_ROW], "dense": [3.0]},
        {"rows": [GOOD_ROW], "dense": [{"lhs_prod": 0.25}]},
        {"rows": [GOOD_ROW], "dense": [{"lhs_prod": 0.25, "lhs_sum": 1.0, "rhs_eq7": "2"}]},
        # an integer beyond the float range
        {"rows": [GOOD_ROW | {"rhs_eq1": 10**400}], "dense": []},
        # a theta that is not a finite number, or a j that is not the row's
        # int index in its list, in a sweep row or in a dense row
        *({"rows": [GOOD_ROW | bad], "dense": [GOOD_ROW]} for bad in _BAD_J_THETA),
        *({"rows": [GOOD_ROW], "dense": [GOOD_ROW | bad]} for bad in _BAD_J_THETA),
        {"rows": [NO_J], "dense": [GOOD_ROW]}, {"rows": [GOOD_ROW], "dense": [NO_J]},
        {"rows": [GOOD_ROW, GOOD_ROW], "dense": []}, {"rows": [GOOD_ROW], "dense": [GOOD_ROW, GOOD_ROW]},
    ])
    def test_verify_rejects_malformed_dataset(self, tmp_path, payload):
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload))
        assert verify_dataset(bad) == 2

    @pytest.mark.parametrize("column", ["lhs_prod", "lhs_sum", "rhs_eq1", "sampled_var_lx",
                                        "sigma_rhs_eq4", "dense.lhs_sum", "dense.rhs_eq7"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_verify_flags_non_finite_value(self, emitted, tmp_path, column, value):
        """``dense.<column>`` sets the value in a dense row."""
        out, _ = emitted
        payload = json.loads((out / "sweep.json").read_text())
        kind, _, column = column.rpartition(".")
        payload[kind or "rows"][2][column] = value
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


def _reference_load_rows(path):
    """The row-by-row loader that sweep._load_rows replaced, kept as its
    reference: the sweep rows followed by the dense rows, or None when the
    dataset is missing or malformed."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        rows, dense = payload["rows"], payload["dense"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not isinstance(rows, list) or not rows or not isinstance(dense, list):
        return None
    index = list(range(len(rows))) + list(range(len(dense)))
    rows = rows + dense
    for i, row in zip(index, rows):
        if not isinstance(row, dict) or row.get("lhs_prod") is None or row.get("lhs_sum") is None:
            return None
        j, theta = row.get("j"), row.get("theta")
        if type(j) is not int or j != i:
            return None
        if type(theta) not in (int, float) or not math.isfinite(theta):
            return None
        for col in DATA_COLUMNS:
            v = row.get(col)
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                return None
            if col.startswith("sigma_") and v is not None and v < 0:
                return None
    return rows


def _slacks(values):
    """(slack, tolerance) of every relation column in ``values`` that has
    an rhs: the row-by-row form that build_report's slack table replaced,
    kept as a reference."""
    return [
        (values[lhs] - values[rhs] if direction == "lower" else values[rhs] - values[lhs],
         _slack_tol(values[lhs], values[rhs], FLOOR[lhs]))
        for _, lhs, rhs, direction in RELATION_COLUMNS
        if values.get(rhs) is not None
    ]


def _status(direction, lhs, rhs, floor):
    """undefined, violated, tight or satisfied, to the relation's tolerance:
    the per-relation form that build_report's status table replaced, kept
    as a reference."""
    if rhs is None:
        return "undefined"
    margin = lhs - rhs if direction == "lower" else rhs - lhs
    tol = _slack_tol(lhs, rhs, floor)
    if margin < -tol:
        return "violated"
    return "tight" if abs(margin) <= tol else "satisfied"


def _reference_verify(path, z_limit=sweep.DEFAULT_Z_LIMIT):
    """The row-by-row verify_dataset that the whole-table checks replaced,
    kept as their reference, with the zero-sigma rule.  A column fails on
    its z-score |v - ideal| / sigma, the form the report records."""
    rows = _reference_load_rows(path)
    if rows is None:
        return 2
    for row in rows:
        if any(row.get(col) is not None and not math.isfinite(row[col]) for col in DATA_COLUMNS):
            return 1
        if any(s < -tol for s, tol in _slacks(row)):
            return 1
        for col in VALUE_COLUMNS:
            v, s = row.get(f"sampled_{col}"), row.get(f"sigma_{col}")
            ideal = row.get(col)
            if v is None or s is None or ideal is None:
                continue
            if s > 0 and abs(v - ideal) / s > z_limit:
                return 1
            if s == 0 and abs(v - ideal) > _slack_tol(v, ideal, FLOOR["lhs_sum"]):
                return 1
    return 0


@pytest.fixture(scope="module")
def dense_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dense20")
    cfg = SweepConfig(counts=4000, dense=20, out_dir=str(out))
    table, report, dense = run_sweep(cfg)
    emit(table, report, cfg, dense)
    return out, json.loads((out / "sweep.json").read_text())


CORRUPTIONS = (
    "nan", "inf", "bool", "string", "list", "negative_sigma", "null_lhs", "slack", "z", "zero_sigma",
)


@st.composite
def _corruptions(draw, payload, hows=CORRUPTIONS):
    """(kind, row index, {column: value}) that corrupts one cell of a sweep
    or dense row, or two cells for a sampled value and its sigma, in one of
    the ways ``hows``."""
    kind = draw(st.sampled_from(["rows", "dense"]))
    i = draw(st.integers(0, len(payload[kind]) - 1))
    row = payload[kind][i]
    how = draw(st.sampled_from(hows))
    col = draw(st.sampled_from(("j", "theta") + DATA_COLUMNS))
    value = draw(st.sampled_from(VALUE_COLUMNS))
    ideal = row[value] if row[value] is not None else 0.5
    if how == "nan":
        return kind, i, {col: math.nan}
    if how == "inf":
        return kind, i, {col: draw(st.sampled_from([math.inf, -math.inf]))}
    if how == "bool":
        return kind, i, {col: draw(st.booleans())}
    if how == "string":
        return kind, i, {col: "0.5"}
    if how == "list":
        return kind, i, {col: [0.5]}
    if how == "negative_sigma":
        return kind, i, {f"sigma_{value}": -draw(st.floats(1e-300, 1.0))}
    if how == "null_lhs":
        return kind, i, {draw(st.sampled_from(["lhs_prod", "lhs_sum"])): None}
    if how == "slack":
        _, lhs, rhs, direction = draw(st.sampled_from(RELATION_COLUMNS))
        # within a few tolerances (1e-9 relative to the larger side) of the edge
        step = draw(st.floats(-3e-9, 3e-9)) * (1 if direction == "lower" else -1)
        return kind, i, {rhs: row[lhs] + step * max(1.0, abs(row[lhs]))}
    sigma = row.get(f"sigma_{value}") or draw(st.floats(1e-6, 1e-2))
    if how == "z":
        z = draw(st.floats(4.9, 5.1)) * draw(st.sampled_from([-1.0, 1.0]))
        return kind, i, {f"sampled_{value}": ideal + z * sigma,
                         f"sigma_{value}": sigma}
    return kind, i, {f"sampled_{value}": ideal + draw(st.floats(-3e-9, 3e-9)) * max(1.0, abs(ideal)),
                     f"sigma_{value}": 0.0}


class TestVerifyMatchesReference:
    """The whole-table verify_dataset returns the row-by-row reference's
    exit status on a dense dataset with one corrupted cell."""

    def test_untouched_dataset(self, dense_dataset):
        out, _ = dense_dataset
        assert verify_dataset(out / "sweep.json") == _reference_verify(out / "sweep.json") == 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_corrupted_cell(self, dense_dataset, data):
        out, payload = dense_dataset
        kind, i, cells = data.draw(_corruptions(payload))
        corrupted = json.loads(json.dumps(payload))
        corrupted[kind][i].update(cells)
        path = out / "corrupted.json"
        path.write_text(json.dumps(corrupted))
        assert verify_dataset(path) == _reference_verify(path), (kind, i, cells)


@pytest.fixture(scope="module")
def dense_tables(tmp_path_factory):
    cfg = SweepConfig(counts=4000, dense=20, out_dir=str(tmp_path_factory.mktemp("agreement")))
    table, _, dense = run_sweep(cfg)
    tables = {"rows": table, "dense": dense}
    return cfg, tables, {kind: sweep._records(t) for kind, t in tables.items()}


class TestReportMatchesVerify:
    """build_report's verdict on in-memory tables is verify's verdict on the
    dataset that emit writes from them."""

    def test_violated_optimized_column_fails_both(self, monkeypatch, tmp_path):
        """rhs_eq2_opt 0.5 above lhs_prod, its sampled value moved by the
        same amount so that its z-score is unchanged: the report and verify
        both fail, and the worst slack reads the optimized column."""
        monkeypatch.setattr(sweep, "OPTIMIZER", OptimizerConfig(restarts=2, max_iters=15))
        cfg = SweepConfig(thetas=(0.4,), counts=4000, optimize_basis=True, out_dir=str(tmp_path))
        table, report, dense = run_sweep(cfg)
        assert report.ok and report.worst_slack > -1e-9
        row = table[0]
        shift = row[_col("lhs_prod")] + 0.5 - row[_col("rhs_eq2_opt")]
        row[_col("rhs_eq2_opt")] += shift
        row[_col("sampled_rhs_eq2_opt")] += shift
        report = build_report(table, dense)
        assert report.z_scores[0]["rhs_eq2_opt"] == pytest.approx(
            (row[_col("sampled_rhs_eq2_opt")] - row[_col("rhs_eq2_opt")]) / row[_col("sigma_rhs_eq2_opt")]
        )
        assert report.worst_slack == pytest.approx(-0.5)
        assert "violated" not in report.statuses[0].values()
        assert not report.ok
        emit(table, report, cfg, dense)
        assert verify_dataset(tmp_path / "sweep.json") == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_corrupted_cell(self, dense_tables, data):
        """A finite corruption, as _corruptions makes it, of one cell or of
        a sampled value and its sigma, in a sweep or a dense row."""
        cfg, tables, records = dense_tables
        kind, i, cells = data.draw(_corruptions(records, ("slack", "z", "zero_sigma")))
        table, dense = (tables[k].copy() for k in ("rows", "dense"))
        target = table if kind == "rows" else dense
        for col, value in cells.items():
            target[i, _col(col)] = value
        report = build_report(table, dense)
        emit(table, report, cfg, dense)
        assert report.ok == (verify_dataset(Path(cfg.out_dir) / "sweep.json") == 0), (kind, i, cells)


COL = {c: i for i, c in enumerate(VALUE_COLUMNS)}


def _row_dict(row):
    """{column: value} of a VALUE_COLUMNS row, without its NaN columns."""
    return {c: v for c, v in _cells(VALUE_COLUMNS, row).items() if v is not None}


class TestPropagateSigmas:
    def test_sigma_of_a_mean_is_poisson(self):
        """For m = sum n_k l_k / N the first-order Poisson error is
        sqrt(var / N); a zero count contributes nothing."""
        counts, values = np.array([300.0, 0.0, 700.0]), np.array([-1.0, 1.0, 0.0])
        base, sig = sweep._propagate_sigmas(counts, lambda c: (c @ values / c.sum(axis=-1))[:, None])
        assert base.shape == sig.shape == (1,)
        var = counts @ (values - base[0]) ** 2 / counts.sum()
        assert sig[0] == pytest.approx(np.sqrt(var / counts.sum()), rel=1e-5)

    def test_undefined_side_adds_nothing(self):
        """A count whose -1 vector leaves a column undefined adds nothing to
        that column's error bar; a column undefined at the base gets none."""
        counts, values = np.array([300.0, 0.0, 700.0]), np.array([-1.0, 1.0, 0.0])

        def fn(c):
            m = c @ values / c.sum(axis=-1)
            never = np.full(m.shape, np.nan)
            return np.stack([m, np.where(c[..., 0] < 300, np.nan, m), never], axis=-1)

        base, sig = sweep._propagate_sigmas(counts, fn)
        np.testing.assert_array_equal(base, [base[0], base[0], np.nan])
        assert np.isnan(sig[2]) and np.isfinite(sig[:2]).all()
        m = lambda c: c @ values / c.sum()
        deriv = (m(counts + [0, 0, 1]) - m(counts - [0, 0, 1])) / 2
        assert sig[1] == pytest.approx(np.sqrt(700 * deriv**2), rel=1e-12)
        assert sig[0] > sig[1]

    def test_empty_setting_leaves_its_columns_undefined(self):
        """A setting with no counts makes undefined exactly the columns that
        read it: NaN on one vector and on a batch alike."""
        counts = np.array([3, 2, 1, 2, 2, 2, 0, 0, 0, 2, 1, 3])
        one = sweep._sampled_columns(counts, LX, LY)
        assert one.shape == (len(VALUE_COLUMNS),)
        reads_lz = {"mean_lz", "rhs_eq1", "rhs_eq2_canon", "rhs_eq5_canon"}
        unbased = {"rhs_eq2_opt", "rhs_eq5_opt"}
        assert set(VALUE_COLUMNS) - set(_row_dict(one)) == reads_lz | unbased
        assert all(np.isfinite(v) for v in _row_dict(one).values())
        batch = sweep._sampled_columns(np.vstack([counts, counts]), LX, LY)
        assert batch.shape == (2, len(VALUE_COLUMNS))
        for col in VALUE_COLUMNS:
            assert np.all(np.isnan(batch[:, COL[col]])) == (col in reads_lz | unbased), col

    def test_lone_count_still_gets_a_sigma(self):
        """The -1 vector of a lone Lz count empties that setting; it adds
        nothing to the error bars instead of failing the run."""
        counts = np.array([3, 2, 1, 2, 2, 2, 0, 1, 0, 2, 1, 3])
        fn = lambda c: sweep._sampled_columns(c, LX, LY)
        base, sig = sweep._propagate_sigmas(counts, fn)
        i = COL["lhs_sum"]
        assert base[i] == pytest.approx(fn(counts)[i], rel=1e-15)
        assert np.isfinite(sig[i]) and sig[i] > 0


# the settings each sampled column reads: an empty one leaves it undefined.
# A basis column reads Lz for the plug-in magnitudes and Lx for their
# relative sign
_READS = {
    "mean_lx": "x", "mean_ly": "y", "mean_lz": "z", "mean_lp": "p",
    "var_lx": "x", "var_ly": "y", "lhs_prod": "xy", "lhs_sum": "xy",
    "rhs_eq1": "xyzp", "rhs_eq3": "xy", "rhs_eq4": "xyp", "rhs_eq6": "xy", "rhs_eq7": "xyp",
    "rhs_eq2_canon": "xz", "rhs_eq5_canon": "xz",
}


def _eq7_undefined(counts):
    """eq7's own undefined rule on the sampled variances, from the counts
    of non-empty Lx, Ly and Lp settings."""
    px, py, pp = (block / block.sum() for block in counts.reshape(4, 3)[[0, 1, 3]].astype(float))
    vx, vy, vp = LX.eigenvalues, LY.eigenvalues, np.array(sweep.SPIN1_EIGENVALUE_ORDER)
    mx, my, mp = px @ vx, py @ vy, pp @ vp
    var_x, var_y = px @ vx**2 - mx**2, py @ vy**2 - my**2
    var_amb = px @ vx**2 + py @ vy**2 - mp - (mx - my) ** 2
    min_x, min_y = _degenerate_std(LX), _degenerate_std(LY)
    return bool(np.isnan(rhs_eq7(var_x, var_y, var_amb, min_x, min_y)[0]))


class TestTableForm:
    """_sampled_columns gives one float table, in VALUE_COLUMNS order, for
    one count vector and for a batch alike."""

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(
            st.lists(st.integers(0, 50), min_size=3, max_size=3).map(
                lambda setting: setting if setting[0] % 4 else [0, 0, 0]  # empty settings often
            ),
            min_size=4, max_size=4,
        ).map(lambda blocks: np.array(blocks).ravel()),
        others=st.lists(st.lists(st.integers(0, 50), min_size=12, max_size=12), max_size=4),
        at=st.integers(0, 4),
    )
    def test_one_vector_is_its_batch_row(self, counts, others, at):
        """One vector's row equals its row in a batch bit for bit; NaN lies
        exactly in the columns that read an empty setting, the unbased
        optimized columns and eq7 where its own rule leaves it undefined."""
        one = sweep._sampled_columns(counts, LX, LY)
        batch = np.array(others, dtype=int).reshape(-1, 12)
        at = min(at, len(batch))
        table = sweep._sampled_columns(np.insert(batch, at, counts, axis=0), LX, LY)
        assert one.shape == (len(VALUE_COLUMNS),) and table.shape == (len(batch) + 1, len(VALUE_COLUMNS))
        assert np.array_equal(one.view(np.uint64), table[at].view(np.uint64))

        empty = {s for s, block in zip("xyzp", counts.reshape(4, 3)) if not block.any()}
        expected = {c for c, reads in _READS.items() if empty & set(reads)}
        expected |= {"rhs_eq2_opt", "rhs_eq5_opt"}
        if not empty & set("xyp") and _eq7_undefined(counts):
            expected.add("rhs_eq7")
        assert {c for c in VALUE_COLUMNS if np.isnan(one[COL[c]])} == expected, empty

    def test_empty_lx_leaves_basis_columns_undefined(self):
        """The plug-in state takes its relative sign from <Lx>, which a
        basis other than the computational one reads: with no Lx counts
        the basis columns are undefined."""
        adjoints = np.array([haar_basis(3, 1).matrix.conj().T] * 2)
        ly_lz_lp = [2, 2, 2, 1, 3, 2, 2, 1, 3]
        based = [COL["rhs_eq2_opt"], COL["rhs_eq5_opt"]]
        empty = sweep._sampled_columns([0, 0, 0] + ly_lz_lp, LX, LY, adjoints)
        assert np.isnan(empty[based]).all()
        # <Lx> < 0 and > 0: the two signs give two values in this basis
        neg, pos = (sweep._sampled_columns(lx + ly_lz_lp, LX, LY, adjoints)[based]
                    for lx in ([3, 1, 2], [1, 3, 2]))
        assert np.isfinite([neg, pos]).all() and (abs(neg - pos) > 1e-3).all()


def _reference_sampled_columns(counts, lx, ly, opt_adjoints=None):
    """_sampled_columns before its array passes were merged, kept as its
    bit-for-bit reference: Lx and Ly centred by two ``_centre`` calls, the
    plug-in state normalized by ``np.linalg.norm``, its sign set through
    ``np.where``."""
    n = np.asarray(counts, dtype=float).reshape(-1, 4, 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = n / n.sum(axis=-1, keepdims=True)
    a_vals, b_vals = lx.eigenvalues, ly.eigenvalues
    values = np.array([a_vals, b_vals, hermitian.SPIN1_EIGENVALUE_ORDER,
                       hermitian.SPIN1_EIGENVALUE_ORDER])
    mx, my, mz, mp = np.vecdot(probs, values).T
    mx2, my2 = np.vecdot(probs[:, :2], values[:2] ** 2).T
    fid = {"a_shifted": a_vals - mx[:, None], "b_shifted": b_vals - my[:, None],
           "fid_a": probs[:, 0], "fid_b": probs[:, 1]}
    cols = relation_sides(mx2 - mx**2, my2 - my**2, 0.5 * mp - mx * my, abs(mz),
                          mx2 + my2 + mp - (mx + my) ** 2, mx2 + my2 - mp - (mx - my) ** 2,
                          fid, lx, ly)
    cols.update(mean_a=mx, mean_b=my, mean_lz=mz, mean_lp=mp)
    amp = np.sqrt(probs[:, 2][..., [1, 2, 0]])
    amp[..., 1] = np.where(np.isnan(mx), np.nan, np.copysign(amp[..., 1], mx))
    psi = amp / np.linalg.norm(amp, axis=-1, keepdims=True)
    w = np.stack([hermitian._centre(psi, lx), hermitian._centre(psi, ly)])
    cols["eq2"], cols["eq5"] = rhs_eq2(*w), rhs_eq5(*w)
    if opt_adjoints is not None:
        p = np.matvec(opt_adjoints[:, None, None], w)
        cols["rhs_eq2_opt"], cols["rhs_eq5_opt"] = rhs_eq2(*p[0]), rhs_eq5(*p[1])
    return sweep._value_table(cols).reshape(*np.shape(counts)[:-1], len(VALUE_COLUMNS))


def _reference_propagate_sigmas(counts_flat, column_fn):
    """_propagate_sigmas before its array passes were merged, kept as its
    bit-for-bit reference: the +-1 stack by ``+=`` and ``-=``, the error bar
    by ``np.nansum`` and its NaN by ``np.where``."""
    n = np.asarray(counts_flat, dtype=float)
    nz = np.flatnonzero(n)
    k = np.arange(nz.size)
    stack = np.empty((2 * nz.size + 1, n.size))
    stack[:] = n
    stack[1 + k, nz] += 1.0
    stack[1 + nz.size + k, nz] -= 1.0
    v = np.ascontiguousarray(column_fn(stack).T)
    deriv = (v[:, 1 : nz.size + 1] - v[:, nz.size + 1 :]) / 2.0
    sig = np.sqrt(np.nansum(n[nz] * deriv**2, axis=-1))
    return v[:, 0], np.where(np.isnan(v[:, 0]), np.nan, sig)


def _same_bits(x, y):
    """NaN in the same cells, and the same bits, the sign of zero included,
    in every other cell."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and np.array_equal(
        x[~nan].view(np.uint64), y[~nan].view(np.uint64))


# one setting's three counts: often empty, often tiny, sometimes large
_SETTING = st.one_of(
    st.just([0, 0, 0]),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
)


class TestSampledReference:
    """_sampled_columns and _propagate_sigmas equal their references above
    bit for bit, NaN included, on count vectors with zero counts, empty
    settings (an empty Lx setting makes <Lx> NaN), with and without the
    optimized-basis adjoints."""

    @settings(max_examples=150, deadline=None)
    @given(
        vectors=st.lists(st.lists(_SETTING, min_size=4, max_size=4), min_size=1, max_size=4),
        bases=st.none() | st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    )
    def test_equals_reference(self, vectors, bases):
        counts = np.array(vectors).reshape(-1, 12)
        adjoints = None if bases is None else np.array(
            [haar_basis(3, seed).matrix.conj().T for seed in bases])
        table = sweep._sampled_columns(counts, LX, LY, adjoints)
        assert _same_bits(table, _reference_sampled_columns(counts, LX, LY, adjoints))
        for row in counts:
            got = sweep._propagate_sigmas(row, lambda c: sweep._sampled_columns(c, LX, LY, adjoints))
            want = _reference_propagate_sigmas(
                row, lambda c: _reference_sampled_columns(c, LX, LY, adjoints))
            assert all(map(_same_bits, got, want)), row

    def test_state_estimate_equals_reference(self):
        """One vector and a batch; a NaN <Lx> of either sign bit and a zero
        of either sign."""
        rng = np.random.default_rng(26)
        lz_probs = rng.dirichlet(np.ones(3), size=6)
        mean_lx = np.array([np.nan, -np.nan, 0.0, -0.0, 0.3, -0.3])
        amp = np.sqrt(lz_probs[..., [1, 2, 0]])
        amp[..., 1] = np.where(np.isnan(mean_lx), np.nan, np.copysign(amp[..., 1], mean_lx))
        want = amp / np.linalg.norm(amp, axis=-1, keepdims=True)
        assert _same_bits(sweep._state_estimate(lz_probs, mean_lx), want)
        for i in range(6):
            assert _same_bits(sweep._state_estimate(lz_probs[i], float(mean_lx[i])), want[i]), i


def _loop_propagate_sigmas(counts_flat, column_fn):
    """The per-perturbation loop that _propagate_sigmas replaced, kept as
    its reference: one column_fn call per +-1 count vector."""
    base = column_fn(counts_flat)
    var = np.where(np.isnan(base), np.nan, 0.0)
    n = np.asarray(counts_flat, dtype=float)
    for k in np.flatnonzero(n):
        hi, lo = n.copy(), n.copy()
        hi[k] += 1.0
        lo[k] -= 1.0
        up, dn = column_fn(hi), column_fn(lo)
        for i in np.flatnonzero(~np.isnan(var)):
            if np.isnan(up[i]) or np.isnan(dn[i]):
                continue
            deriv = (up[i] - dn[i]) / 2.0
            var[i] += n[k] * deriv**2
    return base, np.sqrt(var)


class TestBatchedSigmas:
    def test_matches_per_perturbation_loop(self):
        """20 seeds at the 11 sweep points, including theta = pi/2, where
        the 0-outcome ports of Lx and Ly are dark and count zero."""
        thetas = theta_grid(11)
        probs = _sweep_probabilities(thetas)
        fn = lambda c: sweep._sampled_columns(c, LX, LY)
        dark = 0
        for seed in range(20):
            for theta, row_counts in zip(thetas, sample_counts(probs, 10_000, seed)):
                counts = row_counts.ravel()
                dark += np.count_nonzero(counts == 0)
                base, sig = sweep._propagate_sigmas(counts, fn)
                ref_base, ref_sig = _loop_propagate_sigmas(counts, fn)
                assert base.shape == sig.shape == ref_base.shape == (len(VALUE_COLUMNS),)
                assert np.array_equal(np.isnan(base), np.isnan(ref_base)), (theta, seed)
                assert np.array_equal(np.isnan(sig), np.isnan(ref_sig)), (theta, seed)
                assert np.array_equal(np.isnan(sig), np.isnan(base)), (theta, seed)
                for col, i in COL.items():
                    if not np.isnan(ref_base[i]):
                        assert base[i] == pytest.approx(ref_base[i], rel=1e-15, abs=0), (theta, seed, col)
                        assert sig[i] == pytest.approx(ref_sig[i], rel=1e-10, abs=0), (theta, seed, col)
        assert dark > 0


def _sweep_probabilities(thetas):
    """(rows, 4, 3) setting probabilities of the family states at ``thetas``."""
    settings, amps = builtin_settings(), prepare_amplitudes(thetas)
    return np.stack([projection_probabilities(amps, settings[n]) for n in sweep.SETTING_NAMES], -2)


def _trial_counts(cfg):
    """The (rows, trials, 4, 3) counts of a sweep, drawn as run_sweep draws them."""
    shape = (len(cfg.thetas), cfg.trials, 4, 3)
    probs = np.broadcast_to(_sweep_probabilities(cfg.thetas)[:, None], shape)
    return sample_counts(probs, cfg.counts, cfg.seed)


def _dict_trial_means(trials):
    """The per-trial dict accumulation that run_sweep's (columns, trials)
    tables replaced, kept as their reference: ``trials`` holds each trial's
    (value, sigma) rows; returns the {column: mean} and {column: error bar
    of the mean} dicts over the trials that define a column."""
    sampled_acc, sigma_acc = {}, {}
    for base, sig in trials:
        vals, sigs = _row_dict(base), _row_dict(sig)
        for col, v in vals.items():
            sampled_acc.setdefault(col, []).append(v)
            sigma_acc.setdefault(col, []).append(sigs[col])
    sampled = {c: float(np.mean(v)) for c, v in sampled_acc.items()}
    sigma = {c: float(np.sqrt(np.mean(np.square(s)) / len(s))) for c, s in sigma_acc.items()}
    return sampled, sigma


def _plug_in_vectors(counts):
    """Abar psi and Bbar psi of one count vector's plug-in state, written
    out here: magnitudes from the Lz counts (outcomes -1, 1, 0 are the basis
    states e3, e1, e2), the relative sign from the sampled <Lx>."""
    n = np.asarray(counts, dtype=float).reshape(4, 3)
    amp = np.sqrt(n[2, [1, 2, 0]] / n[2].sum())
    amp[1] = np.copysign(amp[1], n[0] @ LX.eigenvalues)
    psi = amp / np.linalg.norm(amp)
    return [o.matrix @ psi - (psi.conj() @ o.matrix @ psi).real * psi for o in (LX, LY)]


def _eq2(pa, pb):
    """eq2 of projections pa, pb onto a basis, written out here."""
    return np.sum(np.abs(pa) * np.abs(pb)) ** 2


def _eq5(pa, pb):
    """eq5 of projections pa, pb onto a basis, written out here."""
    return 0.5 * np.sum((np.abs(pa) + np.abs(pb)) ** 2)


def _searched(states, cfg):
    """The optimized-basis columns {column: value per state} of one basis
    search per objective, and each state's (2, 3, 3) stack of the adjoints
    of its eq2 and eq5 bases, in that order."""
    found = {rid: optimize_bound(rid, states, LX, LY, cfg) for rid in ("eq2", "eq5")}
    opt = {f"rhs_{rid}_opt": values for rid, (_, values, _) in found.items()}
    adjoints = np.array([[b.matrix.conj().T for b in bases] for bases, _, _ in found.values()])
    return opt, adjoints.swapaxes(0, 1)


class TestAdjointStack:
    """The optimized-basis columns project the centred plug-in vectors
    onto a (2, 3, 3) stack: eq2's basis adjoint, then eq5's."""

    COUNTS = sample_counts(_sweep_probabilities(theta_grid(11)), 10_000, 3).reshape(-1, 12)

    def test_identity_pair_gives_the_canon_bits(self):
        plain = sweep._sampled_columns(self.COUNTS, LX, LY)
        table = sweep._sampled_columns(self.COUNTS, LX, LY, np.array([np.eye(3)] * 2, dtype=complex))
        for rid in ("eq2", "eq5"):
            opt, canon = table[:, COL[f"rhs_{rid}_opt"]], table[:, COL[f"rhs_{rid}_canon"]]
            assert opt.tobytes() == canon.tobytes(), rid
        # the stack adds the two columns and leaves every other one alone
        opt_cols = [COL["rhs_eq2_opt"], COL["rhs_eq5_opt"]]
        assert np.isnan(plain[:, opt_cols]).all() and not np.isnan(table[:, opt_cols]).any()
        assert np.delete(table, opt_cols, 1).tobytes() == np.delete(plain, opt_cols, 1).tobytes()

    def test_each_column_projects_in_its_own_basis(self):
        b2, b5 = (haar_basis(3, seed).matrix.conj().T for seed in (11, 12))
        table = sweep._sampled_columns(self.COUNTS, LX, LY, np.array([b2, b5]))
        uv = [_plug_in_vectors(counts) for counts in self.COUNTS]
        for col, rhs, bh, other in (("rhs_eq2_opt", _eq2, b2, b5), ("rhs_eq5_opt", _eq5, b5, b2)):
            own = np.array([rhs(bh @ u, bh @ v) for u, v in uv])
            np.testing.assert_allclose(table[:, COL[col]], own, rtol=1e-12, atol=0, err_msg=col)
            # the other basis gives other values on most rows, so a swap shows
            swapped = np.array([rhs(other @ u, other @ v) for u, v in uv])
            assert np.count_nonzero(abs(swapped - own) > 1e-6) >= 8, col


class TestTrials:
    def test_trials_keep_their_draws(self):
        """Trial t of row j reads counts[j, t] of one (rows, trials, 4, 3)
        draw seeded by the config seed; the row reports the mean over trials
        and the error bar of that mean."""
        cfg = SweepConfig(seed=4, trials=3)
        table, _, _ = run_sweep(cfg)
        counts = _trial_counts(cfg)
        fn = lambda c: sweep._sampled_columns(c, LX, LY)
        for j, row in enumerate(table):
            _, row_sampled, row_sigma = _split(row)
            trials = [sweep._propagate_sigmas(counts[j, t].ravel(), fn) for t in range(3)]
            defined = [~np.isnan(base) for base, _ in trials]
            cols = {col for d in defined for col, i in COL.items() if d[i]}
            assert set(row_sampled) == set(row_sigma) == cols
            for col in cols:
                i = COL[col]
                vals = [base[i] for base, _ in trials if not np.isnan(base[i])]
                sigs = np.array([sig[i] for _, sig in trials if not np.isnan(sig[i])])
                assert row_sampled[col] == pytest.approx(np.mean(vals), rel=1e-15, abs=0), (j, col)
                assert row_sigma[col] == pytest.approx(
                    np.sqrt(np.mean(sigs**2) / sigs.size), rel=1e-15, abs=0
                ), (j, col)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_column_undefined_in_some_trials(self, seed):
        """At one count per setting whole settings count zero in some
        trials; a column is averaged over the trials that define it, as the
        per-trial dict accumulation did."""
        cfg = SweepConfig(counts=1, trials=6, seed=seed)
        table, _, _ = run_sweep(cfg)
        counts = _trial_counts(cfg)
        fn = lambda c: sweep._sampled_columns(c, LX, LY)
        partial = 0
        for j, row in enumerate(table):
            _, row_sampled, row_sigma = _split(row)
            trials = [sweep._propagate_sigmas(counts[j, t].ravel(), fn) for t in range(cfg.trials)]
            defined = np.array([~np.isnan(base) for base, _ in trials]).sum(axis=0)
            partial += np.count_nonzero((defined > 0) & (defined < cfg.trials))
            sampled, sigma = _dict_trial_means(trials)
            assert row_sampled.keys() == sampled.keys() and row_sigma.keys() == sigma.keys()
            for col, ref in sampled.items():
                assert row_sampled[col] == pytest.approx(ref, rel=1e-15, abs=0), (j, col)
                assert row_sigma[col] == pytest.approx(sigma[col], rel=1e-12, abs=0), (j, col)
        assert partial > 0

    def test_optimized_columns_are_trial_means_in_each_rows_bases(self, monkeypatch):
        """With optimize_basis and three trials, each row's sampled eq2 and
        eq5 optimized cells are the mean over its trials of the bound in
        that row's own searched eq2 and eq5 bases."""
        monkeypatch.setattr(sweep, "OPTIMIZER", OptimizerConfig(restarts=2, max_iters=15))
        cfg = SweepConfig(optimize_basis=True, trials=3)
        table, _, _ = run_sweep(cfg)
        counts = _trial_counts(cfg)
        _, adjoints = _searched([prepare_state(t) for t in cfg.thetas], sweep.OPTIMIZER)
        for j, row in enumerate(table):
            _, row_sampled, _ = _split(row)
            uv = [_plug_in_vectors(counts[j, t]) for t in range(cfg.trials)]
            for col, rhs, bh in zip(("rhs_eq2_opt", "rhs_eq5_opt"), (_eq2, _eq5), adjoints[j]):
                mean = np.mean([rhs(bh @ u, bh @ v) for u, v in uv])
                assert row_sampled[col] == pytest.approx(mean, rel=1e-12, abs=0), (j, col)

    @pytest.mark.parametrize("trials", [1, 4])
    def test_probabilities_once_per_setting_and_row(self, monkeypatch, trials):
        """One projection_probabilities call per setting, over all rows,
        whatever the number of rows or trials."""
        calls = []

        def counted(psi, setting):
            calls.append(np.shape(psi))
            return projection_probabilities(psi, setting)

        monkeypatch.setattr(sweep, "projection_probabilities", counted)
        for steps in (3, 11):
            calls.clear()
            run_sweep(SweepConfig(thetas=theta_grid(steps), trials=trials))
            assert calls == [(steps, 3)] * 4

    def test_one_generator_one_draw(self, monkeypatch):
        """A run makes one generator, seeded by the config seed, and draws
        all its counts in one poisson call."""
        calls, make_rng = [], np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def poisson(self, lam):
                calls.append(("poisson", np.shape(lam)))
                return self.rng.poisson(lam)

        def default_rng(seed):
            calls.append(("default_rng", seed))
            return Counted(seed)

        monkeypatch.setattr(photonics.np.random, "default_rng", default_rng)
        run_sweep(SweepConfig(thetas=theta_grid(5), seed=12, trials=3))
        assert calls == [("default_rng", 12), ("poisson", (5, 3, 4, 3))]


class TestStatus:
    def test_tolerance_is_relative(self):
        """A = B makes eq1-eq6 tight at any scale; eq7 is undefined.  The
        report's statuses of a table row holding the relations' sides equal
        the per-relation reference."""
        a = make_observable(1e5 * np.diag([1.0, 2.0, -3.0]))
        rep = evaluate_all(haar_random_state(3, np.random.default_rng(1)), a, a)
        lhs_column = {rid: lhs for rid, lhs, _, _ in RELATION_COLUMNS}
        statuses = {rid: _status(r.direction, r.lhs, r.rhs, FLOOR[lhs_column[rid]])
                    for rid, r in rep.results.items()}
        assert statuses == dict.fromkeys(("eq1", "eq2", "eq3", "eq4", "eq5", "eq6"), "tight") | {
            "eq7": "undefined"
        }
        row = np.full(len(DATA_COLUMNS), np.nan)
        for rid, lhs, rhs, _ in RELATION_COLUMNS:
            if not rhs.endswith("_opt"):
                r = rep.results[rid]
                row[DATA_COLUMNS.index(lhs)] = r.lhs
                row[DATA_COLUMNS.index(rhs)] = np.nan if r.rhs is None else r.rhs
        assert build_report(row[None]).statuses == [statuses]


class TestRelationColumns:
    def test_columns_map_onto_relations(self):
        """Every checked column's relation, and the kernel output behind
        each ideal column, as written out here."""
        assert sweep.RELATIONS == {rhs: rid for rid, _, rhs, _ in RELATION_COLUMNS}
        assert sweep.KERNEL_KEYS == dict(zip(VALUE_COLUMNS, (
            "mean_a", "mean_b", "mean_lz", "mean_lp", "var_a", "var_b", "lhs_prod", "eq1", "eq2",
            None, "eq3", "lhs_sum", "eq4", "eq5", None, "eq6", "eq7")))

    @pytest.mark.parametrize("scale_a, scale_b, gap, product_ok", [(3.0, 2.0, 2e-8, True),
                                                                  (0.5, 1.0, 8e-10, False)])
    def test_product_and_sum_floors(self, monkeypatch, scale_a, scale_b, gap, product_ok):
        """The report with a Lx and b Ly in place of Lx and Ly, whose floors
        are both 1: floors (36, 9) and (0.25, 1).  Every relation column,
        the optimized ones included, is planted ``gap`` on the wrong side of
        its lhs; the product floor's tolerance covers that gap and the sum
        floor's does not (the reverse in the second case), so eq1-eq3 read
        tight and eq4-eq7 violated, or the reverse."""
        lx, ly, lz, lp = builtin_spin1()
        a, b = make_observable(scale_a * lx.matrix), make_observable(scale_b * ly.matrix)
        monkeypatch.setattr(sweep, "builtin_spin1", lambda: (a, b, lz, lp))
        fp, fs = _slack_floors(a, b)
        row = np.full(len(DATA_COLUMNS), np.nan)
        sides = {"lhs_prod": 0.5 * fp, "lhs_sum": 0.5 * fs}
        for rid, lhs, rhs, direction in RELATION_COLUMNS:
            row[DATA_COLUMNS.index(lhs)] = sides[lhs]
            row[DATA_COLUMNS.index(rhs)] = sides[lhs] + (gap if direction == "lower" else -gap)
        report = build_report(row[None])
        ok, bad = ("tight", "violated") if product_ok else ("violated", "tight")
        assert report.statuses == [{rid: ok if lhs == "lhs_prod" else bad
                                    for rid, lhs, _, _ in RELATION_COLUMNS}]
        assert not report.ok


class TestCalibration:
    @pytest.mark.parametrize("theta", [0.1 * np.pi, 0.35 * np.pi])
    def test_two_sigma_coverage(self, theta):
        """Error bars are calibrated: ~95% of estimates land within 2 sigma."""
        inside = total = 0
        for seed in range(40):
            cfg = SweepConfig(thetas=(theta,), counts=10_000, seed=seed)
            table, _, _ = run_sweep(cfg)
            ideal_row, sampled, sigma = _split(table[0])
            for col, v in sampled.items():
                ideal, sig = ideal_row[col], sigma[col]
                if ideal is None or sig <= 0:
                    continue
                total += 1
                inside += abs(v - ideal) <= 2 * sig
        assert 0.90 <= inside / total <= 1.00


class TestBuildReport:
    def test_z_limit_enforced(self):
        table, report, _ = run_sweep(SweepConfig(thetas=(0.4,), counts=4000))
        assert report.ok
        table[0, _col("sampled_mean_lx")] = table[0, _col("mean_lx")] + 1.0
        assert not build_report(table).ok

    def test_worst_slack_reads_optimized_columns(self):
        table, report, _ = run_sweep(SweepConfig(thetas=(0.4,), counts=4000))
        assert report.worst_slack > -1e-9
        table[0, _col("rhs_eq2_opt")] = table[0, _col("lhs_prod")] + 0.5
        assert build_report(table).worst_slack == pytest.approx(-0.5)

    def test_zero_sigma_column_checked_against_ideal(self):
        """A column with zero sigma gets no z-score; it fails the report
        when it lies off its ideal value by more than the slack tolerance."""
        table, report, _ = run_sweep(SweepConfig(thetas=(0.4,), counts=4000))
        assert report.ok
        table[0, _col("sigma_mean_lx")] = 0.0
        for offset, ok in ((1e-12, True), (1e-6, False), (-1e-6, False)):
            table[0, _col("sampled_mean_lx")] = table[0, _col("mean_lx")] + offset
            report = build_report(table)
            assert report.ok is ok, offset
            assert "mean_lx" not in report.z_scores[0]

    @pytest.mark.parametrize("seed", [3, 4])
    def test_single_counts_off_ideal_with_zero_sigma(self, tmp_path, seed):
        """At one count per setting these seeds have no |z| above the limit
        and no violated relation; only zero-sigma columns lie off their
        ideal values, and the report and verify both flag them."""
        cfg = SweepConfig(counts=1, seed=seed, out_dir=str(tmp_path))
        table, report, dense = run_sweep(cfg)
        assert all(abs(z) <= sweep.DEFAULT_Z_LIMIT for zs in report.z_scores for z in zs.values())
        assert not any("violated" in statuses.values() for statuses in report.statuses)
        off = [
            (j, col) for j, (ideal, sampled, sigma) in enumerate(map(_split, table))
            for col, v in sampled.items()
            if ideal[col] is not None and sigma[col] == 0
            and abs(v - ideal[col]) > _slack_tol(v, ideal[col], FLOOR["lhs_sum"])
        ]
        assert off and not report.ok
        emit(table, report, cfg, dense)
        assert verify_dataset(tmp_path / "sweep.json") == 1


def _noise_free_counts(state, n):
    settings = builtin_settings()
    return np.concatenate([
        n * projection_probabilities(state.amplitudes, settings[name])
        for name in sweep.SETTING_NAMES
    ])


class TestWrittenOnce:
    """The sampled path feeds counts to the same rhs functions the ideal
    path feeds state quantities to, so at noise-free counts they agree."""

    @pytest.mark.parametrize("optimize", [False, True])
    def test_noise_free_counts_reproduce_ideal_columns(self, monkeypatch, optimize):
        monkeypatch.setattr(sweep, "OPTIMIZER", OptimizerConfig(restarts=2, max_iters=15))
        for theta in theta_grid(11):
            state = prepare_state(theta)
            [ideal] = sweep._ideal_table(state.amplitudes[None], LX, LY, LZ, LP)
            opt, [adjoints] = _searched([state], sweep.OPTIMIZER) if optimize else ({}, [None])
            ideal = _cells(VALUE_COLUMNS, ideal) | {col: v for col, [v] in opt.items()}
            sampled = sweep._sampled_columns(
                _noise_free_counts(state, 10_000), LX, LY, adjoints
            )
            assert sampled.shape == (len(VALUE_COLUMNS),)
            sampled = _cells(VALUE_COLUMNS, sampled)
            for col in VALUE_COLUMNS:
                if ideal[col] is None:
                    assert sampled[col] is None, (theta, col)
                else:
                    assert sampled[col] == pytest.approx(ideal[col], abs=1e-12), (theta, col)
            assert (ideal["rhs_eq2_opt"] is None) == (not optimize)

    def test_haar_state_probabilities_reproduce_kernel_columns(self):
        """On 300 Haar states, complex and with a third amplitude, which the
        real family lacks, the twin's exact port probabilities as counts give
        the kernel's columns to 1e-12 of the larger of |value| and 1, Lx's and
        Ly's max_std.  The basis columns are left out: the plug-in state
        assumes the family.  The moment-fed sides eq1, eq4 and eq7 also
        match their definitions from the matrices' moments."""
        rng = np.random.default_rng(25)
        psi = np.array([haar_random_state(3, rng).amplitudes for _ in range(300)])
        assert np.abs(psi.imag).max() > 0.1 and np.abs(psi[:, 2]).min() > 0
        settings = builtin_settings()
        counts = np.concatenate(
            [projection_probabilities(psi, settings[name]) for name in sweep.SETTING_NAMES], -1)
        ideal = sweep._ideal_table(psi, LX, LY, LZ, LP)
        sampled = sweep._sampled_columns(counts, LX, LY)

        def close(value, reference):
            return (np.abs(value - reference) <= 1e-12 * np.maximum(np.abs(reference), 1.0)).all()

        checked = [i for i, c in enumerate(VALUE_COLUMNS) if not c.endswith(("_canon", "_opt"))]
        assert close(sampled[:, checked], ideal[:, checked])
        assert np.isnan(sampled[:, [COL["rhs_eq2_opt"], COL["rhs_eq5_opt"]]]).all()

        def moment(m):
            return np.einsum("ni,ij,nj->n", psi.conj(), m, psi).real

        x, y = LX.matrix, LY.matrix
        var_x, var_y = moment(x @ x) - moment(x) ** 2, moment(y @ y) - moment(y) ** 2
        cov = 0.5 * moment(x @ y + y @ x) - moment(x) * moment(y)
        var_amb = moment((x - y) @ (x - y)) - moment(x - y) ** 2
        da, db = np.sqrt(var_x), np.sqrt(var_y)
        reference = {
            "rhs_eq1": 0.25 * np.abs(np.einsum("ni,ij,nj->n", psi.conj(), x @ y - y @ x, psi)) ** 2
            + cov**2,
            "rhs_eq4": 0.5 * (moment((x + y) @ (x + y)) - moment(x + y) ** 2),
            "rhs_eq7": 2 * var_amb / (1 - cov / (da * db)) - 2 * da * db,
        }
        for col, ref in reference.items():
            assert close(sampled[:, COL[col]], ref), col

    def test_state_estimate_from_counts_alone(self):
        """Noise-free counts give +-psi(theta) at every sweep point; the
        relative sign comes from the sampled <Lx>, not from theta."""
        for theta in theta_grid(11):
            psi = prepare_state(theta).amplitudes
            probs = _noise_free_counts(prepare_state(theta), 10_000).reshape(4, 3) / 10_000
            est = sweep._state_estimate(probs[2], float(probs[0] @ LX.eigenvalues))
            assert min(np.max(np.abs(est - psi)), np.max(np.abs(est + psi))) < 1e-12, theta


class TestCli:
    @pytest.mark.parametrize("flag", ["--dense", "--trials", "--theta-steps"])
    def test_oversized_run_exits_2(self, flag, tmp_path, capsys):
        """A run whose tables would be far too large prints one config
        error line and exits 2, before anything is allocated or written."""
        assert main(["sweep", flag, str(10**15), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

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

    def test_flag_overrides_config_key(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"theta_steps = 3\ncounts = 2000\nseed = 1\nout_dir = {tmp_path / 'k'}\n")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
        config = json.loads((out / "sweep.json").read_text())["config"]
        assert (config["seed"], config["counts"], len(config["thetas"])) == (7, 2000, 3)
        assert not (tmp_path / "k").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--counts", "ten"), ("--trials", "1.5"), ("--theta-steps", "x"),
    ])
    def test_non_integer_flag_exit_code(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        assert main(["sweep", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        key = flag[2:].replace("-", "_")
        assert err == f"config error: {key} must be an integer, got {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("as_flag", [True, False])
    def test_format_items_stripped(self, tmp_path, capsys, as_flag):
        """Spaces around each item of the format list are dropped, as the
        flag and as the config key; an empty item is still a config error."""
        cfg, out = tmp_path / "cfg", tmp_path / "o"

        def sweep(formats):
            if as_flag:
                return main(["sweep", "--theta-steps", "3", "--counts", "2000",
                             "--format", formats, "--out", str(out)])
            cfg.write_text(f"theta_steps = 3\ncounts = 2000\nformats = {formats}\n"
                           f"out_dir = {out}\n")
            return main(["sweep", "--config", str(cfg)])

        assert sweep("csv,,json") == 2
        assert capsys.readouterr().err == "config error: unknown output format ''\n"
        assert not out.exists()
        assert sweep("csv, json") == 0
        assert (out / "sweep.csv").is_file()
        assert json.loads((out / "sweep.json").read_text())["config"]["formats"] == ["csv", "json"]

    def test_flag_defaults_are_sweep_config_defaults(self, monkeypatch):
        """A bare `varbound sweep` runs SweepConfig's defaults."""
        configs = []

        def stop(config):
            configs.append(config)
            raise ConfigError("stop")

        monkeypatch.setattr(cli, "run_sweep", stop)
        assert main(["sweep"]) == 2
        assert configs == [SweepConfig()]

    def test_unknown_flag_word_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"optimize_basis = ture\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: optimize_basis must be true or false, got 'ture'\n")
        assert not (tmp_path / "o").exists()

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

    def test_counts_beyond_poisson_ceiling_exit_code(self, tmp_path, capsys):
        huge = "10000000000000000000"
        assert main(["sweep", "--counts", huge, "--out", str(tmp_path / "o")]) == 2
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"counts = {huge}\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: counts must be <=") == 2
        assert not (tmp_path / "o").exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        assert main(["sweep", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(f"seed = -1\nout_dir = {tmp_path / 'o'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: seed must be >= 0, got -1") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        """An --out that cannot be made a directory exits 2 with one error
        line and no verdict."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (blocker / "x", blocker):
            assert main(["sweep", "--theta-steps", "3", "--counts", "2000",
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot write: ")
            assert captured.err.count("\n") == 1
            assert "Traceback" not in captured.err
            assert "verdict" not in captured.out

    def test_single_count_runs(self, tmp_path):
        """At one count per setting some settings record nothing; the run
        still finishes, and verify agrees with its verdict."""
        out = tmp_path / "one"
        status = main(["sweep", "--counts", "1", "--seed", "1", "--out", str(out)])
        assert status in (0, 1)
        assert main(["verify", str(out / "sweep.json")]) == status

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
