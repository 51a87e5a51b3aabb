"""Sweep orchestration: evaluate all relations over the prepared state
family, both ideally and through the simulated measurement pipeline, and
emit figure-ready CSV/JSON datasets with a machine-readable verdict.

Every sampled quantity is estimated from the four settings' simulated
counts; derived columns propagate one-standard-deviation Poisson error
bars to first order by one-count central differences through the full
column formula, all perturbed count vectors of a trial in one call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .basis_search import OptimizerConfig, optimize_bound
from .bounds import (
    OrthonormalBasis,
    _slack_tol,
    evaluate_all,
    rhs_eq1,
    rhs_eq2,
    rhs_eq3,
    rhs_eq4,
    rhs_eq5,
    rhs_eq6,
    rhs_eq7,
    slack,
)
from .hermitian import SPIN1_EIGENVALUE_ORDER, _centre, builtin_spin1, family_state, moments
from .photonics import builtin_settings, projection_probabilities, sample_counts


class ConfigError(ValueError):
    """Sweep configuration is unusable."""


VALUE_COLUMNS = (
    "mean_lx", "mean_ly", "mean_lz", "mean_lp",
    "var_lx", "var_ly",
    "lhs_prod", "rhs_eq1", "rhs_eq2_canon", "rhs_eq2_opt", "rhs_eq3",
    "lhs_sum", "rhs_eq4", "rhs_eq5_canon", "rhs_eq5_opt", "rhs_eq6",
    "rhs_eq7",
)

DATA_COLUMNS = (
    VALUE_COLUMNS
    + tuple(f"sampled_{c}" for c in VALUE_COLUMNS)
    + tuple(f"sigma_{c}" for c in VALUE_COLUMNS)
)
CSV_COLUMNS = ("j", "theta") + DATA_COLUMNS

# (relation, lhs column, rhs column, direction) for every checked column;
# the report's slacks and verify_dataset both read this table.
RELATIONS = (
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
BASIS_COLUMNS = ("rhs_eq2_canon", "rhs_eq5_canon", "rhs_eq2_opt", "rhs_eq5_opt")

SETTING_NAMES = ("Lx", "Ly", "Lz", "Lp")
DEFAULT_Z_LIMIT = 5.0
OPTIMIZER = OptimizerConfig(restarts=6, max_iters=400)


def theta_grid(steps):
    """``steps`` evenly spaced angles over [0, pi], j*pi/(steps-1) exactly
    (the dense grid merges sweep angles by float equality)."""
    if steps < 1:
        raise ConfigError(f"theta_steps must be >= 1, got {steps}")
    if steps == 1:
        return (0.0,)
    return tuple(j * np.pi / (steps - 1) for j in range(steps))


@dataclass(frozen=True)
class SweepConfig:
    thetas: tuple = theta_grid(11)
    counts: int = 10_000
    seed: int = 7
    trials: int = 1
    optimize_basis: bool = False
    dense: int = 0
    out_dir: str = "out"
    formats: tuple = ("csv", "json")

    def __post_init__(self):
        if len(self.thetas) == 0:
            raise ConfigError("theta list must be non-empty")
        if self.counts < 1 or self.trials < 1:
            raise ConfigError("counts and trials must be >= 1")
        if self.dense < 0:
            raise ConfigError(f"dense must be >= 0, got {self.dense}")
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"unknown output format {f!r}")

    def hash(self):
        payload = json.dumps(asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _parse_bool(key, value):
    flags = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    try:
        return flags[value.lower()]
    except KeyError:
        raise ConfigError(f"{key} must be 1/true/yes or 0/false/no, got {value!r}") from None


def config_from_file(path) -> SweepConfig:
    """Flat key=value config file mirroring the CLI flags."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    kwargs = {}
    for line in p.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "theta_steps":
            kwargs["thetas"] = theta_grid(_parse_int(key, value))
        elif key in ("counts", "seed", "trials", "dense"):
            kwargs[key] = _parse_int(key, value)
        elif key == "optimize_basis":
            kwargs[key] = _parse_bool(key, value)
        elif key == "out_dir":
            kwargs[key] = value
        elif key == "formats":
            kwargs[key] = tuple(value.split(","))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return SweepConfig(**kwargs)


@dataclass
class DatasetRow:
    j: int
    theta: float
    ideal: dict
    sampled: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    statuses: list  # per row: {relation: status}
    worst_slack: float
    z_scores: list  # per row: {column: z}
    ok: bool


def _ideal_columns(state, lx, ly, lz, lp, basis, optimize):
    """Ideal value columns, the relation results, and the bases of the
    basis-dependent columns as [(basis matrix, {column: rhs function})]."""
    rep = evaluate_all(state, lx, ly, basis)
    res = rep.results
    cols = {
        "mean_lx": rep.mean_a,
        "mean_ly": rep.mean_b,
        "mean_lz": moments(state, lz).mean,
        "mean_lp": moments(state, lp).mean,
        "var_lx": rep.var_a,
        "var_ly": rep.var_b,
        "lhs_prod": rep.product_lhs,
        "lhs_sum": rep.sum_lhs,
        "rhs_eq1": res["eq1"].rhs,
        "rhs_eq2_canon": res["eq2"].rhs,
        "rhs_eq3": res["eq3"].rhs,
        "rhs_eq4": res["eq4"].rhs,
        "rhs_eq5_canon": res["eq5"].rhs,
        "rhs_eq6": res["eq6"].rhs,
        "rhs_eq7": res["eq7"].rhs,
        "rhs_eq2_opt": None,
        "rhs_eq5_opt": None,
    }
    bases = [(basis.matrix(), {"rhs_eq2_canon": rhs_eq2, "rhs_eq5_canon": rhs_eq5})]
    if optimize:
        b2, cols["rhs_eq2_opt"], _ = optimize_bound("eq2", state, lx, ly, OPTIMIZER)
        b5, cols["rhs_eq5_opt"], _ = optimize_bound("eq5", state, lx, ly, OPTIMIZER)
        bases += [(b2.matrix(), {"rhs_eq2_opt": rhs_eq2}), (b5.matrix(), {"rhs_eq5_opt": rhs_eq5})]
    return cols, res, bases


def _state_estimate(lz_probs, mean_lx):
    """Normalized plug-in amplitudes, up to a global sign, of a family state
    (cos t, -sin t, 0) from the counts alone: magnitudes from the identity-
    routing setting, the relative sign from <Lx> = -sqrt(2) cos t sin t."""
    # Lz outcomes are in eigenvalue order (-1, 1, 0) -> basis states (e3, e1, e2)
    amp = np.sqrt(lz_probs[..., [1, 2, 0]])
    amp[..., 1] = np.copysign(amp[..., 1], mean_lx)
    return amp / np.linalg.norm(amp, axis=-1, keepdims=True)


def _sampled_columns(counts, lx, ly, bases):
    """All sampled value columns from raw counts of shape (..., 12), ordered
    [Lx(3), Ly(3), Lz(3), Lp(3)], each block in the observable's eigenvalue
    order (-1, 1, 0); ``bases`` is the list built by :func:`_ideal_columns`.
    On one 12-vector a column is a float or None; on a batch an array, NaN
    in undefined rows (None for a column no basis produces).
    """
    n = np.asarray(counts, dtype=float).reshape(*np.shape(counts)[:-1], 4, 3)
    totals = n.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0):
        raise ConfigError("a setting recorded zero total counts")
    probs = n / totals
    a_vals, b_vals = lx.eigenvalues, ly.eigenvalues
    values = np.array([a_vals, b_vals, SPIN1_EIGENVALUE_ORDER, SPIN1_EIGENVALUE_ORDER])

    mx, my, mz, mp = np.moveaxis(np.vecdot(probs, values), -1, 0)
    mx2, my2 = np.moveaxis(np.vecdot(probs[..., :2, :], values[:2] ** 2), -1, 0)

    var_x = mx2 - mx**2
    var_y = my2 - my**2
    # [Lx, Ly] = i Lz and {Lx, Ly} = Lp give the commutator, the covariance
    # and var(Lx +- Ly) from the Lz and Lp settings
    cov = 0.5 * mp - mx * my
    a_sh = a_vals - mx[..., None]
    b_sh = b_vals - my[..., None]
    px, py = probs[..., 0, :], probs[..., 1, :]
    cols = {
        "mean_lx": mx, "mean_ly": my, "mean_lz": mz, "mean_lp": mp,
        "var_lx": var_x, "var_ly": var_y,
        "lhs_prod": var_x * var_y, "lhs_sum": var_x + var_y,
        "rhs_eq1": rhs_eq1(abs(mz), cov),
        "rhs_eq4": rhs_eq4(mx2 + my2 + mp - (mx + my) ** 2),
        "rhs_eq3": rhs_eq3(a_sh, b_sh, px, py),
        "rhs_eq6": rhs_eq6(a_sh, b_sh, px, py),
        "rhs_eq7": rhs_eq7(var_x, var_y, cov, mx2 + my2 - mp - (mx - my) ** 2)[0],
    }
    cols.update(dict.fromkeys(BASIS_COLUMNS))

    # basis-dependent bounds on the plug-in state
    psi = _state_estimate(probs[..., 2, :], mx)
    abar_psi, bbar_psi = _centre(psi, lx), _centre(psi, ly)
    for bm, rhs_by_column in bases:
        bh = bm.conj().T
        pa, pb = np.matvec(bh, abar_psi), np.matvec(bh, bbar_psi)
        for col, rhs in rhs_by_column.items():
            cols[col] = rhs(pa, pb)
    if n.ndim == 2:
        return {c: None if v is None else float(v) for c, v in cols.items()}
    return cols


def _propagate_sigmas(counts_flat, column_fn):
    """First-order Poisson error bars via central differences with a
    one-count step, from one ``column_fn`` call on the base vector and the
    +1 and -1 vectors of each nonzero count (a zero count adds nothing).
    ``column_fn`` gives arrays over that stack, NaN where undefined; a count
    with an undefined side adds nothing to that column's error bar."""
    n = np.asarray(counts_flat, dtype=float)
    nz = np.flatnonzero(n)
    step = np.eye(n.size)[nz]
    cols = column_fn(np.vstack([n, n + step, n - step]))
    names = [col for col, v in cols.items() if v is not None]
    v = np.array([cols[col] for col in names])
    deriv = (v[:, 1 : nz.size + 1] - v[:, nz.size + 1 :]) / 2.0
    sig = np.sqrt(np.nansum(n[nz] * deriv**2, axis=-1))
    base, sigma = dict.fromkeys(cols), {}
    for col, b, s in zip(names, v[:, 0], sig):
        if not np.isnan(b):
            base[col], sigma[col] = float(b), float(s)
    return base, sigma


def _status(res):
    """undefined, violated, tight or satisfied, to the relation's tolerance."""
    if not res.defined:
        return "undefined"
    if not res.satisfied:
        return "violated"
    return "tight" if abs(res.slack) <= _slack_tol(res.lhs, res.rhs) else "satisfied"


def run_sweep(config: SweepConfig):
    """Evaluate the full sweep; returns (rows, report, dense_rows)."""
    lx, ly, lz, lp = builtin_spin1()
    basis = OrthonormalBasis.computational(3)
    settings = builtin_settings()

    rows = []
    for j, theta in enumerate(config.thetas):
        state = family_state(theta)
        ideal, results, bases = _ideal_columns(
            state, lx, ly, lz, lp, basis, config.optimize_basis
        )

        probs = [projection_probabilities(state, settings[name]) for name in SETTING_NAMES]
        sampled_acc, sigma_acc = {}, {}
        for trial in range(config.trials):
            counts = np.concatenate([
                sample_counts(p, config.counts, config.seed + 1000 * j + 10 * trial + si).counts
                for si, p in enumerate(probs)
            ])
            vals, sigs = _propagate_sigmas(counts, lambda c: _sampled_columns(c, lx, ly, bases))
            for col, v in vals.items():
                if v is None:
                    continue
                sampled_acc.setdefault(col, []).append(v)
                sigma_acc.setdefault(col, []).append(sigs[col])
        sampled = {c: float(np.mean(v)) for c, v in sampled_acc.items()}
        sigma = {
            c: float(np.sqrt(np.mean(np.square(sigma_acc[c]))) / np.sqrt(config.trials))
            for c in sigma_acc
        }

        statuses = {rid: _status(res) for rid, res in results.items()}
        rows.append(DatasetRow(j=j, theta=float(theta), ideal=ideal,
                               sampled=sampled, sigma=sigma, statuses=statuses))

    report = build_report(rows)

    dense_rows = []
    if config.dense > 0:
        grid = sorted(set(np.linspace(0.0, np.pi, config.dense + 1)) | set(config.thetas))
        for j, theta in enumerate(grid):
            state = family_state(theta)
            # dense curves cover the figure panels; the optimized-basis
            # columns are only produced for the sweep points themselves
            ideal, _, _ = _ideal_columns(state, lx, ly, lz, lp, basis, False)
            dense_rows.append(DatasetRow(j=j, theta=float(theta), ideal=ideal))
    return rows, report, dense_rows


def build_report(rows, z_limit=DEFAULT_Z_LIMIT) -> VerificationReport:
    statuses = [r.statuses for r in rows]
    worst = min(
        (min((s for s, _ in _slacks(r.ideal)), default=np.inf) for r in rows),
        default=np.inf,
    )
    z_scores = []
    ok = True
    for r in rows:
        zs = {}
        for col, v in r.sampled.items():
            ideal = r.ideal.get(col)
            sig = r.sigma.get(col, 0.0)
            if ideal is None or sig is None:
                continue
            if sig > 0:
                zs[col] = (v - ideal) / sig
                if abs(zs[col]) > z_limit:
                    ok = False
        z_scores.append(zs)
        if "violated" in r.statuses.values():
            ok = False
    return VerificationReport(
        statuses=statuses,
        worst_slack=float(worst) if np.isfinite(worst) else float("inf"),
        z_scores=z_scores,
        ok=ok,
    )


def _slacks(values):
    """(slack, tolerance) of every relation column in ``values`` that has
    an rhs."""
    return [
        (slack(direction, values[lhs], values[rhs]), _slack_tol(values[lhs], values[rhs]))
        for _, lhs, rhs, direction in RELATIONS
        if values.get(rhs) is not None
    ]


def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _row_record(row):
    rec = {"j": row.j, "theta": row.theta}
    for col in VALUE_COLUMNS:
        rec[col] = row.ideal.get(col)
    for col in VALUE_COLUMNS:
        rec[f"sampled_{col}"] = row.sampled.get(col)
    for col in VALUE_COLUMNS:
        rec[f"sigma_{col}"] = row.sigma.get(col)
    return rec


def emit(rows, report, config: SweepConfig, dense_rows=()):
    """Write CSV/JSON datasets; returns the list of written paths."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in config.formats:
        path = out / "sweep.csv"
        _write_csv(path, rows)
        written.append(path)
        if dense_rows:
            dpath = out / "dense.csv"
            _write_csv(dpath, dense_rows)
            written.append(dpath)
    if "json" in config.formats:
        path = out / "sweep.json"
        payload = {
            "version": __version__,
            "seed": config.seed,
            "config_hash": config.hash(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": asdict(config),
            "rows": [_row_record(r) | {"statuses": r.statuses} for r in rows],
            "dense": [_row_record(r) for r in dense_rows],
            "report": {
                "statuses": report.statuses,
                "worst_slack": report.worst_slack,
                "z_scores": report.z_scores,
                "ok": report.ok,
            },
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def _write_csv(path, rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        rec = _row_record(row)
        lines.append(",".join(
            str(rec["j"]) if c == "j" else _fmt(rec[c]) for c in CSV_COLUMNS
        ))
    path.write_text("\n".join(lines) + "\n")


def _load_rows(path):
    """Rows of a JSON dataset, or None when it is missing or malformed: no
    rows, a row without lhs_prod or lhs_sum, a non-numeric value or a
    negative sigma."""
    try:
        rows = json.loads(Path(path).read_text())["rows"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not isinstance(rows, list) or not rows:
        return None
    for row in rows:
        if not isinstance(row, dict) or row.get("lhs_prod") is None or row.get("lhs_sum") is None:
            return None
        for col in DATA_COLUMNS:
            v = row.get(col)
            if v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))):
                return None
            if col.startswith("sigma_") and v is not None and v < 0:
                return None
    return rows


def verify_dataset(path, z_limit=DEFAULT_Z_LIMIT):
    """Re-check a written JSON dataset; returns a process exit status:
    0 ok, 1 violation or non-finite value, 2 missing or malformed."""
    rows = _load_rows(path)
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
            if v is None or s is None or ideal is None or s <= 0:
                continue
            if abs(v - ideal) > z_limit * s:
                return 1
    return 0
