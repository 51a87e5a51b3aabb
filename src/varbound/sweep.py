"""Sweep orchestration: evaluate all relations over the prepared state
family, both ideally and through the simulated measurement pipeline, and
emit figure-ready CSV/JSON datasets with a machine-readable verdict.

The sweep points and the dense grid are each one (points, CSV_COLUMNS)
float table, NaN where a value is undefined or not computed, from
``run_sweep`` to the files; their ideal columns come from one
``evaluate_states`` call over the merged grid.  ``emit`` turns both tables
into records, keys already in sorted order, with one function for both
formats, and writes ``sweep.json`` as compact JSON that records the Python
and numpy versions.  One function, ``build_report``, gives the verdict from
the two tables: the relation statuses, the worst slack and the z-scores of
the sweep rows, and ``ok`` over sweep and dense rows alike, each check one
array expression.  ``verify`` reads a dataset back as the same two tables,
NaN exactly where a cell is null, and passes them to the same function.

The counts of every (row, trial, setting) are drawn in one call from one
generator seeded by the config seed.  Every sampled quantity is estimated
from the four settings' counts as one float table in VALUE_COLUMNS order,
NaN where a column is undefined (a setting with no counts leaves the columns
that read it undefined) or not computed; derived columns propagate one-
standard-deviation Poisson error bars to first order by one-count central
differences through the full column formula, all perturbed count vectors
of a trial in one call.  Each row reduces its (columns, trials) value and
sigma tables once: the mean over the k trials that define a column, and
sqrt(mean sigma^2 / k).  A sampled column with zero sigma fails the verdict
when it lies off its ideal value by more than the slack tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from itertools import chain
from operator import itemgetter
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .basis_search import OptimizerConfig, optimize_bound
from .bounds import (
    OrthonormalBasis,
    _degenerate_std,
    _slack_floors,
    _slack_tol,
    evaluate_states,
    rhs_eq1,
    rhs_eq2,
    rhs_eq3,
    rhs_eq4,
    rhs_eq5,
    rhs_eq6,
    rhs_eq7,
    slack,
)
from .hermitian import SPIN1_EIGENVALUE_ORDER, _centre, builtin_spin1
from .hermitian import family_amplitudes, family_state
from .photonics import _builtin_observable, builtin_settings
from .photonics import projection_probabilities, sample_counts


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

# (relation, lhs column, rhs column, direction) for every checked column
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
# the report's statuses name the computational-basis ones
STATUS_RELATIONS = [i for i, (_, _, rhs, _) in enumerate(RELATIONS) if not rhs.endswith("_opt")]

SETTING_NAMES = ("Lx", "Ly", "Lz", "Lp")
DEFAULT_Z_LIMIT = 5.0
# below numpy's Poisson ceiling (a mean near 9.2e18 is "too large")
MAX_COUNTS = 10**18
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
        if not all(map(math.isfinite, self.thetas)):
            raise ConfigError(f"thetas must be finite, got {self.thetas}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.counts < 1 or self.trials < 1:
            raise ConfigError("counts and trials must be >= 1")
        if self.counts > MAX_COUNTS:
            raise ConfigError(f"counts must be <= {MAX_COUNTS}, got {self.counts}")
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
class VerificationReport:
    statuses: list  # per row: {relation: status}
    worst_slack: float
    z_scores: list  # per row: {column: z}
    ok: bool


# the kernel output behind each ideal column (eq2, eq5 in the computational
# basis); the optimized-basis columns come from the basis search
KERNEL_KEYS = dict(zip(VALUE_COLUMNS, (
    "mean_a", "mean_b", "mean_lz", "mean_lp", "var_a", "var_b", "lhs_prod", "eq1", "eq2", None,
    "eq3", "lhs_sum", "eq4", "eq5", None, "eq6", "eq7",
)))


def _ideal_table(psi, lx, ly, lz, lp, basis):
    """Ideal value columns of states ``psi`` (N, 3) from one kernel call, as
    an (N, VALUE_COLUMNS) float table; NaN where undefined or not computed."""
    values, _ = evaluate_states(psi, lx, ly, basis, means={"mean_lz": lz, "mean_lp": lp})
    nan = np.full(len(psi), np.nan)
    return np.column_stack([nan if key is None else values[key] for key in KERNEL_KEYS.values()])


def _bases(state, lx, ly, basis, optimize):
    """Optimized-basis columns of one state (none unless ``optimize``) and
    the bases [(adjoint, {column: rhs function})] of the basis columns."""
    bases = [(basis.matrix.conj().T, {"rhs_eq2_canon": rhs_eq2, "rhs_eq5_canon": rhs_eq5})]
    opt = {}
    if optimize:
        for rid, rhs in (("eq2", rhs_eq2), ("eq5", rhs_eq5)):
            b, opt[f"rhs_{rid}_opt"], _ = optimize_bound(rid, state, lx, ly, OPTIMIZER)
            bases.append((b.matrix.conj().T, {f"rhs_{rid}_opt": rhs}))
    return opt, bases


def _state_estimate(lz_probs, mean_lx):
    """Normalized plug-in amplitudes, up to a global sign, of a family state
    (cos t, -sin t, 0) from the counts alone: magnitudes from the identity-
    routing setting, the relative sign from <Lx> = -sqrt(2) cos t sin t.
    NaN when either is undefined."""
    # Lz outcomes are in eigenvalue order (-1, 1, 0) -> basis states (e3, e1, e2)
    amp = np.sqrt(lz_probs[..., [1, 2, 0]])
    # copysign would read the sign bit of a NaN <Lx>
    amp[..., 1] = np.where(np.isnan(mean_lx), np.nan, np.copysign(amp[..., 1], mean_lx))
    return amp / np.linalg.norm(amp, axis=-1, keepdims=True)


def _sampled_columns(counts, lx, ly, bases):
    """All sampled value columns from raw counts of shape (..., 12), ordered
    [Lx(3), Ly(3), Lz(3), Lp(3)], each block in the observable's eigenvalue
    order (-1, 1, 0); ``bases`` is the list built by :func:`_bases`.
    Returns a (..., VALUE_COLUMNS) float table, one vector and a batch
    alike, NaN where a column is undefined or no basis produces it.
    """
    n = np.asarray(counts, dtype=float).reshape(-1, 4, 3)
    # a setting with no counts gives NaN in the columns that read it
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = n / n.sum(axis=-1, keepdims=True)
    a_vals, b_vals = lx.eigenvalues, ly.eigenvalues
    values = np.array([a_vals, b_vals, SPIN1_EIGENVALUE_ORDER, SPIN1_EIGENVALUE_ORDER])

    mx, my, mz, mp = np.vecdot(probs, values).T
    mx2, my2 = np.vecdot(probs[:, :2], values[:2] ** 2).T

    var_x = mx2 - mx**2
    var_y = my2 - my**2
    # [Lx, Ly] = i Lz and {Lx, Ly} = Lp give the commutator, the covariance
    # and var(Lx +- Ly) from the Lz and Lp settings
    cov = 0.5 * mp - mx * my
    a_sh = a_vals - mx[:, None]
    b_sh = b_vals - my[:, None]
    px, py = probs[:, 0], probs[:, 1]
    cols = {
        "mean_lx": mx, "mean_ly": my, "mean_lz": mz, "mean_lp": mp,
        "var_lx": var_x, "var_ly": var_y,
        "lhs_prod": var_x * var_y, "lhs_sum": var_x + var_y,
        "rhs_eq1": rhs_eq1(abs(mz), cov),
        "rhs_eq4": rhs_eq4(mx2 + my2 + mp - (mx + my) ** 2),
        "rhs_eq3": rhs_eq3(a_sh, b_sh, px, py),
        "rhs_eq6": rhs_eq6(a_sh, b_sh, px, py),
        "rhs_eq7": rhs_eq7(
            var_x, var_y, mx2 + my2 - mp - (mx - my) ** 2, _degenerate_std(lx), _degenerate_std(ly)
        )[0],
    }

    # basis-dependent bounds on the plug-in state
    psi = _state_estimate(probs[:, 2], mx)
    abar_psi, bbar_psi = _centre(psi, lx), _centre(psi, ly)
    for bh, rhs_by_column in bases:
        pa, pb = np.matvec(bh, abar_psi), np.matvec(bh, bbar_psi)
        for col, rhs in rhs_by_column.items():
            cols[col] = rhs(pa, pb)
    nan = np.full(len(n), np.nan)
    table = np.array([cols.get(c, nan) for c in VALUE_COLUMNS]).T
    return table.reshape(*np.shape(counts)[:-1], len(VALUE_COLUMNS))


def _propagate_sigmas(counts_flat, column_fn):
    """First-order Poisson error bars via central differences with a
    one-count step, from one ``column_fn`` call on the base vector and the
    +1 and -1 vectors of each nonzero count (a zero count adds nothing).
    ``column_fn`` maps that stack to a (vectors, columns) table, NaN where
    undefined.  Returns the base vector's value row and its error-bar row,
    both NaN where the value is undefined; a count with an undefined side
    adds nothing to that column's error bar."""
    n = np.asarray(counts_flat, dtype=float)
    nz = np.flatnonzero(n)
    k = np.arange(nz.size)
    stack = np.empty((2 * nz.size + 1, n.size))
    stack[:] = n
    stack[1 + k, nz] += 1.0
    stack[1 + nz.size + k, nz] -= 1.0
    # one row per column, so each error bar sums along a contiguous row
    v = np.ascontiguousarray(column_fn(stack).T)
    deriv = (v[:, 1 : nz.size + 1] - v[:, nz.size + 1 :]) / 2.0
    sig = np.sqrt(np.nansum(n[nz] * deriv**2, axis=-1))
    return v[:, 0], np.where(np.isnan(v[:, 0]), np.nan, sig)


def run_sweep(config: SweepConfig):
    """Evaluate the full sweep; returns (table, report, dense): the sweep
    points and the dense grid (no points without ``config.dense``), each as
    one (points, CSV_COLUMNS) float table, NaN where undefined or not
    computed.  Their ideal columns come from one kernel call."""
    lx, ly, lz, lp = builtin_spin1()
    basis = OrthonormalBasis.computational(3)
    settings = builtin_settings()
    dense_thetas = np.linspace(0.0, np.pi, config.dense + 1) if config.dense > 0 else ()
    grid = np.array(sorted(set(config.thetas) | set(dense_thetas)))
    ideal_table = _ideal_table(family_amplitudes(grid), lx, ly, lz, lp, basis)

    # (rows, trials, 4 settings, 3 outcomes) counts from one generator
    amps = family_amplitudes(config.thetas)
    probs = np.stack([projection_probabilities(amps, settings[n]) for n in SETTING_NAMES], -2)
    shape = (len(config.thetas), config.trials, 4, 3)
    counts = sample_counts(np.broadcast_to(probs[:, None], shape), config.counts, config.seed)

    table = np.full((len(config.thetas), len(CSV_COLUMNS)), np.nan)
    table[:, 0], table[:, 1] = np.arange(len(table)), config.thetas
    ideal, sampled, sigma = np.hsplit(table[:, 2:], 3)  # views into table
    ideal[:] = ideal_table[np.searchsorted(grid, config.thetas)]
    for j, theta in enumerate(config.thetas):
        opt, bases = _bases(family_state(theta), lx, ly, basis, config.optimize_basis)
        for col, v in opt.items():
            ideal[j, VALUE_COLUMNS.index(col)] = v

        # (columns, trials) value and sigma tables: each mean below sums a
        # contiguous row, trials in the order they ran
        vals, sigs = np.empty((2, len(VALUE_COLUMNS), config.trials))
        for trial in range(config.trials):
            vals[:, trial], sigs[:, trial] = _propagate_sigmas(
                counts[j, trial].ravel(), lambda c: _sampled_columns(c, lx, ly, bases)
            )
        # mean over the k trials that define a column and its error bar
        # sqrt(mean sigma^2 / k); a column that no trial defines stays NaN
        k = np.count_nonzero(~np.isnan(vals), axis=-1)
        with np.errstate(invalid="ignore"):
            sampled[j] = np.nansum(vals, axis=-1) / k
            sigma[j] = np.sqrt(np.nansum(sigs**2, axis=-1) / k / k)

    # dense curves cover the figure panels: ideal columns only, and the
    # optimized-basis columns are only produced for the sweep points
    n = len(grid) if config.dense > 0 else 0
    nan = np.full((n, 2 * len(VALUE_COLUMNS)), np.nan)
    dense = np.column_stack([np.arange(n), grid[:n], ideal_table[:n], nan])
    return table, build_report(table, dense), dense


def build_report(table, dense=None, z_limit=DEFAULT_Z_LIMIT) -> VerificationReport:
    """The verdict on a (rows, DATA_COLUMNS) or (rows, CSV_COLUMNS) float
    table, NaN where a cell is undefined, and on the ``dense`` rows of the
    same form, if given.  Statuses (undefined, violated, tight or satisfied,
    to the slack tolerance), the worst slack and the z-scores cover
    ``table``'s rows.  ``ok`` fails when any row violates a relation column,
    the optimized-basis ones included, or holds a sampled column with
    |value - ideal| / sigma > ``z_limit``, or with zero sigma and off its
    ideal value by more than the slack tolerance."""
    cells = table if dense is None else np.vstack([table, dense])
    ideal, sampled, sigma = np.hsplit(cells[:, -len(DATA_COLUMNS):], 3)
    col = dict(zip(VALUE_COLUMNS, ideal.T))
    margin = np.array([slack(d, col[lhs], col[rhs]) for _, lhs, rhs, d in RELATIONS]).T
    # evaluate_all's floors for Lx and Ly (both 1); sigma = 0 takes the sum's
    prod_floor, sum_floor = _slack_floors(_builtin_observable("Lx"), _builtin_observable("Ly"))
    floor = {"lhs_prod": prod_floor, "lhs_sum": sum_floor}
    tol = np.array([_slack_tol(col[lhs], col[rhs], floor[lhs]) for _, lhs, rhs, _ in RELATIONS]).T
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (sampled - ideal) / sigma
    scored = (sigma > 0) & ~np.isnan(z)
    zero_off = (sigma == 0) & (abs(sampled - ideal) > _slack_tol(sampled, ideal, sum_floor))
    ok = not ((margin < -tol).any() or (abs(z[scored]) > z_limit).any() or zero_off.any())
    n = len(table)
    m, t = margin[:n, STATUS_RELATIONS], tol[:n, STATUS_RELATIONS]
    status = np.select([np.isnan(m), m < -t, abs(m) <= t], ["undefined", "violated", "tight"],
                       "satisfied")
    names = [RELATIONS[i][0] for i in STATUS_RELATIONS]
    return VerificationReport(
        statuses=[dict(zip(names, row)) for row in status.tolist()],
        worst_slack=float(np.fmin.reduce(margin[:n], axis=None, initial=np.inf)),
        z_scores=[
            {c: v for c, v, on in zip(VALUE_COLUMNS, zs, ons) if on}
            for zs, ons in zip(z[:n].tolist(), scored[:n].tolist())
        ],
        ok=ok,
    )


def _records(table, statuses=None):
    """One dataset record per row of a (rows, CSV_COLUMNS) float table, its
    keys in the order json sorts them: j an int, None where the table holds
    NaN, and the row's entry of ``statuses`` when given."""
    cells, keys = np.where(np.isnan(table), None, table), CSV_COLUMNS
    cells[:, 0] = table[:, 0].astype(int).tolist()
    if statuses is not None:
        cells, keys = np.column_stack([cells, statuses]), keys + ("statuses",)
    sorted_keys = sorted(keys)
    order = [keys.index(k) for k in sorted_keys]
    return [dict(zip(sorted_keys, rec)) for rec in cells[:, order].tolist()]


def emit(table, report, config: SweepConfig, dense=()):
    """Write CSV/JSON datasets of the sweep and dense (points, CSV_COLUMNS)
    tables from ``run_sweep``, each sweep row with its entry of
    ``report.statuses``; returns the list of written paths."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = _records(table, report.statuses)
    dense_records = _records(np.reshape(dense, (-1, len(CSV_COLUMNS))))
    written = []
    if "csv" in config.formats:
        path = out / "sweep.csv"
        _write_csv(path, records)
        written.append(path)
        if dense_records:
            dpath = out / "dense.csv"
            _write_csv(dpath, dense_records)
            written.append(dpath)
    if "json" in config.formats:
        path = out / "sweep.json"
        payload = {
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seed": config.seed,
            "config_hash": config.hash(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config": asdict(config),
            "rows": records,
            "dense": dense_records,
            "report": {
                "statuses": report.statuses,
                "worst_slack": report.worst_slack,
                "z_scores": report.z_scores,
                "ok": report.ok,
            },
        }
        # no indent: any indent makes json fall back from its C encoder
        path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        written.append(path)
    return written


def _write_csv(path, records):
    csv_cells = itemgetter(*CSV_COLUMNS)
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(["" if v is None else repr(v) for v in csv_cells(rec)]))
    path.write_text("\n".join(lines) + "\n")


def _load_rows(path):
    """The sweep rows and the dense rows of a JSON dataset as two (rows,
    DATA_COLUMNS) float arrays, NaN exactly where null or absent and inf
    where non-finite (a NaN literal included); None when the dataset is
    missing or malformed: no rows, a missing or non-list dense entry, a j
    that is not the row's int index in its list, a non-finite theta, a row
    without lhs_prod or lhs_sum, a non-numeric value or a negative sigma."""
    try:
        # a NaN literal reads as inf, so a NaN in the table marks a null cell
        constants = {"NaN": math.inf, "Infinity": math.inf, "-Infinity": -math.inf}
        payload = json.loads(Path(path).read_text(), parse_constant=constants.__getitem__)
        rows, dense = payload["rows"], payload["dense"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not isinstance(rows, list) or not rows or not isinstance(dense, list):
        return None
    index = [*range(len(rows)), *range(len(dense))]
    rows = rows + dense
    if not all(isinstance(row, dict) for row in rows):
        return None
    j = [row.get("j") for row in rows]
    if j != index or set(map(type, j)) != {int}:
        return None
    cells = [list(map(row.get, CSV_COLUMNS[1:])) for row in rows]
    if not set(map(type, chain.from_iterable(cells))) <= {int, float, type(None)}:
        return None
    try:
        theta, table = np.hsplit(np.array(cells, dtype=float), [1])
    except OverflowError:  # an integer beyond the float range
        return None
    lhs = table[:, [DATA_COLUMNS.index("lhs_prod"), DATA_COLUMNS.index("lhs_sum")]]
    _, _, sigma = np.hsplit(table, 3)
    if not np.isfinite(theta).all() or np.isnan(lhs).any() or (sigma < 0).any():
        return None
    return np.vsplit(table, [len(payload["rows"])])


def verify_dataset(path, z_limit=DEFAULT_Z_LIMIT):
    """Re-check a written JSON dataset, sweep and dense rows alike, with
    :func:`build_report`; returns a process exit status: 0 ok, 1 violation
    or non-finite value, 2 missing or malformed."""
    tables = _load_rows(path)
    if tables is None:
        return 2
    if any(np.isinf(t).any() for t in tables):
        return 1
    return 0 if build_report(*tables, z_limit=z_limit).ok else 1
