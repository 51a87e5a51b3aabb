"""Sweep orchestration: evaluate all relations over the state family
that the twin's preparation circuit prepares, both ideally and through the
simulated measurement pipeline, and emit figure-ready CSV/JSON datasets
with a machine-readable verdict.

The sweep points and the dense grid are each one (points, CSV_COLUMNS)
float table, NaN where a value is undefined or not computed, from
``run_sweep`` to the files.  One ``photonics.prepare_amplitudes`` pass over
the merged grid gives every state (ideal, sampled, searched), and one
``evaluate_states`` call on them the ideal columns.  ``emit`` turns both tables
into records, keys already in sorted order, with one function for both
formats, and writes ``sweep.json`` as compact JSON that records the Python
and numpy versions.  One function, ``build_report``, gives the verdict from
the two tables: the relation statuses, the worst slack and the z-scores of
the sweep rows, and ``ok`` over sweep and dense rows alike, the relation
columns judged by ``bounds.verdicts``, the rule of ``evaluate_all`` too.
``verify`` reads a dataset back as the same two tables, NaN exactly where a
cell is null, and passes them to the same function.

The counts of every (row, trial, setting) are drawn in one call from one
generator seeded by the config seed.  The sampled columns pass moments
estimated from the four settings' counts to ``bounds.relation_sides``, as the
kernel passes a state's, and ``_value_table`` turns either result into one
float table in VALUE_COLUMNS order, NaN where a column is undefined (a
setting with no counts leaves the columns that read it undefined) or not
computed; derived columns propagate one-standard-deviation Poisson error bars
to first order by one-count central differences through the full column
formula, all perturbed count vectors of a trial in one call.  The
computational-basis columns read the plug-in vectors, Lx and Ly centred in
one stacked pass; the optimized-basis ones project them onto a row's two
optimal bases.  The (rows, columns, trials) value and sigma tables are
reduced once: the mean over the k trials that define a column, and sqrt(mean
sigma^2 / k).  A sampled column with zero sigma fails the verdict when it
lies off its ideal value by more than the slack tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
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
    RELATION_IDS,
    STATUSES,
    VIOLATED,
    _slack_floors,
    _slack_tol,
    evaluate_states,
    relation_sides,
    rhs_eq2,
    rhs_eq5,
    verdicts,
)
from .hermitian import SPIN1_EIGENVALUE_ORDER, PureState, builtin_spin1
from .photonics import builtin_settings, prepare_amplitudes, projection_probabilities, sample_counts


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

# {rhs column: relation id} of every checked column, rhs_eqN[_canon|_opt]
# checking eqN; a relation's side and direction are in bounds.RELATIONS
RELATIONS = {c: rid for c in VALUE_COLUMNS for rid in RELATION_IDS if c.split("_")[1] == rid}

SETTING_NAMES = ("Lx", "Ly", "Lz", "Lp")
DEFAULT_Z_LIMIT = 5.0
# below numpy's Poisson ceiling (a mean near 9.2e18 is "too large")
MAX_COUNTS = 10**18
# most cells of a count (rows x trials x 12), sweep or dense table
MAX_CELLS = 10**7
MAX_FLOAT = float(np.finfo(float).max)
OPTIMIZER = OptimizerConfig(restarts=6, max_iters=400)


def _check_cells(table, setting, cells):
    if cells > MAX_CELLS:
        raise ConfigError(f"{setting} makes a {table} table of {cells} cells, over {MAX_CELLS}")


def _integer(name, value, low):
    """``value`` as an int; ConfigError, naming ``name``, unless it is an
    integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def theta_grid(steps):
    """``steps`` evenly spaced angles over [0, pi], j*pi/(steps-1) exactly
    (the dense grid merges sweep angles by float equality)."""
    steps = _integer("theta_steps", steps, 1)
    _check_cells("sweep", f"theta_steps = {steps}", steps * len(CSV_COLUMNS))
    return tuple(j * np.pi / max(steps - 1, 1) for j in range(steps))


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
        for name, low in (("counts", 1), ("seed", 0), ("trials", 1), ("dense", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if self.counts > MAX_COUNTS:
            raise ConfigError(f"counts must be <= {MAX_COUNTS}, got {self.counts}")
        for name, kinds, what in (("optimize_basis", bool, "true or false"),
                                  ("formats", (tuple, list), "a tuple or list of 'csv' and 'json'"),
                                  ("out_dir", (str, os.PathLike), "a str or an os.PathLike")):
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} must be {what}, got {getattr(self, name)!r}")
        for f in self.formats:
            if f not in ("csv", "json"):
                raise ConfigError(f"unknown output format {f!r}")
        object.__setattr__(self, "formats", tuple(self.formats))
        object.__setattr__(self, "out_dir", os.fspath(self.out_dir))
        try:
            rows = len(self.thetas)
        except TypeError:
            raise ConfigError(f"thetas must be a sized sequence, got {self.thetas!r}") from None
        if rows == 0:
            raise ConfigError("theta list must be non-empty")
        # sized before it is read, so an oversized range allocates nothing
        _check_cells("sweep", f"{rows} thetas", rows * len(CSV_COLUMNS))
        if not all(isinstance(t, numbers.Real) and abs(t) <= MAX_FLOAT for t in self.thetas):
            raise ConfigError(f"thetas must be finite real numbers, got {self.thetas!r}")
        # one tuple of floats, so equal angles give one hash in any form
        object.__setattr__(self, "thetas", tuple(map(float, self.thetas)))
        _check_cells("count", f"trials = {self.trials}", rows * self.trials * 12)
        dense_rows = self.dense + 1 + rows if self.dense else 0  # merged with the sweep's
        _check_cells("dense", f"dense = {self.dense}", dense_rows * len(CSV_COLUMNS))

    def hash(self):
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
# {config key: (SweepConfig field, parse of its string)}; SweepConfig checks the values
_KEYS = {
    "theta_steps": ("thetas", lambda s: theta_grid(int(s))),
    **{key: (key, int) for key in ("counts", "seed", "trials", "dense")},
    "optimize_basis": ("optimize_basis", lambda s: _BOOLS.get(s.lower(), s)),
    "out_dir": ("out_dir", str),
    "formats": ("formats", lambda s: tuple(f.strip() for f in s.split(","))),
}


def config_from_file(path=None, flags=None) -> SweepConfig:
    """The sweep's settings, parsed here alone: the keys of a flat key=value
    config file, if ``path`` is given, then the {key: string} ``flags``
    (the CLI's), each overriding its key; an unset key keeps SweepConfig's
    default."""
    pairs = []
    if path:
        if not Path(path).is_file():
            raise ConfigError(f"config file not found: {path}")
        lines = (line.split("#", 1)[0].strip() for line in Path(path).read_text().splitlines())
        for line in filter(None, lines):
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            pairs.append([s.strip() for s in line.split("=", 1)])
    kwargs = {}
    for key, value in chain(pairs, (flags or {}).items()):
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _KEYS[key]
        try:
            kwargs[name] = parse(value)
        except ValueError as exc:  # from int(), or theta_grid's own ConfigError
            raise exc if isinstance(exc, ConfigError) else ConfigError(
                f"{key} must be an integer, got {value!r}") from None
    return SweepConfig(**kwargs)


@dataclass
class VerificationReport:
    statuses: list  # per row: {relation: status}
    worst_slack: float
    z_scores: list  # per row: {column: z}
    ok: bool


# the kernel name behind each ideal and sampled column (eq2, eq5 in the
# computational basis); None for the optimized-basis ones, which it lacks
_RENAMED = {"mean_lx": "mean_a", "mean_ly": "mean_b", "var_lx": "var_a", "var_ly": "var_b"}
KERNEL_KEYS = {c: None if c.endswith("_opt") else RELATIONS.get(c, _RENAMED.get(c, c))
               for c in VALUE_COLUMNS}


def _value_table(values):
    """The (N, VALUE_COLUMNS) table of a kernel-keyed {name: (N,) array}
    dict, an optimized-basis column under its own name; NaN where absent."""
    nan = np.full(len(values["lhs_sum"]), np.nan)
    return np.array([values.get(key or c, nan) for c, key in KERNEL_KEYS.items()]).T


def _ideal_table(psi, lx, ly, lz, lp):
    """Ideal value columns of states ``psi`` (N, 3) from one kernel call, as
    an (N, VALUE_COLUMNS) float table; NaN where undefined or not computed."""
    return _value_table(evaluate_states(psi, lx, ly, means={"mean_lz": lz, "mean_lp": lp}))


def _state_estimate(lz_probs, mean_lx):
    """Normalized plug-in amplitudes, up to a global sign, of a family state
    (cos t, -sin t, 0) from the counts alone: magnitudes from the identity-
    routing setting, the relative sign from <Lx> = -sqrt(2) cos t sin t,
    both in place.  NaN when either is undefined.  The norm is numpy's own
    for real input, sqrt of the summed squares, without its dispatch."""
    # Lz outcomes are in eigenvalue order (-1, 1, 0) -> basis states (e3, e1, e2)
    amp = np.sqrt(lz_probs[..., [1, 2, 0]])
    np.copysign(amp[..., 1], mean_lx, out=amp[..., 1])
    # copysign reads the sign bit of a NaN <Lx>
    amp[..., 1][np.isnan(mean_lx)] = np.nan
    return amp / np.sqrt(np.add.reduce(amp * amp, axis=-1, keepdims=True))


def _sampled_columns(counts, lx, ly, opt_adjoints=None):
    """All sampled value columns from raw counts of shape (..., 12), ordered
    [Lx(3), Ly(3), Lz(3), Lp(3)], each block in the observable's eigenvalue
    order (-1, 1, 0); ``opt_adjoints`` (2, 3, 3), the adjoints of the eq2
    and eq5 optimal bases, gives the optimized-basis columns.  Returns a
    (..., VALUE_COLUMNS) float table, one vector and a batch alike, NaN
    where a column is undefined or not computed.
    """
    n = np.asarray(counts, dtype=float).reshape(-1, 4, 3)
    # a setting with no counts gives NaN in the columns that read it
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = n / n.sum(axis=-1, keepdims=True)
    a_vals, b_vals = lx.eigenvalues, ly.eigenvalues
    values = np.array([a_vals, b_vals, SPIN1_EIGENVALUE_ORDER, SPIN1_EIGENVALUE_ORDER])

    mx, my, mz, mp = np.vecdot(probs, values).T
    mx2, my2 = np.vecdot(probs[:, :2], values[:2] ** 2).T
    sum2 = mx2 + my2

    # [Lx, Ly] = i Lz and {Lx, Ly} = Lp give the commutator, the covariance
    # and var(Lx +- Ly) from the Lz and Lp settings; the outcome
    # probabilities of Lx and Ly are the fidelities of eq3 and eq6
    fid = {"a_shifted": a_vals - mx[:, None], "b_shifted": b_vals - my[:, None],
           "fid_a": probs[:, 0], "fid_b": probs[:, 1]}
    cols = relation_sides(mx2 - mx**2, my2 - my**2, 0.5 * mp - mx * my, abs(mz),
                          sum2 + mp - (mx + my) ** 2, sum2 - mp - (mx - my) ** 2,
                          fid, lx, ly)
    cols.update(mean_a=mx, mean_b=my, mean_lz=mz, mean_lp=mp)

    # basis-dependent bounds on the plug-in state: the computational basis
    # reads Abar psi and Bbar psi themselves, centred in one stacked pass
    psi = _state_estimate(probs[:, 2], mx)
    w = np.matvec(np.array([lx.matrix, ly.matrix])[:, None], psi)
    w -= np.vecdot(psi, w, keepdims=True).real * psi
    cols["eq2"], cols["eq5"] = rhs_eq2(*w), rhs_eq5(*w)
    if opt_adjoints is not None:
        # p[i] projects Abar psi and Bbar psi onto basis i: eq2's, then eq5's
        p = np.matvec(opt_adjoints[:, None, None], w)
        cols["rhs_eq2_opt"], cols["rhs_eq5_opt"] = rhs_eq2(*p[0]), rhs_eq5(*p[1])
    return _value_table(cols).reshape(*np.shape(counts)[:-1], len(VALUE_COLUMNS))


def _propagate_sigmas(counts_flat, column_fn):
    """First-order Poisson error bars via central differences with a
    one-count step, from one ``column_fn`` call on the base vector and the
    +1 and -1 vectors of each nonzero count (a zero count adds nothing).
    ``column_fn`` maps that stack to a (vectors, columns) table, NaN where
    undefined.  Returns the base vector's value row and its error-bar row,
    both NaN where the value is undefined; a count with an undefined side
    adds nothing to that column's error bar (its NaN term is zeroed before
    the row sum, as ``np.nansum`` would, in the same order)."""
    n = np.asarray(counts_flat, dtype=float)
    nz = n.nonzero()[0]
    stack = np.full((2 * nz.size + 1, n.size), n)
    # the +1 vectors of the nonzero counts, then their -1 vectors
    stack[1:].reshape(2, nz.size, n.size)[:, np.arange(nz.size), nz] = n[nz] + [[1.0], [-1.0]]
    # one row per column, so each error bar sums along a contiguous row
    v = np.ascontiguousarray(column_fn(stack).T)
    terms = n[nz] * ((v[:, 1 : nz.size + 1] - v[:, nz.size + 1 :]) / 2.0) ** 2
    terms[np.isnan(terms)] = 0.0
    sig = np.sqrt(terms.sum(axis=-1))
    sig[np.isnan(v[:, 0])] = np.nan
    return v[:, 0], sig


def run_sweep(config: SweepConfig):
    """Evaluate the full sweep; returns (table, report, dense): the sweep
    points and the dense grid (no points without ``config.dense``), each as
    one (points, CSV_COLUMNS) float table, NaN where undefined or not
    computed.  Their ideal columns come from one kernel call."""
    lx, ly, lz, lp = builtin_spin1()
    settings = builtin_settings()
    dense_thetas = np.linspace(0.0, np.pi, config.dense + 1) if config.dense > 0 else ()
    grid = np.array(sorted(set(config.thetas) | set(dense_thetas)))
    rows = np.searchsorted(grid, config.thetas)
    grid_amps = prepare_amplitudes(grid)  # every state the sweep uses
    ideal_table = _ideal_table(grid_amps, lx, ly, lz, lp)

    # (rows, trials, 4 settings, 3 outcomes) counts from one generator
    amps = grid_amps[rows]
    probs = np.stack([projection_probabilities(amps, settings[n]) for n in SETTING_NAMES], -2)
    shape = (len(config.thetas), config.trials, 4, 3)
    counts = sample_counts(np.broadcast_to(probs[:, None], shape), config.counts, config.seed)

    table = np.full((len(config.thetas), len(CSV_COLUMNS)), np.nan)
    table[:, 0], table[:, 1] = np.arange(len(table)), config.thetas
    ideal, sampled, sigma = np.hsplit(table[:, 2:], 3)  # views into table
    ideal[:] = ideal_table[rows]
    # each row's (2, 3, 3) adjoints of its eq2 and eq5 optimal bases, from
    # one basis search per objective over all rows
    adjoints = [None] * len(table)
    if config.optimize_basis:
        states = list(map(PureState, amps))
        adjoints = np.empty((len(table), 2, 3, 3), dtype=complex)
        for i, rid in enumerate(("eq2", "eq5")):
            bases, ideal[:, VALUE_COLUMNS.index(f"rhs_{rid}_opt")], _ = optimize_bound(
                rid, states, lx, ly, OPTIMIZER)
            adjoints[:, i] = [b.matrix.conj().T for b in bases]
    # (rows, columns, trials) value and sigma tables: each mean below sums a
    # contiguous row, trials in the order they ran
    vals, sigs = np.empty((2, len(table), len(VALUE_COLUMNS), config.trials))
    for j, adj in enumerate(adjoints):
        for trial in range(config.trials):
            vals[j, :, trial], sigs[j, :, trial] = _propagate_sigmas(
                counts[j, trial].ravel(), lambda c: _sampled_columns(c, lx, ly, adj))
    # mean over the k trials that define a column and its error bar
    # sqrt(mean sigma^2 / k); a column that no trial defines stays NaN
    k = np.count_nonzero(~np.isnan(vals), axis=-1)
    with np.errstate(invalid="ignore"):
        sampled[:] = np.nansum(vals, axis=-1) / k
        sigma[:] = np.sqrt(np.nansum(sigs**2, axis=-1) / k / k)

    # dense curves cover the figure panels: ideal columns only, and the
    # optimized-basis columns are only produced for the sweep points
    n = len(grid) if config.dense > 0 else 0
    nan = np.full((n, 2 * len(VALUE_COLUMNS)), np.nan)
    dense = np.column_stack([np.arange(n), grid[:n], ideal_table[:n], nan])
    return table, build_report(table, dense), dense


def build_report(table, dense=None) -> VerificationReport:
    """The verdict on a (rows, DATA_COLUMNS) or (rows, CSV_COLUMNS) float
    table, NaN where a cell is undefined, and on the ``dense`` rows of the
    same form, if given.  Statuses (``bounds.verdicts``' names, by relation
    in the computational basis), the worst slack and the z-scores cover
    ``table``'s rows.  ``ok`` fails when any row violates a relation column,
    the optimized-basis ones included, or holds a sampled column with
    |value - ideal| / sigma > DEFAULT_Z_LIMIT, or with zero sigma and off its
    ideal value by more than the slack tolerance."""
    cells = table if dense is None else np.vstack([table, dense])
    ideal, sampled, sigma = np.hsplit(cells[:, -len(DATA_COLUMNS):], 3)
    col = dict(zip(VALUE_COLUMNS, ideal.T))
    # evaluate_all's floors for Lx and Ly (both 1); sigma = 0 takes the sum's
    floors = _slack_floors(*builtin_spin1()[:2])
    rhs = np.column_stack([col[c] for c in RELATIONS])
    relations = [RELATION_IDS.index(rid) for rid in RELATIONS.values()]
    _, margin, _, status, _ = verdicts(col, rhs, floors, relations)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (sampled - ideal) / sigma
    scored = (sigma > 0) & ~np.isnan(z)
    zero_off = (sigma == 0) & (abs(sampled - ideal) > _slack_tol(sampled, ideal, floors[1]))
    ok = not ((status == VIOLATED).any() or (abs(z[scored]) > DEFAULT_Z_LIMIT).any()
              or zero_off.any())
    n = len(table)
    names = np.array(STATUSES)[status[:n]].tolist()
    return VerificationReport(
        # each relation's status in the computational basis
        statuses=[{rid: s for (c, rid), s in zip(RELATIONS.items(), row) if not c.endswith("_opt")}
                  for row in names],
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
        for name, recs in (("sweep.csv", records), ("dense.csv", dense_records)):
            if recs:  # the sweep has rows; a run without dense rows writes no dense.csv
                written.append(_write_csv(out / name, recs))
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
            "report": asdict(report),
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
    return path


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


def verify_dataset(path):
    """Re-check a written JSON dataset, sweep and dense rows alike, with
    :func:`build_report`; returns a process exit status: 0 ok, 1 violation
    or non-finite value, 2 missing or malformed."""
    tables = _load_rows(path)
    if tables is None:
        return 2
    if any(np.isinf(t).any() for t in tables):
        return 1
    return 0 if build_report(*tables).ok else 1
